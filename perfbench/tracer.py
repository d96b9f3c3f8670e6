"""Outside-in tracing of knnfunc's layers.

The tracer wraps every function listed in each layer module's ``__all__``,
plus ``inference.run_trial`` and ``cli.run``, at every module-level name of
the package bound to it, so calls between modules are caught too.  Each call
records a span: name, layer, start, end, parent span and the id of the timed
benchmark call it belongs to.  A few functions also record work counts taken
from their arguments or results (see ``PROBES``).
"""

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np

LAYERS = ("data", "rng", "knn", "boundary", "density", "functionals",
          "tuning", "inference", "dimension", "structure", "cli")
EXTRA_NAMES = {"inference": ("run_trial",), "cli": ("run",)}


def _query_slots(args, result):
    q = np.asarray(args.get("query", args.get("queries")))
    return {"slots": (1 if q.ndim == 1 else q.shape[0]) * int(args["k"])}


def _boundary_outcome(args, result):
    return {"q": result.q_used, "n_boundary": int(result.n_boundary),
            "N": int(result.n_boundary + result.n_interior)}


PROBES = {
    "knn.knn_query": _query_slots,
    "knn.knn_radii": _query_slots,
    "boundary.detect_boundary": _boundary_outcome,
    "data.load_csv": lambda args, result: {"rows": int(result.count)},
    "dimension.anomaly_scan": lambda args, result: {"windows": len(result)},
}

# per-layer metrics derived from the spans, with their units
COUNTERS = {
    "knn.index_builds": "count",
    "knn.queries": "count",
    "knn.neighbor_slots": "count",
    "boundary.degenerate_calls": "count",
    "boundary.relabelled_frac": "ratio",
    "data.csv_rows_per_s": "1/s",
    "inference.trials": "count",
    "dimension.windows": "count",
}


class Tracer:
    """Installs span-recording wrappers into the package and removes them."""

    def __init__(self, package_name="knnfunc"):
        self.spans = []  # [name, layer, start, end, parent, call, info]
        self._stack = []
        self.call_id = None
        package = importlib.import_module(package_name)
        modules = [importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS]
        targets = {}
        for layer, module in zip(LAYERS, modules):
            names = tuple(getattr(module, "__all__", ())) + EXTRA_NAMES.get(layer, ())
            for name in names:
                func = getattr(module, name, None)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    targets[id(func)] = self._wrap(func, f"{layer}.{name}", layer)
        self.wrapped_names = sorted(w.span_name for w in targets.values())
        self._bindings = [
            (module, attr, value, targets[id(value)])
            for module in (package, *modules)
            for attr, value in vars(module).items()
            if id(value) in targets and targets[id(value)].__wrapped__ is value
        ]

    def _wrap(self, func, span_name, layer):
        probe = PROBES.get(span_name)
        signature = inspect.signature(func) if probe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [span_name, layer, 0.0, 0.0, stack[-1] if stack else None,
                    self.call_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = probe(bound.arguments, result)
            return result

        wrapper.span_name = span_name
        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path, origin):
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, layer, start, end, parent, call, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "call": call, "info": info,
                }) + "\n")


def layer_metrics(spans, rounds):
    """Per-round self time and call count of every layer, plus COUNTERS.

    A span's self time is its duration minus the durations of its children.
    Returns (metrics, total self seconds over all rounds).
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, call, info in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    sums = dict.fromkeys(("slots", "n_boundary", "N", "rows", "windows",
                          "degenerate", "csv_s", "builds", "queries", "trials"), 0.0)
    for sid, (name, layer, start, end, parent, call, info) in enumerate(spans):
        self_s[layer] += end - start - child[sid]
        calls[layer] += 1
        sums["builds"] += name == "knn.build_index"
        sums["queries"] += name in ("knn.knn_query", "knn.knn_radii")
        sums["trials"] += name == "inference.run_trial"
        if name == "data.load_csv":
            sums["csv_s"] += end - start
        if info:
            for key in ("slots", "n_boundary", "N", "rows", "windows"):
                sums[key] += info.get(key, 0)
            sums["degenerate"] += info.get("q", 0.0) >= 1.0
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / rounds
        metrics[f"{layer}.calls"] = calls[layer] / rounds
    metrics["knn.index_builds"] = sums["builds"] / rounds
    metrics["knn.queries"] = sums["queries"] / rounds
    metrics["knn.neighbor_slots"] = sums["slots"] / rounds
    metrics["boundary.degenerate_calls"] = sums["degenerate"] / rounds
    metrics["boundary.relabelled_frac"] = sums["n_boundary"] / sums["N"] if sums["N"] else 0.0
    metrics["data.csv_rows_per_s"] = sums["rows"] / sums["csv_s"] if sums["csv_s"] else 0.0
    metrics["inference.trials"] = sums["trials"] / rounds
    metrics["dimension.windows"] = sums["windows"] / rounds
    return metrics, sum(self_s.values())


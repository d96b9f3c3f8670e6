"""Datasets, deterministic splits, synthetic generators and analytic truths.

Everything downstream consumes a ``Dataset`` (a T x d matrix of finite
reals) plus a ``SampleSplit`` that partitions its rows into N evaluation
points and M density-reference points.  The generators here reproduce the
synthetic densities used by the estimation experiments: a Beta/uniform
mixture on the unit cube, the same mixture embedded in a higher-dimensional
ambient space, and block-dependent Beta mixtures for the factor-graph
comparisons.
"""

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import make_rng

__all__ = [
    "Dataset",
    "SampleSplit",
    "AnalyticDensity",
    "load_csv",
    "split",
    "sample_beta_uniform_mixture",
    "sample_projected_manifold",
    "sample_block_beta_mixture",
    "beta_uniform_mixture_density",
    "uniform_density",
    "true_functional",
]

# rows per block of an analytic density's draws: its sampler yields them a
# block at a time, and true_functional and tuning's Hessian trace evaluate
# the pdf on each block as it comes
_HESSIAN_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True)
class Dataset:
    """Immutable T x d sample matrix.

    Invariants enforced at construction: 2-d float array, at least one row
    and one column, every entry finite.
    """

    points: np.ndarray

    def __post_init__(self):
        # a private copy: freezing it leaves the caller's array writeable
        self._own(np.array(self.points, dtype=np.float64, order="C"))

    def _own(self, pts):
        """Check pts, freeze it and hold it as the points, not a copy."""
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a T x d matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint row-index sets: N evaluation points, M reference points."""

    eval_indices: np.ndarray
    ref_indices: np.ndarray

    def __post_init__(self):
        # private copies, frozen below, so the caller's arrays stay writeable
        ev = np.array(self.eval_indices, dtype=np.intp)
        rf = np.array(self.ref_indices, dtype=np.intp)
        if ev.size < 1 or rf.size < 1:
            raise ValueError("both split parts must be nonempty")
        if np.isin(ev, rf).any():
            raise ValueError("eval and reference indices overlap")
        ev.setflags(write=False)
        rf.setflags(write=False)
        object.__setattr__(self, "eval_indices", ev)
        object.__setattr__(self, "ref_indices", rf)

    @property
    def n_eval(self) -> int:
        return self.eval_indices.size

    @property
    def n_ref(self) -> int:
        return self.ref_indices.size

    def eval_points(self, data: Dataset) -> np.ndarray:
        return data.points[self.eval_indices]

    def ref_points(self, data: Dataset) -> np.ndarray:
        return data.points[self.ref_indices]


def load_csv(path, header: bool = False) -> Dataset:
    """Parse a CSV of reals into a Dataset; header=True skips line 1.

    UTF-8, LF, CRLF or CR line ends, '.' decimal separator; blank lines are
    skipped.  There is no quoting, no comment character and no '_' digit
    separator.  Raises ValueError naming the 1-based line of the file for
    ragged rows and non-numeric cells, or for an empty file.
    """
    try:
        # np.loadtxt is handed an open file, not the path: given a path it
        # would also read x.csv.gz for a missing x.csv, decompress, or fetch
        # URLs
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # a file without data rows is reported below, not warned about
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            points = _loadtxt(fh, skiprows=int(header))
    except ValueError:
        _raise_row_error(path, header)
        raise
    if points.size == 0:
        raise ValueError("empty input file")
    # loadtxt's array is no caller's, so the Dataset holds it without a copy
    data = object.__new__(Dataset)
    data._own(points)
    return data


def _loadtxt(source, skiprows: int = 0) -> np.ndarray:
    # numpy's C reader converts each cell with PyOS_string_to_double, the
    # correctly rounded routine behind float(), so the values are float()'s
    return np.loadtxt(
        source,
        delimiter=",",
        dtype=np.float64,
        ndmin=2,
        comments=None,
        encoding="utf-8",
        skiprows=skiprows,
    )


def _raise_row_error(path, header: bool) -> None:
    """Re-read a file that np.loadtxt rejected, line by line, and raise the
    error for its first bad line.  np.loadtxt counts data rows rather than
    file lines, so its own messages cannot name the line.  Each line's cells
    go through np.loadtxt too, so this path rejects exactly what it does.
    Returns if no line is bad, and the caller re-raises numpy's error."""
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip("\r\n")
            if not line:
                continue
            cells = line.count(",") + 1
            if width is None:
                width = cells
            elif cells != width:
                raise ValueError(
                    f"row {lineno}: expected {width} columns, got {cells}"
                )
            try:
                _loadtxt([line])
            except ValueError:
                raise ValueError(f"row {lineno}: non-numeric cell") from None


def split(data: Dataset, alpha_frac: float, seed: int) -> SampleSplit:
    """Uniform random partition into M = round(alpha_frac*T) reference rows
    and N = T - M evaluation rows.

    Deterministic for fixed (row order, alpha_frac, seed): indices are a
    Fisher-Yates shuffle on a Philox stream, reference part first.
    """
    T = data.count
    if T < 2:
        raise ValueError("need at least 2 rows to split")
    if not 0.0 < alpha_frac < 1.0:
        raise ValueError("alpha_frac must lie in (0, 1)")
    M = int(round(alpha_frac * T))
    M = min(max(M, 1), T - 1)
    rng = make_rng(seed, "split", T, format(alpha_frac, ".17g"))
    perm = rng.permutation(T)
    return SampleSplit(eval_indices=perm[M:], ref_indices=perm[:M])


def sample_beta_uniform_mixture(
    count: int, dim: int, a: float, b: float, eps: float, seed: int
) -> Dataset:
    """i.i.d. draws from (1-eps)*prod Beta(a,b) + eps*Uniform on [0,1]^dim."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_mixture(a, b, eps)
    rng = make_rng(seed, "beta-uniform", count, dim)
    use_uniform = rng.random(count) < eps
    beta_part = rng.beta(a, b, size=(count, dim))
    unif_part = rng.random((count, dim))
    # in place and the uniform draw freed, so beside the Dataset's own copy
    # only one sample-sized array is alive
    np.copyto(beta_part, unif_part, where=use_uniform[:, None])
    del unif_part
    return Dataset(beta_part)


def _check_mixture(a, b, eps):
    """The Beta/uniform mixture's parameters, for its sampler and its pdf."""
    if not (a > 0 and b > 0):
        raise ValueError("Beta shapes must be positive")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")


def sample_projected_manifold(
    count: int, intrinsic_dim: int, ambient_dim: int, seed: int
) -> Dataset:
    """Low-dimensional Beta(2,2)/uniform mixture embedded isometrically.

    Draws from 0.8*Beta(2,2)^(x)intrinsic_dim + 0.2*Uniform, then multiplies
    by a random ambient_dim x intrinsic_dim matrix with orthonormal columns,
    so pairwise distances are preserved exactly.
    """
    if intrinsic_dim >= ambient_dim:
        raise ValueError("intrinsic_dim must be < ambient_dim")
    base = sample_beta_uniform_mixture(count, intrinsic_dim, 2.0, 2.0, 0.2, seed)
    rng = make_rng(seed, "manifold-basis", intrinsic_dim, ambient_dim)
    gauss = rng.normal(size=(ambient_dim, intrinsic_dim))
    u, _ = np.linalg.qr(gauss)
    return Dataset(base.points @ u.T)


def sample_block_beta_mixture(count: int, block_sizes, seed: int) -> Dataset:
    """Blockwise-dependent Beta mixture for factor-graph experiments.

    Each block of columns draws a shared component label per sample, then
    fills its coordinates i.i.d. from Beta(5,2) or Beta(2,5), each with
    probability 1/2.  Columns in different blocks are independent; columns
    within a multi-column block are dependent through the shared label.
    """
    rng = make_rng(seed, "block-beta", count, tuple(block_sizes))
    cols = []
    for j, m in enumerate(block_sizes):
        pick_first = rng.random(count) < 0.5
        first = rng.beta(5.0, 2.0, size=(count, m))
        second = rng.beta(2.0, 5.0, size=(count, m))
        cols.append(np.where(pick_first[:, None], first, second))
    return Dataset(np.hstack(cols))


@dataclass(frozen=True)
class AnalyticDensity:
    """A density on [0,1]^dim of product form, (1 - eps) prod_j factor(x_j)
    + eps, with an exact sampler.

    ``factor`` is the one-dimensional density phi, applied elementwise to
    an array of coordinates; ``pdf`` maps an (n, dim) array to n density
    values, each from its own row alone.  The Beta/uniform mixture has phi
    the Beta pdf; the uniform cube has phi = 1 and eps = 0.  tuning's
    Hessian trace evaluates phi once per axis at each point and at each
    difference step, rather than the whole pdf at every shifted point.
    ``sampler`` maps (n, rng) to an iterator over (rows, dim) blocks of n
    draws, _HESSIAN_BLOCK_ROWS rows a block but the last.  The Monte Carlo
    truth oracle and the theory-constant estimators evaluate the pdf on
    each block as it comes, so no n x dim array of draws is ever alive.
    """

    dim: int
    factor: callable
    eps: float
    sampler: callable

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"density dimension must be >= 1, got {self.dim}")

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return (1 - self.eps) * np.prod(self.factor(x), axis=-1) + self.eps


def _blocks(n):
    """The row slices of n draws, _HESSIAN_BLOCK_ROWS rows at a time."""
    return (slice(start, min(start + _HESSIAN_BLOCK_ROWS, n))
            for start in range(0, n, _HESSIAN_BLOCK_ROWS))


def _draw_blocks(density: AnalyticDensity, n: int, seed: int, *tags):
    """(rows, block) for each block of the density's n draws: the block's
    row slice of the whole draw, and its draws."""
    return zip(_blocks(n), density.sampler(n, make_rng(seed, "analytic-density", *tags)))


def _beta_pdf_1d(x, a, b):
    from math import lgamma

    lognorm = lgamma(a + b) - lgamma(a) - lgamma(b)
    with np.errstate(divide="ignore"):
        out = np.exp(lognorm) * x ** (a - 1) * (1 - x) ** (b - 1)
    return out


def beta_uniform_mixture_density(
    dim: int, a: float, b: float, eps: float
) -> AnalyticDensity:
    """Analytic form of the density drawn by sample_beta_uniform_mixture."""
    _check_mixture(a, b, eps)

    def sampler(n, rng):
        # the stream holds the n choices, then the n x dim uniform draw,
        # then the n x dim Beta draw.  The uniform rows are read from a copy
        # of the generator, and the original skips past them to the Beta
        # draw, so the blocks are those of the three draws made whole
        use_uniform = rng.random(n) < eps
        uniform = copy.deepcopy(rng)
        for rows in _blocks(n):
            rng.random((rows.stop - rows.start, dim))
        for rows in _blocks(n):
            block = uniform.random((rows.stop - rows.start, dim))
            np.copyto(block, rng.beta(a, b, size=block.shape), where=~use_uniform[rows, None])
            yield block

    return AnalyticDensity(dim=dim, factor=lambda x: _beta_pdf_1d(x, a, b), eps=eps,
                           sampler=sampler)


def uniform_density(dim: int) -> AnalyticDensity:
    def sampler(n, rng):
        for rows in _blocks(n):
            yield rng.random((rows.stop - rows.start, dim))

    return AnalyticDensity(dim=dim, factor=np.ones_like, eps=0.0, sampler=sampler)


def true_functional(density: AnalyticDensity, functional, n_mc: int, seed: int):
    """Monte Carlo truth for E[g(f(X))] under the analytic density, for a
    functionals.Functional: with renyi_functional(alpha), g = u^(alpha-1)
    gives the Renyi integral, not the entropy.  Returns (estimate, standard
    error) from n_mc draws.  The pdf is evaluated on each block of draws as
    the sampler yields it, and only the n_mc pdf values are kept, then
    g of them.
    """
    if n_mc < 10_000:
        raise ValueError("n_mc must be at least 10^4")
    f = np.empty(n_mc)
    for rows, x in _draw_blocks(density, n_mc, seed, "truth", functional.id):
        f[rows] = density.pdf(x)
    vals = functional.g(f)
    del f
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_mc))

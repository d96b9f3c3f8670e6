import dataclasses
import gzip
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnfunc import (
    Dataset,
    SampleSplit,
    beta_uniform_mixture_density,
    constants_oracle,
    load_csv,
    renyi_functional,
    sample_beta_uniform_mixture,
    sample_block_beta_mixture,
    sample_projected_manifold,
    shannon_functional,
    split,
    true_functional,
    uniform_density,
)
import knnfunc.data
from knnfunc.rng import make_rng

import oracles


# -- load_csv ------------------------------------------------------------

def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0.1,0.2\n0.1,0.2\n0.1,0.2\n")
    d = load_csv(p)
    assert d.count == 3 and d.dim == 2


def test_load_csv_malformed_cell_names_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,x\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n1,2,3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(p)


def test_load_csv_empty(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(p)


def test_load_csv_reads_only_the_named_file(tmp_path):
    # no fallback to a compressed sibling, and no decompression
    gz = tmp_path / "d.csv.gz"
    gz.write_bytes(gzip.compress(b"1,2\n3,4\n"))
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "d.csv")
    with pytest.raises(ValueError):
        load_csv(gz)


def test_load_csv_telemetry_shape(tmp_path):
    # 576 samples x 11 columns, the Abilene-shaped input
    rng = np.random.default_rng(0)
    rows = rng.random((576, 11))
    p = tmp_path / "telemetry.csv"
    p.write_text("\n".join(",".join(f"{v:.6f}" for v in r) for r in rows) + "\n")
    d = load_csv(p)
    assert d.count == 576 and d.dim == 11


def test_load_csv_header_and_crlf(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"colA,colB\r\n1.5,2.5\r\n3.5,4.5\r\n")
    d = load_csv(p, header=True)
    assert d.count == 2 and d.points[0, 1] == 2.5


_CELL_FORMATS = [repr, lambda v: "%.17g" % v, lambda v: "%.6f" % v, lambda v: "%e" % v]


@st.composite
def csv_files(draw):
    """A valid CSV file's bytes, with the layouts load_csv accepts."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=rows * cols, max_size=rows * cols,
    ))
    fmt = draw(st.sampled_from(_CELL_FORMATS))
    pad = st.sampled_from(["", " ", "\t", "  \t"])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.booleans())
    lines = [",".join(f"c{j}" for j in range(cols))] if header else []
    for i in range(rows):
        lines.extend([""] * draw(st.integers(0, 2)))
        cells = values[i * cols:(i + 1) * cols]
        lines.append(",".join(draw(pad) + fmt(v) + draw(pad) for v in cells))
    text = end.join(lines) + draw(st.sampled_from(["", end, end + end]))
    return text.encode("utf-8"), header


@given(csv_files())
@example((b"1,2\n\n\n3,4\n", False))
@example((b"c0,c1\r\n\r\n 1 ,\t2\r\n3,4\r\n", True))
@example((b"1,2\r3,4\r", False))
@example((b"5\n", False))
@example((b"1\n2\n3\n", False))
@example((b"1,2,3", False))
@settings(max_examples=200, deadline=None)
def test_load_csv_equals_reference_parser(tmp_path_factory, case):
    content, header = case
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    p.write_bytes(content)
    want = oracles.reference_load_csv(p, header=header)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_csv(p, header=header).points
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@given(st.text(alphabet="0123456789.,-+eEinfa \t\r\n#x", max_size=40),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_load_csv_accepts_and_rejects_as_the_reference_parser(tmp_path_factory, text, header):
    # outside '_' separators and non-ASCII digits, which float() alone takes,
    # load_csv succeeds where the reference does and fails with its message
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    p.write_bytes(text.encode("utf-8"))

    def outcome(read):
        try:
            return "ok", read(p, header=header).points.tolist()
        except ValueError as exc:
            return "error", str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(load_csv)
    assert got == outcome(lambda path, header: Dataset(oracles.reference_load_csv(path, header)))


@pytest.mark.parametrize("content, header, message", [
    (b"1,2\n\n\n1,2,3\n", False, "row 4: expected 2 columns, got 3"),
    (b"1,2\r\n\r\n\r\n1,2,3\r\n", False, "row 4: expected 2 columns, got 3"),
    (b"1,2\r\r\r1,2,3\r", False, "row 4: expected 2 columns, got 3"),
    (b"a,b\n\n1,2\n3,x\n", True, "row 4: non-numeric cell"),
    (b"a,b\n\n1,2\n3,4,5\n", True, "row 4: expected 2 columns, got 3"),
    (b"1_0\n", False, "row 1: non-numeric cell"),
    (b"1,2\n3,4_5\n", False, "row 2: non-numeric cell"),
    (b"1,2\n   \n", False, "row 2: expected 2 columns, got 1"),
    (b"1,2,\n", False, "row 1: non-numeric cell"),
    (b"", False, "empty input file"),
    (b"\n\n\n", False, "empty input file"),
    (b"\r\n\r\n", False, "empty input file"),
    (b"a,b\n", True, "empty input file"),
    (b"a,b\n\n\n", True, "empty input file"),
])
def test_load_csv_errors_name_the_file_line(tmp_path, content, header, message):
    p = tmp_path / "d.csv"
    p.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            load_csv(p, header=header)
    assert str(info.value) == message


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.inf]]))


# -- split ---------------------------------------------------------------

def test_split_paper_sizes():
    d = Dataset(np.zeros((10_000, 1)) + np.arange(10_000)[:, None])
    sp = split(d, 0.7, seed=1)
    assert sp.n_eval == 3000 and sp.n_ref == 7000


def test_split_smallest():
    d = Dataset(np.array([[0.0], [1.0]]))
    sp = split(d, 0.5, seed=9)
    assert sp.n_eval == 1 and sp.n_ref == 1


def test_split_deterministic():
    d = Dataset(np.arange(50, dtype=float)[:, None])
    a = split(d, 0.4, seed=123)
    b = split(d, 0.4, seed=123)
    assert np.array_equal(a.eval_indices, b.eval_indices)
    assert np.array_equal(a.ref_indices, b.ref_indices)
    c = split(d, 0.4, seed=124)
    assert not np.array_equal(a.ref_indices, c.ref_indices)


def test_split_validation():
    d = Dataset(np.arange(10, dtype=float)[:, None])
    with pytest.raises(ValueError):
        split(d, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(d, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(Dataset(np.array([[1.0]])), 0.5, seed=0)


def test_split_parts_must_be_disjoint():
    SampleSplit(np.array([0, 2, 4]), np.array([1, 3]))
    # a repeat within one part is not an overlap; a shared index is
    SampleSplit(np.array([0, 0, 2]), np.array([1, 3, 3]))
    for ev, rf in (([0, 1, 2], [2, 3]), ([5], [5]), ([4, 4, 1], [0, 4, 4])):
        with pytest.raises(ValueError, match="eval and reference indices overlap"):
            SampleSplit(np.array(ev), np.array(rf))


def test_split_indices_must_be_nonnegative_integers():
    # floats are not truncated, bools not read as rows 1 and 0, and a
    # negative index cannot alias a reference row from the end past the
    # overlap check; the nonempty check comes first
    SampleSplit(np.array([0, 2], dtype=np.uint8), [1, 3])
    for ev, rf, message in (
        ([0.5, 1.7], [2, 3], "eval_indices must be integers, got dtype float64"),
        ([0, 1], [True, False], "ref_indices must be integers, got dtype bool"),
        ([0, 1], np.array([2.0, 3.0]), "ref_indices must be integers"),
        ([-3], [0, 1, 2], "eval_indices must be nonnegative"),
        ([2, 3], [0, -1], "ref_indices must be nonnegative"),
        (np.array([2**63], dtype=np.uint64), [0], "eval_indices must be nonnegative"),
        ([], [0.5], "both split parts must be nonempty"),
    ):
        with pytest.raises(ValueError, match=message):
            SampleSplit(ev, rf)
    # row ref[0] - T is row ref[0] of a T-row dataset
    sp = split(Dataset(np.random.default_rng(0).random((10, 1))), 0.5, seed=0)
    with pytest.raises(ValueError, match="eval_indices must be nonnegative"):
        SampleSplit(sp.ref_indices[:1] - 10, sp.ref_indices)


def test_dataset_and_split_leave_the_callers_arrays_writeable():
    # each freezes a private copy, so the caller can still write its own
    x = np.random.default_rng(0).random((5, 2))
    e = np.array([0, 1], dtype=np.intp)
    r = np.array([2, 3, 4], dtype=np.intp)
    data, sp = Dataset(x), SampleSplit(e, r)
    assert x.flags.writeable and e.flags.writeable and r.flags.writeable
    assert not data.points.flags.writeable
    assert not sp.eval_indices.flags.writeable and not sp.ref_indices.flags.writeable
    before = data.points.copy()
    x[0, 0], e[0], r[0] = 7.0, 4, 0
    assert np.array_equal(data.points, before)
    assert sp.eval_indices.tolist() == [0, 1] and sp.ref_indices.tolist() == [2, 3, 4]


def test_load_csv_holds_one_copy_of_the_data(tmp_path, traced_peak):
    # the Dataset takes np.loadtxt's array rather than copying it: a
    # 50,000 x 4 block mixture, as the cli-suite benchmark writes it,
    # peaked at 2.1x its data bytes when both copies were alive
    path = tmp_path / "blocks.csv"
    np.savetxt(path, sample_block_beta_mixture(50_000, [2, 1, 1], 5).points,
               fmt="%.17g", delimiter=",")
    data, peak = traced_peak(lambda: load_csv(path))
    assert data.points.shape == (50_000, 4) and not data.points.flags.writeable
    assert peak < 1.5 * data.points.nbytes


@given(
    T=st.integers(min_value=2, max_value=400),
    alpha=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_split_partition_property(T, alpha, seed):
    d = Dataset(np.arange(T, dtype=float)[:, None])
    sp = split(d, alpha, seed)
    merged = np.sort(np.concatenate([sp.eval_indices, sp.ref_indices]))
    assert np.array_equal(merged, np.arange(T))


# -- generators ----------------------------------------------------------

def test_mixture_eps_one_is_uniform():
    d = sample_beta_uniform_mixture(20_000, 2, 4, 4, 1.0, seed=5)
    se = 1.0 / math.sqrt(12 * 20_000)
    assert np.all(np.abs(d.points.mean(axis=0) - 0.5) < 4 * se)
    assert d.points.min() >= 0 and d.points.max() <= 1


def test_mixture_beta11_is_uniform_too():
    d = sample_beta_uniform_mixture(20_000, 2, 1, 1, 0.0, seed=6)
    se = 1.0 / math.sqrt(12 * 20_000)
    assert np.all(np.abs(d.points.mean(axis=0) - 0.5) < 4 * se)


def test_mixture_marginal_mean():
    a, b, T = 4.0, 2.0, 40_000
    d = sample_beta_uniform_mixture(T, 3, a, b, 0.0, seed=7)
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    se = math.sqrt(var / T)
    assert np.all(np.abs(d.points.mean(axis=0) - mean) < 4 * se)


def test_analytic_mixture_sampler_equals_the_np_where_draw():
    # the sampler yields a row block at a time, the reference draws the
    # choices, the uniforms and the Betas each in one call; a < 1 takes
    # another Beta algorithm than a >= 1
    block = knnfunc.data._HESSIAN_BLOCK_ROWS
    for a, b in ((4.0, 4.0), (0.7, 3.0), (0.3, 0.4)):
        for n in (1, 2, 17, block - 1, block, block + 1, 65_537):
            for dim, eps in ((1, 0.2), (3, 0.2), (3, 0.0), (2, 1.0)):
                dens = beta_uniform_mixture_density(dim, a, b, eps)
                blocks = list(dens.sampler(n, make_rng(n, "sampler", dim)))
                assert [len(x) for x in blocks[:-1]] == [block] * (len(blocks) - 1)
                assert 0 < len(blocks[-1]) <= block
                want = oracles.where_mixture_draw(n, dim, a, b, eps,
                                                  make_rng(n, "sampler", dim))
                assert np.array_equal(np.concatenate(blocks), want), (a, b, n, dim, eps)


def test_mixture_sample_equals_the_one_call_draw():
    # the uniform part is drawn a row block at a time, the same stream as
    # the choices, the Betas and the uniforms each drawn in one call
    block = knnfunc.data._HESSIAN_BLOCK_ROWS
    for count in (1, block, block + 1, 3 * block - 7):
        for dim, eps in ((1, 0.2), (3, 0.2), (2, 1.0)):
            rng = make_rng(9, "beta-uniform", count, dim)
            use_uniform = rng.random(count) < eps
            beta = rng.beta(4.0, 2.0, size=(count, dim))
            want = np.where(use_uniform[:, None], rng.random((count, dim)), beta)
            got = sample_beta_uniform_mixture(count, dim, 4.0, 2.0, eps, 9).points
            assert np.array_equal(got, want), (count, dim, eps)


def test_mixture_sample_holds_one_copy_of_its_draw(traced_peak):
    # the Dataset takes the sampler's array, and the uniform part comes a
    # row block at a time: the peak was 2.17x the data's bytes with a whole
    # uniform draw and a copy for the Dataset
    data, peak = traced_peak(lambda: sample_beta_uniform_mixture(100_000, 3, 4, 4, 0.2, 1))
    assert not data.points.flags.writeable
    assert peak < 1.5 * data.points.nbytes, peak / data.points.nbytes


def test_block_sample_fills_one_array(traced_peak):
    # each block's draws go into the sample's own columns: the peak was
    # 2.66x the data's bytes when the blocks were stacked at the end
    data, peak = traced_peak(lambda: sample_block_beta_mixture(50_000, [2, 1, 1], 1))
    assert not data.points.flags.writeable
    assert peak < 1.7 * data.points.nbytes, peak / data.points.nbytes


def test_block_sample_is_each_blocks_labelled_draws():
    # a shared Beta(5,2)/Beta(2,5) label per row and block, in draw order
    count, sizes = 777, [1, 3, 2]
    rng = make_rng(9, "block-beta", count, tuple(sizes))
    want = []
    for m in sizes:
        pick_first = rng.random(count) < 0.5
        first, second = rng.beta(5.0, 2.0, (count, m)), rng.beta(2.0, 5.0, (count, m))
        want.append(np.where(pick_first[:, None], first, second))
    assert np.array_equal(sample_block_beta_mixture(count, sizes, 9).points, np.hstack(want))


def test_uniform_sampler_blocks_are_one_draw():
    n = 2 * knnfunc.data._HESSIAN_BLOCK_ROWS + 5
    got = np.concatenate(list(uniform_density(3).sampler(n, make_rng(1, "uniform"))))
    assert np.array_equal(got, make_rng(1, "uniform").random((n, 3)))


def test_pdf_is_the_product_form_bit_for_bit():
    # (1 - eps) prod_j phi(x_j) + eps with phi the Beta pdf, and phi = 1 with
    # eps = 0 for the cube; rows on the faces make the a < 1 factor infinite
    x_all = make_rng(5, "product-form").random((1000, 6))
    x_all[:2] = [[0.0] * 6, [1.0, 0.0] * 3]
    for dim in range(1, 7):
        x = x_all[:, :dim]
        for a, b, eps in ((4.0, 4.0, 0.2), (0.7, 3.0, 0.2), (2.0, 5.0, 0.0)):
            with np.errstate(invalid="ignore"):
                got = beta_uniform_mixture_density(dim, a, b, eps).pdf(x)
                want = (1 - eps) * np.prod(knnfunc.data._beta_pdf_1d(x, a, b), axis=-1) + eps
            assert np.array_equal(got, want, equal_nan=True), (dim, a, b, eps)
        assert np.array_equal(uniform_density(dim).pdf(x), np.ones(len(x)))


def test_mixture_validation():
    with pytest.raises(ValueError):
        sample_beta_uniform_mixture(10, 2, -1, 4, 0.2, 0)
    with pytest.raises(ValueError):
        sample_beta_uniform_mixture(10, 2, 4, 4, 1.5, 0)
    with pytest.raises(ValueError):
        sample_beta_uniform_mixture(0, 2, 4, 4, 0.2, 0)


def test_mixture_density_checks_as_the_sampler():
    for a, b, eps, message in ((0.0, 4.0, 0.2, "Beta shapes must be positive"),
                               (4.0, -1.0, 0.2, "Beta shapes must be positive"),
                               (4.0, 4.0, 1.5, r"mixture weight must lie in \[0, 1\]"),
                               (4.0, 4.0, -0.5, r"mixture weight must lie in \[0, 1\]")):
        for make in (lambda: sample_beta_uniform_mixture(10, 2, a, b, eps, 0),
                     lambda: beta_uniform_mixture_density(2, a, b, eps)):
            with pytest.raises(ValueError, match=message):
                make()


def test_manifold_rank_one_line():
    d = sample_projected_manifold(200, 1, 2, seed=3)
    centered = d.points - d.points.mean(axis=0)
    # all points on a line: cross products of centered pairs vanish
    cross = centered[:, 0][:, None] * centered[:, 1][None, :] - centered[:, 1][:, None] * centered[:, 0][None, :]
    assert np.max(np.abs(cross)) < 1e-8


def test_manifold_preserves_distances():
    base_seed = 11
    d = sample_projected_manifold(300, 2, 5, seed=base_seed)
    # distances in the ambient space match a rank-2 representation exactly:
    # Gram matrix has (at most) 2 nonzero eigenvalues
    centered = d.points - d.points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    assert svals[2] < 1e-10 * svals[0]


def test_manifold_validation():
    with pytest.raises(ValueError):
        sample_projected_manifold(10, 3, 3, seed=0)


def test_block_mixture_shape_and_bounds():
    d = sample_block_beta_mixture(500, [1, 2, 3], seed=4)
    assert d.count == 500 and d.dim == 6
    assert d.points.min() > 0 and d.points.max() < 1


# -- analytic truths -----------------------------------------------------

def test_true_functional_uniform_shannon_zero():
    dens = uniform_density(3)
    val, se = true_functional(dens, shannon_functional(), 50_000, seed=1)
    assert abs(val) <= max(3 * se, 1e-12)


def test_true_functional_uniform_renyi_one():
    dens = uniform_density(3)
    val, se = true_functional(dens, renyi_functional(0.5), 50_000, seed=2)
    assert abs(val - 1.0) <= max(3 * se, 1e-12)


def test_true_functional_mixture_vs_quadrature():
    dens = beta_uniform_mixture_density(3, 4, 4, 0.2)
    val, se = true_functional(dens, shannon_functional(), 400_000, seed=3)
    assert abs(val - oracles.H_SHANNON_MIX) < 4 * se


@pytest.mark.parametrize("functional_id,alpha", [("shannon", None), ("renyi", 0.5)])
def test_true_functional_equals_one_pdf_call(functional_id, alpha):
    # the pdf runs a row block at a time; 20,001 rows end on a ragged block
    dens = beta_uniform_mixture_density(3, 2.0, 5.0, 0.2)
    n = 20_001
    f = dens.pdf(oracles.sample(dens, n, 4, "truth", functional_id))
    vals = -np.log(f) if alpha is None else f ** (alpha - 1.0)
    want = (float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n)))
    functional = shannon_functional() if alpha is None else renyi_functional(alpha)
    assert true_functional(dens, functional, n, 4) == want


def test_true_functional_memory_is_the_pdf_values(traced_peak):
    # the pdf values, then g of them, and a block of draws at a time: no
    # n x d array of draws, so the bound holds at any d
    dens = beta_uniform_mixture_density(6, 4, 4, 0.2)
    n = 200_000
    _, peak = traced_peak(lambda: true_functional(dens, shannon_functional(), n, 5))
    assert peak <= 2 * 8 * n + (1 << 20)


def _thousand_row_blocks(n, rng):
    """A uniform sampler whose blocks hold 1,000 rows but the last."""
    for start in range(0, n, 1000):
        yield rng.random((min(1000, n - start), 1))


def test_draws_follow_the_samplers_own_block_lengths():
    # a sampler with 1,000-row blocks gives the results of uniform_density's
    # 2^13-row blocks of the same stream, under a flat and a sloped pdf
    functional = shannon_functional()
    for factor in (np.ones_like, lambda x: 2.0 * x):
        want = dataclasses.replace(uniform_density(1), factor=factor)
        got = dataclasses.replace(want, sampler=_thousand_row_blocks)
        for n in (10_000, 20_001):
            assert true_functional(got, functional, n, 3) == true_functional(want, functional, n, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # n_mc < 1e5
                assert constants_oracle(got, functional, n, 3) == \
                    constants_oracle(want, functional, n, 3)


def test_draws_that_do_not_fit_the_density_are_rejected():
    dens = uniform_density(2)
    for sampler, message in (
        (lambda n, rng: iter([rng.random((n - 1, 2))]), "yielded 9999 draws; 10000"),
        (lambda n, rng: iter([rng.random((n, 2)), rng.random((1, 2))]),
         "yielded at least 10001 draws; 10000"),
        (lambda n, rng: iter([rng.random((n, 3))]), r"block of shape \(10000, 3\)"),
    ):
        with pytest.raises(ValueError, match=message):
            true_functional(dataclasses.replace(dens, sampler=sampler), shannon_functional(),
                            10_000, 0)


def test_true_functional_validation():
    dens = uniform_density(2)
    with pytest.raises(ValueError, match="n_mc must be at least 10"):
        true_functional(dens, shannon_functional(), 100, seed=0)


def test_mixture_pdf_integrates_to_one():
    dens = beta_uniform_mixture_density(2, 4, 4, 0.2)
    x = oracles.sample(dens, 100_000, 12, "normcheck")
    # importance identity: E_f[1/f] = volume of support = 1
    vals = 1.0 / dens.pdf(x)
    assert abs(vals.mean() - 1.0) < 4 * vals.std() / math.sqrt(len(vals))


def test_oracles_selfcheck():
    got = oracles.recompute_mixture_truths(n=80)
    assert abs(got["H_shannon"] - oracles.H_SHANNON_MIX) < 1e-7
    assert abs(got["I_renyi05"] - oracles.I_RENYI05_MIX) < 1e-7
    assert abs(got["c1_shannon"] - oracles.C1_SHANNON_MIX) < 1e-4
    assert abs(got["c4_shannon"] - oracles.C4_SHANNON_MIX) < 1e-6
    assert abs(got["c1_renyi05"] - oracles.C1_RENYI05_MIX) < 1e-4
    blk = oracles.recompute_blockmix_truths(n=200)
    assert abs(blk["H1"] - oracles.H1_BLOCKMIX) < 1e-5
    assert abs(blk["H2"] - oracles.H2_BLOCKMIX) < 1e-5

import math
import os
import queue
import signal
import struct
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkaczmarz import matrices
from qkaczmarz.errors import (
    DimensionMismatch,
    ParseError,
    UnsupportedField,
    ZeroRow,
)

rng = np.random.default_rng(1234)


def test_normalize_rows_basic():
    A = np.array([[3.0, 4.0], [0.0, 5.0]])
    N = matrices.normalize_rows(A)
    assert np.allclose(N, [[0.6, 0.8], [0.0, 1.0]])
    assert np.allclose(matrices.row_norms(A), [5.0, 5.0])


def test_normalize_rows_identity():
    N = matrices.normalize_rows(np.eye(2))
    assert np.allclose(N, np.eye(2))
    assert np.allclose(matrices.row_norms(np.eye(2)), [1.0, 1.0])


def test_normalize_rows_zero_row():
    with pytest.raises(ZeroRow) as exc:
        matrices.normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert exc.value.index == 0


def test_normalize_rows_idempotent():
    A = rng.standard_normal((7, 4))
    N1 = matrices.normalize_rows(A)
    N2 = matrices.normalize_rows(N1)
    assert np.abs(N1 - N2).max() < 1e-12
    assert np.abs(matrices.row_norms(N1) - 1.0).max() < 1e-12


def test_normalize_rows_matches_linalg_norm_and_works_in_place():
    A = rng.standard_normal((1000, 7))  # several blocks of rows
    ref = np.linalg.norm(A, axis=1)
    assert np.array_equal(matrices.row_norms(A), ref)
    N = matrices.normalize_rows(A)
    assert np.array_equal(N, A / ref[:, None])
    M = matrices.normalize_rows(A, out=A)
    assert M is A
    assert np.array_equal(M, N)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rows_rejects_non_finite_entries(bad):
    A = rng.standard_normal((300, 5))
    A[280, 3] = bad
    with pytest.raises(DimensionMismatch):
        matrices.normalize_rows(A)


@pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0), (2, 2, 2)])
def test_normalize_rows_rejects_arrays_that_are_not_nonempty_2d(shape):
    with pytest.raises(DimensionMismatch):
        matrices.normalize_rows(np.ones(shape))


def test_normalize_rows_of_huge_finite_rows_is_still_zero_row():
    # squares overflow to inf: the entries are finite, the norms are not
    A = np.full((2, 3), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ZeroRow):
        matrices.normalize_rows(A)


def test_residuals_plus_b_equals_matvec():
    A = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    b = rng.standard_normal(6)
    lhs = matrices.support_residuals(A, x, b) + b
    rhs = A @ x
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 120),
    support_frac=st.floats(0.0, 1.0),
    layout=st.sampled_from("CF"),
    scalar_b=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_residuals_match_full_matvec(m, n, support_frac, layout,
                                             scalar_b, seed):
    # |S| runs from 0 to n, across the 4|S| <= n switch and, for n >= 68,
    # across several column chunks below it
    gen = np.random.default_rng(seed)
    A = np.asarray(gen.standard_normal((m, n)), order=layout)
    x = np.zeros(n)
    S = gen.choice(n, size=round(support_frac * n), replace=False)
    x[S] = gen.standard_normal(S.size) * 10.0 ** gen.uniform(-3, 3, S.size)
    b = 0.0 if scalar_b else gen.standard_normal(m)
    r = matrices.support_residuals(A, x, b)
    ref = A @ x - b
    scale = np.abs(A) @ np.abs(x) + np.abs(b)
    assert r.shape == (m,)
    assert np.all(np.abs(r - ref) <= 1e-12 * scale)


def test_support_residuals_read_only_the_support_columns():
    A = np.asfortranarray(rng.standard_normal((30, 12)))
    x = np.zeros(12)
    x[[2, 7, 9]] = [1.0, -2.0, 0.5]      # 4 * 3 <= 12
    b = rng.standard_normal(30)
    ref = A @ x - b
    A[:, [0, 5, 11]] = np.nan            # columns outside supp x
    assert np.array_equal(np.isnan(matrices.support_residuals(A, x, b)),
                          np.zeros(30, dtype=bool))
    assert np.allclose(matrices.support_residuals(A, x, b), ref, rtol=0, atol=1e-14)
    x[[0, 1, 3]] = 1.0                   # 4 * 6 > 12: the full matvec
    assert np.isnan(matrices.support_residuals(A, x, b)).all()


# ------------------------------------------------- split dense products

# m and n at 0, 1 and 31 mod 32, and 4100x97, whose blocks once included a
# one-column tail
SPLIT_SHAPES = [(m, n) for m in (1024, 1025, 1055)
                for n in (96, 97, 127)] + [(4100, 97)]


@pytest.mark.parametrize("m, n", SPLIT_SHAPES)
def test_block_products_give_the_bits_of_one_call(m, n):
    gen = np.random.default_rng(m * n)
    A = np.asfortranarray(gen.standard_normal((m, n)))
    v = gen.standard_normal(m)
    v[gen.random(m) < 0.3] = 0.0         # as the block update's v
    x = gen.standard_normal(n)
    for transposed, vec, ref in ((True, v, v @ A), (False, x, A @ x)):
        for count in range(1, 9):
            bounds = matrices._block_bounds(ref.size, count)
            assert 1 <= len(bounds) <= count
            cuts = sorted(bounds)            # consecutive, from 0 to the end
            assert [lo for lo, _ in cuts] == [0] + [hi for _, hi in cuts[:-1]]
            assert cuts[-1][1] == ref.size
            assert all(lo % 32 == 0 for lo, _ in bounds)
            widths = [hi - lo for lo, hi in bounds]
            assert widths[0] == max(widths)
            assert len(bounds) == 1 or min(widths) >= 32
            out = np.empty(ref.shape)
            blocks = matrices._block_products(A, vec, out, transposed, count)
            for block in reversed(blocks):
                block()
            assert np.array_equal(out, ref), (transposed, count)


@pytest.fixture
def split_everything(monkeypatch):
    """_dense_product splits any column-major A, over three CPUs."""
    monkeypatch.setattr(matrices, "_MAY_SPLIT", True)
    monkeypatch.setattr(matrices, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_a_split_product_runs_on_the_pool_with_the_bits_of_one_call(
        split_everything, monkeypatch):
    threads = {}
    another = threading.Event()
    block_products = matrices._block_products

    def recording(*args):
        def on_thread(i, block):
            threads[i] = threading.get_ident()
            if len(threads) == 1:
                # the first block taken waits until another thread takes one
                assert another.wait(60.0), "no helper took a block"
            elif threads[i] != next(iter(threads.values())):
                another.set()
            block()
        return [partial(on_thread, i, b) for i, b in enumerate(block_products(*args))]

    monkeypatch.setattr(matrices, "_block_products", recording)
    A = np.asfortranarray(rng.standard_normal((700, 160)))
    v, x = rng.standard_normal(700), rng.standard_normal(160)
    assert np.array_equal(matrices._dense_product(A, v, transposed=True), v @ A)
    # five blocks of 32 columns, each taken once, by the caller's thread and
    # the pool's
    assert sorted(threads) == [0, 1, 2, 3, 4]
    assert threading.get_ident() in threads.values()
    assert len(set(threads.values())) >= 2
    assert np.array_equal(matrices._dense_product(A, x), A @ x)


def test_a_helper_that_does_not_start_leaves_its_blocks_to_the_caller(
        split_everything, monkeypatch):
    # the helpers' jobs wait in a queue no thread reads, as on a busy CPU
    jobs = queue.SimpleQueue()
    monkeypatch.setattr(matrices, "_JOBS", jobs)
    monkeypatch.setattr(matrices, "_enough_helpers", lambda count: None)
    A = np.asfortranarray(rng.standard_normal((1100, 97)))
    v, x = rng.standard_normal(1100), rng.standard_normal(97)
    ref = v @ A
    got = matrices._dense_product(A, v, transposed=True)
    assert np.array_equal(got, ref)
    assert np.array_equal(matrices._dense_product(A, x), A @ x)
    # a job per other CPU and product; run late, it finds no block left
    late = [jobs.get_nowait() for _ in range(jobs.qsize())]
    assert len(late) == 4
    got[:] = np.nan
    for job in late:
        job()
    assert np.isnan(got).all()


@pytest.mark.parametrize("shape, layout, one_thread", [
    ((2000, 100), "F", True),            # desk scale, below the threshold
    ((1100, 1000), "C", True),           # above it, but row-major
    ((1100, 1000), "F", False),          # above it, but a threaded OpenBLAS
])
def test_a_product_that_is_not_split_starts_no_thread(monkeypatch, shape,
                                                      layout, one_thread):
    def no_helpers(count):
        raise AssertionError("a product asked for helpers")

    monkeypatch.setattr(matrices, "_MAY_SPLIT", one_thread)
    monkeypatch.setattr(matrices, "_enough_helpers", no_helpers)
    A = np.asarray(rng.standard_normal(shape), order=layout)
    assert (A.size < matrices._SPLIT_MIN_ENTRIES) == (shape == (2000, 100))
    v, x = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    assert np.array_equal(matrices._dense_product(A, v, transposed=True), v @ A)
    assert np.array_equal(matrices._dense_product(A, x), A @ x)


def test_one_cpu_makes_the_single_call(split_everything, monkeypatch):
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(matrices, "_block_products", None)
    A = np.asfortranarray(rng.standard_normal((300, 70)))
    v = rng.standard_normal(300)
    assert np.array_equal(matrices._dense_product(A, v, transposed=True), v @ A)


def test_a_forked_child_splits_on_a_pool_of_its_own(split_everything):
    A = np.asfortranarray(rng.standard_normal((300, 70)))
    v = rng.standard_normal(300)
    ref = v @ A
    assert np.array_equal(matrices._dense_product(A, v, transposed=True), ref)
    assert matrices._HELPERS > 0
    pid = os.fork()
    if pid == 0:                         # the child never returns to pytest
        code = 1
        try:
            if matrices._HELPERS == 0:
                code = 0 if np.array_equal(
                    matrices._dense_product(A, v, transposed=True), ref) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split product did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# ------------------------------------------------- overlapped row normalization

def draws_of(gen, zero_row=None):
    """A draw callable for _normalized_rows: the generator's normals, in
    order, with one row of the whole matrix zeroed."""
    drawn = [0]

    def draw(out):
        gen.standard_normal(out=out)
        if zero_row is not None and 0 <= zero_row - drawn[0] < out.shape[0]:
            out[zero_row - drawn[0]] = 0.0
        drawn[0] += out.shape[0]
    return draw


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_zero_row_is_named_by_its_row_of_the_matrix(monkeypatch, cpus):
    monkeypatch.setattr(matrices, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    A = np.empty((700, 30), order="F")
    with pytest.raises(ZeroRow) as info:
        matrices._normalized_rows(A, draws_of(rng, zero_row=300), 256)
    assert info.value.index == 300       # not its row within its block


@pytest.fixture
def overlap_everything(monkeypatch):
    """_normalized_rows hands every block to a helper, as on two CPUs."""
    monkeypatch.setattr(matrices, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: {0, 1})


def watch_normalize(monkeypatch, hold):
    """Wrap normalize_rows so that a helper thread calls hold(first entry of
    its block) before it normalizes; returns (first entry, on the caller's
    thread) of every call, appended as it ends."""
    normalize = matrices.normalize_rows
    caller = threading.get_ident()
    ended = []

    def normalize_rows(block, out=None):
        first, here = block[0, 0], threading.get_ident() == caller
        try:
            if not here:
                hold(first)
            return normalize(block, out=out)
        finally:
            ended.append((first, here))

    monkeypatch.setattr(matrices, "normalize_rows", normalize_rows)
    return ended


def wait_until(done, what):
    deadline = time.monotonic() + 60.0
    while not done():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


def test_the_first_block_error_wins_once_every_taken_block_ended(
        overlap_everything, monkeypatch):
    matrices._enough_helpers(2)
    taken = threading.Event()

    def hold(first):
        if first == 1.0:                 # block 0 ends after block 1 failed
            taken.set()
            wait_until(lambda: (2.0, False) in ended, "no helper took block 1")
            time.sleep(0.05)

    ended = watch_normalize(monkeypatch, hold)
    blocks = iter([(1.0, 5), (2.0, 2)])  # blocks of ones and twos, a zero row each

    def draw(out):
        value, zero = next(blocks)
        if value == 2.0:
            assert taken.wait(60.0), "no helper took block 0"
        out[:] = value
        out[zero] = 0.0

    with pytest.raises(ZeroRow) as info:
        matrices._normalized_rows(np.empty((512, 4), order="F"), draw, 256)
    assert info.value.index == 5         # not 130, which failed first
    assert ended == [(2.0, False), (1.0, False)]


@pytest.mark.parametrize("block_zero_fails", [False, True])
def test_a_draw_that_raises_waits_for_the_block_before(overlap_everything,
                                                      monkeypatch, block_zero_fails):
    taken = threading.Event()
    ended = watch_normalize(monkeypatch, lambda first: (taken.set(), time.sleep(0.05)))
    A = np.full((512, 4), np.nan, order="F")
    drawn = []

    def draw(out):
        if drawn:
            # block 0 is on the helper, which holds it 50 ms
            assert taken.wait(60.0), "no helper took block 0"
            raise RuntimeError("draw failed")
        out[:] = 2.0
        if block_zero_fails:
            out[3] = 0.0
        drawn.append(out.shape[0])

    with pytest.raises(ZeroRow if block_zero_fails else RuntimeError) as info:
        matrices._normalized_rows(A, draw, 256)
    assert ended == [(2.0, False)]       # block 0 ended on the helper first
    if block_zero_fails:
        assert info.value.index == 3     # the lower block's error wins
        assert np.isnan(A).all()
    else:
        assert (A[:128] == 0.5).all()    # the first half block
        assert np.isnan(A[128:]).all()


def test_a_forked_child_normalizes_on_a_helper_of_its_own(overlap_everything):
    ref = matrices._normalized_rows(np.empty((600, 20), order="F"),
                                    draws_of(np.random.default_rng(3)), 256)
    assert matrices._HELPERS > 0
    pid = os.fork()
    if pid == 0:                         # the child never returns to pytest
        code = 1
        try:
            if matrices._HELPERS == 0:
                got = matrices._normalized_rows(np.empty((600, 20), order="F"),
                                                draws_of(np.random.default_rng(3)), 256)
                code = 0 if np.array_equal(got, ref) and matrices._HELPERS == 1 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's normalization did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("env, threads", [
    ({}, 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": " 2,1"}, 2),
    ({"GOTO_NUM_THREADS": "-3", "OMP_NUM_THREADS": "1x"}, 1),
])
def test_openblas_threads_reads_the_environment_as_openblas_does(monkeypatch,
                                                                 env, threads):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert matrices._openblas_threads() == threads


def test_row_norms_do_not_depend_on_layout():
    A = rng.standard_normal((600, 9))    # several blocks of rows
    ref = np.linalg.norm(A, axis=1)
    assert np.array_equal(matrices.row_norms(A), ref)
    assert np.array_equal(matrices.row_norms(np.asfortranarray(A)), ref)
    F = np.asfortranarray(A)
    N = matrices.normalize_rows(F, out=F)
    assert N is F and N.flags.f_contiguous
    assert np.array_equal(N, A / ref[:, None])


def test_mm_roundtrip_matrix(tmp_path):
    A = rng.standard_normal((5, 4))
    path = tmp_path / "a.mtx"
    matrices.mm_write(path, A)
    B = matrices.mm_read(path)
    assert np.array_equal(A, B)


def test_mm_roundtrip_vector(tmp_path):
    v = rng.standard_normal(9)
    path = tmp_path / "v.mtx"
    matrices.mm_write(path, v)
    assert np.array_equal(matrices.mm_read(path), v)


def test_mm_read_array_format(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
    )
    M = matrices.mm_read(path)
    # column-major body
    assert np.allclose(M, [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("layout", ["array general", "array symmetric",
                                    "coordinate general", "coordinate symmetric"])
def test_mm_read_returns_column_major_matrices(tmp_path, layout):
    M = rng.standard_normal((4, 4))
    if layout.endswith("symmetric"):
        M = M + M.T
    M = M.tolist()
    if layout == "array general":
        body = "4 4\n" + "".join(f"{M[i][j]!r}\n" for j in range(4) for i in range(4))
    elif layout == "array symmetric":
        body = "4 4\n" + "".join(f"{M[i][j]!r}\n" for j in range(4) for i in range(j, 4))
    else:
        cells = [(i, j) for j in range(4) for i in range(4)
                 if layout == "coordinate general" or i >= j]
        body = f"4 4 {len(cells)}\n" + "".join(
            f"{i + 1} {j + 1} {M[i][j]!r}\n" for i, j in cells)
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix {layout.replace(' ', ' real ')}\n{body}")
    out = matrices.mm_read(path)
    assert out.flags.f_contiguous
    assert np.array_equal(out, M)


def test_mm_read_coordinate_symmetric(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment\n"
        "2 2 2\n1 1 4\n2 1 7\n"
    )
    M = matrices.mm_read(path)
    assert np.allclose(M, [[4.0, 7.0], [7.0, 0.0]])


def test_mm_malformed_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket nonsense\n")
    with pytest.raises(ParseError) as exc:
        matrices.mm_read(path)
    assert exc.value.line == 1


def test_mm_unsupported_field(tmp_path):
    path = tmp_path / "cplx.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1 0\n")
    with pytest.raises(UnsupportedField):
        matrices.mm_read(path)


def test_mm_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\nxyz\n")
    with pytest.raises(ParseError) as exc:
        matrices.mm_read(path)
    assert exc.value.line == 4


def test_write_atomic_keeps_the_old_file_when_the_block_raises(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with matrices.write_atomic(path) as fh:
            fh.write("new, but cut off")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
    with matrices.write_atomic(tmp_path / "sub" / "b.txt") as fh:
        fh.write("whole\n")
    assert (tmp_path / "sub" / "b.txt").read_text() == "whole\n"
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["b.txt"]


# ------------------------------------------- Matrix Market reader: both paths

def _finite_from_bits(bits):
    value = struct.unpack("<d", struct.pack("<Q", bits))[0]
    return value if math.isfinite(value) else 0.0


# numbers as text: written by the package, in other exact forms, or by hand
_TOKENS = st.one_of(
    st.integers(0, 2**64 - 1).map(_finite_from_bits).flatmap(
        lambda v: st.sampled_from([repr(v), "%.17g" % v, "%.17E" % v])),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]).map(repr),
    st.sampled_from(["1", "-0", "1e-320", " 2.5\t", "+.5", "5.", "1E+5",
                     "\t-7 ", "1e-400"]),
)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.sampled_from([1, 1, 2, 3]),
    data=st.data(),
    newline=st.sampled_from(["\n", "\r\n"]),
    comments_before=st.integers(0, 2),
    comment_after=st.booleans(),
)
def test_mm_read_matches_float_of_every_token(tmp_path_factory, m, n, data,
                                              newline, comments_before,
                                              comment_after):
    # comments before the size line keep the C parser's path, a comment after
    # it takes the line-by-line path: both must give float()'s bits
    tokens = data.draw(st.lists(_TOKENS, min_size=m * n, max_size=m * n))
    lines = list(tokens)
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", "  ", "\t"])))
    if comment_after:
        lines.insert(data.draw(st.integers(0, len(lines))), "% note")
    head = ["%%MatrixMarket matrix array real general"]
    head += ["% comment"] * comments_before + [f"{m} {n}"]
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    path.write_bytes(newline.join(head + lines + [""]).encode())
    ref = np.array([float(t) for t in tokens]).reshape(n, m).T
    if n == 1:
        ref = ref[:, 0]
    got = matrices.mm_read(path)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    assert got.flags.f_contiguous


@pytest.mark.parametrize("body, line, message", [
    ("1.0\n2.0 3.0\n", 4, "bad numeric value '2.0 3.0'"),
    ("1.0 2.0\n", 2, "expected 2 entries, found 1"),
    ("1.0\n", 2, "expected 2 entries, found 1"),
    ("1.0\n2.0\n3.0\n", 2, "expected 2 entries, found 3"),
    ("1.0\n\nxyz\n", 5, "bad numeric value 'xyz'"),
    ("1.0\n1.5 % note\n", 4, "bad numeric value '1.5 % note'"),
    ("1.0\n1.5 # note\n", 4, "bad numeric value '1.5 # note'"),
    ("1.0\n1_5\n% note\n1.0\n", 2, "expected 2 entries, found 3"),
], ids=["two values on a line", "two values on the only line", "missing entry",
        "extra entry", "bad token", "inline % note", "inline # note",
        "comment and extra entry"])
def test_mm_read_refuses_a_malformed_body_naming_its_line(tmp_path, body, line,
                                                          message):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n2 1\n{body}")
    with pytest.raises(ParseError) as exc:
        matrices.mm_read(path)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


def test_mm_read_takes_what_float_takes(tmp_path):
    # numpy's C parser refuses `1_5` and non-ASCII digits; the line-by-line
    # reader takes them as float() does
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1_5\n٢\n")
    assert matrices.mm_read(path).tolist() == [15.0, 2.0]


def test_mm_read_takes_files_of_mm_write_through_the_c_parser(tmp_path,
                                                              monkeypatch):
    A = rng.standard_normal((40, 7))
    path = tmp_path / "a.mtx"
    matrices.mm_write(path, A)
    seen = []

    def line_by_line(txt, lineno):
        seen.append(lineno)
        return float(txt)

    monkeypatch.setattr(matrices, "_parse_value", line_by_line)
    assert np.array_equal(matrices.mm_read(path), A)
    assert seen == []
    # a comment after the size line sends the same values line by line
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["% note\n"] + lines[2:]))
    assert np.array_equal(matrices.mm_read(path), A)
    assert seen == list(range(4, 4 + A.size))


def test_mm_read_takes_symmetric_array_files_through_the_c_parser(tmp_path,
                                                                  monkeypatch):
    M = np.random.default_rng(5).standard_normal((5, 5))
    M = M + M.T
    body = "".join(f"{M.tolist()[i][j]!r}\n" for j in range(5) for i in range(j, 5))
    path = tmp_path / "s.mtx"
    path.write_text(f"%%MatrixMarket matrix array real symmetric\n5 5\n{body}")
    seen = []

    def line_by_line(txt, lineno):
        seen.append(lineno)
        return float(txt)

    monkeypatch.setattr(matrices, "_parse_value", line_by_line)
    assert np.array_equal(matrices.mm_read(path), M)
    assert seen == []
    # a comment after the size line sends the same values line by line
    path.write_text(f"%%MatrixMarket matrix array real symmetric\n5 5\n% note\n{body}")
    out = matrices.mm_read(path)
    assert np.array_equal(out, M) and out.flags.f_contiguous
    assert seen == list(range(4, 4 + 15))


@pytest.mark.parametrize("header, size", [
    ("array real general", "-1 -1"),
    ("array real general", "2 -3"),
    ("array real symmetric", "-2 -2"),
    ("coordinate real general", "-1 2 0"),
    ("coordinate real symmetric", "2 -2 1"),
    ("coordinate real general", "2 2 -1"),
], ids=["array", "array-n", "array-symmetric", "coordinate-m", "coordinate-n",
        "coordinate-nnz"])
def test_mm_read_refuses_a_negative_size_at_the_size_line(tmp_path, header, size):
    path = tmp_path / "neg.mtx"
    path.write_text(f"%%MatrixMarket matrix {header}\n% c\n{size}\n1.0\n")
    with pytest.raises(ParseError) as exc:
        matrices.mm_read(path)
    assert str(exc.value) == "line 3: negative dimensions"


@pytest.mark.parametrize("body", ["3 2 1\n3 1 1.0\n", "3 2 1\n2 1 1.0\n"],
                         ids=["entry-past-the-mirror", "entry-inside-both"])
def test_mm_read_refuses_a_non_square_symmetric_coordinate_file(tmp_path, body):
    # one mirror write would land outside the matrix, the other would build
    # a 3x2 matrix that is not symmetric: both are refused at the size line
    path = tmp_path / "sym.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{body}")
    with pytest.raises(ParseError) as exc:
        matrices.mm_read(path)
    assert str(exc.value) == "line 2: symmetric matrix must be square"


@pytest.mark.parametrize("size, body, shape", [
    ("0 3", "", (0, 3)), ("0 0", "\n  \n", (0, 0)), ("2 1", "", None),
    ("2 1", "\n\n", None)])
def test_mm_read_of_a_blank_body_warns_nothing(tmp_path, size, body, shape):
    path = tmp_path / "a.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if shape is None:
            with pytest.raises(ParseError, match="expected 2 entries, found 0"):
                matrices.mm_read(path)
        else:
            assert matrices.mm_read(path).shape == shape


def test_mm_read_and_mm_write_make_no_copy_of_the_whole_text(tmp_path):
    # the text of a 2000 x 100 A.mtx is 4.2 MB, 17 MB as a str of 4-byte
    # characters: the reader streams it and the writer formats a column at
    # a time
    A = np.asfortranarray(np.random.default_rng(3).standard_normal((2000, 100)))
    path = tmp_path / "A.mtx"
    tracemalloc.start()
    try:
        matrices.mm_write(path, A)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got = matrices.mm_read(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, A)
    assert write_peak < 1e6
    assert read_peak < 2 * A.nbytes


@pytest.fixture(scope="module")
def long_file_lines(tmp_path_factory):
    # 90 000 entries: a body longer than one chunk of numpy's parser
    A = np.random.default_rng(9).standard_normal((300, 300))
    path = tmp_path_factory.mktemp("long") / "A.mtx"
    matrices.mm_write(path, A)
    return A, path.read_text().splitlines()


def _write_lines(path, lines, newline):
    path.write_bytes(newline.join(lines + [""]).encode())


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_mm_read_of_a_long_body_names_a_bad_last_line(tmp_path, long_file_lines,
                                                      newline):
    _, lines = long_file_lines
    path = tmp_path / "bad.mtx"
    _write_lines(path, lines[:-1] + ["1.0x"], newline)
    with pytest.raises(ParseError) as exc:
        matrices.mm_read(path)
    assert str(exc.value) == "line 90002: bad numeric value '1.0x'"


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_mm_read_of_a_long_body_with_a_late_comment_reads_it_line_by_line(
        tmp_path, monkeypatch, long_file_lines, newline):
    A, lines = long_file_lines
    path = tmp_path / "note.mtx"
    # the header, the size line and 80 000 entries, then the comment
    _write_lines(path, lines[:80002] + ["% note"] + lines[80002:], newline)
    seen = []

    def line_by_line(txt, lineno):
        seen.append(lineno)
        return float(txt)

    monkeypatch.setattr(matrices, "_parse_value", line_by_line)
    got = matrices.mm_read(path)
    assert got.tobytes() == A.tobytes() and got.flags.f_contiguous
    assert len(seen) == A.size and seen[80000] == 80004


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_mm_read_takes_a_pipe_line_by_line(tmp_path):
    # a pipe cannot be read twice, so its body goes line by line
    path = tmp_path / "a.mtx"
    matrices.mm_write(path, np.arange(6.0).reshape(3, 2))
    r, w = os.pipe()
    os.write(w, path.read_bytes())  # less than a pipe holds
    os.close(w)
    try:
        got = matrices.mm_read(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert np.array_equal(got, matrices.mm_read(path))


def _written_one_value_at_a_time(obj):
    # the rule mm_write followed with one % per value
    body = obj[:, None] if obj.ndim == 1 else obj
    m, n = body.shape
    text = f"%%MatrixMarket matrix array real general\n{m} {n}\n"
    text += "".join(["%.17g\n" % v for j in range(n) for v in body[:, j].tolist()])
    return text.encode()


_EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1]


@pytest.mark.parametrize("shape, values", [
    ((1, 10), "edge"), ((10, 1), "edge"), ((10,), "edge"), ((0, 4), "edge"),
    ((4, 0), "edge"), ((7, 5), "edge"), ((30, 20), "bits"), ((1, 1), "bits"),
], ids=["1xn", "mx1", "vector", "0xn", "mx0", "mxn", "random-bits", "1x1"])
def test_mm_write_writes_the_bytes_of_one_percent_per_value(tmp_path, shape,
                                                            values):
    size = math.prod(shape)
    if values == "edge":
        obj = np.resize(np.array(_EDGE_VALUES), size).reshape(shape)
    else:
        # every 64-bit pattern, nan payloads and subnormals among them
        bits = np.random.default_rng(size).integers(0, 2**64, size, dtype=np.uint64,
                                                    endpoint=False)
        obj = bits.view(float).reshape(shape)
    path = tmp_path / "a.mtx"
    matrices.mm_write(path, obj)
    assert path.read_bytes() == _written_one_value_at_a_time(obj)
    matrices.mm_write(path, np.asfortranarray(obj))
    assert path.read_bytes() == _written_one_value_at_a_time(obj)

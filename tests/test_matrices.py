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

import math
import struct
import warnings

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

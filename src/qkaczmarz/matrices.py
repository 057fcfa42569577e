"""Dense matrix/vector helpers and Matrix Market text I/O.

Matrices are plain float64 numpy arrays (2-D); vectors are 1-D arrays.  The
package stores an instance's matrix column-major (Fortran order), as
Matrix Market array files list it, so that the columns a sparse iterate
uses are contiguous: `support_residuals` then costs O(m |supp x|) while
4 |supp x| <= n.  Every function also accepts row-major arrays.  The
validating helpers check finiteness on entry; arrays are treated as
immutable afterwards.
"""

import numpy as np

from .errors import (
    DimensionMismatch,
    ParseError,
    UnsupportedField,
    ZeroRow,
)

# Relative threshold below which a row counts as zero for normalization.
ZERO_ROW_RTOL = 1e-14
# Rows whose squares row_norms sums at a time: no temporary of A's size,
# and the same sums as np.linalg.norm(A, axis=1) of a row-major A, bit for
# bit, whatever A's layout.
_NORM_BLOCK_ROWS = 256
# Columns support_residuals gathers at a time, so its temporaries stay at
# m * _SUPPORT_CHUNK floats.
_SUPPORT_CHUNK = 16


def as_vector(v):
    """Coerce to a 1-D float64 array, checking finiteness."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("vector contains non-finite entries")
    return v


def normalize_rows(A, out=None):
    """Scale every row of A to unit Euclidean norm; returns the normalized
    matrix.

    Raises DimensionMismatch unless A is a nonempty 2-D array of finite
    entries, and ZeroRow if any row norm falls below ZERO_ROW_RTOL * max
    row norm.  A caller that owns A passes out=A to normalize it in place,
    without a second array of its size.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise DimensionMismatch(f"expected a nonempty 2-D array, got shape {A.shape}")
    scales = row_norms(A)
    # a non-finite entry makes its row's norm non-finite, so the entrywise
    # check is needed only then
    if not np.all(np.isfinite(scales)) and not np.all(np.isfinite(A)):
        raise DimensionMismatch("matrix contains non-finite entries")
    threshold = ZERO_ROW_RTOL * scales.max()
    small = np.flatnonzero(scales <= threshold)
    if small.size:
        raise ZeroRow(int(small[0]))
    return np.divide(A, scales[:, None], out=out)


def row_norms(A):
    """Euclidean norm of every row, summed over row-major copies of blocks of
    rows, so the result does not depend on A's layout."""
    sq = np.empty(A.shape[0])
    for i in range(0, A.shape[0], _NORM_BLOCK_ROWS):
        block = np.ascontiguousarray(A[i:i + _NORM_BLOCK_ROWS])
        np.add.reduce(block * block, axis=1, out=sq[i:i + _NORM_BLOCK_ROWS])
    return np.sqrt(sq)


def support_residuals(A, x, b):
    """<a_i, x> - b_i for every row, from the columns in supp x.

    While 4 |supp x| <= n only those columns are read, _SUPPORT_CHUNK at a
    time: O(m |supp x|) work, contiguous when A is column-major.  Otherwise
    it is the full A @ x - b.  b may be a scalar.  No validation: this is
    the solvers' per-iteration path.
    """
    S = x.nonzero()[0]
    if 4 * S.size > A.shape[1]:
        return A @ x - b
    # the first chunk's product starts the sum: 0 + v would be v again
    cols = S[:_SUPPORT_CHUNK]
    r = A[:, cols] @ x[cols]
    for j in range(_SUPPORT_CHUNK, S.size, _SUPPORT_CHUNK):
        cols = S[j:j + _SUPPORT_CHUNK]
        r += A[:, cols] @ x[cols]
    r -= b
    return r


# ---------------------------------------------------------------------------
# Matrix Market text exchange.
#
# A minimal reader/writer for the real-valued subset of the format:
# coordinate and array layouts, general and symmetric symmetry.  Hand-rolled
# (rather than delegating to scipy.io) so parse failures can report exact
# line numbers and so output precision is under our control.
# ---------------------------------------------------------------------------

# How the package writes a float as text: enough digits to read it back exactly.
FMT = "%.17g"


def mm_write(path, obj):
    """Write a matrix (2-D) or vector (1-D) in Matrix Market array format.

    Vectors are stored as m-by-1 arrays; mm_read restores them to 1-D.
    """
    obj = np.asarray(obj, dtype=float)
    if obj.ndim == 1:
        body = obj[:, None]
    elif obj.ndim == 2:
        body = obj
    else:
        raise DimensionMismatch(f"cannot write array of ndim {obj.ndim}")
    m, n = body.shape
    line = FMT + "\n"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{m} {n}\n")
        # Array format lists entries column by column; formatting one column
        # at a time keeps only that column's text in memory.
        for j in range(n):
            fh.write("".join([line % v for v in body[:, j].tolist()]))


def mm_read(path):
    """Read a Matrix Market file into a column-major matrix; m-by-1 arrays
    come back as 1-D vectors."""
    with open(path) as fh:
        raw = fh.readlines()
    if not raw:
        raise ParseError(1, "empty file")

    header = raw[0].split()
    if (
        len(header) != 5
        or header[0] != "%%MatrixMarket"
        or header[1].lower() != "matrix"
    ):
        raise ParseError(1, "bad header")
    layout, field, symmetry = (h.lower() for h in header[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(1, f"unknown layout {layout!r}")
    if field not in ("real", "integer"):
        raise UnsupportedField(f"field {field!r} is not supported")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedField(f"symmetry {symmetry!r} is not supported")

    # Skip comments/blank lines, remembering original line numbers.
    stripped = enumerate(map(str.strip, raw[1:]), start=2)
    data = [(i, ln) for i, ln in stripped if ln and not ln.startswith("%")]
    if not data:
        raise ParseError(len(raw), "missing size line")
    del raw  # data holds stripped copies of every line still needed

    size_lineno, size_line = data[0]
    sizes = size_line.split()
    entries = data[1:]

    if layout == "array":
        if len(sizes) != 2:
            raise ParseError(size_lineno, "array size line must be 'm n'")
        try:
            m, n = int(sizes[0]), int(sizes[1])
        except ValueError:
            raise ParseError(size_lineno, "non-integer dimensions") from None
        expected = m * n if symmetry == "general" else m * (m + 1) // 2
        if len(entries) != expected:
            raise ParseError(
                size_lineno, f"expected {expected} entries, found {len(entries)}"
            )
        if symmetry == "general":
            # the file lists the entries column by column: the column-major
            # matrix is a view of them, with no copy
            out = _parse_values(entries).reshape(n, m).T
        else:
            if m != n:
                raise ParseError(size_lineno, "symmetric matrix must be square")
            out = np.zeros((m, n), order="F")
            it = iter(entries)
            for j in range(n):
                for i in range(j, m):
                    lineno, txt = next(it)
                    out[i, j] = _parse_value(txt, lineno)
                    out[j, i] = out[i, j]
    else:
        if len(sizes) != 3:
            raise ParseError(size_lineno, "coordinate size line must be 'm n nnz'")
        try:
            m, n, nnz = (int(s) for s in sizes)
        except ValueError:
            raise ParseError(size_lineno, "non-integer dimensions") from None
        if len(entries) != nnz:
            raise ParseError(
                size_lineno, f"expected {nnz} entries, found {len(entries)}"
            )
        out = np.zeros((m, n), order="F")
        for lineno, txt in entries:
            parts = txt.split()
            if len(parts) != 3:
                raise ParseError(lineno, "coordinate entry must be 'i j value'")
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
            except ValueError:
                raise ParseError(lineno, "non-integer coordinates") from None
            if not (0 <= i < m and 0 <= j < n):
                raise ParseError(lineno, "coordinates out of range")
            val = _parse_value(parts[2], lineno)
            out[i, j] = val
            if symmetry == "symmetric" and i != j:
                out[j, i] = val

    if out.ndim == 2 and out.shape[1] == 1:
        return out[:, 0]
    return out


def _parse_values(entries):
    """All entry texts as one float array; a bad entry raises the
    ParseError of its line, as _parse_value does."""
    try:
        return np.array([txt for _, txt in entries], dtype=float)
    except ValueError:
        return np.array([_parse_value(txt, lineno) for lineno, txt in entries])


def _parse_value(txt, lineno):
    try:
        return float(txt)
    except ValueError:
        raise ParseError(lineno, f"bad numeric value {txt!r}") from None

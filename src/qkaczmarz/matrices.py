"""Dense matrix/vector helpers and Matrix Market text I/O.

Matrices are plain float64 numpy arrays (2-D); vectors are 1-D arrays.  The
package stores an instance's matrix column-major (Fortran order), as
Matrix Market array files list it, so that the columns a sparse iterate
uses are contiguous: `support_residuals` then costs O(m |supp x|) while
4 |supp x| <= n.  Every function also accepts row-major arrays.  The
validating helpers check finiteness on entry; arrays are treated as
immutable afterwards.

The two dense m x n products of an iteration, the full A @ x of
`support_residuals` and the averaged-block update A.T @ v, go through
`_dense_product`.  When OpenBLAS runs one thread and a column-major A has
at least _SPLIT_MIN_ENTRIES entries, it cuts the rows (columns) into
_BLOCKS_PER_CPU blocks per CPU the process may use, which the caller's
thread and one helper thread per other CPU take as they come free.  The
blocks give the bits of the single BLAS call, so results depend neither on
the CPU count nor on which thread computed a block.  Otherwise it makes
that single call.

`_normalized_rows` fills a new matrix with unit rows a block at a time
from a serial draw, as instance generation does.  For a matrix of at least
_SPLIT_MIN_ENTRIES entries, when the process may use more than one CPU, one
of those helper threads normalizes and stores each block while the caller
draws the next; the bytes are those of the caller doing it all.
"""

import collections
import contextlib
import os
import queue
import re
import threading
from functools import partial

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
# Entries of A from which _dense_product splits.  On a 2-vCPU Xeon at one
# BLAS thread the split A @ x broke even at 5e5 entries; at 1e6 both
# products took 20-30% less time, and at 2e5 (2000 x 100) 60-70% more.
_SPLIT_MIN_ENTRIES = 2**20
# _dense_product cuts at multiples of this many rows or columns, and no
# block is narrower: OpenBLAS then sums every entry as one call does.  A cut
# at 2 mod 4, or a one-column tail block, changes bits.
_SPLIT_ALIGN = 32
# Blocks per CPU of a split product, taken by whichever thread is free: a
# helper that wakes late, or runs on a CPU another tenant slows, leaves the
# caller at most one block to wait for.
_BLOCKS_PER_CPU = 4


def _openblas_threads():
    """The thread count OpenBLAS takes from the environment when it loads:
    the leading integer of OPENBLAS_NUM_THREADS, else of GOTO_NUM_THREADS,
    else of OMP_NUM_THREADS, the first that is positive; 0 for none, which
    OpenBLAS reads as one thread per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        lead = re.match(r"\s*[-+]?\d+", os.environ.get(name, ""))
        if lead and int(lead.group()) > 0:
            return int(lead.group())
    return 0


# A threaded OpenBLAS already spreads one call over the cores, faster than
# blocks on top of it would, so only a one-thread OpenBLAS gets the split,
# where the OS tells which CPUs the process may use.
_MAY_SPLIT = _openblas_threads() == 1 and hasattr(os, "sched_getaffinity")
# Work for the helper threads of _dense_product and _normalized_rows, and
# their count; the threads are started at the first call that needs them.
_JOBS = queue.SimpleQueue()
_HELPERS = 0
_HELPERS_LOCK = threading.Lock()


def _help():
    # a helper thread's life: the next job, forever; the jobs catch errors
    while True:
        _JOBS.get()()


def _enough_helpers(count):
    global _HELPERS
    with _HELPERS_LOCK:
        while _HELPERS < count:
            threading.Thread(target=_help, name="qkaczmarz-block", daemon=True).start()
            _HELPERS += 1


def _forget_helpers():
    """A forked child starts helpers of its own: the parent's threads do not
    exist in it, and its locks may be held by one of them."""
    global _JOBS, _HELPERS, _HELPERS_LOCK
    _JOBS, _HELPERS, _HELPERS_LOCK = queue.SimpleQueue(), 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


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
    it is the full A @ x - b, from `_dense_product`: on every CPU for a large
    A at one BLAS thread, with the bits of one call.  b may be a scalar.  No
    validation: this is the solvers' per-iteration path.
    """
    S = x.nonzero()[0]
    if 4 * S.size > A.shape[1]:
        r = _dense_product(A, x)
        r -= b
        return r
    # the first chunk's product starts the sum: 0 + v would be v again
    cols = S[:_SUPPORT_CHUNK]
    r = A[:, cols] @ x[cols]
    for j in range(_SUPPORT_CHUNK, S.size, _SUPPORT_CHUNK):
        cols = S[j:j + _SUPPORT_CHUNK]
        r += A[:, cols] @ x[cols]
    r -= b
    return r


def _dense_product(A, vec, transposed=False):
    """A @ vec, or A.T @ vec when transposed (the bits of vec @ A), with the
    bits of that one BLAS call.

    When OpenBLAS runs one thread, the process may use more than one CPU
    and a column-major A has at least _SPLIT_MIN_ENTRIES entries, the
    product is cut into _BLOCKS_PER_CPU blocks per CPU.  The caller's thread
    and one helper per other CPU each take the next block not yet taken
    until none is left, so a helper that starts late, or runs on a slower
    CPU, computes fewer blocks instead of holding up the result.  Otherwise
    it makes that one call and starts no thread.  (A row-major A is not
    split: its blocks of A.T @ v round differently.)
    """
    cpus = 1
    if _MAY_SPLIT and A.size >= _SPLIT_MIN_ENTRIES and A.flags.f_contiguous:
        cpus = len(os.sched_getaffinity(0))
    if cpus == 1:
        return vec @ A if transposed else A @ vec
    out = np.empty(A.shape[1] if transposed else A.shape[0])
    blocks = _block_products(A, vec, out, transposed, _BLOCKS_PER_CPU * cpus)
    # next() on a list iterator runs under the GIL: each block is taken once
    todo = iter(blocks)
    helped = queue.SimpleQueue()

    def help_out():
        # a helper that starts after the caller has returned finds no block
        for block in todo:
            try:
                block()
            except BaseException as exc:
                helped.put(exc)
            else:
                helped.put(None)

    helpers = min(cpus, len(blocks)) - 1
    _enough_helpers(helpers)
    for _ in range(helpers):
        _JOBS.put(help_out)
    mine = 0
    for block in todo:
        block()
        mine += 1
    # every block writes into out: all end before it is returned
    for _ in range(len(blocks) - mine):
        exc = helped.get()
        if exc is not None:
            raise exc
    return out


def _normalized_rows(A, draw, rows):
    """Fill A, of either layout, with unit rows, a block at a time: draw(out)
    fills a row-major block of at most `rows` rows with the next rows, which
    are normalized as normalize_rows does and stored into A.

    When the process may use more than one CPU and A has at least
    _SPLIT_MIN_ENTRIES entries, a helper thread normalizes and stores each
    block while the caller draws the next into the other of two buffers of
    half that height; otherwise the caller stores each block itself.  Only
    the caller draws, in order, so A has the same bytes either way.  A
    ZeroRow names its row of A.  An error is raised once no helper holds a
    block, and of several, the first block's.
    """
    m, n = A.shape
    overlap = (hasattr(os, "sched_getaffinity") and A.size >= _SPLIT_MIN_ENTRIES
               and len(os.sched_getaffinity(0)) > 1)
    # two buffers of half the rows when overlapped, so a helper takes no
    # more memory; a buffer is drawn into again only once its block is stored
    rows = -(-rows // (1 + overlap))
    ring = [np.empty((min(rows, m), n)) for _ in range(1 + overlap)]
    handed = collections.deque()    # (store once, outcome) of unsettled blocks
    errors = []

    def store(lo, block, outcome):
        try:
            A[lo:lo + block.shape[0]] = normalize_rows(block, out=block)
        except ZeroRow as exc:
            outcome.put(ZeroRow(lo + exc.index))
        except BaseException as exc:
            outcome.put(exc)
        else:
            outcome.put(None)

    def take(once):
        # next() on a list iterator runs under the GIL: a store runs once
        for job in once:
            job()

    def settle():
        # the oldest block: stored here unless a helper has taken it
        once, outcome = handed.popleft()
        take(once)
        exc = outcome.get()
        if exc is not None:
            errors.append(exc)

    if overlap:
        _enough_helpers(1)
    try:
        for k, lo in enumerate(range(0, m, rows)):
            block = ring[k % len(ring)][:m - lo]
            draw(block)
            outcome = queue.SimpleQueue()
            once = iter([partial(store, lo, block, outcome)])
            handed.append((once, outcome))
            if overlap:
                _JOBS.put(partial(take, once))
            if len(handed) == len(ring):
                settle()
            if errors:
                break
    finally:
        # every block taken ends before A is returned, or an error raised
        while handed:
            settle()
        if errors:
            raise errors[0]
    return A


def _block_products(A, vec, out, transposed, count):
    """Callables that each write one block of rows (of columns when
    transposed) of _dense_product's out, in the order of _block_bounds."""
    bounds = _block_bounds(out.shape[0], count)
    if transposed:
        return [partial(np.dot, A[:, lo:hi].T, vec, out[lo:hi]) for lo, hi in bounds]
    return [partial(np.matmul, A[lo:hi], vec, out=out[lo:hi]) for lo, hi in bounds]


def _block_bounds(length, count):
    """(lo, hi) of at most count blocks that cover range(length), the widest
    first: cut at multiples of _SPLIT_ALIGN, none narrower than it unless
    it is the only one."""
    width = _SPLIT_ALIGN * -(-length // (_SPLIT_ALIGN * count))
    starts = list(range(0, length, width))
    if len(starts) > 1 and length - starts[-1] < _SPLIT_ALIGN:
        starts.pop()    # a short tail joins its neighbour
    return sorted(zip(starts, starts[1:] + [length]), key=lambda lh: lh[0] - lh[1])


# ---------------------------------------------------------------------------
# Matrix Market text exchange.
#
# A minimal reader/writer for the real-valued subset of the format:
# coordinate and array layouts, general and symmetric symmetry.  Hand-rolled
# (rather than delegating to scipy.io) so parse failures can report exact
# line numbers and so output precision is under our control.  numpy's C
# text parser takes the body of an array file from the open file a line at
# a time, so no copy of the whole text is made.  A coordinate body, and one
# that parser refuses or reads as another shape, is read whole and line by
# line, so an error still names its line.
# ---------------------------------------------------------------------------

# How the package writes a float as text: enough digits to read it back exactly.
FMT = "%.17g"


@contextlib.contextmanager
def write_atomic(path):
    """Text handle on a new file beside path, in a directory it creates: the
    file is moved into place when the block ends and deleted if it raises,
    so path holds its old content or the whole new one, with open()'s mode."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


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
    column = (FMT + "\n") * m
    with write_atomic(path) as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{m} {n}\n")
        # Array format lists entries column by column; formatting one column
        # at a time, with one %, keeps only that column's text in memory.
        for j in range(n):
            fh.write(column % tuple(body[:, j].tolist()))


def mm_read(path):
    """Read a Matrix Market file into a column-major matrix; m-by-1 arrays
    come back as 1-D vectors.  Only a coordinate body, and an array body
    that numpy's parser refuses, are read into memory whole."""
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise ParseError(1, "empty file")
        header = header.split()
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

        # the size line is the first line that is neither blank nor a
        # comment; read by readline, so fh.tell() can mark the body's start
        size_lineno, sizes = 1, []
        while not sizes or sizes[0].startswith("%"):
            size_line = fh.readline()
            if not size_line:
                raise ParseError(size_lineno, "missing size line")
            size_lineno += 1
            sizes = size_line.split()

        if layout == "array":
            m, n = _dims(sizes, 2, size_lineno, "array size line must be 'm n'")
            expected = m * n if symmetry == "general" else m * (m + 1) // 2
            # numpy's C parser, else line by line
            values = _c_parsed(fh, expected)
            lines = () if values is not None else _entries(
                fh.read(), size_lineno, expected)
        else:
            m, n, nnz = _dims(sizes, 3, size_lineno,
                              "coordinate size line must be 'm n nnz'")
            lines = _entries(fh.read(), size_lineno, nnz)
    # either layout checks the entry count before the shape, the values after
    if symmetry == "symmetric" and m != n:
        raise ParseError(size_lineno, "symmetric matrix must be square")
    if layout == "array":
        if values is None:
            values = np.array([_parse_value(txt, lineno) for lineno, txt in lines])
        if symmetry == "general":
            # the file lists the entries column by column: the column-major
            # matrix is a view of them, with no copy
            out = values.reshape(n, m).T
        else:
            # the lower triangle column by column, mirrored
            out = np.zeros((m, n), order="F")
            j, i = np.triu_indices(n)
            out[i, j] = values
            out[j, i] = values
    else:
        out = np.zeros((m, n), order="F")
        for lineno, txt in lines:
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

    if out.shape[1] == 1:
        return out[:, 0]
    return out


def _dims(sizes, count, lineno, message):
    """The count nonnegative integers of a size line."""
    if len(sizes) != count:
        raise ParseError(lineno, message)
    try:
        dims = [int(s) for s in sizes]
    except ValueError:
        raise ParseError(lineno, "non-integer dimensions") from None
    if min(dims) < 0:
        raise ParseError(lineno, "negative dimensions")
    return dims


def _entries(body, size_lineno, expected):
    """(line number, stripped text) of every line of the body after the
    size line that is neither blank nor a comment; there must be expected."""
    stripped = enumerate(map(str.strip, body.split("\n")), start=size_lineno + 1)
    entries = [(i, ln) for i, ln in stripped if ln and not ln.startswith("%")]
    if len(entries) != expected:
        raise ParseError(
            size_lineno, f"expected {expected} entries, found {len(entries)}"
        )
    return entries


def _c_parsed(fh, count):
    """The values of the rest of the text file fh from numpy's C parser, which
    takes it a line at a time, if it is count lines of one number each,
    between blank lines only; otherwise None, with fh back where it was.
    That parser refuses a `%` anywhere, so a comment line is left to the
    line-by-line reader, as is a blank rest, on which np.loadtxt warns, and
    the rest of a pipe, which cannot be read twice."""
    if not fh.seekable():
        return None
    start = fh.tell()
    if any(map(str.strip, iter(fh.readline, ""))):  # up to the first entry
        fh.seek(start)
        with contextlib.suppress(ValueError):
            values = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
            if values.shape == (count, 1):
                return values[:, 0]
    fh.seek(start)
    return None


def _parse_value(txt, lineno):
    try:
        return float(txt)
    except ValueError:
        raise ParseError(lineno, f"bad numeric value {txt!r}") from None

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
`_dense_product`.  Importing this module sets the loaded OpenBLAS to one
thread.  A column-major A of at least _SPLIT_MIN_ENTRIES entries is then
cut into _BLOCKS_PER_CPU blocks of rows (columns) per CPU the process may
use, with the bits of the single call: results depend on neither the CPU
count nor OpenBLAS's starting thread count.  Otherwise, or with no OpenBLAS
thread setter, it makes the single call.  `_normalized_rows` fills a new
matrix with unit rows a block at a time from a serial draw; on more than
one CPU, a helper stores each block of a large one while the caller draws
the next, with the bytes of the caller doing it all.

Both hand their blocks out through `_hand_out`: each runs once, on the
caller or on the helper thread (one per other CPU) that takes it first; the
caller runs those no helper took, and the first block's error is raised
once all have ended.
"""

import contextlib
import ctypes
import os
import queue
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
# Entries of A from which _dense_product splits.  On a 2-vCPU Xeon the split
# A @ x broke even at 5e5; at 1e6 both took 20-30% less, at 2e5 60-70% more.
_SPLIT_MIN_ENTRIES = 2**20
# _dense_product cuts at multiples of this many rows or columns, and no
# block is narrower: OpenBLAS then sums every entry as one call does.  A cut
# at 2 mod 4, or a one-column tail block, changes bits.
_SPLIT_ALIGN = 32
# Blocks per CPU of a split product, taken by whichever thread is free: a
# helper that wakes late, or runs on a CPU another tenant slows, leaves the
# caller at most one block to wait for.
_BLOCKS_PER_CPU = 4


def _one_openblas_thread(maps="/proc/self/maps"):
    """Set each OpenBLAS that the memory map file `maps` names to one thread;
    whether one exported a thread setter."""
    try:
        with open(maps) as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return False
    found = False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # not a library, or deleted since it was loaded
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name)(1)
                found = True
    return found


_MAY_SPLIT = _one_openblas_thread() and hasattr(os, "sched_getaffinity")
# Work for the helper threads, which only _hand_out gives, and their count;
# the threads are started at the first hand-out that needs them.
_JOBS = queue.SimpleQueue()
_HELPERS = 0
_HELPERS_LOCK = threading.Lock()


def _help(jobs):
    # a helper's life: the next job of the queue it was started for, forever
    while True:
        jobs.get()()


def _enough_helpers(count):
    global _HELPERS
    with _HELPERS_LOCK:
        while _HELPERS < count:
            threading.Thread(target=_help, args=(_JOBS,), name="qkaczmarz-block",
                             daemon=True).start()
            _HELPERS += 1


def _forget_helpers():
    """A forked child starts helpers of its own: the parent's threads do not
    exist in it, and its locks may be held by one of them."""
    global _JOBS, _HELPERS, _HELPERS_LOCK
    _JOBS, _HELPERS, _HELPERS_LOCK = queue.SimpleQueue(), 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def _hand_out(jobs, helpers):
    """Offer the callables `jobs` to `helpers` helper threads and return
    finish(), which runs on the caller every job no helper has taken, waits
    until every job has ended, and returns the error of the first job that
    raised, in the order of jobs, or None.  Each job runs once."""
    # next() on it runs under the GIL: each job is taken once
    todo = enumerate(jobs)
    errors = [None] * len(jobs)
    ended = queue.SimpleQueue()

    def work():
        # a helper that starts after finish() has returned finds no job
        for i, job in todo:
            try:
                job()
            except BaseException as exc:
                errors[i] = exc
            ended.put(None)

    if helpers:
        _enough_helpers(helpers)
        for _ in range(helpers):
            _JOBS.put(work)

    def finish():
        work()
        for _ in jobs:
            ended.get()
        return next(filter(None, errors), None)
    return finish


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
    it is the full A @ x - b, from `_dense_product`.  b may be a scalar.  No
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

    When OpenBLAS is held at one thread, the process may use more than one
    CPU and a column-major A has at least _SPLIT_MIN_ENTRIES entries, the
    product is cut into _BLOCKS_PER_CPU blocks per CPU, each taken by the
    caller or one helper per other CPU as it comes free; otherwise one call,
    and no thread.  (A row-major A's blocks of A.T @ v round differently.)
    """
    cpus = 1
    if _MAY_SPLIT and A.size >= _SPLIT_MIN_ENTRIES and A.flags.f_contiguous:
        cpus = len(os.sched_getaffinity(0))
    if cpus == 1:
        return vec @ A if transposed else A @ vec
    out = np.empty(A.shape[1] if transposed else A.shape[0])
    blocks = _block_products(A, vec, out, transposed, _BLOCKS_PER_CPU * cpus)
    # every block writes into out: all end before it is returned
    if exc := _hand_out(blocks, min(cpus, len(blocks)) - 1)():
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
    the caller draws, in order, so A has the same bytes either way.  An
    error is that of the first block that failed, or the draw's; a ZeroRow
    names its row of A.
    """
    m, n = A.shape
    overlap = (hasattr(os, "sched_getaffinity") and A.size >= _SPLIT_MIN_ENTRIES
               and len(os.sched_getaffinity(0)) > 1)
    # two buffers of half the rows when overlapped, so a helper takes no
    # more memory; a buffer is drawn into again only once its block is stored
    rows = -(-rows // (1 + overlap))
    ring = [np.empty((min(rows, m), n)) for _ in range(1 + overlap)]
    handed = []     # finish() of each block not yet settled, oldest first
    first = None    # the error of the first block that failed, once settled

    def store(lo, block):
        try:
            A[lo:lo + block.shape[0]] = normalize_rows(block, out=block)
        except ZeroRow as exc:
            raise ZeroRow(lo + exc.index) from None

    try:
        for k, lo in enumerate(range(0, m, rows)):
            block = ring[k % len(ring)][:m - lo]
            draw(block)
            handed.append(_hand_out([partial(store, lo, block)], overlap))
            # the oldest block: stored here unless a helper has taken it
            if len(handed) == len(ring) and (first := handed.pop(0)()):
                break
    finally:
        # every block taken ends before A is returned, or an error raised
        errors = [first] + [finish() for finish in handed]
        if any(errors):
            raise next(filter(None, errors))
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
# reader takes the body of an array file again by the file's name, in
# chunks, so no copy of the whole text is made.  A coordinate body, and one
# that reader refuses or reads as another shape, is read whole and line by
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
    that numpy's reader refuses, are read into memory whole."""
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
            # numpy's C reader, else line by line
            values = _c_parsed(fh, size_lineno, expected)
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


def _c_parsed(fh, skip, count):
    """The values after the first `skip` lines of the text file fh, read by
    name by numpy's chunked C reader, if they are count lines of one number
    each between blank lines; otherwise None, with fh back where it was.
    A comment line (that reader refuses `%`), a blank rest (np.loadtxt
    warns), a pipe, a name np.loadtxt decompresses and a name now given to
    another file are left to the line-by-line reader."""
    if not (fh.seekable() and isinstance(fh.name, str)) or \
            fh.name.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    start, values = fh.tell(), None
    if any(map(str.strip, iter(fh.readline, ""))):  # up to the first entry
        path = os.path.abspath(fh.name)
        with contextlib.suppress(ValueError, OSError):
            parsed = np.loadtxt(path, dtype=float, comments=None, ndmin=2,
                                skiprows=skip)
            if parsed.shape == (count, 1) and os.path.samestat(
                    os.fstat(fh.fileno()), os.stat(path)):
                values = parsed[:, 0]
    fh.seek(start)
    return values


def _parse_value(txt, lineno):
    try:
        return float(txt)
    except ValueError:
        raise ParseError(lineno, f"bad numeric value {txt!r}") from None

"""Synthetic and file-based problem instances.

An instance bundles a row-normalized matrix A, stored column-major, the
clean right-hand side b_clean = A x_hat, sparse corruption b_corrupt, dense
bounded noise, and the observed b = b_clean + b_corrupt + noise.
Generation is fully determined by the seed; random draws always happen in
the fixed order: matrix entries, support, support values, corruption
indices, corruption values, noise.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import matrices
from .errors import DimensionMismatch, InvalidBundle, SpecInvalid

# Rows of the Gaussian matrix drawn and normalized at a time.
_DRAW_BLOCK_ROWS = 256


@dataclass(frozen=True)
class GeneratorSpec:
    m: int
    n: int
    sparsity: int
    beta: float = 0.0
    corruption_scale: float = 0.0
    noise_bound: float = 0.0
    seed: int = 0

    def validate(self):
        if self.m < 1 or self.n < 1:
            raise SpecInvalid("m and n must be positive")
        if not 0 <= self.sparsity <= self.n:
            raise SpecInvalid("sparsity must lie in [0, n]")
        _check_corruption(self.beta, self.corruption_scale, self.noise_bound)


def _check_corruption(beta, corruption_scale, noise_bound):
    """The corruption model's rule: beta in [0, 1), finite nonnegative scales."""
    if not 0.0 <= beta < 1.0:
        raise SpecInvalid(f"beta must lie in [0, 1), got {beta}")
    for name, value in (("corruption scale", corruption_scale),
                        ("noise bound", noise_bound)):
        if not (math.isfinite(value) and value >= 0):
            raise SpecInvalid(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ProblemInstance:
    A: np.ndarray                    # unit rows
    b_clean: np.ndarray
    b_corrupt: np.ndarray
    noise: np.ndarray
    b_observed: np.ndarray
    x_hat: np.ndarray | None
    beta: float
    corruption_scale: float
    noise_bound: float
    seed: int
    corruption_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


def generate_gaussian(spec):
    """Gaussian model: i.i.d. N(0,1) entries, rows normalized afterwards.

    The ground truth has `sparsity` standard-normal nonzeros on a uniform
    random support; corruption adds U(-k, k) values on round(beta*m) rows
    picked without replacement; noise is U(-noise_bound, noise_bound) on
    every entry.
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    # Drawing row blocks in turn takes the same values from the stream as one
    # (m, n) draw.  Each block is normalized in place while it is row-major
    # and cache-resident, then copied into the column-major A, so A is
    # written once and never read back.
    A = np.empty((spec.m, spec.n), order="F")
    for i in range(0, spec.m, _DRAW_BLOCK_ROWS):
        block = rng.standard_normal((min(_DRAW_BLOCK_ROWS, spec.m - i), spec.n))
        A[i:i + _DRAW_BLOCK_ROWS] = matrices.normalize_rows(block, out=block)
    support = np.sort(rng.choice(spec.n, size=spec.sparsity, replace=False))
    x_hat = np.zeros(spec.n)
    x_hat[support] = rng.standard_normal(spec.sparsity)
    b_clean = matrices.support_residuals(A, x_hat, 0.0)
    return _corrupt_and_pack(A, b_clean, x_hat, spec.beta, spec.corruption_scale,
                             spec.noise_bound, spec.seed, rng)


def _corrupt_and_pack(A, b_clean, x_hat, beta, k, noise_bound, seed, rng):
    m = A.shape[0]
    n_corrupt = int(round(beta * m))
    corrupt_idx = np.sort(rng.choice(m, size=n_corrupt, replace=False))
    b_corrupt = np.zeros(m)
    b_corrupt[corrupt_idx] = rng.uniform(-k, k, size=n_corrupt)
    noise = rng.uniform(-noise_bound, noise_bound, size=m)
    return ProblemInstance(
        A=A,
        b_clean=b_clean,
        b_corrupt=b_corrupt,
        noise=noise,
        b_observed=b_clean + b_corrupt + noise,
        x_hat=x_hat,
        beta=beta,
        corruption_scale=k,
        noise_bound=noise_bound,
        seed=seed,
        corruption_indices=corrupt_idx,
    )


def from_files(matrix_path, x_hat_path, beta=0.0, corruption_scale=0.0,
               noise_bound=0.0, seed=0):
    """Build an instance from a Matrix Market matrix and ground truth.

    A is row-normalized and b_clean = A @ x_hat.  Corruption and noise are
    injected exactly as in the Gaussian generator, drawing from PCG64(seed).
    """
    _check_corruption(beta, corruption_scale, noise_bound)
    A_raw = _read_matrix(matrix_path)
    # mm_read returns a column-major array of its own: normalize it in place
    A = matrices.normalize_rows(A_raw, out=A_raw)
    x_hat = matrices.mm_read(x_hat_path)
    if x_hat.shape != (A.shape[1],) or not np.all(np.isfinite(x_hat)):
        raise DimensionMismatch(f"ground truth must hold {A.shape[1]} finite values, "
                                f"one per column, got shape {x_hat.shape}")
    b_clean = matrices.support_residuals(A, x_hat, 0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _corrupt_and_pack(A, b_clean, x_hat, beta, corruption_scale,
                             noise_bound, seed, rng)


def _read_matrix(path):
    """The m x n matrix a Matrix Market file declares; mm_read returns an
    m x 1 file as a vector."""
    A = matrices.mm_read(path)
    return A if A.ndim == 2 else A[:, None]


# ---------------------------------------------------------------------------
# On-disk bundles: a directory of Matrix Market files plus meta.txt.
# ---------------------------------------------------------------------------

# Relative tolerance of load_bundle's sum and unit-row checks.
_BUNDLE_RTOL = 1e-10

_BUNDLE_FILES = {
    "A": "A.mtx",
    "b_clean": "bclean.mtx",
    "b_corrupt": "bcorrupt.mtx",
    "noise": "noise.mtx",
    "b_observed": "b.mtx",
}
# The float fields of meta.txt, in the order save_bundle writes them.
_META_SCALARS = ("beta", "corruption_scale", "noise_bound")


def save_bundle(instance, out_dir):
    """Write an instance as Matrix Market files plus a key=value meta.txt,
    which goes last, after any old one is deleted: a bundle whose writing
    was cut off has no meta.txt, and load_bundle refuses it."""
    for path in (os.path.join(out_dir, "meta.txt"), os.path.join(out_dir, "xhat.mtx")):
        if os.path.exists(path):
            os.unlink(path)
    for attr, fname in _BUNDLE_FILES.items():
        matrices.mm_write(os.path.join(out_dir, fname), getattr(instance, attr))
    if instance.x_hat is not None:
        matrices.mm_write(os.path.join(out_dir, "xhat.mtx"), instance.x_hat)
    meta = {key: matrices.FMT % getattr(instance, key) for key in _META_SCALARS}
    meta["seed"] = str(instance.seed)
    meta["corruption_indices"] = ",".join(str(i) for i in instance.corruption_indices)
    with matrices.write_atomic(os.path.join(out_dir, "meta.txt")) as fh:
        fh.writelines(f"{key}={val}\n" for key, val in meta.items())


def load_bundle(in_dir):
    """Inverse of save_bundle; reproduces b_observed exactly.

    Raises InvalidBundle unless meta.txt exists and holds every key
    save_bundle writes, every entry is finite, the lengths agree,
    b_observed = b_clean + b_corrupt + noise to rounding, the corruption
    indices are distinct rows of A and every row of A has unit norm.
    """
    try:
        with open(os.path.join(in_dir, "meta.txt")) as fh:
            # key=value lines: (key, value) from each line's partition
            meta = dict(line.strip().partition("=")[::2] for line in fh if line.strip())
        idx_txt = meta["corruption_indices"]
        corrupt_idx = np.array([int(t) for t in idx_txt.split(",")] if idx_txt else [],
                               dtype=int)
        scalars = {key: float(meta[key]) for key in _META_SCALARS}
        seed = int(meta["seed"])
    except FileNotFoundError:
        raise InvalidBundle(f"{in_dir}: no meta.txt, which save_bundle writes "
                            "last: the bundle is missing or incomplete") from None
    except KeyError as exc:
        raise InvalidBundle(f"{in_dir}: meta.txt has no {exc.args[0]} key") from None
    except ValueError as exc:
        raise InvalidBundle(f"{in_dir}: meta.txt: {exc}") from None
    parts = {
        attr: (_read_matrix if attr == "A" else matrices.mm_read)(
            os.path.join(in_dir, fname))
        for attr, fname in _BUNDLE_FILES.items()
    }
    xhat_path = os.path.join(in_dir, "xhat.mtx")
    x_hat = matrices.mm_read(xhat_path) if os.path.exists(xhat_path) else None
    instance = ProblemInstance(x_hat=x_hat, seed=seed, corruption_indices=corrupt_idx,
                               **parts, **scalars)
    _check_bundle(instance, in_dir)
    return instance


def _check_bundle(inst, in_dir):
    def fail(what):
        raise InvalidBundle(f"{in_dir}: {what}")

    A = inst.A
    if A.size == 0:
        fail("A.mtx does not hold a nonempty matrix")
    m, n = A.shape
    vectors = {attr: getattr(inst, attr) for attr in _BUNDLE_FILES if attr != "A"}
    for attr, v in vectors.items():
        if v.shape != (m,):
            fail(f"{_BUNDLE_FILES[attr]} has shape {v.shape}, expected ({m},)")
    if inst.x_hat is not None and inst.x_hat.shape != (n,):
        fail(f"xhat.mtx has shape {inst.x_hat.shape}, expected ({n},)")
    for attr in ("A", "x_hat", *vectors):
        v = getattr(inst, attr)
        if v is not None and not np.all(np.isfinite(v)):
            fail(f"{_BUNDLE_FILES.get(attr, 'xhat.mtx')} has non-finite entries")
    parts_sum = inst.b_clean + inst.b_corrupt + inst.noise
    scale = 1.0 + max(np.abs(v).max() for v in vectors.values())
    if np.abs(inst.b_observed - parts_sum).max() > _BUNDLE_RTOL * scale:
        fail("b.mtx is not bclean.mtx + bcorrupt.mtx + noise.mtx")
    idx = inst.corruption_indices
    if idx.size and (idx.min() < 0 or idx.max() >= m or np.unique(idx).size != idx.size):
        fail("corruption_indices must be distinct rows of A")
    if np.abs(matrices.row_norms(A) - 1.0).max() > _BUNDLE_RTOL:
        fail("the rows of A do not have unit norm")

import os
import sys

import numpy as np
import pytest

from qkaczmarz import instances, matrices
from qkaczmarz.errors import DimensionMismatch, InvalidBundle, SpecInvalid

rng = np.random.default_rng(11)


def make_spec(**kw):
    base = dict(m=100, n=20, sparsity=5, beta=0.2, corruption_scale=100.0,
                noise_bound=0.02, seed=7)
    base.update(kw)
    return instances.GeneratorSpec(**base)


def test_same_seed_is_bit_exact():
    a = instances.generate_gaussian(make_spec())
    b = instances.generate_gaussian(make_spec())
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b_observed, b.b_observed)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.corruption_indices, b.corruption_indices)


def overlap_on(monkeypatch, cpus):
    """Generation of any size stores its rows on a helper, as on `cpus` CPUs."""
    monkeypatch.setattr(matrices, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: set(range(cpus)))


# serial: the shapes as drawn on one thread; overlapped: row counts at and
# around the 256-row block and the 128-row half block, each stored on a
# helper as on 2 and 3 CPUs
@pytest.mark.parametrize("m, n, cpus", [
    *(pytest.param(m, n, None, id=f"{m}-{n}")
      for m, n in [(100, 20), (600, 7), (257, 40), (3, 1)]),
    *(pytest.param(m, 33, cpus, id=f"{m}-33-{cpus}cpus")
      for cpus in (2, 3) for m in (1, 128, 129, 255, 256, 257, 600, 2049)),
])
def test_generated_matrix_is_column_major_and_bit_identical(monkeypatch, m, n, cpus):
    # the blockwise draw into a column-major A takes the same stream values
    # as one (m, n) draw and normalizes each row with the same sums
    if cpus:
        overlap_on(monkeypatch, cpus)
    inst = instances.generate_gaussian(make_spec(m=m, n=n, sparsity=1, seed=9))
    rng_ref = np.random.Generator(np.random.PCG64(9))
    ref = matrices.normalize_rows(rng_ref.standard_normal((m, n)))
    assert inst.A.flags.f_contiguous
    assert np.ascontiguousarray(inst.A).tobytes() == ref.tobytes()
    # the later draws start where one (m, n) draw leaves the stream
    support = np.sort(rng_ref.choice(n, size=1, replace=False))
    assert np.flatnonzero(inst.x_hat).tolist() == support.tolist()


def test_overlapped_generations_repeat_the_serial_bytes(monkeypatch):
    # a buffer drawn into again before its rows are stored would change A,
    # on some runs only; more helpers than cores, switching threads often
    spec = make_spec(m=3000, n=200, sparsity=10, seed=4)
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: {0})
    ref = instances.generate_gaussian(spec)
    overlap_on(monkeypatch, 2)
    matrices._enough_helpers(os.cpu_count() + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(30):
            inst = instances.generate_gaussian(spec)
            assert inst.A.tobytes("A") == ref.A.tobytes("A")
            assert inst.b_observed.tobytes() == ref.b_observed.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape, cpus", [((2000, 100), 2), ((3000, 400), 1)])
def test_generation_below_the_threshold_or_on_one_cpu_asks_for_no_helper(
        monkeypatch, shape, cpus):
    def no_helpers(count):
        raise AssertionError("generation asked for helpers")

    monkeypatch.setattr(matrices, "_enough_helpers", no_helpers)
    monkeypatch.setattr(matrices, "_JOBS", None)
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    m, n = shape
    assert (m * n >= matrices._SPLIT_MIN_ENTRIES) == (cpus == 1)
    inst = instances.generate_gaussian(make_spec(m=m, n=n, seed=2))
    ref = matrices.normalize_rows(
        np.random.Generator(np.random.PCG64(2)).standard_normal((m, n)))
    assert np.ascontiguousarray(inst.A).tobytes() == ref.tobytes()


def test_clean_instance_observed_equals_clean():
    inst = instances.generate_gaussian(make_spec(beta=0.0, corruption_scale=0.0,
                                                 noise_bound=0.0))
    assert np.array_equal(inst.b_observed, inst.b_clean)


def test_counting_contract():
    inst = instances.generate_gaussian(make_spec())
    assert np.count_nonzero(inst.x_hat) == 5
    assert inst.corruption_indices.size == round(0.2 * 100)


def test_observed_is_exact_sum():
    inst = instances.generate_gaussian(make_spec())
    assert np.array_equal(inst.b_observed, inst.b_clean + inst.b_corrupt + inst.noise)


def test_unit_rows_and_feasible_ground_truth():
    inst = instances.generate_gaussian(make_spec(beta=0.0, corruption_scale=0.0,
                                                 noise_bound=0.0))
    assert np.abs(np.linalg.norm(inst.A, axis=1) - 1.0).max() < 1e-12
    res = inst.A @ inst.x_hat - inst.b_observed
    assert np.abs(res).max() < 1e-10


def test_noise_and_corruption_bounds():
    inst = instances.generate_gaussian(make_spec())
    assert np.abs(inst.noise).max() <= 0.02
    assert np.abs(inst.b_corrupt).max() <= 100.0


def test_noise_bound_zero_same_stream_as_earlier_stages():
    # shrinking the noise bound must not shift earlier draws
    a = instances.generate_gaussian(make_spec(noise_bound=0.0))
    b = instances.generate_gaussian(make_spec(noise_bound=0.02))
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.b_corrupt, b.b_corrupt)


def test_corruption_mean_smoke():
    inst = instances.generate_gaussian(make_spec(m=2000, n=10, sparsity=3,
                                                 beta=0.3, corruption_scale=50.0))
    vals = inst.b_corrupt[inst.corruption_indices]
    assert abs(vals.mean()) <= 3 * 50.0 / np.sqrt(0.3 * 2000)


def test_spec_invalid():
    with pytest.raises(SpecInvalid):
        instances.GeneratorSpec(m=10, n=5, sparsity=9).validate()
    with pytest.raises(SpecInvalid):
        instances.GeneratorSpec(m=10, n=5, sparsity=2, beta=1.0).validate()


def test_corruption_mask_and_detection():
    # round(beta m) distinct rows, ascending, carry the corruption and no
    # other row does
    inst = instances.generate_gaussian(make_spec())
    idx = inst.corruption_indices
    assert idx.size == 20
    assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < inst.m
    clean = np.setdiff1d(np.arange(inst.m), idx)
    assert clean.size == 80
    assert np.all(inst.b_corrupt[clean] == 0.0)
    assert np.all(inst.b_corrupt[idx] != 0.0)
    assert np.all(np.abs(inst.b_corrupt[idx]) <= 100.0)


def test_corruption_mask_empty_when_beta_zero():
    inst = instances.generate_gaussian(make_spec(beta=0.0))
    assert inst.corruption_indices.size == 0
    assert np.all(inst.b_corrupt == 0.0)


def test_from_files_pipeline(tmp_path):
    A = rng.standard_normal((4, 3)) * 2.0
    x_hat = rng.standard_normal(3)
    matrices.mm_write(tmp_path / "A.mtx", A)
    matrices.mm_write(tmp_path / "x.mtx", x_hat)
    inst = instances.from_files(tmp_path / "A.mtx", x_hat_path=tmp_path / "x.mtx",
                                beta=0.0, seed=1)
    A_norm = matrices.normalize_rows(A)
    assert inst.A.flags.f_contiguous and np.array_equal(inst.A, A_norm)
    assert np.allclose(inst.b_clean, A_norm @ x_hat, atol=1e-14)
    assert np.array_equal(inst.b_corrupt, np.zeros(4))


@pytest.mark.parametrize("x_hat", [np.ones(4), np.ones(2), np.ones((3, 2)),
                                   np.array([1.0, np.nan, 0.0])],
                         ids=["long", "short", "matrix", "nan"])
def test_from_files_refuses_a_ground_truth_that_is_not_n_finite_values(tmp_path,
                                                                         x_hat):
    matrices.mm_write(tmp_path / "A.mtx", np.random.default_rng(2).standard_normal((5, 3)))
    matrices.mm_write(tmp_path / "x.mtx", x_hat)
    with pytest.raises(DimensionMismatch, match="ground truth must hold 3 finite"):
        instances.from_files(tmp_path / "A.mtx", x_hat_path=tmp_path / "x.mtx")


def test_from_files_zero_beta_rounds_to_no_corruption(tmp_path):
    A = rng.standard_normal((4, 3))
    matrices.mm_write(tmp_path / "A.mtx", A)
    matrices.mm_write(tmp_path / "x.mtx", rng.standard_normal(3))
    inst = instances.from_files(tmp_path / "A.mtx", x_hat_path=tmp_path / "x.mtx",
                                beta=0.1, corruption_scale=5.0, seed=1)
    # round(0.1 * 4) = 0 corrupted rows
    assert np.array_equal(inst.b_corrupt, np.zeros(4))


def test_bundle_roundtrip(tmp_path):
    inst = instances.generate_gaussian(make_spec())
    instances.save_bundle(inst, tmp_path / "bundle")
    back = instances.load_bundle(tmp_path / "bundle")
    assert np.array_equal(back.b_observed, inst.b_observed)
    assert np.array_equal(back.A, inst.A)
    assert np.array_equal(back.x_hat, inst.x_hat)
    assert np.array_equal(back.corruption_indices, inst.corruption_indices)
    assert back.beta == inst.beta
    assert back.seed == inst.seed


def _edit_bundle(tmp_path, **files):
    """A saved bundle with some Matrix Market files replaced by arrays, or
    with the text of meta.txt replaced (meta=...)."""
    inst = instances.generate_gaussian(make_spec())
    bundle = tmp_path / "bundle"
    instances.save_bundle(inst, bundle)
    for fname, value in files.items():
        if fname == "meta":
            (bundle / "meta.txt").write_text(value)
        else:
            matrices.mm_write(bundle / f"{fname}.mtx", value)
    return bundle


def test_bundle_roundtrip_of_one_column(tmp_path):
    inst = instances.generate_gaussian(instances.GeneratorSpec(m=9, n=1, sparsity=1,
                                                               seed=3))
    instances.save_bundle(inst, tmp_path / "bundle")
    back = instances.load_bundle(tmp_path / "bundle")
    assert back.A.shape == (9, 1) and back.A.tobytes() == inst.A.tobytes()
    assert back.x_hat.shape == (1,)


def test_load_bundle_returns_column_major_matrix(tmp_path):
    bundle = _edit_bundle(tmp_path)
    assert instances.load_bundle(bundle).A.flags.f_contiguous


@pytest.mark.parametrize("case, message", [
    ("nan_in_b", "b.mtx has non-finite"),
    ("inf_in_A", "A.mtx has non-finite"),
    ("nan_in_xhat", "xhat.mtx has non-finite"),
    ("short_noise", "noise.mtx has shape"),
    ("long_xhat", "xhat.mtx has shape"),
    ("b_not_the_sum", "b.mtx is not"),
    ("duplicate_index", "distinct rows"),
    ("index_out_of_range", "distinct rows"),
    ("row_not_unit", "unit norm"),
    ("bad_meta", "meta.txt"),
])
def test_load_bundle_rejects_invalid_bundles(tmp_path, case, message):
    inst = instances.generate_gaussian(make_spec())
    b, A = inst.b_observed.copy(), np.array(inst.A)
    idx = inst.corruption_indices.tolist()
    meta = ("beta=0.2\ncorruption_scale=100\nnoise_bound=0.02\nseed=7\n"
            "corruption_indices={}\n")
    edits = {
        "nan_in_b": lambda: {"b": np.where(np.arange(b.size) == 3, np.nan, b)},
        "inf_in_A": lambda: {"A": np.where(A == A[2, 1], np.inf, A)},
        "nan_in_xhat": lambda: {"xhat": np.full(inst.n, np.nan)},
        "short_noise": lambda: {"noise": inst.noise[:-1]},
        "long_xhat": lambda: {"xhat": np.append(inst.x_hat, 1.0)},
        "b_not_the_sum": lambda: {"b": b + 1e-6 * (np.arange(b.size) == 0)},
        "duplicate_index": lambda: {"meta": meta.format(",".join(map(str, idx + idx[:1])))},
        "index_out_of_range": lambda: {"meta": meta.format(",".join(map(str, idx + [inst.m])))},
        "row_not_unit": lambda: {"A": A * np.where(np.arange(inst.m) == 5, 1.01, 1.0)[:, None]},
        "bad_meta": lambda: {"meta": meta.format("1,two,3")},
    }
    bundle = _edit_bundle(tmp_path, **edits[case]())
    with pytest.raises(InvalidBundle, match=message):
        instances.load_bundle(bundle)


def test_interrupted_save_bundle_is_refused(tmp_path, monkeypatch):
    # rewrite a bundle with another seed and cut it off after A.mtx: the
    # new A must not load with the old b
    bundle = tmp_path / "bundle"
    instances.save_bundle(instances.generate_gaussian(make_spec(seed=1)), bundle)
    new = instances.generate_gaussian(make_spec(seed=2))
    write, calls = matrices.mm_write, []

    def mm_write(path, obj):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("interrupted")
        write(path, obj)

    monkeypatch.setattr(matrices, "mm_write", mm_write)
    with pytest.raises(OSError, match="interrupted"):
        instances.save_bundle(new, bundle)
    assert np.array_equal(matrices.mm_read(bundle / "A.mtx"), new.A)
    with pytest.raises(InvalidBundle, match="no meta.txt"):
        instances.load_bundle(bundle)


META_KEYS = ("beta", "corruption_scale", "noise_bound", "seed", "corruption_indices")


@pytest.mark.parametrize("key", META_KEYS)
def test_load_bundle_refuses_meta_without_a_key(tmp_path, key):
    inst = instances.generate_gaussian(make_spec())
    bundle = tmp_path / "bundle"
    instances.save_bundle(inst, bundle)
    lines = (bundle / "meta.txt").read_text().splitlines()
    assert sorted(line.partition("=")[0] for line in lines) == sorted(META_KEYS)
    (bundle / "meta.txt").write_text(
        "".join(line + "\n" for line in lines if not line.startswith(key + "=")))
    with pytest.raises(InvalidBundle, match=f"meta.txt has no {key} key"):
        instances.load_bundle(bundle)


def test_load_bundle_takes_empty_corruption_indices(tmp_path):
    inst = instances.generate_gaussian(make_spec(beta=0.0))
    instances.save_bundle(inst, tmp_path / "bundle")
    assert "corruption_indices=\n" in (tmp_path / "bundle" / "meta.txt").read_text()
    assert instances.load_bundle(tmp_path / "bundle").corruption_indices.size == 0


def test_load_bundle_refuses_a_directory_without_meta(tmp_path):
    instances.save_bundle(instances.generate_gaussian(make_spec()), tmp_path / "bundle")
    (tmp_path / "bundle" / "meta.txt").unlink()
    with pytest.raises(InvalidBundle, match="no meta.txt"):
        instances.load_bundle(tmp_path / "bundle")

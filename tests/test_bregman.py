import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qkaczmarz import bregman
from qkaczmarz.errors import DegenerateDirection, InvalidDualPair

rng = np.random.default_rng(77)


def random_pair(n, lam):
    """Draw a valid (x, x*) pair: x* free, x = soft_shrink(x*, lam)."""
    x_star = rng.standard_normal(n) * 3.0
    return bregman.soft_shrink(x_star, lam), x_star


def sign_selection(y):
    # subgradient selection for y: sign on the support, 0 off it
    return np.sign(y)


# ---------------------------------------------------------------- shrinkage

def test_soft_shrink_basic():
    out = bregman.soft_shrink(np.array([2.5, -0.5, 1.0]), 1.0)
    assert np.allclose(out, [1.5, 0.0, 0.0])


def test_soft_shrink_lam_zero_is_identity():
    v = rng.standard_normal(6)
    assert np.array_equal(bregman.soft_shrink(v, 0.0), v)


def test_soft_shrink_full():
    assert np.allclose(bregman.soft_shrink(np.array([2.0, -2.0]), 3.0), [0.0, 0.0])


def test_soft_shrink_matches_the_sign_formula_bytewise():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 3.0, -3.0]
    v = np.concatenate([special, rng.standard_normal(200) * 3.0])
    for lam in (0.0, 0.5, 1.0, 3.0):
        with np.errstate(invalid="ignore"):
            ref = np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
            got = bregman.soft_shrink(v, lam)
        assert got.tobytes() == ref.tobytes(), lam


@given(
    hnp.arrays(np.float64, 5, elements=st.floats(-100, 100)),
    hnp.arrays(np.float64, 5, elements=st.floats(-100, 100)),
    st.floats(0, 10),
)
def test_soft_shrink_is_1_lipschitz(u, v, lam):
    du = bregman.soft_shrink(u, lam) - bregman.soft_shrink(v, lam)
    assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-9


# ------------------------------------------------------ f and its conjugate

def test_f_and_conjugate_at_zero():
    assert bregman.f_value(np.zeros(3), 1.0) == 0.0
    assert bregman.conjugate_value(np.zeros(3), 1.0) == 0.0


def test_f_value_direct():
    assert bregman.f_value(np.array([1.0, -2.0]), 1.0) == pytest.approx(5.5)


def test_conjugate_closed_form_vs_grid_search():
    # f*(3) with lam=1: maximize 3 z - f(z) over a fine 1-D grid.
    zs = np.arange(-10.0, 10.0, 1e-4)
    vals = 3.0 * zs - (1.0 * np.abs(zs) + 0.5 * zs**2)
    grid_max = vals.max()
    closed = bregman.conjugate_value(np.array([3.0]), 1.0)
    assert closed == pytest.approx(2.0)
    assert closed == pytest.approx(grid_max, abs=1e-6)


def test_fenchel_identity():
    for _ in range(1000):
        lam = float(rng.uniform(0, 3))
        x, x_star = random_pair(6, lam)
        lhs = bregman.f_value(x, lam) + bregman.conjugate_value(x_star, lam)
        assert abs(lhs - np.dot(x, x_star)) <= 1e-10 * (1.0 + abs(lhs))


# --------------------------------------------------------- Bregman distance

def test_bregman_distance_zero_iff_same_point():
    lam = 0.7
    x, x_star = random_pair(5, lam)
    assert bregman.bregman_distance(x, x_star, x, lam) == pytest.approx(0.0, abs=1e-14)


def test_bregman_distance_euclidean_case():
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    d = bregman.bregman_distance(x, x, y, 0.0)
    assert d == pytest.approx(0.5 * np.linalg.norm(y - x) ** 2, rel=1e-12)


def test_bregman_distance_matches_shrinkage_form():
    # definition form vs 0.5||y-x||^2 + lam(||y||_1 - <s, y>) with s from x*
    for _ in range(50):
        lam = float(rng.uniform(0.1, 2))
        x, x_star = random_pair(6, lam)
        y = rng.standard_normal(6)
        s = np.zeros(6)
        on = x != 0
        s[on] = np.sign(x[on])
        s[~on] = (x_star[~on] - x[~on]) / lam
        form = 0.5 * np.linalg.norm(y - x) ** 2 + lam * (
            np.abs(y).sum() - np.dot(s, y)
        )
        d = bregman.bregman_distance(x, x_star, y, lam)
        assert abs(d - form) < 1e-10 * (1.0 + abs(d))


def test_bregman_distance_rejects_invalid_pair():
    with pytest.raises(InvalidDualPair):
        bregman.bregman_distance(np.array([1.0]), np.array([5.0]), np.array([0.0]), 1.0)


def test_strong_convexity_sandwich():
    # 0.5||x-y||^2 <= D(x, y) <= ||x*-y*|| ||x-y||  (alpha = 1)
    for _ in range(1000):
        lam = float(rng.uniform(0, 2))
        x, x_star = random_pair(5, lam)
        y = rng.standard_normal(5)
        y_star = y + lam * sign_selection(y)
        d = bregman.bregman_distance(x, x_star, y, lam)
        lower = 0.5 * np.linalg.norm(x - y) ** 2
        upper = np.linalg.norm(x_star - y_star) * np.linalg.norm(x - y)
        assert lower <= d + 1e-10
        assert d <= upper + 1e-10


# --------------------------------------------------------------- exact step

def bisect_step(x_star, a, b, lam):
    """Bisection oracle for g(t) = <a, S_lam(x* - t a)> - b with an
    expanding bracket."""

    def g(t):
        return np.dot(a, bregman.soft_shrink(x_star - t * a, lam)) - b

    lo, hi = -1.0, 1.0
    while g(lo) < 0:
        lo *= 2.0
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_exact_step_quadratic_case():
    a = np.array([0.6, 0.8])
    x_star = rng.standard_normal(2)
    b = 0.3
    t = bregman.exact_step(x_star, a, b, 0.0)
    assert t == pytest.approx(np.dot(a, x_star) - b, rel=1e-12)


def test_exact_step_hand_solved_1d():
    t = bregman.exact_step(np.array([0.0]), np.array([1.0]), 2.0, 1.0)
    assert t == pytest.approx(-3.0)
    z = bregman.soft_shrink(np.array([0.0]) - t * np.array([1.0]), 1.0)
    assert z[0] == pytest.approx(2.0)


def test_exact_step_matches_bisection_oracle():
    for _ in range(200):
        n = int(rng.integers(1, 8))
        x_star = rng.standard_normal(n) * 4
        a = rng.standard_normal(n)
        if np.linalg.norm(a) < 1e-6:
            continue
        b = float(rng.standard_normal())
        lam = float(rng.uniform(0, 2))
        t = bregman.exact_step(x_star, a, b, lam)
        t_ref = bisect_step(x_star, a, b, lam)
        assert abs(t - t_ref) < 1e-10 * (1.0 + abs(t_ref))


def test_exact_step_optimality_bracketing():
    for _ in range(200):
        n = int(rng.integers(1, 6))
        x_star = rng.standard_normal(n) * 2
        a = rng.standard_normal(n)
        if np.linalg.norm(a) < 1e-6:
            continue
        b = float(rng.standard_normal())
        lam = float(rng.uniform(0, 2))

        def g(t):
            return np.dot(a, bregman.soft_shrink(x_star - t * a, lam)) - b

        t = bregman.exact_step(x_star, a, b, lam)
        eps = 1e-8 * (1.0 + abs(t))
        assert g(t - eps) >= -1e-9
        assert g(t + eps) <= 1e-9


def kinkwise_step(x_star, a, b, lam):
    """O(n^2) oracle: evaluate g at every kink through a (2n x n) matrix,
    then solve the bracketing linear piece."""
    a_sq = float(np.dot(a, a))
    live = a != 0
    bps = np.unique(np.concatenate([(x_star[live] - lam) / a[live],
                                    (x_star[live] + lam) / a[live]]))
    a_live = a[live]
    Z = x_star[live][None, :] - bps[:, None] * a_live[None, :]
    gvals = bregman.soft_shrink(Z, lam) @ a_live - b
    if gvals[0] <= 0.0:
        return bps[0] + gvals[0] / a_sq
    if gvals[-1] > 0.0:
        return bps[-1] + gvals[-1] / a_sq
    hi = int(np.argmax(gvals <= 0.0))
    lo = hi - 1
    g_lo, g_hi = gvals[lo], gvals[hi]
    if g_hi == 0.0:
        return float(bps[hi])
    return float(bps[lo] + g_lo * (bps[hi] - bps[lo]) / (g_lo - g_hi))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 600),
    st.sampled_from([0.0, 0.3, 0.9]),
    st.sampled_from([0.1, 1.0, 3.0]),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.floats(-2.0, 2.0),
    st.booleans(),
)
def test_exact_step_matches_kinkwise_oracle(seed, n, zero_frac, lam, x_scale,
                                            log_b, negative_b):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(n)
    a[gen.random(n) < zero_frac] = 0.0
    a[gen.integers(n)] = 1.0  # at least one live component
    a /= np.linalg.norm(a)
    x_star = gen.standard_normal(n) * x_scale
    b = (-1.0 if negative_b else 1.0) * 10.0**log_b

    t = bregman.exact_step(x_star, a, b, lam)
    t_ref = kinkwise_step(x_star, a, b, lam)
    assert abs(t - t_ref) <= 1e-12 * max(abs(t_ref), 1.0)

    def g(s):
        return np.dot(a, bregman.soft_shrink(x_star - s * a, lam)) - b

    eps = 1e-8 * (1.0 + abs(t))
    tol = 1e-9 * (1.0 + abs(b))
    assert g(t - eps) >= -tol
    assert g(t + eps) <= tol


def test_exact_step_brackets_from_the_slope_estimates(monkeypatch):
    # the cumulative-slope estimates pick the bracket, so g is evaluated
    # exactly in one call (at four kinks), never kink by kink
    shrink = bregman.soft_shrink
    calls = []
    monkeypatch.setattr(bregman, "soft_shrink",
                        lambda v, lam: calls.append(np.shape(v)) or shrink(v, lam))
    for _ in range(200):
        n = int(rng.integers(1, 600))
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        x_star = rng.standard_normal(n) * 3.0
        bregman.exact_step(x_star, a, float(rng.standard_normal()), 1.0)
    assert [shape[0] for shape in calls] == [4] * 200


def test_exact_step_degenerate_direction():
    with pytest.raises(DegenerateDirection):
        bregman.exact_step(np.array([1.0]), np.array([0.0]), 0.0, 1.0)


# ------------------------------------------------------ hyperplane projection

def test_projection_fixed_point_on_hyperplane():
    lam = 1.0
    x, x_star = random_pair(4, lam)
    a = rng.standard_normal(4)
    b = float(np.dot(a, x))  # already on H(a, b)
    z, z_star = bregman.bregman_project_hyperplane(x, x_star, a, b, lam)
    assert np.allclose(z, x, atol=1e-10)
    assert np.allclose(z_star, x_star, atol=1e-10)


def test_projection_1d_hand_example():
    z, z_star = bregman.bregman_project_hyperplane(
        np.array([0.0]), np.array([0.0]), np.array([1.0]), 2.0, 1.0
    )
    assert z[0] == pytest.approx(2.0)
    assert z_star[0] == pytest.approx(3.0)


def test_projection_lands_on_hyperplane():
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        lam = float(rng.uniform(0, 2))
        x, x_star = random_pair(n, lam)
        a = rng.standard_normal(n)
        if np.linalg.norm(a) < 1e-6:
            continue
        b = float(rng.standard_normal())
        z, z_star = bregman.bregman_project_hyperplane(x, x_star, a, b, lam)
        assert abs(np.dot(a, z) - b) < 1e-9 * (1.0 + abs(b))


def test_projection_descent_inequality():
    # D(z, y) <= D(x, y) - 0.5 (<a,x> - b)^2 / ||a||^2 for y in H(a, b)
    lam = 0.8
    x, x_star = random_pair(5, lam)
    a = rng.standard_normal(5)
    b = 1.3
    z, z_star = bregman.bregman_project_hyperplane(x, x_star, a, b, lam)
    gap = 0.5 * (np.dot(a, x) - b) ** 2 / np.dot(a, a)
    for _ in range(100):
        y0 = rng.standard_normal(5)
        y = y0 - (np.dot(a, y0) - b) / np.dot(a, a) * a  # project onto H
        d_x = bregman.bregman_distance(x, x_star, y, lam)
        d_z = bregman.bregman_distance(z, z_star, y, lam)
        assert d_z <= d_x - gap + 1e-9

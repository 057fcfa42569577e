import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkaczmarz import quantiles
from qkaczmarz.errors import EmptyAcceptableSet, EmptyInput

rng = np.random.default_rng(5)


def sort_oracle(values, q):
    """Independent order-statistic oracle for the q-quantile."""
    s = sorted(values)
    n = len(s)
    nq = n * q
    k = round(nq)
    if abs(nq - k) <= 1e-9 * n:  # integral
        if k >= n:
            return s[-1]
        return 0.5 * (s[k - 1] + s[k])
    return s[int(np.floor(nq))]


def test_q_quantile_midpoint_case():
    assert quantiles.q_quantile([4, 1, 3, 2], 0.5) == pytest.approx(2.5)


def test_q_quantile_noninteger_case():
    assert quantiles.q_quantile([4, 1, 3, 2], 0.3) == pytest.approx(2.0)


def test_q_quantile_constant_input():
    for q in (0.1, 0.5, 0.77, 1.0):
        assert quantiles.q_quantile([3.0] * 9, q) == 3.0


def test_q_quantile_q_one_is_max():
    v = rng.standard_normal(13)
    assert quantiles.q_quantile(v, 1.0) == v.max()


def test_q_quantile_tiny_q_is_min():
    # nq rounds to 0 and counts as integral: there is no y_(0) to average with
    assert quantiles.q_quantile([1, 2, 3], 1e-12) == 1.0
    assert quantiles.q_quantile([3, 2, 1], 1e-10) == 1.0


def test_q_quantile_empty_input():
    with pytest.raises(EmptyInput):
        quantiles.q_quantile([], 0.5)


def test_q_quantile_matches_sort_oracle_bulk():
    # exact equality on 10^4 random inputs, ties included
    for _ in range(10_000):
        n = int(rng.integers(1, 30))
        if rng.random() < 0.3:
            vals = rng.integers(0, 5, size=n).astype(float)  # force ties
        else:
            vals = rng.standard_normal(n)
        q = float(rng.uniform(0.01, 1.0))
        assert quantiles.q_quantile(vals, q) == sort_oracle(vals.tolist(), q)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.floats(0.01, 1.0))
def test_q_quantile_permutation_invariant(vals, q):
    shuffled = list(vals)
    np.random.RandomState(0).shuffle(shuffled)
    assert quantiles.q_quantile(vals, q) == quantiles.q_quantile(shuffled, q)


def sorted_order_statistic(values, q):
    """The q-quantile as one full sort computes it: the reference the
    partition in q_quantile must match bit for bit."""
    s = np.sort(values)
    n = s.size
    nq = n * q
    k = round(nq)
    if abs(nq - k) <= 1e-9 * n:
        if k >= n:
            return float(s[-1])
        return float(0.5 * (s[k - 1] + s[k]))
    return float(s[int(np.floor(nq))])


@st.composite
def quantile_cases(draw):
    n = draw(st.integers(1, 3000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([None, 1, 2, 7, 100]))
    if levels is None:
        values = gen.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    else:
        values = gen.integers(0, levels, n).astype(float)  # ties
    if draw(st.booleans()):
        values = np.abs(values)  # residuals, as the solvers pass them
    kind = draw(st.sampled_from(["integral", "fractional", "one"]))
    if kind == "one":
        q = 1.0
    elif kind == "integral":
        q = draw(st.integers(1, n)) / n
    else:
        q = draw(st.floats(1e-3, 1.0))
    return values, q


@settings(max_examples=400, deadline=None)
@given(quantile_cases())
def test_q_quantile_equals_the_sorted_order_statistic(case):
    values, q = case
    got = np.float64(quantiles.q_quantile(values, q))
    assert got.tobytes() == np.float64(sorted_order_statistic(values, q)).tobytes()


def test_q_quantile_monotone_in_q():
    v = rng.standard_normal(17)
    qs = np.linspace(0.05, 1.0, 25)
    outs = [quantiles.q_quantile(v, q) for q in qs]
    assert all(a <= b + 1e-12 for a, b in zip(outs, outs[1:]))


def test_acceptable_set_nonstrict():
    idx = quantiles.acceptable_set(np.array([0.0, 0.0, 5.0]), 1.0, strict=False)
    assert idx.tolist() == [0, 1]


def test_acceptable_set_strict_empty():
    with pytest.raises(EmptyAcceptableSet):
        quantiles.acceptable_set(np.array([0.0, 0.0, 5.0]), 0.0, strict=True)


def test_acceptable_set_full():
    idx = quantiles.acceptable_set(np.array([0.1, 0.2, 0.3]), 1.0, strict=False)
    assert idx.tolist() == [0, 1, 2]


def test_acceptable_set_size_lower_bound():
    # |N2| >= ceil(q m) - 1 for tie-free residuals with Q at the q-quantile
    for _ in range(200):
        m = int(rng.integers(3, 40))
        res = np.abs(rng.standard_normal(m)) + np.linspace(0, 1e-6, m)
        q = float(rng.uniform(0.1, 1.0))
        Q = quantiles.q_quantile(res, q)
        idx = quantiles.acceptable_set(res, Q, strict=False)
        assert idx.size >= int(np.ceil(q * m)) - 1

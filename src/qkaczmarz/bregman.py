"""The sparsifying regularizer lambda*||x||_1 + ||x||^2/2 and its geometry.

Provides soft shrinkage, the conjugate function, Bregman distances, the exact
1-D dual line search and the Bregman projection onto a hyperplane.  All
functions are pure; the primal/dual pair (x, x*) is kept consistent through
x = soft_shrink(x*, lam).
"""

import numpy as np

from .errors import DegenerateDirection, InvalidDualPair

PAIR_TOL = 1e-12


def soft_shrink(v, lam):
    """Componentwise max(|v|-lam, 0) * sign(v)."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def f_value(x, lam):
    """lam*||x||_1 + ||x||^2/2."""
    x = np.asarray(x, dtype=float)
    return float(lam * np.abs(x).sum() + 0.5 * np.dot(x, x))


def conjugate_value(x_star, lam):
    """Fenchel conjugate of f, in closed form ||soft_shrink(x*, lam)||^2 / 2.

    The supremum sup_z <x*, z> - f(z) separates per coordinate; each 1-D
    problem is maximized at z = soft_shrink(x*, lam), which collapses to the
    closed form above.
    """
    s = soft_shrink(x_star, lam)
    return float(0.5 * np.dot(s, s))


def validate_pair(x, x_star, lam, tol=PAIR_TOL):
    """Check x = soft_shrink(x*, lam) and subgradient membership.

    Tolerance scales with (1 + ||x*||_inf) to absorb accumulation over long
    solver runs.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    scale = 1.0 + np.abs(x_star).max(initial=0.0)
    if x.shape != x_star.shape:
        raise InvalidDualPair("primal and dual lengths differ")
    if np.abs(x - soft_shrink(x_star, lam)).max(initial=0.0) > tol * scale:
        raise InvalidDualPair("x != soft_shrink(x*, lam)")
    diff = x_star - x
    if np.abs(diff).max(initial=0.0) > lam + tol * scale:
        raise InvalidDualPair("|x*_j - x_j| exceeds lambda")
    on = x != 0
    if np.any(np.abs(diff[on] - lam * np.sign(x[on])) > tol * scale):
        raise InvalidDualPair("x* - x != lam*sign(x) on the support")


def bregman_distance(x, x_star, y, lam, validate=True, f_y=None):
    """D(x, y) = f(y) - f(x) - <x*, y - x> for the pair (x, x*).

    A caller that measures many iterates against one y passes f_y =
    f_value(y, lam), computed once; the result is the same to the bit.
    """
    if validate:
        validate_pair(x, x_star, lam)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if f_y is None:
        f_y = f_value(y, lam)
    return f_y - f_value(x, lam) - float(np.dot(x_star, y - x))


def exact_step(x_star, a, b, lam):
    """Solve argmin_t f*(x* - t a) + t b by breakpoint search.

    Optimality means g(t) := <a, soft_shrink(x* - t a, lam)> - b = 0.  g is
    continuous, piecewise linear and nonincreasing in t, with kinks only at
    the <= 2n points where x*_j - t a_j = +-lam.  Component j is shrunk to
    zero between its two kinks and contributes slope -a_j^2 outside them, so
    one sort of the kinks and a cumulative sum of the slope changes estimate
    g at every kink in O(n log n).  The estimates only pick the bracketing
    segment: g is evaluated exactly at its two kinks (stepping outward if an
    estimate had the wrong sign) and the linear piece is solved from those.
    """
    x_star = np.asarray(x_star, dtype=float)
    a = np.asarray(a, dtype=float)
    a_sq = float(np.dot(a, a))
    if a_sq == 0.0:
        raise DegenerateDirection("a must be nonzero")

    if lam == 0.0:
        # Quadratic case: g(t) = <a, x*> - t ||a||^2 - b.
        return (float(np.dot(a, x_star)) - b) / a_sq

    # components with a_j = 0 never contribute to the inner product
    live = a != 0
    a_live = a[live]
    x_live = x_star[live]
    n_live = a_live.size
    lower = (x_live - lam) / a_live
    upper = (x_live + lam) / a_live
    # the kinks, each with its signed slope change a_j^2 (entering component
    # j's dead zone) or -a_j^2 (leaving it), written into 2n arrays in place
    kinks = np.empty(2 * n_live)
    np.minimum(lower, upper, out=kinks[:n_live])
    np.maximum(lower, upper, out=kinks[n_live:])
    signed = np.empty(2 * n_live)
    np.multiply(a_live, a_live, out=signed[:n_live])
    np.negative(signed[:n_live], out=signed[n_live:])
    order = kinks.argsort()
    kinks = kinks[order]
    # slope of g right of each kink, starting from -||a||^2
    slope = signed[order].cumsum()
    slope -= a_sq
    # up to the first kink every live component is active
    g_start = (float(np.dot(a_live, x_live)) - lam * float(np.abs(a_live).sum())
               - b - kinks[0] * a_sq)
    g_est = np.empty(2 * n_live)
    g_est[0] = 0.0
    steps = np.subtract(kinks[1:], kinks[:-1], out=g_est[1:])
    steps *= slope[:-1]
    steps.cumsum(out=steps)
    g_est += g_start

    def g(ts):
        Z = x_live[None, :] - ts[:, None] * a_live[None, :]
        return soft_shrink(Z, lam) @ a_live - b

    last = kinks.size - 1
    hi = min(max(int((g_est <= 0.0).argmax()), 1), last)
    lo = hi - 1
    g_first, g_lo, g_hi, g_last = g(kinks[[0, lo, hi, last]])

    if g_first <= 0.0:
        # Root left of every kink, where all live components are active and
        # the slope is -||a||^2.
        return kinks[0] + g_first / a_sq
    if g_last > 0.0:
        # Root right of every kink; slope is again -||a||^2 out there.
        return kinks[-1] + g_last / a_sq

    # g is nonincreasing: the bracket is g(lo) > 0 >= g(hi) on adjacent kinks.
    while g_hi > 0.0 and hi < last:
        lo, hi, g_lo = hi, hi + 1, g_hi
        g_hi = g(kinks[hi:hi + 1])[0]
    while g_lo <= 0.0 and lo > 0:
        lo, hi, g_hi = lo - 1, lo, g_lo
        g_lo = g(kinks[lo:lo + 1])[0]
    if g_hi == 0.0:
        return float(kinks[hi])
    if g_lo == g_hi:
        # Flat zero segment; kink convention.
        return float(kinks[lo])
    return float(kinks[lo] + g_lo * (kinks[hi] - kinks[lo]) / (g_lo - g_hi))


def bregman_project_hyperplane(x, x_star, a, b, lam):
    """Bregman projection of (x, x*) onto the hyperplane <a, y> = b.

    Returns the new pair (z, z*) with z* = x* - t_hat * a and
    z = soft_shrink(z*, lam); the exact line search puts z on the hyperplane.
    """
    t_hat = exact_step(x_star, a, b, lam)
    z_star = np.asarray(x_star, dtype=float) - t_hat * np.asarray(a, dtype=float)
    return soft_shrink(z_star, lam), z_star

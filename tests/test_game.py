import math

import numpy as np
import pytest

from uavnoma import game

# constructed regime where the certified strategy spaces are nonempty and
# both utilities are concave on them (moderate static power, strong
# channels, sizeable penalty); verified numerically over the whole family
CERT = dict(g_cc=10.0, g_ce=2.5, Ps=0.6, kappa=1.2, p_max=2.5)


def rand_instances(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        g_ce = rng.uniform(2.0, 3.0)
        out.append(game.UtilityParams(
            g_cc=g_ce * rng.uniform(2.5, 5.0), g_ce=g_ce,
            Ps=rng.uniform(0.5, 0.8), kappa=rng.uniform(1.0, 1.4),
            p_max=rng.uniform(2.2, 3.0)))
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        game.UtilityParams(g_cc=1.0, g_ce=2.0, Ps=1.0, kappa=0.1, p_max=1.0)
    with pytest.raises(ValueError):
        game.UtilityParams(g_cc=2.0, g_ce=1.0, Ps=0.0, kappa=0.1, p_max=1.0)


def test_utility_cc_at_zero():
    up = game.UtilityParams(**CERT)
    assert game.utility_cc(0.0, up) == pytest.approx(-1.0, abs=1e-15)


def test_utility_cc_closed_form_point():
    up = game.UtilityParams(g_cc=1.0, g_ce=0.5, Ps=1.0, kappa=1e-300, p_max=2.0)
    # kappa ~ 0: log2(2)/2 - exp(0) = -0.5
    assert game.utility_cc(1.0, up) == pytest.approx(-0.5, rel=1e-12)


def test_utility_ce_at_zero():
    up = game.UtilityParams(**CERT)
    assert game.utility_ce(0.0, 0.7, up) == pytest.approx(-1.0, abs=1e-15)


def test_utility_ce_reduces_to_cc_form():
    up = game.UtilityParams(**CERT)
    up_swapped = game.UtilityParams(g_cc=up.g_ce, g_ce=up.g_ce / 2.0,
                                    Ps=up.Ps, kappa=up.kappa, p_max=up.p_max)
    for p in (0.1, 0.5, 1.2):
        assert game.utility_ce(p, 0.0, up) == pytest.approx(
            game.utility_cc(p, up_swapped), rel=1e-12)


def test_no_overflow_at_huge_power():
    up = game.UtilityParams(**CERT)
    assert math.isfinite(game.utility_cc(1e9, up)) is False or True
    # must not raise; values may be -inf-scale but finite floats
    v = game.utility_cc(5e4, up)
    assert v < -1e100 or math.isfinite(v)


def test_concavity_fd_scan():
    """Second difference of both utilities <= 0 on a 1000-point grid.

    The CC scan covers its whole strategy space; the CE scan covers the
    certified space (from the supermodularity bound upward), where the
    concavity argument applies.
    """
    for up in rand_instances(5, seed=1):
        p = np.linspace(1e-4, up.p_max, 1000)
        f = np.array([game.utility_cc(x, up) for x in p])
        d2 = f[2:] - 2 * f[1:-1] + f[:-2]
        assert np.all(d2 <= 1e-8)
        p_cc = up.p_max / 3.0
        lb = game.supermodular_lower_bound(p_cc, up)
        q = np.linspace(lb, max(up.p_max, lb + 1.0), 1000)
        g = np.array([game.utility_ce(x, p_cc, up) for x in q])
        d2 = g[2:] - 2 * g[1:-1] + g[:-2]
        assert np.all(d2 <= 1e-8)


def test_supermodular_cross_partial():
    """FD cross-partial of f_ce >= 0 above the certified lower bound.

    Analytically the cross-partial is nonnegative exactly for
    p_ce >= supermodular_lower_bound(p_cc); probes start slightly above it
    so the O(eps^2) finite-difference error cannot straddle the boundary.
    """
    up = game.UtilityParams(**CERT)
    eps = 1e-3
    for p_cc in np.linspace(0.05, 1.0, 10):
        lb = game.supermodular_lower_bound(p_cc, up)
        for p_ce in np.linspace(lb + 0.01, lb + 1.0, 10):
            f = game.utility_ce
            cross = (f(p_ce + eps, p_cc + eps, up) - f(p_ce + eps, p_cc - eps, up)
                     - f(p_ce - eps, p_cc + eps, up)
                     + f(p_ce - eps, p_cc - eps, up)) / (4 * eps * eps)
            assert cross >= -1e-8


def test_lower_bound_values():
    up = game.UtilityParams(g_cc=2.0, g_ce=1.0, Ps=1.0, kappa=0.1, p_max=1.0)
    assert game.supermodular_lower_bound(0.0, up) == pytest.approx(1.0)
    lbs = [game.supermodular_lower_bound(p, up) for p in (0.0, 0.5, 1.0)]
    assert lbs[0] < lbs[1] < lbs[2]


def test_best_response_quadratic():
    c = 0.7
    assert game.best_response(lambda p: -(p - c) ** 2, 0.0, 2.0) == pytest.approx(
        c, abs=1e-7)


def test_best_response_monotone_decreasing():
    assert game.best_response(lambda p: -p, 0.2, 1.0) == pytest.approx(0.2, abs=1e-7)


def test_best_response_matches_grid():
    up = game.UtilityParams(**CERT)
    lo, hi = 0.0, up.p_max
    br = game.best_response(lambda p: game.utility_cc(p, up), lo, hi)
    grid = np.arange(lo, hi + 1e-5, 1e-5)
    vals = np.array([game.utility_cc(x, up) for x in grid])
    assert abs(br - grid[np.argmax(vals)]) <= 1e-4


def nash_gap(res, up, grid_points=10**4):
    """Largest unilateral-deviation improvement over the strategy spaces.

    Deviations are gridded over each player's own strategy space: the CE
    space is bounded below by the supermodularity bound and the CC space
    above by the adjusted ceiling, mirroring the game actually played.
    """
    p_cc, p_ce = res.p_cc, res.p_ce
    f_cc = game.utility_cc(p_cc, up)
    f_ce = game.utility_ce(p_ce, p_cc, up)
    cc_hi = up.p_max - p_ce
    if res.certified:
        cc_hi = min(cc_hi, game.cc_upper_bound(p_ce, up))
    cand_cc = np.linspace(0.0, max(cc_hi, 0.0), grid_points)
    gap_cc = max(game.utility_cc(x, up) for x in cand_cc) - f_cc
    ce_lo = game.supermodular_lower_bound(p_cc, up) if res.certified else 0.0
    ce_hi = max(up.p_max - p_cc, ce_lo)
    cand_ce = np.linspace(ce_lo, ce_hi, grid_points)
    gap_ce = max(game.utility_ce(x, p_cc, up) for x in cand_ce) - f_ce
    return max(gap_cc, gap_ce)


def test_fixed_point_and_nash_certificate():
    up = game.UtilityParams(**CERT)
    res = game.run_algorithm1(up)
    assert res.converged
    # one extra best-response round barely moves p_cc
    br = game.best_response(lambda p: game.utility_cc(p, up),
                            0.0, up.p_max - res.p_ce)
    assert abs(br - res.p_cc) < 1e-5
    assert nash_gap(res, up, grid_points=2000) <= 1e-6


def test_ordering_on_near_degenerate_gains():
    up = game.UtilityParams(g_cc=2.0 + 1e-9, g_ce=2.0, Ps=0.01, kappa=0.05,
                            p_max=2.0)
    res = game.run_algorithm1(up)
    assert res.alpha_cc <= 0.5 + 1e-12


def test_alpha_normalized():
    for up in rand_instances(10, seed=2):
        res = game.run_algorithm1(up)
        assert res.alpha_cc + res.alpha_ce == pytest.approx(1.0, abs=1e-12)
        assert res.alpha_cc <= res.alpha_ce + 1e-12


def test_kappa_monotonicity():
    """Larger penalty never increases the total equilibrium power."""
    for up in rand_instances(8, seed=3):
        res1 = game.run_algorithm1(up)
        up2 = game.UtilityParams(g_cc=up.g_cc, g_ce=up.g_ce, Ps=up.Ps,
                                 kappa=up.kappa * 3.0, p_max=up.p_max)
        res2 = game.run_algorithm1(up2)
        assert res2.p_cc + res2.p_ce <= res1.p_cc + res1.p_ce + 1e-6


def test_trace_monotone_p_cc():
    up = game.UtilityParams(**CERT)
    res = game.run_algorithm1(up)
    ps = [s.p_cc for s in res.trace[1:]]
    diffs = np.diff(ps)
    assert np.all(diffs <= 1e-9) or np.all(diffs >= -1e-9)


def test_empty_space_fallback_flagged():
    # huge Ps: the certified lower bound exceeds any budget
    up = game.UtilityParams(g_cc=0.5, g_ce=1e-5, Ps=40.0, kappa=0.05, p_max=2.0)
    res = game.run_algorithm1(up)
    assert not res.certified
    assert 0.0 <= res.p_cc <= up.p_max and 0.0 <= res.p_ce <= up.p_max

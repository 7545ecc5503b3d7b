import numpy as np
import pytest

from uavnoma import channel as ch
from uavnoma import linklayer as ll
from uavnoma.params import RotorParams, SystemParams
from uavnoma.scenario import GroundUser

# frozen oracles from an independent 40-digit decimal evaluation
PATH_GAIN_10M = 0.16042516886407419539   # 1.8 * 10**(-1.05)
PROP_AT_V0 = 2.9666997155514846572       # propulsion power at V = v0 = 7.2


def user_at(x, y):
    r = float(np.hypot(x, y))
    return GroundUser(id=0, pos=(x, y, 0.0), role="CC", dist_to_center=r)


def test_distance_345():
    assert ch.distance((0.0, 0.0, 10.0), (3.0, 4.0, 0.0)) == pytest.approx(
        np.sqrt(125.0), abs=1e-12)


def test_distance_clamped_at_one_metre():
    assert ch.distance((0.0, 0.0, 0.5), (0.0, 0.0, 0.0)) == 1.0
    assert ch.distance((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)) == 1.0


def test_path_gain_values():
    p = SystemParams()
    assert ch.path_gain(1.0, p) == pytest.approx(1.8, abs=1e-15)
    assert ch.path_gain(10.0, p) == pytest.approx(PATH_GAIN_10M, rel=1e-14)
    flat = SystemParams(beta=1e-300)  # validation forbids exactly 0
    assert ch.path_gain(123.0, flat) == pytest.approx(1.8, rel=1e-12)


def test_array_response_m1():
    a = ch.array_response(0.3, 1, 0.5)
    assert np.allclose(a, [1.0])


def test_array_response_half_wavelength_flip():
    a = ch.array_response(0.0, 4, 0.5)  # cos(theta) = 1
    assert np.allclose(a, 0.5 * np.array([1, -1, 1, -1]), atol=1e-12)


def test_array_response_broadside():
    a = ch.array_response(np.pi / 2.0, 5, 0.5)
    assert np.allclose(a, np.full(5, 1.0 / np.sqrt(5.0)), atol=1e-12)


def test_user_channel_norm_identity():
    p = SystemParams(M=8, N=1)
    cv = ch.user_channel((0.0, 0.0, p.h), user_at(20.0, -7.0), p)
    assert np.linalg.norm(cv.h) ** 2 == pytest.approx(p.M * cv.beta_nk, rel=1e-12)


def test_user_below_uav_theta():
    p = SystemParams(M=4, N=1)
    cv = ch.user_channel((0.0, 0.0, p.h), user_at(0.0, 0.0), p)
    assert cv.theta == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_mirrored_users_same_path_gain():
    p = SystemParams(M=4, N=1)
    c1 = ch.user_channel((0.0, 0.0, p.h), user_at(12.0, 5.0), p)
    c2 = ch.user_channel((0.0, 0.0, p.h), user_at(-12.0, -5.0), p)
    assert c1.beta_nk == pytest.approx(c2.beta_nk, rel=1e-14)


def test_beacon_gain_m1():
    p = SystemParams(M=1, N=1)
    link = ch.beacon_link((0.0, 0.0, p.h), p)
    beta_pu = p.beta0 * link.d_PU ** (-p.beta)
    assert link.gain == pytest.approx(beta_pu, rel=1e-12)


def test_beacon_gain_scales_m_squared():
    g = {}
    for m in (2, 8):
        p = SystemParams(M=m, N=1)
        g[m] = ch.beacon_link((0.0, 0.0, p.h), p).gain
    assert g[8] / g[2] == pytest.approx(16.0, rel=1e-12)


def test_beacon_gain_distance_power_law():
    p1 = SystemParams(M=4, N=1, beacon_xy=(-60.0, 0.0), h=1e-9)
    p2 = SystemParams(M=4, N=1, beacon_xy=(-120.0, 0.0), h=1e-9)
    g1 = ch.beacon_link((0.0, 0.0, p1.h), p1).gain
    g2 = ch.beacon_link((0.0, 0.0, p2.h), p2).gain
    assert g2 / g1 == pytest.approx(2.0 ** (-p1.beta), rel=1e-9)


def test_harvested_power_arithmetic():
    p = SystemParams(P_beacon=10.0, xi=0.8, T=1.0)
    assert ll.tx_budget(0.5, 2.0, p) == pytest.approx(16.0, rel=1e-14)
    assert ll.tx_budget(0.0, 2.0, p) == 0.0
    assert ll.tx_budget(0.5, 2.0, p, fixed_P_T=3.0) == 3.0


def test_harvested_power_guards():
    p = SystemParams()
    with pytest.raises(ValueError):
        ll.tx_budget(p.T, 1.0, p)
    with pytest.raises(ValueError):
        ll.tx_budget(-0.1, 1.0, p)


def test_propulsion_hover():
    assert ch.propulsion_power(0.0, RotorParams()) == pytest.approx(0.3, abs=1e-15)


def test_propulsion_at_v0():
    assert ch.propulsion_power(7.2, RotorParams()) == pytest.approx(
        PROP_AT_V0, rel=1e-13)


def test_propulsion_parasite_asymptote():
    r = RotorParams()
    V = 1e4
    parasite = 0.5 * r.d0 * r.rho * r.s * r.A * V ** 3
    assert ch.propulsion_power(V, r) / parasite == pytest.approx(1.0, rel=1e-3)

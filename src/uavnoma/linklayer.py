"""ZF precoding, CE combining, and the EE physics: budget, energy, rates."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from .params import SystemParams
from .scenario import Scenario

ZF_TOL = 1e-9  # admissible cross-pair residual


@dataclass(frozen=True)
class Precoder:
    columns: np.ndarray  # M x N, unit-norm columns


@dataclass(frozen=True)
class CombinerSet:
    v_ce: np.ndarray   # M x N unit columns
    w_ce: np.ndarray   # N complex scalars, h_{n,2}^H v_{n,2}


@dataclass(frozen=True)
class LinkState:
    """What the EE reads of a UAV position: ZF gains, loads, beacon gain."""

    eff_gain_cc: np.ndarray      # |h_{n,1}^H q_n|^2
    eff_gain_ce: np.ndarray      # |h_{n,2}^H q_n|^2
    beacon_gain: float           # M^2 beta_PU
    antenna_loads: np.ndarray    # M x N, |[q_n]_iota|^2


@dataclass(frozen=True)
class Allocation:
    p: np.ndarray           # W per pair
    alpha_cc: np.ndarray
    alpha_ce: np.ndarray
    tau: float
    fixed_P_T: float = None  # battery-supplied budget; None = harvested

    def __post_init__(self):
        for name in ("p", "alpha_cc", "alpha_ce", "tau"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.p < 0):
            raise ValueError("pair powers must be nonnegative")
        if not np.allclose(self.alpha_cc + self.alpha_ce, 1.0, atol=1e-9):
            raise ValueError("intra-pair coefficients must sum to 1")


@dataclass
class EEReport:
    R_sum: float
    E_sum: float
    EE: float
    rates_cc: list
    rates_ce: list
    energy: dict = field(default_factory=dict)
    feasible: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "R_sum": self.R_sum, "E_sum": self.E_sum, "EE": self.EE,
            "rates_cc": self.rates_cc, "rates_ce": self.rates_ce,
            "energy": self.energy, "feasible": self.feasible,
        }, indent=2, sort_keys=True)


def _zf_beams(C, H):
    """Unit beams nulling the other pairs' constraint vectors, batched.

    C and H are (..., N, M). Column n of the returned (..., M, N) beams is
    orthogonal to C[..., m, :] for every m != n and, among such unit
    vectors, maximizes |H[..., n, :]^H q|: it is the normalized projection
    of H_n onto the null space of the others. The second result is that
    maximum squared, |H_n^H q_n|^2, shape (..., N).

    One batched QR does all pairs: for pair n the others' vectors are the
    first N - 1 columns and H_n the last, so the last column of Q spans
    what H_n adds to the others' span and R[-1, -1] is the size of that
    projection. The phase of R[-1, -1] is moved into the beam so that
    H_n^H q_n is real and positive. No Gram matrix C C^H is formed: LoS
    channels that differ only in distance make C ill-conditioned, and
    squaring its condition number would cost most of the digits.

    Where H_n lies in the others' span (two CC users equidistant from the
    UAV have identical LoS channels), R[-1, -1] is zero up to rounding and
    the beam is the last Householder column of Q: a unit vector that is
    still orthogonal to the others, chosen deterministically by the QR. Its
    phase is left as it is when R[-1, -1] is exactly zero.
    """
    N, M = C.shape[-2:]
    if N > M:
        raise np.linalg.LinAlgError(
            "empty null space: channels are rank deficient")
    order = np.array([[m for m in range(N) if m != n] + [n] for n in range(N)])
    A = C[..., order, :]             # (..., N, N, M): A[..., n, j] = C[order[n, j]]
    A[..., -1, :] = H
    Q, R = np.linalg.qr(np.swapaxes(A, -1, -2))
    r = R[..., -1, -1]
    phase = np.where(r == 0, 1.0, r)
    beams = Q[..., -1] * (phase / np.abs(phase))[..., None]   # (..., N, M)
    return np.swapaxes(beams, -1, -2), np.abs(r) ** 2


def zf_precoders(cc_channels) -> Precoder:
    """Per-pair ZF beams: q_n in the null space of the other CC channels.

    Among admissible directions the projection of the pair's own channel is
    used, which maximizes the own effective gain. For N = 1 the constraint
    is vacuous and the matched filter results.
    """
    H = np.stack([cv.h for cv in cc_channels])  # N x M
    return Precoder(columns=_zf_beams(H, H)[0])


def ce_combiners(ce_channels, precoder: Precoder) -> CombinerSet:
    """Receive combiners nulling the inter-pair interference at CE users."""
    H = np.stack([cv.h for cv in ce_channels])  # N x M
    # g_{m,2} = h_{m,2} h_{m,2}^H q_m
    G = H * np.sum(H.conj() * precoder.columns.T, axis=-1)[:, None]
    v, _ = _zf_beams(G, H)
    return CombinerSet(v_ce=v, w_ce=np.sum(H.conj() * v.T, axis=-1))


def link_gains(scenario: Scenario, xy):
    """ZF link quantities at K UAV positions `xy` (K x 2) at altitude h.

    Returns (g_cc, g_ce, q, beacon_gain): the effective CC and CE gains
    |h_{n,k}^H q_n|^2 (K x N), the unit ZF precoder columns q (K x M x N;
    |q|^2 are the antenna loads) and the harvesting gain M^2 beta_PU (K).
    Row k of a batch equals the call with position k alone, bit for bit.
    """
    params = scenario.params
    xy = np.asarray(xy, float).reshape(-1, 2)
    uav = np.concatenate([xy, np.full((len(xy), 1), params.h)], axis=1)
    by_id = {u.id: u for u in scenario.users}
    users = np.array([by_id[p.cc].pos for p in scenario.pairs]
                     + [by_id[p.ce].pos for p in scenario.pairs])  # 2N x 3
    H = ch.los_channels(uav[:, None, :], users, params).h       # K x 2N x M
    H_cc, H_ce = H[:, :params.N], H[:, params.N:]
    q, g_cc = _zf_beams(H_cc, H_cc)
    g_ce = np.abs(np.sum(H_ce.conj() * np.swapaxes(q, -1, -2), axis=-1)) ** 2
    return g_cc, g_ce, q, ch.beacon_link(uav, params).gain


def build_link_state(scenario: Scenario) -> LinkState:
    """ZF gains, antenna loads and beacon gain at the scenario's UAV position."""
    g_cc, g_ce, q, beacon_gain = link_gains(scenario, scenario.uav_xy)
    return LinkState(
        eff_gain_cc=g_cc[0], eff_gain_ce=g_ce[0],
        beacon_gain=float(beacon_gain[0]), antenna_loads=np.abs(q[0]) ** 2,
    )


# -- the EE physics: transmit budget, cycle energy, rates ---------------------

FLAG_SLACK = 1e-9   # arithmetic noise allowance of the constraint flags


def tx_budget(tau, beacon_gain, params: SystemParams, fixed_P_T=None):
    """UAV transmit power budget P_T, W.

    A battery-supplied UAV has fixed_P_T; otherwise the beacon power
    harvested during tau is spent over the transmit phase T - tau. tau may
    be an array, one harvested budget per element.
    """
    if fixed_P_T is not None:
        return fixed_P_T
    if isinstance(tau, np.ndarray):
        ok = np.all((0.0 <= tau) & (tau < params.T))
    else:   # np.all on a scalar slowed fig10_tau sweep rows by about 6%
        ok = 0.0 <= tau < params.T
    if not ok:
        raise ValueError(f"tau={tau} must lie in [0, T={params.T})")
    return tau * beacon_gain * params.P_beacon * params.xi / (params.T - tau)


def static_power(params: SystemParams) -> float:
    """P_s, W: hover, the M RF chains and the 2N user circuits.

    These draw over the whole cycle whatever the allocation.
    """
    return (ch.propulsion_power(0.0, params.rotor) + params.M * params.P_a
            + 2 * params.N * params.P_user)


def cycle_energy(tau, P_T, P_s, params: SystemParams):
    """E_sum, J: P_T + P_s over the cycle plus the harvest-phase draw.

    During tau the RF chains draw M*P_a more; the beacon's radiated
    P_beacon*tau is charged only when params.include_beacon_energy is set.
    """
    c_tau = params.M * params.P_a
    if params.include_beacon_energy:
        c_tau += params.P_beacon
    return (P_T + P_s) * params.T + c_tau * tau


def exact_rates(p, alpha_cc, g_cc, g_ce, params: SystemParams,
                scheme="noma"):
    """Per-pair (R_cc, R_ce), bit/s/Hz, without the (T - tau) factor.

    NOMA: the CC user cancels the CE signal; the CE user sees the CC signal
    as noise, SINR alpha_ce p g/(1 + alpha_cc p g) with alpha_ce =
    1 - alpha_cc (C7), written as a difference of logs. OMA: equal
    orthogonal halves, full pair power per user, alpha_cc unused.
    Broadcasts over leading axes.
    """
    B = params.B
    if scheme == "noma":
        return (B * np.log2(1.0 + alpha_cc * p * g_cc),
                B * (np.log2(1.0 + p * g_ce) - np.log2(1.0 + alpha_cc * p * g_ce)))
    if scheme == "oma":
        return (0.5 * B * np.log2(1.0 + p * g_cc),
                0.5 * B * np.log2(1.0 + p * g_ce))
    raise ValueError(f"unknown scheme {scheme!r}")


def cycle_ee(p, alpha_cc, tau, g_cc, g_ce, beacon_gain, params: SystemParams,
             scheme="noma", fixed_P_T=None):
    """EE = R_sum / E_sum of one cycle, bit/J/Hz.

    The gains (..., N) and the beacon gain (...) may carry leading axes,
    one EE per leading index, such as the K positions of link_gains.
    """
    r_cc, r_ce = exact_rates(p, alpha_cc, g_cc, g_ce, params, scheme)
    R_sum = (params.T - tau) * np.sum(r_cc + r_ce, axis=-1)
    P_T = tx_budget(tau, beacon_gain, params, fixed_P_T)
    return R_sum / cycle_energy(tau, P_T, static_power(params), params)


def constraint_flags(scenario: Scenario, link: LinkState, alloc: Allocation,
                     scheme="noma") -> dict:
    params = scenario.params
    P_T = tx_budget(alloc.tau, link.beacon_gain, params, alloc.fixed_P_T)
    r_cc, r_ce = exact_rates(alloc.p, alloc.alpha_cc, link.eff_gain_cc,
                             link.eff_gain_ce, params, scheme)
    loads = link.antenna_loads @ alloc.p
    x_min, x_max, y_min, y_max = params.box
    s = FLAG_SLACK
    return {
        "C1": bool(np.sum(alloc.p) <= P_T + s),
        "C2": bool(0.0 <= alloc.tau < params.T),
        "C3": bool(np.all(r_cc >= params.R_min - s)),
        "C4": bool(np.all(r_ce >= params.R_min - s)),
        "C5": bool(x_min - s <= scenario.uav_xy[0] <= x_max + s),
        "C6": bool(y_min - s <= scenario.uav_xy[1] <= y_max + s),
        "C7": bool(np.allclose(alloc.alpha_cc + alloc.alpha_ce, 1.0, atol=1e-9)),
        "C8": bool(np.all(loads <= params.P_iota + s)),
    }


def build_report(scenario: Scenario, alloc: Allocation, link: LinkState = None,
                 scheme: str = "noma") -> EEReport:
    """Full throughput/energy/EE report; feasibility violations only flag."""
    params = scenario.params
    if link is None:
        link = build_link_state(scenario)
    r_cc, r_ce = exact_rates(alloc.p, alloc.alpha_cc, link.eff_gain_cc,
                             link.eff_gain_ce, params, scheme)
    R_sum = float((params.T - alloc.tau) * np.sum(r_cc + r_ce))
    P_T = tx_budget(alloc.tau, link.beacon_gain, params, alloc.fixed_P_T)
    P_s = static_power(params)
    E_sum = cycle_energy(alloc.tau, P_T, P_s, params)
    # "harvest" is the extra draw during tau that cycle_energy charges
    breakdown = {"uav_tx": P_T * params.T, "static": P_s * params.T,
                 "harvest": E_sum - (P_T + P_s) * params.T}
    return EEReport(
        R_sum=R_sum, E_sum=E_sum, EE=R_sum / E_sum,
        rates_cc=list(map(float, r_cc)), rates_ce=list(map(float, r_ce)),
        energy=breakdown,
        feasible=constraint_flags(scenario, link, alloc, scheme),
    )

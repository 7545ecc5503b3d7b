"""ZF precoding, CE combining, and the EE physics: budget, energy, rates."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    precoder: Precoder
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


def _null_space_pick(constraints, own):
    """Unit vector in the null space of `constraints` closest to `own`.

    `constraints` is a (k, M) array of row vectors c with c @ q = 0 required;
    the returned q maximizes |own^H q| among null-space unit vectors.
    """
    if constraints.shape[0] == 0:
        q = own
    else:
        ns = scipy.linalg.null_space(constraints)
        if ns.shape[1] == 0:
            raise np.linalg.LinAlgError("empty null space: channels are rank deficient")
        q = ns @ (ns.conj().T @ own)
        if np.linalg.norm(q) < 1e-14:
            # own channel lies in the span of the constraints (near-parallel
            # geometry); any null-space direction is admissible
            q = ns[:, 0]
    nrm = np.linalg.norm(q)
    if nrm < 1e-14:
        raise np.linalg.LinAlgError("own channel is orthogonal to the null space")
    return q / nrm


def zf_precoders(cc_channels) -> Precoder:
    """Per-pair ZF beams: q_n in the null space of the other CC channels.

    Among admissible directions the projection of the pair's own channel is
    used, which maximizes the own effective gain. For N = 1 the constraint
    is vacuous and the matched filter results.
    """
    N = len(cc_channels)
    M = cc_channels[0].h.shape[0]
    H = np.stack([cv.h for cv in cc_channels])  # N x M
    cols = np.empty((M, N), dtype=complex)
    for n in range(N):
        others = np.delete(H, n, axis=0).conj()
        cols[:, n] = _null_space_pick(others, H[n])
    return Precoder(columns=cols)


def ce_combiners(ce_channels, precoder: Precoder) -> CombinerSet:
    """Receive combiners nulling the inter-pair interference at CE users."""
    N = len(ce_channels)
    M = ce_channels[0].h.shape[0]
    # g_{m,2} = h_{m,2} h_{m,2}^H q_m
    G = np.stack([cv.h * (cv.h.conj() @ precoder.columns[:, m])
                  for m, cv in enumerate(ce_channels)])  # N x M
    v = np.empty((M, N), dtype=complex)
    w_ce = np.empty(N, dtype=complex)
    for n in range(N):
        others = np.delete(G, n, axis=0).conj()
        v[:, n] = _null_space_pick(others, ce_channels[n].h)
        w_ce[n] = ce_channels[n].h.conj() @ v[:, n]
    return CombinerSet(v_ce=v, w_ce=w_ce)


def build_link_state(scenario: Scenario) -> LinkState:
    """ZF gains, antenna loads and beacon gain at the scenario's UAV position."""
    params = scenario.params
    uav = (scenario.uav_xy[0], scenario.uav_xy[1], params.h)
    by_id = {u.id: u for u in scenario.users}
    cc = [ch.user_channel(uav, by_id[p.cc], params) for p in scenario.pairs]
    ce = [ch.user_channel(uav, by_id[p.ce], params) for p in scenario.pairs]
    prec = zf_precoders(cc)
    g1 = np.abs(np.array([cc[n].h.conj() @ prec.columns[:, n]
                          for n in range(params.N)])) ** 2
    g2 = np.abs(np.array([ce[n].h.conj() @ prec.columns[:, n]
                          for n in range(params.N)])) ** 2
    return LinkState(
        eff_gain_cc=g1, eff_gain_ce=g2, precoder=prec,
        beacon_gain=ch.beacon_link(uav, params).gain,
        antenna_loads=np.abs(prec.columns) ** 2,
    )


# -- the EE physics: transmit budget, cycle energy, rates ---------------------

FLAG_SLACK = 1e-9   # arithmetic noise allowance of the constraint flags


def tx_budget(tau, beacon_gain, params: SystemParams, fixed_P_T=None):
    """UAV transmit power budget P_T, W.

    A battery-supplied UAV has fixed_P_T; otherwise the beacon power
    harvested during tau is spent over the transmit phase T - tau.
    """
    if fixed_P_T is not None:
        return fixed_P_T
    if not 0.0 <= tau < params.T:
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

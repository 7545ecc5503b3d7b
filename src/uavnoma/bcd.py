"""Outer block-coordinate loop tying the three subproblem solvers together.

Round structure: intra-pair coefficients -> inter-pair power and WPT time
-> UAV position. Every block's proposal is accepted only when it does not
lower the EE and meets C1-C8, so the recorded EE trace is non-decreasing by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import game as game_mod
from . import placement as placement_mod
from . import sca as sca_mod
from .baselines import etpa_coefficients
from .linklayer import (Allocation, build_link_state, build_report,
                        constraint_flags, cycle_ee)
from .scenario import Scenario

EE_SLACK = 1e-12   # arithmetic noise allowance in acceptance tests
PLACEMENT_GRID = 11   # points per axis of the first round's placement scan
MIN_SEP_SHARE = 0.2   # restart spacing, as a share of the search box's side
ALPHA_LO = 1e-6   # smallest CC share of a pair's power block 1 offers


class PipelineInfeasible(RuntimeError):
    """Structured failure: a constraint could not be satisfied."""

    def __init__(self, constraint, detail):
        self.constraint = constraint
        super().__init__(f"{constraint}: {detail}")


@dataclass
class BcdTrace:
    rounds: list = field(default_factory=list)
    stop_reason: str = ""

    def ee_values(self):
        return [r["EE"] for r in self.rounds]


@dataclass
class PipelineResult:
    scenario: Scenario
    alloc: Allocation
    report: object
    trace: BcdTrace
    scheme: str
    counters: dict = field(default_factory=dict)

    @property
    def ee(self):
        return self.report.EE


def _polish_alpha(g_cc, g_ce):
    """Per-pair EE-best intra-pair split in [ALPHA_LO, 0.5], NOMA order kept.

    At fixed p and tau the energy does not depend on the split, and with
    g1 = g_cc, g2 = g_ce pair n's rate
    log2(1 + a p g1) + log2(1 + p g2) - log2(1 + a p g2) has
    d r_n/da = p (g1 - g2) / (ln2 (1 + a p g1)(1 + a p g2)), which has the
    sign of g1 - g2. The best split is therefore 0.5 where g1 > g2 and
    ALPHA_LO elsewhere (where p_n = 0 every split ties).

    The game's equilibrium split maximizes each pair's own utility, not the
    system EE, so this split is offered as a third candidate. Without it
    acceptance criterion 7 fails: the worst EE gap to the exhaustive-search
    oracle grows to 13.4% against the 5% allowed.
    """
    return np.where(g_cc > g_ce, 0.5, ALPHA_LO)


def _alpha_from_game(problem, p, tau):
    """Run the per-pair game; roles swap when precoding flips the ordering."""
    params = problem.params
    Ps = problem.budget(tau) + problem.P_s
    alpha_cc = np.empty(params.N)
    alpha_ce = np.empty(params.N)
    results = []
    for n in range(params.N):
        g_cc, g_ce = problem.g1[n], problem.g2[n]
        swapped = g_cc <= g_ce
        if swapped:
            g_cc, g_ce = g_ce, g_cc
            g_ce = min(g_ce, g_cc * (1.0 - 1e-9))
        p_max = max(float(p[n]), 1e-9)
        up = game_mod.UtilityParams(g_cc=g_cc, g_ce=g_ce, Ps=Ps,
                                    kappa=params.kappa, p_max=p_max)
        res = game_mod.run_algorithm1(up, eps_game=params.tol.eps_game,
                                      max_iter=params.iters.I)
        a_strong, a_weak = res.alpha_cc, res.alpha_ce
        if swapped:
            # strong player is the CE user; keep the NOMA ordering a_cc <= a_ce
            a_cc, a_ce = min(a_strong, a_weak), max(a_strong, a_weak)
        else:
            a_cc, a_ce = a_strong, a_weak
        alpha_cc[n], alpha_ce[n] = a_cc, a_ce
        results.append(res)
    return alpha_cc, alpha_ce, results


def run_pipeline(scenario: Scenario, params=None, scheme="noma",
                 use_placement=True, fixed_P_T=None) -> PipelineResult:
    """Full optimization pipeline for one scenario.

    scheme: "noma" (game-based coefficients), "etpa" (fractional
    coefficients) or "oma" (orthogonal halves, no coefficients).
    fixed_P_T replaces harvesting with a battery budget (tau = 0). At most
    params.iters.rounds rounds are run. Raises PipelineInfeasible("C3/C4")
    when the rate floors cannot be funded at the start; later, coefficients
    or positions where they cannot be are rejected, so block 2 never fails.
    """
    prm = params or scenario.params
    mode = "oma" if scheme == "oma" else "noma"
    scn = scenario
    link = build_link_state(scn)
    counters = {"game_iterations": 0, "game_uncertified": 0,
                "game_clamped": 0, "sca_outer": 0,
                "sca_inner": 0, "sca_stalled": 0, "sca_inner_capped": 0,
                "sca_proj_unconverged": 0, "placement_iterations": 0,
                "rounds": 0}

    def feasible(scn, link, p, a_cc, a_ce, tau):
        """Whether a candidate meets C1-C8; every accept guard asks this."""
        alloc = Allocation(p=p, alpha_cc=a_cc, alpha_ce=a_ce, tau=tau,
                           fixed_P_T=fixed_P_T)
        return all(constraint_flags(scn, link, alloc, mode).values())

    def block2(link, a_cc, a_ce):
        """Block 2's problem, or None where its rate floors cannot be funded."""
        problem = sca_mod.ScaProblem.from_link(link, a_cc, a_ce, prm,
                                               mode=mode, fixed_P_T=fixed_P_T)
        try:
            problem.tau_range
        except sca_mod.InfeasibleAllocation:
            return None
        return problem

    if scheme == "etpa":
        alpha_cc, alpha_ce = etpa_coefficients(
            link.eff_gain_cc, link.eff_gain_ce, prm.eta)
    else:
        alpha_cc = np.full(prm.N, 0.5)
        alpha_ce = 1.0 - alpha_cc

    problem = sca_mod.ScaProblem.from_link(link, alpha_cc, alpha_ce, prm,
                                           mode=mode, fixed_P_T=fixed_P_T)
    try:
        problem.tau_range
    except sca_mod.InfeasibleAllocation as e:
        raise PipelineInfeasible("C3/C4", str(e)) from e
    p, tau = sca_mod.initial_point(problem)
    ee = problem.exact_objective(p, tau)

    trace = BcdTrace()

    def record(r):
        trace.rounds.append({
            "r": r, "alpha_cc": alpha_cc.copy(), "alpha_ce": alpha_ce.copy(),
            "p": p.copy(), "tau": tau, "x0": scn.uav_xy[0],
            "y0": scn.uav_xy[1], "EE": ee,
        })

    record(0)
    stop_reason = "round limit"
    for r in range(1, prm.iters.rounds + 1):
        counters["rounds"] = r
        ee_start = ee

        # -- block 1: intra-pair coefficients
        candidates = []
        if scheme == "noma":
            cand_cc, cand_ce, game_results = _alpha_from_game(problem, p, tau)
            counters["game_iterations"] += sum(len(g.trace) for g in game_results)
            counters["game_uncertified"] += sum(not g.certified
                                                for g in game_results)
            counters["game_clamped"] += sum(g.ordering_clamped
                                            for g in game_results)
            pol = _polish_alpha(link.eff_gain_cc, link.eff_gain_ce)
            candidates = [(alpha_cc, alpha_ce), (cand_cc, cand_ce),
                          (pol, 1.0 - pol)]
        elif scheme == "etpa":
            cand_cc, _ = etpa_coefficients(
                link.eff_gain_cc, link.eff_gain_ce, prm.eta)
            candidates = [(cand_cc, 1.0 - cand_cc)]
        best = None
        for a_cc, a_ce in candidates:
            val = float(cycle_ee(p, a_cc, tau, link.eff_gain_cc,
                                 link.eff_gain_ce, link.beacon_gain, prm,
                                 mode, fixed_P_T))
            if ((best is None or val > best[0])
                    and feasible(scn, link, p, a_cc, a_ce, tau)):
                best = (val, a_cc, a_ce)
        if best is not None and best[0] >= ee - EE_SLACK:
            new_problem = block2(link, best[1], best[2])
            if new_problem is not None:
                ee, alpha_cc, alpha_ce = best
                problem = new_problem

        # -- block 2: inter-pair power and WPT time
        res2 = sca_mod.run_algorithm2(problem, p0=p, tau0=tau)
        counters["sca_outer"] += len(res2.trace) - 1
        counters["sca_inner"] += res2.inner_iterations
        counters["sca_stalled"] += res2.stops["stall"]
        counters["sca_inner_capped"] += res2.stops["capped"]
        counters["sca_proj_unconverged"] += res2.proj_unconverged
        if (res2.objective >= ee - EE_SLACK
                and feasible(scn, link, res2.p, alpha_cc, alpha_ce, res2.tau)):
            p, tau, ee = res2.p, res2.tau, res2.objective

        # -- block 3: UAV position
        if use_placement:
            alloc = Allocation(p=p, alpha_cc=alpha_cc, alpha_ce=alpha_ce,
                               tau=tau, fixed_P_T=fixed_P_T)
            res3 = placement_mod.run_algorithm3(
                scn, alloc, params=prm, scheme=mode,
                grid_init=PLACEMENT_GRID if (prm.grid_init_placement
                                             and r == 1) else 0)
            counters["placement_iterations"] += len(res3.trace) - 1
            if res3.ee >= ee - EE_SLACK and res3.xy != scn.uav_xy:
                moved = scn.with_uav(*res3.xy)
                new_link = build_link_state(moved)
                new_problem = block2(new_link, alpha_cc, alpha_ce)
                if new_problem is not None:
                    # the harvested budget moved with the beacon gain, so
                    # the powers are re-projected before the move is judged
                    p_new, _ = new_problem.project(p, tau)
                    ee_new = new_problem.exact_objective(p_new, tau)
                    if ee_new >= ee and feasible(moved, new_link, p_new,
                                                 alpha_cc, alpha_ce, tau):
                        scn, link, problem = moved, new_link, new_problem
                        p, ee = p_new, ee_new

        record(r)
        if ee - ee_start <= prm.tol.varpi * max(abs(ee_start), 1e-12):
            stop_reason = "fractional EE increase below threshold"
            break

    trace.stop_reason = stop_reason
    alloc = Allocation(p=p, alpha_cc=alpha_cc, alpha_ce=alpha_ce, tau=tau,
                       fixed_P_T=fixed_P_T)
    report = build_report(scn, alloc, link=link, scheme=mode)
    return PipelineResult(scenario=scn, alloc=alloc, report=report,
                          trace=trace, scheme=scheme, counters=counters)


def run_algorithm4(scenario: Scenario, params=None) -> PipelineResult:
    """The headline algorithm: NOMA with game, SCA and placement blocks."""
    return run_pipeline(scenario, params=params, scheme="noma",
                        use_placement=True)


def position_starts(scenario: Scenario, params=None, k=6, grid=11):
    """Spatially diverse high-EE positions for pipeline restarts.

    Ranks a grid of candidate UAV positions by the EE of a neutral
    allocation and greedily keeps the best ones at least MIN_SEP_SHARE of
    the box's longer side apart, so each distinct basin of the placement
    landscape gets one start.
    """
    prm = params or scenario.params
    box = placement_mod.search_box(scenario, prm)
    x_min, x_max, y_min, y_max = box
    min_sep = MIN_SEP_SHARE * max(x_max - x_min, y_max - y_min)
    alloc = Allocation(p=np.full(prm.N, 1.0),
                       alpha_cc=np.full(prm.N, 0.3),
                       alpha_ce=np.full(prm.N, 0.7), tau=0.5 * prm.T)
    f = placement_mod.ee_of_position(scenario, alloc, box=box)
    X, Y = placement_mod.box_grid(box, grid, grid)
    ranked = sorted(zip(f(X, Y).tolist(), X.tolist(), Y.tolist()),
                    reverse=True)
    picked = []
    for _, x, y in ranked:
        if all((x - a) ** 2 + (y - b) ** 2 >= min_sep ** 2
               for a, b in picked):
            picked.append((x, y))
        if len(picked) >= k:
            break
    return [scenario.uav_xy] + picked


def run_pipeline_multistart(scenario: Scenario, params=None, k=6, grid=11,
                            **kwargs) -> PipelineResult:
    """Best pipeline result over spatially diverse UAV starting positions.

    The placement block is a local method; restarting from one candidate
    per basin recovers the global placement optimum in practice.
    """
    best = None
    for x, y in position_starts(scenario, params=params, k=k, grid=grid):
        res = run_pipeline(scenario.with_uav(x, y), params=params, **kwargs)
        if best is None or res.ee > best.ee:
            best = res
    return best

"""Spans around the calls into each uavnoma module, recorded from outside.

Every wrapper is installed at the name its caller looks up at call time
(a module attribute such as ``placement.build_link_state``), so nothing in
the package changes. Spans are appended to flat arrays while the traced
steps run; self times, per-layer totals and derived counters are computed
once at the end. Per-layer metrics are totals over the traced steps, the
first ``quality_steps`` of the seed, so a count repeats exactly between
runs of the same code and seed.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np



class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")    # an ancestor span has the same name
        self._depth = []            # open spans per name id
        self._stack = []
        self.counters = {}
        self.recording = True
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return i

    def open(self, name):
        idx = len(self.start)
        k = self._id(name)
        self.name_id.append(k)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._depth[k] > 0)
        self._depth[k] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, on_result=None):
        """Callable that records a span named `name` around `fn`.

        on_result(result, args, kwargs) runs after the span closes, so its
        cost is not charged to the layer.
        """
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr, name, **kw):
        """Replace owner.attr with a traced wrapper; undone by unpatch()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64),
                np.array(self.nested, dtype=bool))

    def aggregate(self):
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts only spans without an ancestor of the same name,
        so a recursive layer is not charged twice; self time is a span's
        duration minus the duration of its direct children.
        """
        names, parent, start, end, nested = self._arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = names == k
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "busy_s": float(dur[sel & ~nested].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        return out

    def save(self, path):
        """Write every span (name id, parent index, start, end) to .npz."""
        names, parent, start, end, _ = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            parent=parent, start=start, end=end)


# -- the uavnoma layers ------------------------------------------------------

def instrument(tr):
    """Wrap every traced callable at the names its callers resolve.

    Each consumer module that imported a link-layer function by name gets
    its own wrapper; calls through ``placement`` also count as placement
    EE probes.
    """
    import scipy.linalg
    from uavnoma import (baselines, bcd, channel, cli, game, linklayer,
                         placement, sca, scenario)

    def probed(res, args, kwargs):
        tr.count("placement.ee_probes")
    for mod in (linklayer, placement, bcd, baselines):
        tr.patch(mod, "build_link_state", "linklayer.build_link_state",
                 on_result=probed if mod is placement else None)
        tr.patch(mod, "build_report", "linklayer.build_report")
    tr.patch(linklayer, "zf_precoders", "linklayer.zf_precoders")
    tr.patch(linklayer, "ce_combiners", "linklayer.ce_combiners")
    tr.patch(scipy.linalg, "null_space", "linklayer.null_space")
    tr.patch(channel, "user_channel", "channel.user_channel")
    tr.patch(channel, "beacon_link", "channel.beacon_link")

    def placed(res, args, kwargs):
        tr.count("placement.iterations", len(res.trace) - 1)
    tr.patch(placement, "fd_gradient", "placement.fd_gradient")
    tr.patch(placement, "run_algorithm3", "placement.run_algorithm3",
             on_result=placed)

    def sca_done(res, args, kwargs):
        tr.count("sca.outer_iterations", len(res.trace) - 1)
        tr.count("sca.inner_iterations", res.inner_iterations)
        tr.count("sca.converged", int(res.converged))
    tr.patch(sca, "run_algorithm2", "sca.run_algorithm2", on_result=sca_done)
    tr.patch(sca, "project_powers", "sca.project_powers")
    tr.patch(sca.ScaProblem, "exact_objective", "sca.exact_objective")

    def game_done(res, args, kwargs):
        tr.count("game.iterations", len(res.trace) - 1)
        tr.count("game.certified", int(res.certified))
        tr.count("game.clamped", int(res.ordering_clamped))
    tr.patch(game, "run_algorithm1", "game.run_algorithm1",
             on_result=game_done)
    tr.patch(game, "best_response", "game.best_response")

    def searched(res, args, kwargs):
        prm = kwargs.get("params") or args[0].params
        spec = kwargs.get("grid_spec") or baselines.GridSpec()
        tr.count("baselines.grid_points", baselines.grid_size(prm, spec))
    tr.patch(baselines, "exhaustive_search", "baselines.exhaustive_search",
             on_result=searched)

    def pipelined(res, args, kwargs):
        rounds = res.trace.rounds
        tr.count("bcd.rounds", res.counters["rounds"])
        tr.count("bcd.round_limit", int(res.trace.stop_reason == "round limit"))
        tr.count("placement.moves_accepted", sum(
            (a["x0"], a["y0"]) != (b["x0"], b["y0"])
            for a, b in zip(rounds, rounds[1:])))
    tr.patch(bcd, "run_pipeline", "bcd.run_pipeline", on_result=pipelined)
    tr.patch(bcd, "position_starts", "bcd.position_starts")
    tr.patch(bcd, "run_algorithm4", "bcd.run_algorithm4")
    tr.patch(bcd, "run_pipeline_multistart", "bcd.run_pipeline_multistart")

    def swept(res, args, kwargs):
        csv_path, _, warnings = res
        with open(csv_path) as fh:
            tr.count("cli.rows", sum(1 for _ in fh) - 1)
        tr.count("cli.error_rows", warnings)
    tr.patch(cli, "run_experiment", "cli.run_experiment", on_result=swept)
    for mod in (scenario, cli):
        tr.patch(mod, "make_scenario", "scenario.make_scenario")


# name -> (unit, better); the order is the order of the report
LAYERS = {
    "linklayer.build_link_state.calls": ("count", "lower"),
    "linklayer.build_link_state.busy_s": ("s", "lower"),
    "linklayer.build_link_state.us_per_call": ("us", "lower"),
    "linklayer.zf_precoders.busy_s": ("s", "lower"),
    "linklayer.ce_combiners.busy_s": ("s", "lower"),
    "linklayer.build_report.busy_s": ("s", "lower"),
    "linklayer.null_space.calls": ("count", "lower"),
    "channel.user_channel.calls": ("count", "lower"),
    "channel.beacon_link.calls": ("count", "lower"),
    "placement.run_algorithm3.calls": ("count", "lower"),
    "placement.run_algorithm3.busy_s": ("s", "lower"),
    "placement.ee_probes": ("count", "lower"),
    "placement.fd_gradient.calls": ("count", "lower"),
    "placement.iterations": ("count", "lower"),
    "placement.probes_per_iteration": ("count", "lower"),
    "placement.moves_accepted_share": ("share", "higher"),
    "sca.run_algorithm2.calls": ("count", "lower"),
    "sca.run_algorithm2.busy_s": ("s", "lower"),
    "sca.run_algorithm2.self_s": ("s", "lower"),
    "sca.outer_iterations": ("count", "lower"),
    "sca.inner_iterations": ("count", "lower"),
    "sca.converged_share": ("share", "higher"),
    "sca.project_powers.calls": ("count", "lower"),
    "sca.project_powers.busy_s": ("s", "lower"),
    "sca.exact_objective.calls": ("count", "lower"),
    "game.run_algorithm1.calls": ("count", "lower"),
    "game.run_algorithm1.busy_s": ("s", "lower"),
    "game.iterations": ("count", "lower"),
    "game.certified_share": ("share", "higher"),
    "game.clamped_share": ("share", "lower"),
    "game.best_response.calls": ("count", "lower"),
    "game.best_response.busy_s": ("s", "lower"),
    "baselines.exhaustive_search.calls": ("count", "lower"),
    "baselines.exhaustive_search.busy_s": ("s", "lower"),
    "baselines.grid_points": ("count", "higher"),
    "baselines.grid_points_per_s": ("1/s", "higher"),
    "bcd.run_pipeline.calls": ("count", "lower"),
    "bcd.run_pipeline.busy_s": ("s", "lower"),
    "bcd.run_pipeline.self_s": ("s", "lower"),
    "bcd.rounds": ("count", "lower"),
    "bcd.position_starts.busy_s": ("s", "lower"),
    "bcd.round_limit_share": ("share", "lower"),
    "cli.run_experiment.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "cli.error_rows": ("count", "lower"),
    "scenario.make_scenario.calls": ("count", "lower"),
    "scenario.make_scenario.busy_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.unaccounted_share": ("share", "lower"),
}
LAYER_UNITS = {k: u for k, (u, _) in LAYERS.items()}


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, untraced_s, traced_s):
    """Per-layer metrics of a traced replay, totals over its steps.

    Shares whose base is zero on a workload (no ES grid, no placement
    call) read 0. ``trace.unaccounted_share`` is the part of the traced op
    time that no layer span covers: the benchmark's own checks.
    """
    agg = tr.aggregate()
    c = tr.counters

    def span(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for name in LAYERS:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            out[name] = float(span(layer, key))
    bls_calls = span("linklayer.build_link_state", "calls")
    out["linklayer.build_link_state.us_per_call"] = 1e6 * _share(
        span("linklayer.build_link_state", "busy_s"), bls_calls)
    place_calls = span("placement.run_algorithm3", "calls")
    out["placement.ee_probes"] = float(c.get("placement.ee_probes", 0))
    out["placement.iterations"] = float(c.get("placement.iterations", 0))
    out["placement.probes_per_iteration"] = _share(
        out["placement.ee_probes"], out["placement.iterations"])
    out["placement.moves_accepted_share"] = _share(
        c.get("placement.moves_accepted", 0), place_calls)
    out["sca.outer_iterations"] = float(c.get("sca.outer_iterations", 0))
    out["sca.inner_iterations"] = float(c.get("sca.inner_iterations", 0))
    out["sca.converged_share"] = _share(
        c.get("sca.converged", 0), span("sca.run_algorithm2", "calls"))
    game_calls = span("game.run_algorithm1", "calls")
    out["game.iterations"] = float(c.get("game.iterations", 0))
    out["game.certified_share"] = _share(c.get("game.certified", 0),
                                         game_calls)
    out["game.clamped_share"] = _share(c.get("game.clamped", 0), game_calls)
    out["baselines.grid_points"] = float(c.get("baselines.grid_points", 0))
    out["baselines.grid_points_per_s"] = _share(
        out["baselines.grid_points"],
        span("baselines.exhaustive_search", "busy_s"))
    out["bcd.rounds"] = float(c.get("bcd.rounds", 0))
    out["bcd.round_limit_share"] = _share(
        c.get("bcd.round_limit", 0), span("bcd.run_pipeline", "calls"))
    out["cli.self_s"] = float(span("cli.run_experiment", "self_s"))
    out["cli.rows"] = float(c.get("cli.rows", 0))
    out["cli.error_rows"] = float(c.get("cli.error_rows", 0))
    out["trace.overhead_share"] = traced_s / untraced_s - 1.0
    # the layer spans partition each op span, so what they leave uncovered
    # is the op span's own self time
    out["trace.unaccounted_share"] = _share(span("op", "self_s"),
                                            span("op", "busy_s"))
    return {name: out[name] for name in LAYERS}

"""The traced benchmark wraps package names that must keep existing.

perfbench/tracer.py patches functions by name in several uavnoma modules;
removing or renaming one of them would otherwise surface only in a traced
benchmark run.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_instruments_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    from uavnoma import bcd, linklayer, placement

    originals = (bcd.run_pipeline, linklayer.build_link_state,
                 placement.fd_gradient)
    tr = tracer.Tracer()
    try:
        tracer.instrument(tr)
        assert bcd.run_pipeline is not originals[0]
    finally:
        tr.unpatch()
    assert (bcd.run_pipeline, linklayer.build_link_state,
            placement.fd_gradient) == originals

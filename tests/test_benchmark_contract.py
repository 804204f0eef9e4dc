"""The names perfbench rebinds when it traces a run still exist.

perfbench/layers.py patches functions and methods of heisenmag by name;
renaming or removing one breaks every traced benchmark run.  This test
instruments and restores once, so such a change fails here first.
"""

from pathlib import Path

from heisenmag import trajectory

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_instrument_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import instrument
    from tracer import Tracer

    make_solution = trajectory.make_solution
    sample = trajectory.TrajectorySolution.sample
    tracer = Tracer()
    try:
        instrument(tracer)
        assert trajectory.make_solution is not make_solution
    finally:
        tracer.restore()
    assert trajectory.make_solution is make_solution
    assert trajectory.TrajectorySolution.sample is sample

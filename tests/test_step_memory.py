"""benchmarks/step_memory.py still drives the loops it measures: every
phase it wraps by name is reached, with finite readings."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "step_memory",
    Path(__file__).resolve().parents[1] / "benchmarks" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_memory)


def _check(rows, phases):
    assert {phase for _, phase, _, _ in rows} == set(phases)
    # setup is step 0; every step after it runs each phase once, in order
    steps = range(1, step_memory.STEPS + 1)
    assert [(s, ph) for s, ph, _, _ in rows] == [(0, "setup")] + [
        (s, ph) for s in steps for ph in phases[1:]]
    for _, _, current, peak in rows:
        assert math.isfinite(current) and math.isfinite(peak)
        assert peak >= current


def test_pretrain_phases_are_all_measured():
    _check(step_memory.measure(128), ["setup", "batch", "encode",
                                      "head+sample", "loss", "backward",
                                      "AdamW"])


def test_finetune_phases_are_all_measured():
    rows = step_memory.measure_finetune()
    # the test-feature pass runs once, after the last step
    assert rows[-1][1] == "features"
    _check(rows[:-1], ["setup", "forward", "head grads", "backward", "AdamW"])

"""Traced memory of each phase of `trainer.pretrain`'s steps.

    python3 benchmarks/step_memory.py [--src DIR]

For N = 128 and N = 512 this runs one `trainer.pretrain` call of
``STEPS`` steps on 2N generated rows under tracemalloc, and prints,
per step and phase, the memory live when the phase ends (``current``)
and the most held at once during it (``peak``), in MB above what was
live when the call began.

A phase starts when the loop calls its function and lasts until the
next phase starts:

    batch        the batch iterator's next
    encode       model.encode
    head+sample  model.gaussian_head, then the sampling noise
    loss         losses.total_loss
    backward     Tensor.backward, then the gradient dict
    AdamW        trainer.adamw_step, then the rest of the step

The functions are wrapped, as `trainer` sees them, for the length of
the call only, so the loop measured is `trainer.pretrain`'s own. With
``--src`` the script measures another checkout's ``src/`` (a parent
commit, say); by default it measures its own.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

MB = 2.0**20
STEPS = 2


class PhaseMeter:
    """Closes the open phase and opens the next at each ``mark``."""

    def __init__(self):
        self.rows: list[tuple[int, str, float, float]] = []
        self.phase: str | None = None
        self.step = 0
        self.base = tracemalloc.get_traced_memory()[0]

    def mark(self, phase: str | None) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self.phase is not None:
            self.rows.append((self.step, self.phase,
                              (current - self.base) / MB,
                              (peak - self.base) / MB))
        self.step += phase == "batch"
        self.phase = phase
        tracemalloc.reset_peak()


@contextmanager
def phases_marked(meter: PhaseMeter, trainer, tensor_cls):
    """Wrap the functions that start each phase, as `trainer` calls them."""

    def entering(phase, fn):
        def call(*args, **kwargs):
            meter.mark(phase)
            return fn(*args, **kwargs)
        return call

    def batches(*args, **kwargs):
        meter.mark("batch")
        for batch in real["batches"](*args, **kwargs):
            yield batch
            meter.mark("batch")

    starts = {"encode": "encode", "gaussian_head": "head+sample",
              "total_loss": "loss", "adamw_step": "AdamW"}
    real = {name: getattr(trainer, name) for name in ("batches", *starts)}
    real_backward = tensor_cls.backward
    for name, phase in starts.items():
        setattr(trainer, name, entering(phase, real[name]))
    trainer.batches = batches
    tensor_cls.backward = entering("backward", real_backward)
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(trainer, name, fn)
        tensor_cls.backward = real_backward


def measure(batch_n: int) -> list[tuple[int, str, float, float]]:
    from vcl import trainer
    from vcl.autograd import Tensor
    from vcl.config import parse_run_config

    run = parse_run_config({"steps": STEPS, "batch_n": batch_n, "seed": 0,
                            "data": {"m": 2 * batch_n}})
    ds = trainer.build_dataset(run)
    tracemalloc.start()
    try:
        meter = PhaseMeter()
        with phases_marked(meter, trainer, Tensor):
            result = trainer.pretrain(run, dataset=ds)
        meter.mark(None)  # the last step ends with its result still held
        del result
    finally:
        tracemalloc.stop()
    return meter.rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1]
                                         / "src"),
                    help="the src/ directory of the checkout to measure")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    for batch_n in (128, 512):
        print(f"N = {batch_n}, MB above the call's start (tracemalloc)")
        print(f"{'step':>4}  {'phase':<12} {'current':>8} {'peak':>8}")
        for step, phase, current, peak in measure(batch_n):
            print(f"{step:>4}  {phase:<12} {current:>8.1f} {peak:>8.1f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced memory of each phase of `trainer.pretrain`'s steps and of
`evaluation.low_shot_finetune`'s.

    python3 benchmarks/step_memory.py [--src DIR]

For N = 128 and N = 512 this runs one `trainer.pretrain` call of
``STEPS`` steps on 2N generated rows under tracemalloc, and prints,
per step and phase, the memory live when the phase ends (``current``)
and the most held at once during it (``peak``), in MB above what was
live when the call began. It then does the same for one
`low_shot_finetune` call of ``STEPS`` steps at the benchmark's eval
shape: a fresh encoder, fraction 0.1 of the 1638 train rows of a
2048-row dataset (163 rows), scored on the other 410.

A phase starts when the loop calls its function and lasts until the
next phase starts; calls made inside a phase's function start none.
Step 0's only phase, setup, is the call's work before its first step.
The pretrain phases:

    batch        the batch iterator's next
    encode       model.encode
    head+sample  model.gaussian_head, then the sampling noise
    loss         losses.total_loss
    backward     Tensor.backward, then the gradient dict
    AdamW        trainer.adamw_step, then the rest of the step

The fine-tune phases:

    forward      model.encode of the subsample
    head grads   the head's closed-form gradients
    backward     Tensor.backward
    AdamW        trainer.adamw_step, then the rest of the step
    features     the final test-feature pass and its scoring

The functions are wrapped, as the module under test sees them, for the
length of the call only, so the loop measured is the module's own. With
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
# the benchmark's eval shape: its dataset rows and low-shot fraction
EVAL_M = 2048
LOWSHOT_FRACTION = 0.1


class PhaseMeter:
    """Closes the open phase and opens the next at each ``mark``; a step
    begins at each ``first`` phase. Marks made while ``depth`` > 0, from
    inside a phase's own function, are ignored."""

    def __init__(self, first: str):
        self.rows: list[tuple[int, str, float, float]] = []
        self.first = first
        self.phase: str | None = "setup"
        self.step = 0
        self.depth = 0
        self.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def mark(self, phase: str | None) -> None:
        if self.depth:
            return
        current, peak = tracemalloc.get_traced_memory()
        if self.phase is not None:
            self.rows.append((self.step, self.phase,
                              (current - self.base) / MB,
                              (peak - self.base) / MB))
        self.step += phase == self.first
        self.phase = phase
        tracemalloc.reset_peak()


@contextmanager
def phases_marked(meter: PhaseMeter, module, starts: dict, tensor_cls):
    """Wrap the functions of ``module`` named in ``starts`` (name ->
    phase), and Tensor.backward, as ``module`` calls them. A ``batches``
    among them is a generator, whose every next starts a phase."""

    def entering(phase, fn):
        def call(*args, **kwargs):
            meter.mark(phase)
            meter.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                meter.depth -= 1
        return call

    def batches(*args, **kwargs):
        meter.mark(starts["batches"])
        for batch in real["batches"](*args, **kwargs):
            yield batch
            meter.mark(starts["batches"])

    real = {name: getattr(module, name) for name in starts}
    real_backward = tensor_cls.backward
    for name, phase in starts.items():
        setattr(module, name, batches if name == "batches"
                else entering(phase, real[name]))
    tensor_cls.backward = entering("backward", real_backward)
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(module, name, fn)
        tensor_cls.backward = real_backward


def traced(first: str, module, starts: dict, call):
    """The rows of ``call()`` under tracemalloc, its phases marked."""
    from vcl.autograd import Tensor

    tracemalloc.start()
    try:
        meter = PhaseMeter(first)
        with phases_marked(meter, module, starts, Tensor):
            result = call()
        meter.mark(None)  # the last phase ends with the result still held
        del result
    finally:
        tracemalloc.stop()
    return meter.rows


def measure(batch_n: int) -> list[tuple[int, str, float, float]]:
    from vcl import trainer
    from vcl.config import parse_run_config

    run = parse_run_config({"steps": STEPS, "batch_n": batch_n, "seed": 0,
                            "data": {"m": 2 * batch_n}})
    ds = trainer.build_dataset(run)
    return traced("batch", trainer, {
        "batches": "batch", "encode": "encode",
        "gaussian_head": "head+sample", "total_loss": "loss",
        "adamw_step": "AdamW"}, lambda: trainer.pretrain(run, dataset=ds))


def measure_finetune() -> list[tuple[int, str, float, float]]:
    from vcl import evaluation, model, trainer
    from vcl.config import parse_run_config

    run = parse_run_config({"seed": 0, "data": {"m": EVAL_M}})
    train, test = evaluation.train_test_split(trainer.build_dataset(run),
                                              test_fraction=0.2, seed=0)
    params = model.init_params(trainer.encoder_config_for_run(run),
                               run.model.head_dim, run.seed)
    return traced("forward", evaluation, {
        "encode": "forward", "_head_grads": "head grads",
        "adamw_step": "AdamW", "_features": "features"},
        lambda: evaluation.low_shot_finetune(
            params, LOWSHOT_FRACTION, train, test,
            evaluation.FinetuneConfig(steps=STEPS)))


def _print(title: str, rows) -> None:
    print(f"{title}, MB above the call's start (tracemalloc)")
    print(f"{'step':>4}  {'phase':<12} {'current':>8} {'peak':>8}")
    for step, phase, current, peak in rows:
        print(f"{step:>4}  {phase:<12} {current:>8.1f} {peak:>8.1f}")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1]
                                         / "src"),
                    help="the src/ directory of the checkout to measure")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    for batch_n in (128, 512):
        _print(f"pretrain, N = {batch_n}", measure(batch_n))
    _print(f"low_shot_finetune, fraction {LOWSHOT_FRACTION} of "
           f"{EVAL_M} rows' train split", measure_finetune())
    return 0


if __name__ == "__main__":
    sys.exit(main())

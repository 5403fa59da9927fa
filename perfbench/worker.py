"""One benchmark workload, run in its own process by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--launched-at MONOTONIC_SECONDS]

A run has four parts:

1. Set-up, timed for ``setup_s``: imports (from the launch time run.py
   passes), then `datasets.generate_synthetic`, `model.init_params`,
   writing a dataset file and a checkpoint, `trainer.load_checkpoint`
   and `datasets.load`. The part after the imports is repeated and its
   median is added to the import time.
2. A check of each kernel against its float64 oracle.
3. The measured part, ``--seconds`` long: one caller runs a closed loop
   of two kinds of operation, interleaved so that each kind samples the
   whole window: `trainer.pretrain(run, dataset=ds)` calls, and
   evaluations of the latest trained encoder as `vcl eval` runs them
   (load the checkpoint and the dataset, then `evaluation.linear_probe`
   or `evaluation.low_shot_finetune` at fraction 0.1, alternately). The
   next operation is a pretrain call while pretrain calls hold at most
   half of the time spent so far. A pretrain call, a probe and a
   fine-tune run first whatever the time; after that an operation
   starts only if the last one like it would still finish in the
   window. Each timing reports the median over the run.
4. The result: summary lines, then one JSON object as the last line.

With ``--trace 1`` the same run goes through traced drivers instead. Each
pretrain call is followed by `traced_pretrain`, which makes the same
public calls as `trainer.pretrain` in the same order with a span around
each; its per-step losses and final parameters must equal the untraced
call's bit for bit, or the operation fails. Spans are kept in memory and
written to ``.perfbench_out/`` at the end.

Before each operation the cyclic garbage of the previous one (autograd
graphs hold reference cycles) is collected, untimed, so that each starts
from a clean heap as a fresh `vcl` process would, and the peak memory
does not depend on when the collector last happened to run.

Every operation either succeeds or counts as failed: it raised, returned
a non-finite loss, or failed a correctness check. ``failed/attempted``
is the run's error rate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import vcl  # noqa: E402
from vcl import (augmentation, datasets, evaluation, kernels, losses,  # noqa: E402
                 model, trainer)
from vcl.config import parse_run_config  # noqa: E402

import kernel_stage  # noqa: E402
from workloads import END_TO_END, KERNELS, PER_LAYER, WORKLOADS, Workload  # noqa: E402

# view pairs re-made directly per traced pretrain call
VIEW_PAIR_SAMPLES = 32
# times the timed part of set-up runs; setup_s takes the median
SETUP_REPEATS = 3
# share of the training split the low-shot fine-tune sees
LOWSHOT_FRACTION = 0.1
# share of a run's busy time that goes to pretrain calls
PRETRAIN_SHARE = 0.5


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class Tracer:
    """Spans kept in memory as [name, start, end, parent index].

    When disabled, ``span`` records nothing, so the untraced run pays
    only for entering a context manager.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each span called ``name`` minus its children's."""
        child = {}
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
        return [s[2] - s[1] - child.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name]


class Ops:
    """Counts operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, what: str, fn, *args):
        """Call fn(*args); a raise counts as a failed operation and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted; the run goes on
            self.failures.append(what)
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def run_config(w: Workload, seed: int, call: int = 0):
    """The workload's run config; every pretrain call gets its own seed."""
    return parse_run_config({
        "steps": w.steps_per_call, "batch_n": w.batch_n,
        "seed": seed * 1000 + call, "data": {"m": w.m, "seed": seed}})


def _check_losses(totals: list, steps: int) -> None:
    if len(totals) != steps:
        raise CheckFailed(f"{len(totals)} step records for {steps} steps")
    if not all(math.isfinite(t) for t in totals):
        raise CheckFailed(f"non-finite pretrain loss in {totals}")


# ---------------------------------------------------------------------------
# operations

def setup_once(w: Workload, seed: int, tmp: Path, tr: Tracer):
    run = run_config(w, seed)
    with tr.span("datasets.generate"):
        ds = datasets.generate_synthetic(run.data.gen)
    params = model.init_params(trainer.encoder_config_for_run(run),
                               run.model.head_dim, run.seed)
    datasets.save(ds, tmp / "data.vcld")
    trainer.save_checkpoint(tmp / "init.vclc", params,
                            trainer.init_optim_state(params), 0)
    with tr.span("trainer.load_checkpoint"):
        trainer.load_checkpoint(tmp / "init.vclc")
    with tr.span("datasets.load"):
        loaded = datasets.load(tmp / "data.vcld")
    if loaded != ds:
        raise CheckFailed("dataset file does not round-trip")
    return loaded


def pretrain_call(run, ds):
    t0 = time.perf_counter()
    res = trainer.pretrain(run, dataset=ds)
    elapsed = time.perf_counter() - t0
    _check_losses([r["total"] for r in res.step_records], run.steps)
    return res, elapsed


def tape_size(loss) -> tuple[int, int]:
    """Nodes and bytes of array data reachable from ``loss`` on the tape."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


def traced_pretrain(run, ds, tr: Tracer) -> dict:
    """`trainer.pretrain`'s step loop, call for call, with spans.

    The epoch seed and the sampling noise come from the trainer's own
    stream functions, so the numbers can match the untraced call exactly.
    Like `pretrain`, it draws one batch more than it trains on when the
    step budget ends inside an epoch: `pretrain` takes the next batch
    from the iterator before it checks the budget.
    """
    o = run.optim
    params = model.init_params(trainer.encoder_config_for_run(run),
                               run.model.head_dim, run.seed)
    state = trainer.init_optim_state(
        params, lr=o.lr, beta1=o.beta1, beta2=o.beta2, eps=o.eps,
        weight_decay=o.weight_decay)
    sched = trainer.Schedule(base_lr=o.lr, min_lr=run.schedule.min_lr,
                             total_steps=run.steps)
    spe = len(ds) // run.batch_n
    totals, tape = [], None
    step = 0
    while step < run.steps:
        ep_seed = trainer._epoch_seed(run.seed, step // spe)
        it = datasets.batches(ds, run.batch_n, run.augment, ep_seed)
        for _ in range(spe):
            if step >= run.steps:
                with tr.span("datasets.batch"):
                    next(it)
                break
            with tr.span("step"):
                with tr.span("datasets.batch"):
                    batch = next(it)
                lr_t = trainer.cosine_lr(sched, step)
                with tr.span("model.encode"):
                    h = model.encode(params, batch.views)
                with tr.span("model.head_sample"):
                    g = model.gaussian_head(params, h)
                    xi = trainer._draw_xi(run.seed, step,
                                          batch.views.shape[0],
                                          run.model.head_dim)
                    z = model.reparameterize(g, xi, run.model.reparam_mode)
                with tr.span("losses.forward"):
                    loss, detail = losses.total_loss(z, g, batch.partner,
                                                     run.loss)
                with tr.span("autograd.backward"):
                    loss.backward()
                grads = {k: (p.grad if p.grad is not None
                             else np.zeros_like(p.data))
                         for k, p in params.items()}
                with tr.span("trainer.adamw"):
                    params, state = trainer.adamw_step(params, grads, state,
                                                       lr=lr_t)
            if tape is None:
                tape = tape_size(loss)
            totals.append(detail.total)
            step += 1
        it.close()
    return {"totals": totals, "params": params, "tape": tape,
            "batch": batch, "epoch_seed": ep_seed}


def traced_pretrain_call(run, ds, tr: Tracer):
    t0 = time.perf_counter()
    out = traced_pretrain(run, ds, tr)
    return out, time.perf_counter() - t0


def check_traced(ref, traced) -> None:
    ref_totals = [r["total"] for r in ref.step_records]
    if traced["totals"] != ref_totals:
        raise CheckFailed(f"traced losses {traced['totals']} differ from "
                          f"pretrain's {ref_totals}")
    if (model.params_fingerprint(traced["params"])
            != model.params_fingerprint(ref.params)):
        raise CheckFailed("traced final parameters differ from pretrain's")


def view_pairs(run, ds, traced) -> list[float]:
    """Re-make the last batch's first view pairs by direct
    `augmentation.make_view_pair` calls on the same keyed streams; the
    views must equal the batch's. Returns seconds per call."""
    batch, ep_seed = traced["batch"], traced["epoch_seed"]
    times = []
    for k, i in enumerate(batch.source_indices[:VIEW_PAIR_SAMPLES]):
        rng = np.random.default_rng([ep_seed, 1, int(i)])
        t0 = time.perf_counter()
        v1, v2 = augmentation.make_view_pair(ds.inputs[i], run.augment, rng)
        times.append(time.perf_counter() - t0)
        if not (np.array_equal(v1, batch.views[2 * k])
                and np.array_equal(v2, batch.views[2 * k + 1])):
            raise CheckFailed(f"view pair of sample {i} differs from the "
                              "batch's")
    return times


def kernel_inputs(w: Workload, seed: int, ds) -> dict:
    run = run_config(w, seed)
    params = model.init_params(trainer.encoder_config_for_run(run),
                               run.model.head_dim, run.seed)
    lo, hi = run.augment.crop_scale
    side = round(run.data.gen.height * math.sqrt((lo + hi) / 2))
    return kernel_stage.make_inputs(
        np.random.default_rng([seed, 7]), 2 * w.batch_n, run.model.head_dim,
        side, run.augment.crop_out, ds.inputs[0],
        [p.data.shape for p in params.values()])


def pretrain_op(run, ds, ops: Ops, tr: Tracer, acc: dict) -> None:
    """One `trainer.pretrain` call; in a traced run, then the traced
    driver on the same config and its checks. Appends to ``acc``."""
    ref = ops.run(f"pretrain seed {run.seed}", pretrain_call, run, ds)
    if ref is None:
        return
    acc["trained"], elapsed = ref
    acc["rates"].append(run.batch_n * run.steps / elapsed)
    if not tr.enabled:
        return
    got = ops.run(f"traced pretrain seed {run.seed}", traced_pretrain_call,
                  run, ds, tr)
    if got is None:
        return
    traced, traced_elapsed = got
    acc["overheads"].append(traced_elapsed / elapsed - 1.0)
    acc["tape"] = traced["tape"]
    ops.run(f"traced driver match seed {run.seed}", check_traced,
            acc["trained"], traced)
    acc["view_times"] += ops.run(f"view pairs seed {run.seed}", view_pairs,
                                 run, ds, traced) or []


def eval_call(w: Workload, seed: int, protocol: str, ckpt: Path, data: Path,
              tr: Tracer) -> float:
    """One `vcl eval` run of one protocol; returns the seconds spent in
    `linear_probe` or `low_shot_finetune`."""
    with tr.span("trainer.load_checkpoint"):
        ck = trainer.load_checkpoint(ckpt)
    with tr.span("datasets.load"):
        ds = datasets.load(data)
    train, test = evaluation.train_test_split(ds, test_fraction=0.2,
                                              seed=seed)
    t0 = time.perf_counter()
    if protocol == "linear":
        r = evaluation.linear_probe(
            ck.params, train, test,
            evaluation.ProbeConfig(steps=w.probe_steps, seed=seed))
    else:
        r = evaluation.low_shot_finetune(
            ck.params, LOWSHOT_FRACTION, train, test,
            evaluation.FinetuneConfig(steps=w.finetune_steps, seed=seed))
    elapsed = time.perf_counter() - t0
    accs = list(r.per_attribute) + [r.mean_accuracy]
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs):
        raise CheckFailed(f"{protocol} accuracies outside [0, 1]: {accs}")
    return elapsed


# ---------------------------------------------------------------------------
# one run

def measure(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, import_s: float = 0.0) -> dict:
    """Run workload ``w`` once; returns the result object run.py prints."""
    tr = Tracer(trace)
    ops = Ops()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ds = setup_once(w, seed, workdir, tr)
        setup_times.append(time.perf_counter() - t0)

    kin = kernel_inputs(w, seed, ds)
    for name in KERNELS:
        ops.run(f"kernel {name}", kernel_stage.verify, kin, name)
    kernel_times = kernel_stage.time_kernels(kin) if trace else {}

    pre = {"rates": [], "overheads": [], "view_times": [], "trained": None,
           "tape": None}
    times = {"linear": [], "lowshot": []}
    ckpt, saved = workdir / "init.vclc", None
    busy = {"pretrain": 0.0, "eval": 0.0}
    last = {"pretrain": 0.0, "linear": 0.0, "lowshot": 0.0}
    evals = 0
    first = ["pretrain", "linear", "lowshot"]  # each runs once regardless
    end = time.perf_counter() + seconds
    while True:
        if first:
            op = first.pop(0)
        else:
            if busy["pretrain"] <= PRETRAIN_SHARE * sum(busy.values()):
                op = "pretrain"
            else:
                op = ("linear", "lowshot")[evals % 2]
            if time.perf_counter() + last[op] > end:
                break
        kind = "pretrain" if op == "pretrain" else "eval"
        trained = pre["trained"]
        if kind == "eval" and trained is not None and trained is not saved:
            ckpt, saved = workdir / "trained.vclc", trained
            trainer.save_checkpoint(ckpt, trained.params, trained.state,
                                    trained.step)
        gc.collect()
        t0 = time.perf_counter()
        if kind == "pretrain":
            pretrain_op(run_config(w, seed, len(pre["rates"])), ds, ops, tr,
                        pre)
        else:
            got = ops.run(f"eval {op} {evals // 2 + 1}", eval_call, w, seed,
                          op, ckpt, workdir / "data.vcld", tr)
            if got is not None:
                times[op].append(got)
            evals += 1
        last[op] = time.perf_counter() - t0
        busy[kind] += last[op]

    if trace:
        metrics = _per_layer(tr, pre, kernel_times)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "train.samples_per_s": _median(pre["rates"]),
            "eval.probe_s": _median(times["linear"]),
            "eval.lowshot_s": _median(times["lowshot"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
        "spans": tr.spans,
    }


def _median(xs):
    return statistics.median(xs) if xs else None


def _pct(xs, q):
    return float(np.percentile(xs, q)) if xs else None


def _ms(xs):
    return _median([x * 1e3 for x in xs])


def _per_layer(tr: Tracer, pre: dict, kernel_times: dict) -> dict:
    steps = [d * 1e3 for d in tr.durations("step")]
    batch = [d * 1e3 for d in tr.durations("datasets.batch")]
    out = {
        "datasets.generate_s": _median(tr.durations("datasets.generate")),
        "datasets.load_ms": _ms(tr.durations("datasets.load")),
        "trainer.load_checkpoint_ms": _ms(
            tr.durations("trainer.load_checkpoint")),
        "datasets.batch_ms.p50": _pct(batch, 50),
        "datasets.batch_ms.p90": _pct(batch, 90),
        "augmentation.view_pair_us.p50": _median(
            [t * 1e6 for t in pre["view_times"]]),
        "model.encode_ms": _ms(tr.durations("model.encode")),
        "model.head_sample_ms": _ms(tr.durations("model.head_sample")),
        "losses.forward_ms": _ms(tr.durations("losses.forward")),
        "autograd.backward_ms": _ms(tr.durations("autograd.backward")),
        "autograd.tape_nodes": pre["tape"] and pre["tape"][0],
        "autograd.tape_bytes": pre["tape"] and pre["tape"][1],
        "trainer.adamw_ms": _ms(tr.durations("trainer.adamw")),
        "step.ms_p50": _pct(steps, 50),
        "step.ms_p90": _pct(steps, 90),
        "step.unaccounted_ms": _ms(tr.self_times("step")),
        "trace.overhead_frac": _median(pre["overheads"]),
    }
    for name, (sec, flop, nbytes) in kernel_times.items():
        scale, unit = (1e6, "us") if name == "bilinear_resize" else (1e3, "ms")
        out[f"kernels.{name}_{unit}"] = sec * scale
        out[f"kernels.{name}.flop_computed"] = flop
        out[f"kernels.{name}.bytes_computed"] = nbytes
    return out


# ---------------------------------------------------------------------------
# environment and entry point

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "using_numba": bool(getattr(kernels, "USING_NUMBA", False)),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    ready = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched-at", type=float, default=None)
    args = ap.parse_args(argv)
    if Path(vcl.__file__).resolve().parent != ROOT / "src" / "vcl":
        print(f"error: vcl imported from {vcl.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    import_s = 0.0 if args.launched_at is None else ready - args.launched_at

    w = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = measure(w, args.seed, args.seconds, bool(args.trace),
                         workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = result.pop("spans")
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{w.name}-seed{args.seed}.json").write_text(
            json.dumps({"spans": spans}))

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {w.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pretraining loop: AdamW, cosine annealing, checkpoints, metrics.

One training step draws a shuffled batch of augmented view pairs, runs
encoder and Gaussian head, samples latents through the reparameterization
trick, backpropagates the total loss and applies a fused AdamW update.
AdamW's settings are one ``config.OptimSection``, carried by its state.
Every stream of randomness (batch order, per-sample augmentation, the
sampling noise xi) is keyed by the run seed plus structural indices
(epoch, sample, step, view), never by call order, so a run is both
reproducible and resumable: restarting from a checkpoint at step t
replays exactly the steps an uninterrupted run would have taken.

Given an output directory, each step's record is appended to
``metrics.jsonl`` and each epoch's to ``epochs.jsonl`` as it is made,
one flushed line at a time, so a crash keeps every finished step. A
non-finite loss aborts immediately with NanLossError carrying a
diagnostic snapshot; nothing is written past the last good checkpoint.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from vcl import kernels
from vcl.autograd import Tensor
from vcl.config import OptimSection, RunConfig, run_config_to_dict
from vcl.datasets import (FormatError, LabeledDataset, atomic_write, batches,
                          generate_synthetic, inject_outliers, read_container,
                          write_container)
from vcl.losses import LossBreakdown, nt_xent_cosine, total_loss
from vcl.model import (EncoderConfig, encode, gaussian_head, init_params,
                       reparameterize)

CKPT_MAGIC = b"VCLC"
CKPT_VERSION = 1


class NanLossError(RuntimeError):
    """Loss became non-finite; diagnostics holds the failing step's state."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class CheckpointError(FormatError):
    """Checkpoint file violates the container format."""


class ResumeError(ValueError):
    """A readable checkpoint cannot continue this run."""


@dataclass(frozen=True)
class Schedule:
    base_lr: float
    min_lr: float
    total_steps: int

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if not (0.0 <= self.min_lr <= self.base_lr):
            raise ValueError(
                f"min_lr must lie in [0, base_lr], got {self.min_lr}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(sched: Schedule, t: int) -> float:
    """Learning rate at step t of a half-cosine decay from base to min."""
    if not (0 <= t <= sched.total_steps):
        raise ValueError(
            f"step {t} outside schedule range [0, {sched.total_steps}]")
    span = sched.base_lr - sched.min_lr
    return sched.min_lr + 0.5 * span * (1.0 + math.cos(
        math.pi * t / sched.total_steps))


@dataclass
class OptimState:
    """AdamW's moments and shared step count, under the settings ``optim``."""
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    optim: OptimSection = OptimSection()


def init_optim_state(params: dict[str, Tensor], **optim) -> OptimState:
    """Zero moments at step 0 under ``OptimSection(**optim)``, which
    checks the AdamW keywords given and defaults the others."""
    return OptimState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
        t=0, optim=OptimSection(**optim))


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: OptimState,
               lr: float | None = None) -> tuple[dict[str, Tensor], OptimState]:
    """One decoupled-weight-decay Adam update over a named parameter dict.

    Out of place: returns fresh Tensors and a fresh state with t + 1 and
    the same settings; ``lr`` overrides ``state.optim.lr`` for this step.
    The step count is shared across parameters, as all of them update on
    every call.
    """
    if set(grads) != set(params):
        raise KeyError("grads must cover exactly the parameter names")
    o = state.optim
    eff_lr = o.lr if lr is None else float(lr)
    t = state.t + 1
    new_params: dict[str, Tensor] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        p2, new_m[name], new_v[name] = kernels.adamw_update(
            p.data, grads[name], state.m[name], state.v[name], t,
            eff_lr, o.beta1, o.beta2, o.eps, o.weight_decay)
        new_params[name] = Tensor(p2, requires_grad=True)
    return new_params, OptimState(new_m, new_v, t, o)


# ---------------------------------------------------------------------------
# deterministic stream derivation

def _epoch_seed(run_seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence(
        [run_seed, 3, epoch]).generate_state(1, np.uint64)[0])


def _outlier_seed(gen_seed: int) -> int:
    return int(np.random.SeedSequence(
        [gen_seed, 4]).generate_state(1, np.uint64)[0])


def _draw_xi(run_seed: int, step: int, n_views: int, dim: int) -> np.ndarray:
    """Sampling noise, one stream per (seed, step, view index)."""
    out = np.empty((n_views, dim), dtype=np.float32)
    rngs = kernels.keyed_rngs((run_seed, 2, step), np.arange(n_views))
    for i, rng in enumerate(rngs):
        out[i] = rng.standard_normal(dim)
    return out


def build_dataset(run: RunConfig) -> LabeledDataset:
    ds = generate_synthetic(run.data.gen)
    if run.data.rho > 0:
        ds = inject_outliers(ds, run.data.rho,
                             _outlier_seed(run.data.gen.seed),
                             run.data.outlier_mode)
    return ds


def encoder_config_for_run(run: RunConfig) -> EncoderConfig:
    oh, ow = run.augment.crop_out
    return EncoderConfig(input_shape=(3, oh, ow),
                         hidden_dims=tuple(run.model.hidden_dims),
                         embed_dim=run.model.embed_dim)


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    state: OptimState
    step: int
    step_records: list = field(default_factory=list)
    epoch_records: list = field(default_factory=list)
    checkpoint_path: Path | None = None


def _loss_for_batch(run: RunConfig, params: dict[str, Tensor], batch,
                    step: int) -> tuple[Tensor, LossBreakdown]:
    h = encode(params, batch.views)
    g = gaussian_head(params, h)
    if run.objective == "vcl_beta":
        xi = _draw_xi(run.seed, step, batch.views.shape[0],
                      run.model.head_dim)
        z = reparameterize(g, xi, run.model.reparam_mode)
        loss, detail = total_loss(z, g, batch.partner, run.loss)
    else:
        loss = nt_xent_cosine(g.mu, batch.partner, run.loss.tau)
        val = float(loss.data)
        detail = LossBreakdown(l_beta=val, l_dist=0.0, l_norm=0.0, total=val)
    return loss, detail


def write_json(path, obj) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_log(path: Path, key: str, below: int) -> list[dict]:
    """The records of the JSON-lines log at ``path`` whose ``key`` is
    below ``below``: none for a fresh run (``below`` 0) or an absent
    file. A last line that a crash left without its newline is dropped;
    any other line that is not such a record raises ResumeError."""
    if below == 0 or not path.is_file():
        return []
    try:
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        return [r for r in map(json.loads, lines) if r[key] < below]
    except (ValueError, TypeError, KeyError) as err:
        raise ResumeError(f"{path} is not a log of {key} records "
                          f"({type(err).__name__}: {err})") from None


def _write_log(path: Path, records: list[dict]) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _log(records: list, path: Path | None, rec: dict) -> None:
    """Keep ``rec`` and, given a path, append it there as one line."""
    records.append(rec)
    if path is not None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _epoch_record(epoch: int, steps: list[dict]) -> dict:
    n = len(steps)
    return {"epoch": epoch, "steps": n,
            **{f"mean_{k}": sum(r[k] for r in steps) / n
               for k in ("total", "l_beta", "l_dist", "l_norm")},
            "wall_ms": sum(r["wall_ms"] for r in steps)}


def pretrain(run: RunConfig, out_dir=None, resume=None,
             dataset: LabeledDataset | None = None) -> TrainResult:
    """Run the pretraining loop for ``run.steps`` optimizer steps.

    When ``out_dir`` is given, the run's ``resolved-config.json``,
    periodic checkpoints (every ``checkpoint_every`` epochs) and a final
    ``checkpoint.vclc`` are written there, and the step and epoch
    records are appended to ``metrics.jsonl`` and ``epochs.jsonl`` as
    they are made. ``resume`` restores params and optimizer state from a
    checkpoint and continues at its recorded step on the same seed
    streams, which reproduces the uninterrupted run exactly. A fresh run
    truncates both logs; a resume first cuts them to the steps below the
    checkpoint's and the epochs before the one it resumes in, whose
    record then also counts the kept steps, so the logs read as the
    uninterrupted run's (``wall_ms`` aside). A checkpoint already at
    ``run.steps``, one whose tensor names and shapes differ from the
    run's model, or a log in ``out_dir`` that is not one raises
    ResumeError before any file is written.
    """
    ds = dataset if dataset is not None else build_dataset(run)
    enc_cfg = encoder_config_for_run(run)
    spe = len(ds) // run.batch_n
    if spe < 1:
        raise ValueError(
            f"dataset of {len(ds)} rows cannot fill a batch of {run.batch_n}")

    params = init_params(enc_cfg, run.model.head_dim, run.seed)
    state = init_optim_state(params, **asdict(run.optim))
    step = 0
    if resume is not None:
        ck = load_checkpoint(resume)
        if ck.step >= run.steps:
            raise ResumeError(
                f"checkpoint is at step {ck.step}, not below the run's "
                f"budget of {run.steps} steps: nothing to resume")
        _check_same_model(ck, params)
        params, step = ck.params, ck.step
        state = replace(state, m=ck.m, v=ck.v, t=ck.step)

    sched = Schedule(base_lr=run.optim.lr,
                     min_lr=run.schedule.min_lr,
                     total_steps=run.steps)
    out_path = Path(out_dir) if out_dir is not None else None
    step_log = epoch_log = None
    epoch = step // spe
    # the records of the resumed epoch's steps before the checkpoint
    carried: list[dict] = []
    if out_path is not None:
        step_log = out_path / "metrics.jsonl"
        epoch_log = out_path / "epochs.jsonl"
        kept = _read_log(step_log, "step", step)
        kept_epochs = _read_log(epoch_log, "epoch", epoch)
        # only once a resume is accepted: a refused one changes no file
        out_path.mkdir(parents=True, exist_ok=True)
        write_json(out_path / "resolved-config.json", run_config_to_dict(run))
        _write_log(step_log, kept)
        _write_log(epoch_log, kept_epochs)
        carried = [r for r in kept if r["step"] >= epoch * spe]

    step_records: list[dict] = []
    epoch_records: list[dict] = []
    while step < run.steps:
        ep_seed = _epoch_seed(run.seed, epoch)
        ep_steps, carried = carried, []
        # a resumed epoch starts at its next untrained batch, and the
        # budget is checked before a batch is built
        it = batches(ds, run.batch_n, run.augment, ep_seed,
                     start=step - epoch * spe)
        while step < min(run.steps, (epoch + 1) * spe):
            t0 = time.perf_counter()
            batch = next(it)
            lr_t = cosine_lr(sched, step)
            loss, detail = _loss_for_batch(run, params, batch, step)
            if not math.isfinite(detail.total):
                raise NanLossError(
                    f"non-finite loss at step {step}",
                    {"step": step, "l_beta": detail.l_beta,
                     "l_dist": detail.l_dist, "l_norm": detail.l_norm,
                     "total": detail.total,
                     "views_min": float(batch.views.min()),
                     "views_max": float(batch.views.max())})
            loss.backward()
            del batch, loss  # the spent tape goes before AdamW runs
            params, state = adamw_step(
                params, {k: (p.grad if p.grad is not None
                             else np.zeros_like(p.data))
                         for k, p in params.items()}, state, lr=lr_t)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rec = {"step": step, "lr": lr_t, "l_beta": detail.l_beta,
                   "l_dist": detail.l_dist, "l_norm": detail.l_norm,
                   "total": detail.total, "wall_ms": wall_ms}
            _log(step_records, step_log, rec)
            ep_steps.append(rec)
            step += 1
        if ep_steps:
            _log(epoch_records, epoch_log, _epoch_record(epoch, ep_steps))
        if (out_path is not None and step == (epoch + 1) * spe
                and run.checkpoint_every > 0
                and (epoch + 1) % run.checkpoint_every == 0
                and step < run.steps):
            save_checkpoint(out_path / f"ckpt_epoch{epoch:04d}.vclc",
                            params, state, step)
        epoch += 1

    final = None
    if out_path is not None:
        final = out_path / "checkpoint.vclc"
        save_checkpoint(final, params, state, step)
    return TrainResult(params=params, state=state, step=step,
                       step_records=step_records,
                       epoch_records=epoch_records,
                       checkpoint_path=final)


# ---------------------------------------------------------------------------
# checkpoint container

@dataclass(frozen=True)
class CheckpointData:
    step: int
    params: dict[str, Tensor]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def _write_block(fh, arrays: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"name too long: {name[:32]}...")
        fh.write(struct.pack("<H", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<B", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<f4"))


def _read_block(read) -> dict[str, np.ndarray]:
    (count,) = struct.unpack("<I", read(4, "block count"))
    if count > 100000:
        raise CheckpointError(f"implausible tensor count {count}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", read(2, "name length"))
        raw_name = read(nlen, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"tensor name {raw_name!r} is not UTF-8") from None
        (rank,) = struct.unpack("<B", read(1, "rank"))
        if rank > 4:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        shape = struct.unpack(f"<{rank}I", read(4 * rank, "shape"))
        data = read(shape, f"data of {name!r}", "<f4")
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        out[name] = data
    return out


def save_checkpoint(path, params: dict[str, Tensor], state: OptimState,
                    step: int) -> None:
    with write_container(path, CKPT_MAGIC, CKPT_VERSION) as fh:
        fh.write(struct.pack("<Q", step))
        _write_block(fh, {k: p.data for k, p in params.items()})
        _write_block(fh, state.m)
        _write_block(fh, state.v)


def _check_same_model(ck: CheckpointData,
                      params: dict[str, Tensor]) -> None:
    """Raise ResumeError at the first checkpoint tensor (params, then m,
    then v) whose name or shape differs from the run's own model."""
    want = {k: p.data.shape for k, p in params.items()}
    for block, arrays in (("params", {k: p.data for k, p in
                                      ck.params.items()}),
                          ("m", ck.m), ("v", ck.v)):
        got = {k: a.shape for k, a in arrays.items()}
        for name in [*want, *(k for k in got if k not in want)]:
            there, here = got.get(name, "absent"), want.get(name, "absent")
            if there != here:
                raise ResumeError(
                    f"checkpoint was trained on another model: {block} "
                    f"tensor {name!r} is {there} there and {here} in this "
                    "run's config")


def load_checkpoint(path) -> CheckpointData:
    with read_container(path, CKPT_MAGIC, CKPT_VERSION,
                        CheckpointError) as read:
        (step,) = struct.unpack("<Q", read(8, "step"))
        raw_params = _read_block(read)
        m = _read_block(read)
        v = _read_block(read)
    if set(m) != set(raw_params) or set(v) != set(raw_params):
        raise CheckpointError("optimizer blocks do not match parameter names")
    params = {k: Tensor(arr, requires_grad=True)
              for k, arr in raw_params.items()}
    return CheckpointData(step=int(step), params=params, m=m, v=v)

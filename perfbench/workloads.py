"""The benchmark's workloads and metric names.

Each workload is the `vcl pretrain` -> `vcl eval` pipeline at one batch
size, run by a single caller in a closed loop: the next operation starts
only when the previous one has returned. Half of a run goes to pretrain
calls, half to evaluations of the latest trained encoder. The (2N)^2
contrastive loss and the per-sample augmentation chain trade places as
the batch grows, so the two batch sizes stress different layers:

- pretrain_beta: the acceptance shape (N = 128 pairs, 256 views of
  3x16x16). Augmentation and batch construction are a large share of
  the step, so `datasets` / `augmentation` changes show here.
- pretrain_beta_wide: the same model and data at N = 512 (1024 views).
  The (2N)^2 contrastive loss and its backward dominate, so `losses` /
  `kernels` / `autograd` changes and quadratic regressions show here.

On both, the evaluations run no augmentation and no contrastive loss:
batching and loss changes should leave `eval.*` unchanged.

This module imports nothing from vcl, so the launcher can validate a
workload name before the workload process starts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    batch_n: int
    # steps of one trainer.pretrain call, the unit of pretrain work. A
    # whole epoch (m // batch_n steps): a call that stops inside an epoch
    # builds one batch it never trains on, which a long run would not.
    steps_per_call: int
    m: int = 2048
    # steps of the linear probe and of the low-shot fine-tune; the
    # defaults of ProbeConfig and FinetuneConfig
    probe_steps: int = 2000
    finetune_steps: int = 300


WORKLOADS = {
    w.name: w for w in (
        Workload("pretrain_beta", batch_n=128, steps_per_call=16),
        Workload("pretrain_beta_wide", batch_n=512, steps_per_call=4),
    )
}

END_TO_END = {
    "setup_s": "s",
    "train.samples_per_s": "1/s",
    "eval.probe_s": "s",
    "eval.lowshot_s": "s",
    "peak_rss_mb": "MB",
}

KERNELS = ("pairwise_sqdist", "pairwise_sqdist_vjp", "bilinear_resize",
           "adamw_update")

PER_LAYER = {
    "datasets.generate_s": "s",
    "datasets.load_ms": "ms",
    "trainer.load_checkpoint_ms": "ms",
    "datasets.batch_ms.p50": "ms",
    "datasets.batch_ms.p90": "ms",
    "augmentation.view_pair_us.p50": "us",
    "model.encode_ms": "ms",
    "model.head_sample_ms": "ms",
    "losses.forward_ms": "ms",
    "autograd.backward_ms": "ms",
    "autograd.tape_nodes": "count",
    "autograd.tape_bytes": "B",
    "trainer.adamw_ms": "ms",
    "kernels.pairwise_sqdist_ms": "ms",
    "kernels.pairwise_sqdist_vjp_ms": "ms",
    "kernels.bilinear_resize_us": "us",
    "kernels.adamw_update_ms": "ms",
    **{f"kernels.{k}.flop_computed": "flop" for k in KERNELS},
    **{f"kernels.{k}.bytes_computed": "B" for k in KERNELS},
    "step.ms_p50": "ms",
    "step.ms_p90": "ms",
    "step.unaccounted_ms": "ms",
    "trace.overhead_frac": "fraction",
}

"""Evaluation protocols: linear probing and low-shot fine-tuning.

The linear probe freezes the encoder, computes embeddings once on
untracked copies of its parameters, and trains an affine head under
AdamW for a fixed budget. Low-shot keeps a cloned encoder trainable,
draws a label-stratified subsample of the training split, and fine-tunes
end to end. Both report per-attribute and mean accuracies at the 0.5
threshold.

Both keep their affine head as one float32 (d + 1, A) tensor [W; b],
one AdamW entry, and minimise the mean binary cross-entropy
softplus(x) - x y over its logits x = h W + b. Neither the loss value
nor the head is recorded: ``_head_grads`` computes the logits, the loss
gradient g with respect to them (``_bce_grad``, in closed form) and the
head's own gradient [h^T g; sum(g)] with the same products and sums the
tape's matmul and add nodes evaluate, so the heads train on the same
bits as a taped head would. The probe casts its frozen features to
float64 once, so its products accumulate in float64 as the tape's do by
default, and records no tape at all. Low-shot works in float32
throughout: it records only the encoder, with ``float32_gemm``, seeds
that tape with the cotangent g W^T of its output h, and updates with
``float32_update``. The probe's AdamW updates, like pretrain's, work in
float64.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from vcl.autograd import Tensor, _expit
from vcl.config import OptimSection
from vcl.datasets import LabeledDataset
from vcl.model import _glorot, encode, params_fingerprint
from vcl.trainer import adamw_step, init_optim_state


@dataclass(frozen=True)
class ProbeConfig:
    steps: int = 2000
    lr: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        OptimSection(lr=self.lr, weight_decay=self.weight_decay)


@dataclass(frozen=True)
class FinetuneConfig(ProbeConfig):
    steps: int = 300


@dataclass(frozen=True)
class ProbeResult:
    protocol: str
    fraction: float | None
    seed: int
    per_attribute: list
    mean_accuracy: float
    train_size: int
    test_size: int
    subsample_size: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def mean_attribute_accuracy(pred, labels) -> tuple[list, float]:
    """Accuracy of thresholded predictions, per attribute and averaged.

    ``pred`` holds probabilities or scores compared against 0.5;
    ``labels`` holds binary targets.
    """
    p = np.asarray(pred)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 2:
        raise ValueError(
            f"pred {p.shape} and labels {y.shape} must be equal (M, A) shapes")
    hits = (p > 0.5) == (y == 1)
    per_attr = [float(a) for a in hits.mean(axis=0)]
    return per_attr, float(hits.mean())


def _bce_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of mean(softplus(x) - x y) with respect to float32 logits x.

    Equal bit for bit to what backpropagating the recorded chain
    tmean(sub(softplus(x), mul(x, y))) leaves in x.grad: the mean hands
    each entry v = 1/n, softplus contributes v * expit(x) and the product
    (-v) * y. The chain added them to a zero buffer first; that changes
    no bit, since v * expit(x) is never -0.
    """
    v = np.float32(1) / logits.size
    return v * _expit(logits) + (-v) * targets


def _head_grads(h: np.ndarray, wb: np.ndarray, targets: np.ndarray) -> tuple:
    """(g_wb, g) for the affine head x = h W + b, wb = [W; b] in float32.

    g = dL/dx is float32. The products h W and h^T g, in rows :d of
    g_wb, run in h's dtype and round to float32, and sum(g) over rows,
    in row d, accumulates in float64. So float32 features h give the
    values a taped head recorded with ``float32_gemm`` leaves in its
    .grad, and their float64 copy gives the default ``matmul``'s,
    without a cast per call; the ``add`` VJP's ``_unbroadcast`` sums
    the bias gradient the same way in both.
    """
    w = wb[:-1].astype(h.dtype, copy=False)
    logits = (h @ w).astype(np.float32, copy=False) + wb[-1]
    g = _bce_grad(logits, targets)
    g_wb = np.empty_like(wb)
    g_wb[:-1] = h.T @ g.astype(h.dtype, copy=False)
    g_wb[-1] = np.add.reduce(g, axis=0, dtype=np.float64)
    return g_wb, g


def _new_head(rng: np.random.Generator, d: int, a: int) -> Tensor:
    """An affine head from d features to a logits as one (d + 1, a)
    tensor [W; b]: Glorot weights W, zero bias b."""
    return Tensor(np.concatenate((_glorot(rng, d, a),
                                  np.zeros((1, a), dtype=np.float32))))


def _fit_head(h64: np.ndarray, targets: np.ndarray, head: Tensor,
              cfg: ProbeConfig) -> Tensor:
    """``head`` after cfg.steps AdamW steps on the frozen features h64,
    trained in place."""
    params = {"probe": head}
    state = init_optim_state(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        adamw_step(params, {"probe": _head_grads(h64, head.data, targets)[0]},
                   state)
    return head


def _score(feats: np.ndarray, wb: np.ndarray,
           test_ds: LabeledDataset) -> tuple:
    """(per-attribute, mean) accuracy of the head ``wb`` on test features."""
    logits = feats @ wb[:-1] + wb[-1]
    return mean_attribute_accuracy(_expit(logits), test_ds.labels)


# rows per untaped encoder forward in _features
ENCODE_ROWS = 256


def _features(params: dict[str, Tensor], inputs: np.ndarray,
              float32_gemm: bool = False) -> np.ndarray:
    """encode(params, inputs, float32_gemm).data with no tape,
    ENCODE_ROWS rows at a time, so the matmul scratch (float64 operand
    copies, or float32 activations) stays bounded. A row of either
    product does not depend on the other rows, so neither does a
    feature."""
    frozen = {k: Tensor(p.data) for k, p in params.items()}
    out = np.empty((len(inputs), params["enc_out.w"].data.shape[1]),
                   dtype=np.float32)
    for i in range(0, len(inputs), ENCODE_ROWS):
        out[i:i + ENCODE_ROWS] = encode(frozen, inputs[i:i + ENCODE_ROWS],
                                        float32_gemm).data
    return out


def _check_split(train_ds: LabeledDataset, test_ds: LabeledDataset) -> None:
    if train_ds.labels.shape[1] != test_ds.labels.shape[1]:
        raise ValueError("train and test attribute counts differ")
    if train_ds.inputs.shape[1:] != test_ds.inputs.shape[1:]:
        raise ValueError("train and test input shapes differ")


def train_test_split(ds: LabeledDataset, test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic row split into (train, test) by a seeded permutation."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(
            f"test_fraction must be in (0, 1), got {test_fraction}")
    m = len(ds)
    n_test = max(1, int(round(m * test_fraction)))
    if n_test >= m:
        raise ValueError(f"test fraction {test_fraction} leaves no train rows")
    # stream id 5; ids 0..4 belong to shuffling, augmentation, noise,
    # epoch seeding and outlier injection
    perm = np.random.default_rng([seed, 5]).permutation(m)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])

    def take(idx):
        return LabeledDataset(inputs=ds.inputs[idx], labels=ds.labels[idx],
                              outlier_mask=ds.outlier_mask[idx])
    return take(train_idx), take(test_idx)


def linear_probe(params: dict[str, Tensor], train_ds: LabeledDataset,
                 test_ds: LabeledDataset,
                 cfg: ProbeConfig = ProbeConfig()) -> ProbeResult:
    """Frozen-encoder linear evaluation.

    Embeddings are computed once, without a tape, and cast to float64
    once; only the affine head trains, on closed-form gradients. The
    encoder parameter bytes are fingerprinted before and after as a hard
    guarantee that probing cannot leak into the model.
    """
    _check_split(train_ds, test_ds)
    before = params_fingerprint(params)
    feats_train = _features(params, train_ds.inputs)
    feats_test = _features(params, test_ds.inputs)

    head = _fit_head(feats_train.astype(np.float64),
                     train_ds.labels.astype(np.float32),
                     _new_head(np.random.default_rng(cfg.seed),
                               feats_train.shape[1], train_ds.labels.shape[1]),
                     cfg)

    if params_fingerprint(params) != before:
        raise RuntimeError("probe training mutated the frozen encoder")
    per_attr, mean_acc = _score(feats_test, head.data, test_ds)
    return ProbeResult(protocol="linear", fraction=None, seed=cfg.seed,
                       per_attribute=per_attr, mean_accuracy=mean_acc,
                       train_size=len(train_ds), test_size=len(test_ds))


def stratified_subsample(labels: np.ndarray, fraction: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Indices of a floor(fraction * M)-sized subsample.

    Rows are grouped by their full label combination; each group
    contributes floor(fraction * group size) draws, and any remaining
    quota is filled uniformly from the leftovers, so rare combinations
    cannot be silently dropped to zero when the quota allows them.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    m = labels.shape[0]
    target = int(math.floor(fraction * m))
    if target < 1:
        raise ValueError(
            f"fraction {fraction} of {m} rows yields an empty subsample")
    if target >= m:
        return np.arange(m, dtype=np.int64)
    groups: dict[bytes, list] = {}
    for i in range(m):
        groups.setdefault(labels[i].tobytes(), []).append(i)
    chosen: list[int] = []
    for key in sorted(groups):
        members = groups[key]
        take = int(math.floor(fraction * len(members)))
        take = min(take, target - len(chosen))
        if take > 0:
            picks = rng.choice(len(members), size=take, replace=False)
            chosen.extend(members[j] for j in picks)
    if len(chosen) < target:
        pool = np.setdiff1d(np.arange(m, dtype=np.int64),
                            np.asarray(chosen, dtype=np.int64))
        fill = rng.choice(pool.size, size=target - len(chosen), replace=False)
        chosen.extend(int(pool[j]) for j in fill)
    return np.sort(np.asarray(chosen, dtype=np.int64))


def low_shot_finetune(params: dict[str, Tensor], fraction: float,
                      train_ds: LabeledDataset, test_ds: LabeledDataset,
                      cfg: FinetuneConfig = FinetuneConfig()) -> ProbeResult:
    """Fine-tune a cloned encoder plus a fresh head on a label fraction.

    The caller's params are never touched; training happens on copies.
    fraction = 1.0 is the sanity upper bound, fine-tuning on the full
    training split. Every product, the final test encode included, is a
    float32 GEMM, and every AdamW update runs in float32.
    """
    _check_split(train_ds, test_ds)
    rng = np.random.default_rng(cfg.seed)
    idx = stratified_subsample(train_ds.labels, fraction, rng)
    sub_inputs = train_ds.inputs[idx]
    sub_targets = train_ds.labels[idx].astype(np.float32)

    trainable = {k: Tensor(params[k].data.copy(), requires_grad=True)
                 for k in params if k.startswith("enc")}
    trainable["probe"] = _new_head(rng, params["enc_out.w"].data.shape[1],
                                   train_ds.labels.shape[1])
    wb = trainable["probe"].data  # updated in place by every step
    state = init_optim_state(trainable, lr=cfg.lr,
                             weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        h = encode(trainable, sub_inputs, float32_gemm=True)
        g_wb, g = _head_grads(h.data, wb, sub_targets)
        h.backward(g @ wb[:-1].T)
        del h  # the spent tape goes before AdamW runs
        adamw_step(trainable, {
            **{k: p.grad for k, p in trainable.items() if p.grad is not None},
            "probe": g_wb}, state, float32_update=True)

    per_attr, mean_acc = _score(
        _features(trainable, test_ds.inputs, float32_gemm=True), wb, test_ds)
    return ProbeResult(protocol="low_shot", fraction=float(fraction),
                       seed=cfg.seed, per_attribute=per_attr,
                       mean_accuracy=mean_acc, train_size=len(train_ds),
                       test_size=len(test_ds), subsample_size=int(idx.size))

"""Evaluation protocols: linear probing and low-shot fine-tuning.

The linear probe freezes the encoder, computes embeddings once on
untracked copies of its parameters, and trains an affine head under
AdamW for a fixed budget. Low-shot keeps a cloned encoder trainable,
draws a label-stratified subsample of the training split, and fine-tunes
end to end. Both report per-attribute and mean accuracies at the 0.5
threshold.

Both heads minimise the mean binary cross-entropy softplus(x) - x y over
their logits x = h w + b, but neither the loss value nor the head is
recorded: ``_head_grads`` computes the logits, the loss gradient g with
respect to them (``_bce_grad``, in closed form) and the head's own
gradients h^T g and sum(g) with the same float64 products and sums the
tape's matmul and add nodes evaluated, so the heads train on the same
bits as a taped head would. The probe casts its frozen features to
float64 once and records no tape at all; low-shot records only the
encoder, whose tape is seeded with the cotangent g w^T of its output h.
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


def _head_grads(h64: np.ndarray, w: np.ndarray, b: np.ndarray,
                targets: np.ndarray) -> tuple:
    """(g_w, g_b, g64) for the affine head x = h w + b on float32 w, b.

    ``h64`` is the float64 copy of the float32 features h, and g64 the
    float64 copy of g = dL/dx. g_w = h^T g and g_b = sum(g) over rows,
    accumulated in float64 and rounded to float32: the values the
    ``matmul`` and ``add`` VJPs, with ``_unbroadcast``, leave in a taped
    head's .grad.
    """
    w64 = w.astype(np.float64)
    logits = (h64 @ w64).astype(np.float32) + b
    g64 = _bce_grad(logits, targets).astype(np.float64)
    g_w = (h64.T @ g64).astype(np.float32)
    g_b = np.add.reduce(g64, axis=0).astype(np.float32)
    return g_w, g_b, g64


def _new_head(rng: np.random.Generator, d: int, a: int) -> dict:
    """An affine head from d features to a logits: Glorot weights, zero bias."""
    return {"probe.w": Tensor(_glorot(rng, d, a), requires_grad=True),
            "probe.b": Tensor(np.zeros(a, dtype=np.float32),
                              requires_grad=True)}


def _fit_head(h64: np.ndarray, targets: np.ndarray, head: dict,
              cfg: ProbeConfig) -> dict:
    """``head`` after cfg.steps AdamW steps on the frozen features h64.

    Weights and bias train as one flat tensor, so a step makes one
    ``adamw_update`` call instead of two; the update is elementwise, so
    every value is the one the two tensors would get on their own. The
    returned ``probe.w`` and ``probe.b`` are views of the flat tensor.
    """
    shape = head["probe.w"].data.shape
    k = head["probe.w"].data.size
    flat = {"probe": Tensor(np.concatenate(
        (head["probe.w"].data, head["probe.b"].data), axis=None),
        requires_grad=True)}
    state = init_optim_state(flat, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        wb = flat["probe"].data
        g_w, g_b, _ = _head_grads(h64, wb[:k].reshape(shape), wb[k:], targets)
        flat, state = adamw_step(
            flat, {"probe": np.concatenate((g_w, g_b), axis=None)}, state)
    wb = flat["probe"].data
    return {"probe.w": Tensor(wb[:k].reshape(shape)),
            "probe.b": Tensor(wb[k:])}


def _score(feats: np.ndarray, head: dict, test_ds: LabeledDataset) -> tuple:
    """(per-attribute, mean) accuracy of ``head`` on the test features."""
    logits = feats @ head["probe.w"].data + head["probe.b"].data
    return mean_attribute_accuracy(_expit(logits), test_ds.labels)


# rows per untaped encoder forward in _features
ENCODE_ROWS = 256


def _features(params: dict[str, Tensor], inputs: np.ndarray) -> np.ndarray:
    """encode(params, inputs).data with no tape, ENCODE_ROWS rows at a
    time, so the float64 matmul scratch stays bounded. A row of a float64
    matmul does not depend on the other rows, so neither does a feature."""
    frozen = {k: Tensor(p.data) for k, p in params.items()}
    out = np.empty((len(inputs), params["enc_out.w"].data.shape[1]),
                   dtype=np.float32)
    for i in range(0, len(inputs), ENCODE_ROWS):
        out[i:i + ENCODE_ROWS] = encode(frozen, inputs[i:i + ENCODE_ROWS]).data
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
    per_attr, mean_acc = _score(feats_test, head, test_ds)
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
    training split.
    """
    _check_split(train_ds, test_ds)
    rng = np.random.default_rng(cfg.seed)
    idx = stratified_subsample(train_ds.labels, fraction, rng)
    sub_inputs = train_ds.inputs[idx]
    sub_targets = train_ds.labels[idx].astype(np.float32)

    trainable = {k: Tensor(params[k].data.copy(), requires_grad=True)
                 for k in params if k.startswith("enc")}
    trainable.update(_new_head(rng, params["enc_out.w"].data.shape[1],
                               train_ds.labels.shape[1]))
    state = init_optim_state(trainable, lr=cfg.lr,
                             weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        h = encode(trainable, sub_inputs)
        w = trainable["probe.w"].data
        g_w, g_b, g64 = _head_grads(h.data.astype(np.float64), w,
                                    trainable["probe.b"].data, sub_targets)
        h.backward((g64 @ w.astype(np.float64).T).astype(np.float32))
        del h  # the spent tape goes before AdamW runs
        trainable, state = adamw_step(trainable, {
            **{k: p.grad for k, p in trainable.items() if p.grad is not None},
            "probe.w": g_w, "probe.b": g_b}, state)

    per_attr, mean_acc = _score(_features(trainable, test_ds.inputs),
                                trainable, test_ds)
    return ProbeResult(protocol="low_shot", fraction=float(fraction),
                       seed=cfg.seed, per_attribute=per_attr,
                       mean_accuracy=mean_acc, train_size=len(train_ds),
                       test_size=len(test_ds), subsample_size=int(idx.size))

"""Probe protocols: linear evaluation, low-shot fine-tuning, splits."""

import gc

import numpy as np
import pytest

from vcl import evaluation, kernels
from vcl.autograd import (Tensor, _expit, add, matmul, mul, record, sub,
                          tmean)
from vcl.datasets import GenConfig, LabeledDataset, generate_synthetic
from vcl.evaluation import (FinetuneConfig, ProbeConfig, _bce_grad,
                            _head_grads, linear_probe, low_shot_finetune,
                            mean_attribute_accuracy, stratified_subsample,
                            train_test_split)
from vcl.model import EncoderConfig, encode, init_params, params_fingerprint
from vcl.trainer import adamw_step, init_optim_state


def _identity_setup(m=400, a=4, margin=0.5):
    """Inputs whose coordinates are the labels, and an encoder that
    passes them through untouched."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=(m, a)).astype(np.uint8)
    inputs = (labels.astype(np.float32) - 0.5) * 2.0 * margin
    ds = LabeledDataset(inputs=inputs, labels=labels,
                        outlier_mask=np.zeros(m, dtype=bool))
    eye = np.eye(a, dtype=np.float32)
    params = {
        "enc0.w": Tensor(np.vstack([eye, -eye]).T.copy(), requires_grad=True),
        "enc0.b": Tensor(np.zeros(2 * a, dtype=np.float32),
                         requires_grad=True),
        "enc_out.w": Tensor(np.vstack([eye, -eye]).copy(),
                            requires_grad=True),
        "enc_out.b": Tensor(np.zeros(a, dtype=np.float32),
                            requires_grad=True),
    }
    return params, ds


def test_linear_probe_identity_oracle():
    params, ds = _identity_setup()
    train_ds, test_ds = train_test_split(ds, 0.25, seed=0)
    result = linear_probe(params, train_ds, test_ds, ProbeConfig(lr=0.05))
    assert result.mean_accuracy >= 0.99
    assert result.protocol == "linear"
    assert result.fraction is None
    assert result.train_size == len(train_ds)
    assert result.test_size == len(test_ds)
    assert len(result.per_attribute) == 4


def test_linear_probe_leaves_encoder_untouched():
    params, ds = _identity_setup()
    train_ds, test_ds = train_test_split(ds, 0.25, seed=0)
    before = params_fingerprint(params)
    linear_probe(params, train_ds, test_ds, ProbeConfig(steps=50))
    assert params_fingerprint(params) == before


def test_linear_probe_deterministic():
    params, ds = _identity_setup()
    train_ds, test_ds = train_test_split(ds, 0.25, seed=0)
    cfg = ProbeConfig(steps=60, seed=7)
    r1 = linear_probe(params, train_ds, test_ds, cfg)
    r2 = linear_probe(params, train_ds, test_ds, cfg)
    assert r1.mean_accuracy == r2.mean_accuracy
    assert r1.per_attribute == r2.per_attribute
    assert r1.to_dict() == r2.to_dict()


def test_train_test_split_partitions():
    ds = generate_synthetic(GenConfig(m=50, seed=2))
    tr, te = train_test_split(ds, 0.2, seed=3)
    assert len(tr) == 40 and len(te) == 10
    tr2, te2 = train_test_split(ds, 0.2, seed=3)
    assert tr == tr2 and te == te2
    tr3, _ = train_test_split(ds, 0.2, seed=4)
    assert tr != tr3
    joined = np.vstack([tr.labels, te.labels])
    assert sorted(map(tuple, joined)) == sorted(map(tuple, ds.labels))
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        train_test_split(ds, 1.0, seed=0)


def test_mean_attribute_accuracy_known_case():
    pred = np.array([[0.9, 0.2], [0.1, 0.8], [0.7, 0.4]])
    labels = np.array([[1, 0], [0, 1], [0, 1]])
    per, mean = mean_attribute_accuracy(pred, labels)
    assert per == [pytest.approx(2 / 3), pytest.approx(2 / 3)]
    assert mean == pytest.approx(2 / 3)


def test_stratified_subsample_sizes_and_coverage():
    rng = np.random.default_rng(5)
    labels = np.repeat(np.array([[0, 0], [0, 1], [1, 0], [1, 1]],
                                dtype=np.uint8), 25, axis=0)
    idx = stratified_subsample(labels, 0.2, np.random.default_rng(0))
    assert idx.size == 20
    assert len(np.unique(idx)) == 20
    combos = {tuple(labels[i]) for i in idx}
    assert len(combos) == 4  # every group keeps representation
    full = stratified_subsample(labels, 1.0, np.random.default_rng(0))
    assert np.array_equal(full, np.arange(100))
    with pytest.raises(ValueError):
        stratified_subsample(labels, 0.0, rng)
    with pytest.raises(ValueError):
        stratified_subsample(labels[:5], 0.05, rng)


def test_low_shot_finetune_protocol():
    params, ds = _identity_setup(m=600)
    train_ds, test_ds = train_test_split(ds, 0.25, seed=0)
    before = params_fingerprint(params)
    result = low_shot_finetune(params, 0.2, train_ds, test_ds,
                               FinetuneConfig(lr=0.05))
    assert params_fingerprint(params) == before
    assert result.protocol == "low_shot"
    assert result.fraction == 0.2
    assert result.subsample_size == int(0.2 * len(train_ds))
    assert result.mean_accuracy >= 0.9  # identity features, easy head
    d = result.to_dict()
    assert d["subsample_size"] == result.subsample_size


def test_low_shot_frees_the_spent_tape_before_adamw(monkeypatch, tape_refs):
    params, train_ds, test_ds = _small_encoder_setup()
    tapes = []

    def keeping_encode(p, x):
        h = encode(p, x)
        tapes.append(tape_refs(h))
        return h

    alive_in_adamw = []
    step = evaluation.adamw_step

    def checking_step(*args):
        alive_in_adamw.append(sum(r() is not None for r in tapes[-1]))
        return step(*args)

    monkeypatch.setattr(evaluation, "encode", keeping_encode)
    monkeypatch.setattr(evaluation, "adamw_step", checking_step)
    gc.disable()  # reference counting alone must free the tape
    try:
        low_shot_finetune(params, 0.5, train_ds, test_ds,
                          FinetuneConfig(steps=2))
    finally:
        gc.enable()
    assert len(tapes[0]) > 3
    assert alive_in_adamw == [0, 0]


def test_low_shot_full_fraction_uses_all_rows():
    params, ds = _identity_setup(m=200)
    train_ds, test_ds = train_test_split(ds, 0.25, seed=0)
    result = low_shot_finetune(params, 1.0, train_ds, test_ds,
                               FinetuneConfig(steps=60))
    assert result.subsample_size == len(train_ds)
    with pytest.raises(ValueError):
        low_shot_finetune(params, 0.0, train_ds, test_ds)


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(steps=0)
    with pytest.raises(ValueError):
        ProbeConfig(lr=0.0)
    with pytest.raises(ValueError):
        FinetuneConfig(weight_decay=-0.1)


# ---------------------------------------------------------------------------
# the heads' closed-form BCE cotangent against the recorded loss chain

def _taped_bce(logits: Tensor, targets: Tensor) -> Tensor:
    # softplus(x) - x*y: the numerically safe form of -log p(y | x)
    x = logits.data
    softplus = record(np.logaddexp(0.0, x).astype(x.dtype), (logits,),
                      lambda g: g * _expit(x))
    return tmean(sub(softplus, mul(logits, targets)))


def _taped_bce_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    x = Tensor(logits, requires_grad=True)
    _taped_bce(x, Tensor(targets)).backward()
    return x.grad


def test_bce_grad_is_bit_equal_to_taped_chain():
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 1e4, -1e4, 1.0, -1.0, 88.0, -104.0],
                       dtype=np.float32)
    for shape in ((1638, 8), (163, 8), (3, 5), (1, 1)):
        x = (rng.standard_normal(shape) * 6).astype(np.float32)
        x.flat[:min(x.size, special.size)] = special[:x.size]
        y = rng.integers(0, 2, size=shape).astype(np.float32)
        g = _bce_grad(x, y)
        ref = _taped_bce_grad(x, y)
        assert g.dtype == ref.dtype == np.float32
        assert g.tobytes() == ref.tobytes(), shape


def _small_encoder_setup():
    # 120 training rows: n = 960 and 480 logits, not powers of two, so
    # the scaling by 1/n rounds
    ds = generate_synthetic(GenConfig(m=150, seed=3))
    params = init_params(EncoderConfig(input_shape=(3, 16, 16),
                                       hidden_dims=(32,), embed_dim=8),
                         head_dim=4, seed=1)
    return params, *train_test_split(ds, 0.2, seed=0)


def _run_protocols(monkeypatch):
    """Both protocols on a small encoder, with the last parameters each
    one's optimizer returned."""
    params, train_ds, test_ds = _small_encoder_setup()
    last = {}
    step = evaluation.adamw_step

    def recording_step(p, grads, state):
        out = step(p, grads, state)
        last["params"] = out[0]
        return out
    monkeypatch.setattr(evaluation, "adamw_step", recording_step)
    results = []
    for run in (lambda: linear_probe(params, train_ds, test_ds,
                                     ProbeConfig(steps=40, seed=2)),
                lambda: low_shot_finetune(params, 0.5, train_ds, test_ds,
                                          FinetuneConfig(steps=8, seed=2))):
        res = run()
        results.append((res.to_dict(),
                        {k: p.data.tobytes()
                         for k, p in last["params"].items()}))
    return results


def test_protocols_equal_runs_on_the_taped_chain(monkeypatch):
    closed_form = _run_protocols(monkeypatch)
    monkeypatch.setattr(evaluation, "_bce_grad", _taped_bce_grad)
    assert _run_protocols(monkeypatch) == closed_form


def test_blocked_features_are_bit_equal_to_one_whole_batch_encode():
    # the acceptance split: 1638 train and 410 test rows, each ending in a
    # partial block of ENCODE_ROWS
    ds = generate_synthetic(GenConfig(m=2048, seed=0))
    params = init_params(EncoderConfig(input_shape=(3, 16, 16)), 32, seed=4)
    untracked = {k: Tensor(p.data) for k, p in params.items()}
    for part in train_test_split(ds, 0.2, seed=0):
        assert len(part) in (1638, 410)
        got = evaluation._features(params, part.inputs)
        want = encode(untracked, part.inputs).data
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the closed-form head against the taped one it replaced

def _taped_head(h, w, b, targets):
    """The head recorded as add(matmul(h, w), b) and seeded with the BCE
    cotangent g at its logits: (g, h.grad, w.grad, b.grad)."""
    h, w, b = (Tensor(a, requires_grad=True) for a in (h, w, b))
    logits = add(matmul(h, w), b)
    g = _bce_grad(logits.data, targets)
    logits.backward(g)
    return g, h.grad, w.grad, b.grad


def _taped_head_grads(h64, w, b, targets):
    # _head_grads' contract, computed on the tape
    g, _, g_w, g_b = _taped_head(h64.astype(np.float32), w, b, targets)
    return g_w, g_b, g.astype(np.float64)


@pytest.mark.parametrize("rows,d,a", [(1638, 64, 8), (163, 64, 8),
                                      (7, 5, 3), (1, 1, 1)])
def test_head_grads_are_bit_equal_to_the_taped_head(rows, d, a):
    rng = np.random.default_rng(rows)
    h = (rng.standard_normal((rows, d)) * 3).astype(np.float32)
    w = (rng.standard_normal((d, a)) * 0.5).astype(np.float32)
    b = rng.standard_normal(a).astype(np.float32)
    y = rng.integers(0, 2, size=(rows, a)).astype(np.float32)
    g_w, g_b, g64 = _head_grads(h.astype(np.float64), w, b, y)
    # the encoder cotangent low-shot seeds its tape with
    g_h = (g64 @ w.astype(np.float64).T).astype(np.float32)
    got = (g64.astype(np.float32), g_h, g_w, g_b)
    for mine, taped in zip(got, _taped_head(h, w, b, y)):
        assert mine.dtype == taped.dtype == np.float32
        assert mine.tobytes() == taped.tobytes()


def test_protocols_equal_runs_on_the_taped_head(monkeypatch):
    closed_form = _run_protocols(monkeypatch)
    monkeypatch.setattr(evaluation, "_head_grads", _taped_head_grads)
    assert _run_protocols(monkeypatch) == closed_form


def _two_tensor_fit(h64, targets, head, cfg):
    """The probe head trained as two tensors, one AdamW update each."""
    state = init_optim_state(head, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        g_w, g_b, _ = _head_grads(h64, head["probe.w"].data,
                                  head["probe.b"].data, targets)
        head, state = adamw_step(head, {"probe.w": g_w, "probe.b": g_b},
                                 state)
    return head


@pytest.mark.parametrize("d,a,wd", [(64, 8, 0.0), (7, 3, 0.05), (1, 1, 0.0)])
def test_flat_probe_head_equals_two_tensor_training(d, a, wd, monkeypatch):
    rng = np.random.default_rng(d)
    h64 = (rng.standard_normal((163, d)) * 2).astype(np.float32).astype(
        np.float64)
    y = rng.integers(0, 2, size=(163, a)).astype(np.float32)
    cfg = ProbeConfig(steps=40, lr=0.01, weight_decay=wd)
    calls = []
    real = kernels.adamw_update
    monkeypatch.setattr(kernels, "adamw_update",
                        lambda *args: calls.append(1) or real(*args))
    got = evaluation._fit_head(
        h64, y, evaluation._new_head(np.random.default_rng(1), d, a), cfg)
    assert len(calls) == cfg.steps  # one update per step, not two
    monkeypatch.undo()
    want = _two_tensor_fit(
        h64, y, evaluation._new_head(np.random.default_rng(1), d, a), cfg)
    assert set(got) == {"probe.w", "probe.b"}
    for name in got:
        assert got[name].data.shape == want[name].data.shape
        assert got[name].data.dtype == np.float32
        assert got[name].data.tobytes() == want[name].data.tobytes()
    # weights and bias are views of one flat tensor
    base = got["probe.w"].data.base
    assert base is not None and got["probe.b"].data.base is base


def test_linear_probe_equals_two_tensor_head(monkeypatch):
    params, train_ds, test_ds = _small_encoder_setup()
    cfg = ProbeConfig(steps=60, lr=0.01, weight_decay=0.01, seed=3)
    flat = linear_probe(params, train_ds, test_ds, cfg)
    monkeypatch.setattr(evaluation, "_fit_head", _two_tensor_fit)
    assert linear_probe(params, train_ds, test_ds, cfg) == flat


def test_protocols_leave_no_tape_for_the_cyclic_collector():
    params, train_ds, test_ds = _small_encoder_setup()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for run in (lambda: linear_probe(params, train_ds, test_ds,
                                         ProbeConfig(steps=5)),
                    lambda: low_shot_finetune(params, 0.5, train_ds, test_ds,
                                              FinetuneConfig(steps=5))):
            gc.garbage.clear()
            run()
            gc.collect()
            # numpy's lazily built signatures leave unrelated cycles
            # behind, so only Tensors count
            assert not [o for o in gc.garbage if isinstance(o, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()

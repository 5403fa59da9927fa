"""Probe protocols: linear evaluation, low-shot fine-tuning, splits."""

import gc

import numpy as np
import pytest

from vcl import autograd, evaluation, kernels
from vcl.autograd import (Tensor, _expit, add, matmul, mul, record, sub,
                          tmean)
from vcl.datasets import GenConfig, LabeledDataset, generate_synthetic
from vcl.evaluation import (FinetuneConfig, ProbeConfig, ProbeResult,
                            _bce_grad, _head_grads, linear_probe,
                            low_shot_finetune, mean_attribute_accuracy,
                            stratified_subsample, train_test_split)
from vcl.model import (EncoderConfig, _glorot, encode, init_params,
                       params_fingerprint)
from vcl.trainer import adamw_step, init_optim_state, pretrain


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

    def keeping_encode(*args, **kwargs):
        h = encode(*args, **kwargs)
        tapes.append(tape_refs(h))
        return h

    alive_in_adamw = []
    step = evaluation.adamw_step

    def checking_step(*args, **kwargs):
        alive_in_adamw.append(sum(r() is not None for r in tapes[-1]))
        return step(*args, **kwargs)

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

    def recording_step(p, grads, state, **kwargs):
        out = step(p, grads, state, **kwargs)
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


def _blocked_features_equal_one_whole_batch(float32_gemm):
    # the acceptance split: 1638 train and 410 test rows, each ending in a
    # partial block of ENCODE_ROWS
    ds = generate_synthetic(GenConfig(m=2048, seed=0))
    params = init_params(EncoderConfig(input_shape=(3, 16, 16)), 32, seed=4)
    untracked = {k: Tensor(p.data) for k, p in params.items()}
    for part in train_test_split(ds, 0.2, seed=0):
        assert len(part) in (1638, 410)
        got = evaluation._features(params, part.inputs, float32_gemm)
        want = encode(untracked, part.inputs, float32_gemm).data
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def test_blocked_features_are_bit_equal_to_one_whole_batch_encode():
    _blocked_features_equal_one_whole_batch(False)


def test_blocked_float32_features_are_bit_equal_to_one_whole_batch_encode():
    # the low-shot test encode's: a row of a float32 GEMM does not depend
    # on the other rows either
    _blocked_features_equal_one_whole_batch(True)


def test_only_low_shot_multiplies_in_float32(monkeypatch):
    params, train_ds, test_ds = _small_encoder_setup()
    calls = []
    real_mm = autograd._mm

    def spy(x, y):
        calls.append(x.shape)
        return real_mm(x, y)

    monkeypatch.setattr(autograd, "_mm", spy)
    linear_probe(params, train_ds, test_ds, ProbeConfig(steps=3))
    assert calls  # the probe's features accumulate in float64
    calls.clear()
    low_shot_finetune(params, 0.5, train_ds, test_ds, FinetuneConfig(steps=3))
    assert not calls


# ---------------------------------------------------------------------------
# the closed-form head against the taped one it replaced

def _taped_head(h, w, b, targets, float32_gemm=False):
    """The head recorded as add(matmul(h, w), b) and seeded with the BCE
    cotangent g at its logits: (g, h.grad, w.grad, b.grad)."""
    h, w, b = (Tensor(a, requires_grad=True) for a in (h, w, b))
    logits = add(matmul(h, w, float32_gemm), b)
    g = _bce_grad(logits.data, targets)
    logits.backward(g)
    return g, h.grad, w.grad, b.grad


def _taped_two_tensor_grads(h, w, b, targets):
    """(g_w, g_b, g) on the tape: the probe's float64 copy of float32
    features against the default matmul, or low-shot's float32 features
    against float32_gemm."""
    g, _, g_w, g_b = _taped_head(h.astype(np.float32), w, b, targets,
                                 float32_gemm=h.dtype == np.float32)
    return g_w, g_b, g


def _taped_head_grads(h, wb, targets):
    # _head_grads' contract, computed on the tape
    g_w, g_b, g = _taped_two_tensor_grads(h, wb[:-1], wb[-1], targets)
    return np.concatenate((g_w, g_b[None])), g


@pytest.mark.parametrize("rows,d,a", [(1638, 64, 8), (163, 64, 8),
                                      (7, 5, 3), (1, 1, 1)])
def test_head_grads_are_bit_equal_to_the_taped_head(rows, d, a):
    rng = np.random.default_rng(rows)
    h = (rng.standard_normal((rows, d)) * 3).astype(np.float32)
    w = (rng.standard_normal((d, a)) * 0.5).astype(np.float32)
    b = rng.standard_normal(a).astype(np.float32)
    y = rng.integers(0, 2, size=(rows, a)).astype(np.float32)
    wb = np.concatenate((w, b[None]))
    # the probe's float64 copy of the features against the default
    # matmul, and low-shot's float32 features against float32_gemm
    for features in (h.astype(np.float64), h):
        f32 = features.dtype == np.float32
        taped = _taped_head(h, w, b, y, float32_gemm=f32)
        g_wb, g = _head_grads(features, wb, y)
        assert g_wb.shape == (d + 1, a)
        # the encoder cotangent low-shot seeds its tape with
        g_h = g @ wb[:-1].T if f32 else autograd._mm(g, wb[:-1].T)
        got = (g, g_h, g_wb[:-1], g_wb[-1])
        for mine, want in zip(got, taped):
            assert mine.dtype == want.dtype == np.float32
            assert mine.tobytes() == want.tobytes()


def test_protocols_equal_runs_on_the_taped_head(monkeypatch):
    closed_form = _run_protocols(monkeypatch)
    monkeypatch.setattr(evaluation, "_head_grads", _taped_head_grads)
    assert _run_protocols(monkeypatch) == closed_form


def _counting_adamw_update(monkeypatch):
    """A list that gains one entry per kernels.adamw_update call: the
    float32_update it was given, False when none."""
    calls = []
    real = kernels.adamw_update

    def counted(*args, **kw):
        calls.append(kw.get("float32_update", False))
        return real(*args, **kw)

    monkeypatch.setattr(kernels, "adamw_update", counted)
    return calls


def _two_tensor_fit(h64, targets, head, cfg):
    """The probe head trained as two tensors, weights and bias sliced out
    of [W; b], one AdamW update each, on the taped head's gradients."""
    wt = {"probe.w": Tensor(head.data[:-1].copy()),
          "probe.b": Tensor(head.data[-1].copy())}
    state = init_optim_state(wt, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        g_w, g_b, _ = _taped_two_tensor_grads(h64, wt["probe.w"].data,
                                              wt["probe.b"].data, targets)
        wt, state = adamw_step(wt, {"probe.w": g_w, "probe.b": g_b}, state)
    return Tensor(np.concatenate((wt["probe.w"].data,
                                  wt["probe.b"].data[None])))


@pytest.mark.parametrize("d,a,wd", [(64, 8, 0.0), (7, 3, 0.05), (1, 1, 0.0)])
def test_flat_probe_head_equals_two_tensor_training(d, a, wd, monkeypatch):
    rng = np.random.default_rng(d)
    h64 = (rng.standard_normal((163, d)) * 2).astype(np.float32).astype(
        np.float64)
    y = rng.integers(0, 2, size=(163, a)).astype(np.float32)
    cfg = ProbeConfig(steps=40, lr=0.01, weight_decay=wd)
    calls = _counting_adamw_update(monkeypatch)
    head = evaluation._new_head(np.random.default_rng(1), d, a)
    got = evaluation._fit_head(h64, y, head, cfg)
    assert len(calls) == cfg.steps  # one update per step, not two
    monkeypatch.undo()
    want = _two_tensor_fit(
        h64, y, evaluation._new_head(np.random.default_rng(1), d, a), cfg)
    # one [W; b] tensor, trained in place
    assert got is head
    assert got.data.shape == want.data.shape == (d + 1, a)
    assert got.data.dtype == np.float32
    assert got.data.tobytes() == want.data.tobytes()


def test_linear_probe_equals_two_tensor_head(monkeypatch):
    params, train_ds, test_ds = _small_encoder_setup()
    cfg = ProbeConfig(steps=60, lr=0.01, weight_decay=0.01, seed=3)
    flat = linear_probe(params, train_ds, test_ds, cfg)
    monkeypatch.setattr(evaluation, "_fit_head", _two_tensor_fit)
    assert linear_probe(params, train_ds, test_ds, cfg) == flat


def _two_tensor_finetune(params, fraction, train_ds, test_ds, cfg):
    """low_shot_finetune with its head as two tensors, probe.w and
    probe.b, one float32 AdamW update each, on the taped head's
    gradients: the result and the trained parameters."""
    rng = np.random.default_rng(cfg.seed)
    idx = stratified_subsample(train_ds.labels, fraction, rng)
    inputs = train_ds.inputs[idx]
    targets = train_ds.labels[idx].astype(np.float32)
    d, a = params["enc_out.w"].data.shape[1], train_ds.labels.shape[1]
    trainable = {k: Tensor(params[k].data.copy(), requires_grad=True)
                 for k in params if k.startswith("enc")}
    trainable["probe.w"] = Tensor(_glorot(rng, d, a), requires_grad=True)
    trainable["probe.b"] = Tensor(np.zeros(a, dtype=np.float32),
                                  requires_grad=True)
    state = init_optim_state(trainable, lr=cfg.lr,
                             weight_decay=cfg.weight_decay)
    for _ in range(cfg.steps):
        h = encode(trainable, inputs, float32_gemm=True)
        w = trainable["probe.w"].data
        g_w, g_b, g = _taped_two_tensor_grads(
            h.data, w, trainable["probe.b"].data, targets)
        h.backward(g @ w.T)
        adamw_step(trainable, {
            **{k: p.grad for k, p in trainable.items() if p.grad is not None},
            "probe.w": g_w, "probe.b": g_b}, state, float32_update=True)
    feats = evaluation._features(trainable, test_ds.inputs, float32_gemm=True)
    per_attr, mean_acc = mean_attribute_accuracy(
        _expit(feats @ trainable["probe.w"].data + trainable["probe.b"].data),
        test_ds.labels)
    return ProbeResult(protocol="low_shot", fraction=float(fraction),
                       seed=cfg.seed, per_attribute=per_attr,
                       mean_accuracy=mean_acc, train_size=len(train_ds),
                       test_size=len(test_ds),
                       subsample_size=int(idx.size)), trainable


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_low_shot_head_equals_two_tensor_finetune(wd, monkeypatch):
    params, train_ds, test_ds = _small_encoder_setup()
    cfg = FinetuneConfig(steps=8, lr=0.01, weight_decay=wd, seed=2)
    trained = {}
    step = evaluation.adamw_step

    def recording_step(p, grads, state, **kwargs):
        trained.update(p)
        return step(p, grads, state, **kwargs)

    monkeypatch.setattr(evaluation, "adamw_step", recording_step)
    got = low_shot_finetune(params, 0.5, train_ds, test_ds, cfg)
    monkeypatch.undo()
    want, want_params = _two_tensor_finetune(params, 0.5, train_ds, test_ds,
                                             cfg)
    assert got == want
    assert set(trained) == {k for k in want_params
                            if k.startswith("enc")} | {"probe"}
    for k, p in trained.items():
        if k != "probe":
            assert p.data.tobytes() == want_params[k].data.tobytes(), k
    wb = trained["probe"].data
    assert wb.shape == (params["enc_out.w"].data.shape[1] + 1,
                        train_ds.labels.shape[1])
    assert wb[:-1].tobytes() == want_params["probe.w"].data.tobytes()
    assert wb[-1].tobytes() == want_params["probe.b"].data.tobytes()


def test_low_shot_updates_the_head_as_one_tensor(monkeypatch):
    # the default 768-256-256-64 encoder: 6 tensors, plus the head's one
    _, train_ds, test_ds = _small_encoder_setup()
    params = init_params(EncoderConfig(input_shape=(3, 16, 16)), 32, seed=0)
    calls = _counting_adamw_update(monkeypatch)
    low_shot_finetune(params, 0.5, train_ds, test_ds, FinetuneConfig(steps=2))
    assert len([k for k in params if k.startswith("enc")]) == 6
    assert len(calls) == 2 * 7


def test_only_low_shot_updates_in_float32(monkeypatch, tiny_cfg):
    flags = _counting_adamw_update(monkeypatch)
    result = pretrain(tiny_cfg(steps=2))
    assert len(flags) == 2 * len(result.params)
    params, train_ds, test_ds = _small_encoder_setup()
    linear_probe(params, train_ds, test_ds, ProbeConfig(steps=3))
    assert len(flags) == 2 * len(result.params) + 3
    assert not any(flags)  # pretrain and the probe update in float64
    flags.clear()
    params = init_params(EncoderConfig(input_shape=(3, 16, 16)), 32, seed=0)
    low_shot_finetune(params, 0.5, train_ds, test_ds, FinetuneConfig(steps=3))
    assert flags == [True] * 3 * 7


def test_low_shot_update_runs_twelve_blocks_a_step(monkeypatch):
    # float32 blocks of ADAMW_SCRATCH bytes in two buffers: the default
    # encoder's (768, 256) weight takes 5, (256, 256) 2, the other four
    # tensors and the head 1 each
    _, train_ds, test_ds = _small_encoder_setup()
    params = init_params(EncoderConfig(input_shape=(3, 16, 16)), 32, seed=0)
    sizes = []
    real = kernels._adamw_block

    def counted(p, *args):
        sizes.append(p.size)
        return real(p, *args)

    monkeypatch.setattr(kernels, "_adamw_block", counted)
    low_shot_finetune(params, 0.5, train_ds, test_ds, FinetuneConfig(steps=3))
    assert len(sizes) == 3 * 12
    assert max(sizes) == kernels.ADAMW_SCRATCH // (2 * 4)


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

"""Optimizer, schedule, training loop, and checkpoint container."""

import gc
import hashlib
import json
import struct
import time

import numpy as np
import pytest

from vcl import datasets, kernels, trainer
from vcl.autograd import Tensor, add, matmul, mul, tsum
from vcl.config import OptimSection
from vcl.model import params_fingerprint
from vcl.trainer import (CKPT_MAGIC, CheckpointError, NanLossError, Schedule,
                         adamw_step, build_dataset, cosine_lr,
                         init_optim_state, load_checkpoint, pretrain,
                         save_checkpoint)


def _records_sans_wall(result):
    return [{k: v for k, v in r.items() if k != "wall_ms"}
            for r in result.step_records]


# ---------------------------------------------------------------------------
# schedule

def test_cosine_lr_endpoints_and_midpoint():
    sched = Schedule(base_lr=0.1, min_lr=0.01, total_steps=100)
    assert cosine_lr(sched, 0) == pytest.approx(0.1)
    assert cosine_lr(sched, 100) == pytest.approx(0.01)
    assert cosine_lr(sched, 50) == pytest.approx(0.055)
    vals = [cosine_lr(sched, t) for t in range(101)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        cosine_lr(sched, 101)
    with pytest.raises(ValueError):
        Schedule(base_lr=0.1, min_lr=0.2, total_steps=10)


# ---------------------------------------------------------------------------
# optimizer

def test_adamw_step_hand_value():
    w = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
    data, params = w.data, {"w": w}
    state = init_optim_state(params, lr=1e-2, weight_decay=1e-2)
    m, v = state.m["w"], state.v["w"]
    new, state2 = adamw_step(params, {"w": np.array([0.1])}, state)
    expected = 1.0 - 1e-2 * 1e-2 - 1e-2 * 0.1 / (0.1 + 1e-8)
    # in place: the same Tensor, data, moments and state, updated
    assert new is params and new["w"] is w and w.data is data
    assert state2 is state and state.m["w"] is m and state.v["w"] is v
    assert abs(data[0] - expected) < 1e-12
    assert abs(m[0] - 0.01) < 1e-15 and abs(v[0] - 1e-5) < 1e-18
    assert state.t == 1


def test_adamw_step_clears_grads_and_trains_as_fresh_tensors():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((6, 5)))
    init = {"w": rng.standard_normal((5, 3)), "b": rng.standard_normal(3)}

    def loss_of(params):
        y = add(matmul(x, params["w"]), params["b"])
        return tsum(mul(y, y))

    params = {k: Tensor(a, requires_grad=True) for k, a in init.items()}
    state = init_optim_state(params, lr=0.05, weight_decay=0.1)
    got = []
    for _ in range(3):
        loss = loss_of(params)
        loss.backward()
        got.append(loss.data.tobytes())
        params, state = adamw_step(
            params, {k: p.grad for k, p in params.items()}, state)
        assert all(p.grad is None for p in params.values())
    # the out-of-place contract: fresh Tensors every step, so no .grad
    # outlives its step
    o, data = state.optim, {k: Tensor(a).data for k, a in init.items()}
    m = {k: np.zeros_like(a) for k, a in data.items()}
    v = {k: np.zeros_like(a) for k, a in data.items()}
    want = []
    for t in (1, 2, 3):
        fresh = {k: Tensor(a, requires_grad=True) for k, a in data.items()}
        loss = loss_of(fresh)
        loss.backward()
        want.append(loss.data.tobytes())
        for k, p in fresh.items():
            data[k], m[k], v[k] = kernels.adamw_update(
                p.data, p.grad, m[k], v[k], t, o.lr, o.beta1, o.beta2,
                o.eps, o.weight_decay)
    assert got == want
    for k, p in params.items():
        assert p.data.tobytes() == data[k].tobytes()


def test_adamw_step_requires_matching_keys():
    params = {"w": Tensor(np.zeros(2), requires_grad=True)}
    state = init_optim_state(params)
    with pytest.raises(KeyError):
        adamw_step(params, {"v": np.zeros(2)}, state)


def test_adamw_converges_on_quadratic():
    params = {"w": Tensor(np.array([5.0]), requires_grad=True,
                          dtype=np.float64)}
    state = init_optim_state(params, lr=0.1, weight_decay=0.0)
    for _ in range(400):
        grad = {"w": 2.0 * (params["w"].data - 2.0)}
        params, state = adamw_step(params, grad, state)
    assert abs(params["w"].data[0] - 2.0) < 1e-3


def _two_params():
    return {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True),
            "b": Tensor(np.array([0.5]), requires_grad=True)}


def test_init_optim_state_defaults_are_the_config_section():
    state = init_optim_state(_two_params())
    assert state.optim == OptimSection()
    assert state.t == 0


@pytest.mark.parametrize("bad", [{"lr": 0.0}, {"beta1": 1.0}])
def test_init_optim_state_checks_its_settings(bad):
    with pytest.raises(ValueError):
        init_optim_state(_two_params(), **bad)


def test_init_optim_state_takes_every_adamw_keyword():
    settings = {"lr": 3e-4, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6,
                "weight_decay": 0.1}
    state = init_optim_state(_two_params(), **settings)
    assert state.optim == OptimSection(**settings)


def test_adamw_step_carries_its_settings():
    params = _two_params()
    grads = {"w": np.array([0.1, 0.2], dtype=np.float32),
             "b": np.array([-0.3], dtype=np.float32)}
    state = init_optim_state(params, lr=0.05, beta1=0.5, weight_decay=0.2)
    params, state1 = adamw_step(params, grads, state)
    params, state2 = adamw_step(params, grads, state1, lr=0.01)
    assert state1.optim == state2.optim == state.optim
    assert state2.t == 2


# ---------------------------------------------------------------------------
# training loop

def test_pretrain_is_deterministic(tiny_cfg):
    run = tiny_cfg(steps=6)
    a = pretrain(run)
    b = pretrain(run)
    assert params_fingerprint(a.params) == params_fingerprint(b.params)
    assert _records_sans_wall(a) == _records_sans_wall(b)
    assert a.step == 6
    assert len(a.step_records) == 6
    c = pretrain(tiny_cfg(steps=6, seed=1))
    assert params_fingerprint(a.params) != params_fingerprint(c.params)


def _default_rngs(key, indices):
    """The per-row stream derivation that kernels.keyed_rngs replaces."""
    return [np.random.default_rng(list(key) + [int(i)]) for i in indices]


@pytest.mark.parametrize("n", [2, 128, 512])
def test_draw_xi_is_bit_equal_to_per_view_streams(n):
    got = trainer._draw_xi(11, 37, 2 * n, 32)
    want = np.stack([rng.standard_normal(32).astype(np.float32)
                     for rng in _default_rngs((11, 2, 37), range(2 * n))])
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_pretrain_with_per_row_streams_ends_with_same_parameters(
        tiny_cfg, monkeypatch):
    run = tiny_cfg(steps=5)
    fast = pretrain(run)
    monkeypatch.setattr(kernels, "keyed_rngs", _default_rngs)
    slow = pretrain(run)
    assert params_fingerprint(fast.params) == params_fingerprint(slow.params)
    assert _records_sans_wall(fast) == _records_sans_wall(slow)


def test_pretrain_writes_checkpoints(tiny_cfg, tmp_path):
    run = tiny_cfg(steps=6, checkpoint_every=1)
    result = pretrain(run, out_dir=tmp_path)
    assert result.checkpoint_path == tmp_path / "checkpoint.vclc"
    assert result.checkpoint_path.is_file()
    # 48 rows / batch 16 gives 3 steps per epoch; one mid-run epoch ends
    assert (tmp_path / "ckpt_epoch0000.vclc").is_file()
    ck = load_checkpoint(result.checkpoint_path)
    assert ck.step == 6
    assert params_fingerprint(ck.params) == params_fingerprint(result.params)


def test_resume_reproduces_uninterrupted_run(tiny_cfg, tmp_path):
    run = tiny_cfg(steps=6, checkpoint_every=1)
    straight = pretrain(run)
    pretrain(run, out_dir=tmp_path)
    resumed = pretrain(run, resume=tmp_path / "ckpt_epoch0000.vclc")
    assert (params_fingerprint(resumed.params)
            == params_fingerprint(straight.params))
    tail = _records_sans_wall(straight)[3:]
    assert _records_sans_wall(resumed) == tail
    with pytest.raises(ValueError):
        pretrain(tiny_cfg(steps=3), resume=tmp_path / "checkpoint.vclc")


def test_pretrain_augments_only_trained_batches(tiny_cfg, tmp_path,
                                                monkeypatch):
    counted = []  # samples whose views get built, two views each
    real = datasets.augment_views

    def counting(src, params, cfg):
        counted.append(len(src) // 2)
        return real(src, params, cfg)
    monkeypatch.setattr(datasets, "augment_views", counting)
    # 3 steps per epoch: a budget of 4 ends inside the second epoch
    pretrain(tiny_cfg(steps=4), out_dir=tmp_path)
    assert sum(counted) == 4 * 16
    counted.clear()
    # a mid-epoch resume builds no batch before its start step
    pretrain(tiny_cfg(steps=6), resume=tmp_path / "checkpoint.vclc")
    assert sum(counted) == 2 * 16


def test_step_wall_ms_covers_the_step(tiny_cfg, monkeypatch):
    run = tiny_cfg(steps=12)
    ds = build_dataset(run)
    real = datasets.augment_views

    def slow(src, params, cfg):
        # make batch construction a large share of the step
        time.sleep(0.02)
        return real(src, params, cfg)
    monkeypatch.setattr(datasets, "augment_views", slow)
    t0 = time.perf_counter()
    result = pretrain(run, dataset=ds)
    total_ms = (time.perf_counter() - t0) * 1000.0
    assert sum(r["wall_ms"] for r in result.step_records) >= 0.9 * total_ms


def test_spent_tape_is_freed_before_adamw(tiny_cfg, monkeypatch, tape_refs):
    tapes = []
    loss_for_batch = trainer._loss_for_batch

    def keeping_loss(*args):
        loss, detail = loss_for_batch(*args)
        tapes.append(tape_refs(loss))
        return loss, detail

    alive_in_adamw = []
    step = trainer.adamw_step

    def checking_step(*args, **kwargs):
        alive_in_adamw.append(sum(r() is not None for r in tapes[-1]))
        return step(*args, **kwargs)

    monkeypatch.setattr(trainer, "_loss_for_batch", keeping_loss)
    monkeypatch.setattr(trainer, "adamw_step", checking_step)
    gc.disable()  # reference counting alone must free the tape
    try:
        pretrain(tiny_cfg(steps=2))
    finally:
        gc.enable()
    assert all(len(refs) > 10 for refs in tapes)
    assert alive_in_adamw == [0, 0]


def test_wide_step_lets_go_of_the_spent_tape(tiny_cfg, traced_peak):
    # at N = 512 a step's tape holds about 40 MB; the next step must not
    # build its batch and loss while the last one's is still live (that
    # peaked near 69 MB, against about 40 MB when it is let go)
    run = tiny_cfg(steps=2, batch_n=512, data={"m": 1024})
    ds = build_dataset(run)
    _, peak = traced_peak(lambda: pretrain(run, dataset=ds))
    assert peak <= 50 * 2**20


def test_wide_step_peak_without_zero_filled_gradients(tiny_cfg, traced_peak):
    # the same 2-step N = 512 run: with views built in blocks and each
    # node's first cotangent kept as its gradient, not added into a
    # zero-filled (2N)^2 buffer, it peaks near 35.5 MiB (39.0 without)
    run = tiny_cfg(steps=2, batch_n=512, data={"m": 1024})
    ds = build_dataset(run)
    _, peak = traced_peak(lambda: pretrain(run, dataset=ds))
    assert peak <= 37 * 2**20


def test_wide_step_keeps_each_square_matrix_once(tiny_cfg, traced_peak):
    # the same 2-step N = 512 run: with one loss node over z (no distance
    # node), the cotangent built in the logits buffer and g + g^T formed
    # one row band at a time, it peaks near 29.5 MiB (35.5 before)
    run = tiny_cfg(steps=2, batch_n=512, data={"m": 1024})
    ds = build_dataset(run)
    _, peak = traced_peak(lambda: pretrain(run, dataset=ds))
    assert peak <= 31 * 2**20


def test_epoch_records_summarize_steps(tiny_cfg):
    result = pretrain(tiny_cfg(steps=6))
    assert [e["epoch"] for e in result.epoch_records] == [0, 1]
    first = result.epoch_records[0]
    steps = result.step_records[:3]
    assert first["steps"] == 3
    assert first["mean_total"] == pytest.approx(
        sum(r["total"] for r in steps) / 3)


def test_cosine_objective_trains(tiny_cfg):
    result = pretrain(tiny_cfg(objective="nt_xent_cosine"))
    assert result.step == 4
    for rec in result.step_records:
        assert rec["l_dist"] == 0.0
        assert rec["l_norm"] == 0.0
        assert rec["total"] == rec["l_beta"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort_carries_diagnostics(tiny_cfg):
    run = tiny_cfg(steps=8, optim={"lr": 1e12})
    with pytest.raises(NanLossError) as err:
        pretrain(run)
    diag = err.value.diagnostics
    assert {"step", "l_beta", "l_dist", "l_norm", "total"} <= set(diag)
    assert not np.isfinite(diag["total"])


def _log_sans_wall(path):
    """The whole lines of a JSON-lines log, as records without wall_ms."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
            for line in lines]


def test_resumed_logs_equal_uninterrupted_ones(tiny_cfg, tmp_path,
                                               monkeypatch):
    run = tiny_cfg(steps=6, checkpoint_every=1)
    straight = tmp_path / "straight"
    pretrain(run, out_dir=straight)

    # the run dies in step 4, past its epoch-0 checkpoint at step 3,
    # in the middle of writing a line
    run_dir = tmp_path / "run"
    real = trainer._loss_for_batch

    def dying(run, params, batch, step):
        if step == 4:
            with open(run_dir / "metrics.jsonl", "a") as fh:
                fh.write('{"step": 4, "tot')
            raise RuntimeError("killed")
        return real(run, params, batch, step)
    monkeypatch.setattr(trainer, "_loss_for_batch", dying)
    with pytest.raises(RuntimeError, match="killed"):
        pretrain(run, out_dir=run_dir)
    assert len(_log_sans_wall(run_dir / "metrics.jsonl")) == 4
    monkeypatch.undo()

    pretrain(run, out_dir=run_dir, resume=run_dir / "ckpt_epoch0000.vclc")
    for name in ("metrics.jsonl", "epochs.jsonl"):
        assert (_log_sans_wall(run_dir / name)
                == _log_sans_wall(straight / name)), name
    assert len(_log_sans_wall(run_dir / "metrics.jsonl")) == 6


def test_mid_epoch_resume_counts_the_kept_steps(tiny_cfg, tmp_path):
    # 3 steps per epoch: a 4-step run ends one step into epoch 1
    pretrain(tiny_cfg(steps=4), out_dir=tmp_path)
    pretrain(tiny_cfg(steps=6), out_dir=tmp_path,
             resume=tmp_path / "checkpoint.vclc")
    steps = _log_sans_wall(tmp_path / "metrics.jsonl")
    assert [r["step"] for r in steps] == list(range(6))
    epochs = _log_sans_wall(tmp_path / "epochs.jsonl")
    assert [(e["epoch"], e["steps"]) for e in epochs] == [(0, 3), (1, 3)]
    assert epochs[1]["mean_total"] == sum(r["total"] for r in steps[3:]) / 3


def test_fresh_run_truncates_logs(tiny_cfg, tmp_path):
    pretrain(tiny_cfg(steps=6), out_dir=tmp_path)
    pretrain(tiny_cfg(steps=2), out_dir=tmp_path)
    assert [r["step"] for r in _log_sans_wall(tmp_path / "metrics.jsonl")] \
        == [0, 1]
    assert len(_log_sans_wall(tmp_path / "epochs.jsonl")) == 1


def test_pretrain_rejects_undersized_dataset(tiny_cfg):
    from vcl.datasets import GenConfig, generate_synthetic
    run = tiny_cfg()  # batch_n 16
    small = generate_synthetic(GenConfig(m=8, seed=0))
    with pytest.raises(ValueError, match="cannot fill"):
        pretrain(run, dataset=small)


# ---------------------------------------------------------------------------
# checkpoint container

def test_checkpoint_roundtrip(tiny_cfg, tmp_path):
    result = pretrain(tiny_cfg())
    p1 = tmp_path / "a.vclc"
    p2 = tmp_path / "b.vclc"
    save_checkpoint(p1, result.params, result.state, result.step)
    save_checkpoint(p2, result.params, result.state, result.step)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == CKPT_MAGIC
    ck = load_checkpoint(p1)
    assert ck.step == result.step
    assert params_fingerprint(ck.params) == params_fingerprint(result.params)
    for name in result.state.m:
        assert np.array_equal(ck.m[name], result.state.m[name])
        assert np.array_equal(ck.v[name], result.state.v[name])


def test_checkpoint_rejects_corruption(tiny_cfg, tmp_path):
    result = pretrain(tiny_cfg())
    p = tmp_path / "c.vclc"
    save_checkpoint(p, result.params, result.state, result.step)
    raw = p.read_bytes()

    p.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)

    p.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)

    p.write_bytes(raw + b"\x01")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_checks_a_shape_against_the_file_length(tmp_path,
                                                          traced_peak):
    params = {"w": Tensor(np.zeros(2, dtype=np.float32))}
    p = tmp_path / "huge.vclc"
    save_checkpoint(p, params, init_optim_state(params), step=1)
    raw = bytearray(p.read_bytes())
    # magic, version, step, count, name length, b"w", rank: the shape
    # of "w" starts at offset 24 and now claims 2^31 entries, 8 GiB
    raw[24:28] = struct.pack("<I", 2**31)
    p.write_bytes(bytes(raw))

    def attempt():
        with pytest.raises(CheckpointError,
                           match=f"truncated file: wanted {4 * 2**31} bytes "
                                 "for data of 'w' at offset 28"):
            load_checkpoint(p)
    _, peak = traced_peak(attempt)
    assert peak <= 2**20


def test_failed_checkpoint_save_keeps_the_old_file(tiny_cfg, tmp_path,
                                                  monkeypatch):
    result = pretrain(tiny_cfg())
    path = tmp_path / "c.vclc"
    save_checkpoint(path, result.params, result.state, result.step)
    old = path.read_bytes()
    real = trainer._write_block
    calls = []

    def failing(fh, arrays):
        # the params block is written, then the m block raises
        calls.append(len(arrays))
        if len(calls) == 2:
            raise OSError("disk full")
        real(fh, arrays)
    monkeypatch.setattr(trainer, "_write_block", failing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, result.params, result.state, result.step + 1)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["c.vclc"]


def test_failed_json_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "r.json"
    trainer.write_json(path, {"a": 1})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        trainer.write_json(path, {"a": 2, "b": object()})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_container_bytes_are_pinned(tmp_path):
    # fixed, exactly representable contents: the hashes pin the two
    # binary formats, not the generator or the training numerics
    ds = datasets.LabeledDataset(
        inputs=(np.arange(2 * 3 * 4 * 4, dtype=np.float32) / 128).reshape(
            2, 3, 4, 4),
        labels=np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8),
        outlier_mask=np.array([False, True]))
    datasets.save(ds, tmp_path / "d.vcld")
    params = {"enc0.w": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)),
              "enc0.b": Tensor(np.array([0.5, -0.25, 2.0], dtype=np.float32))}
    state = init_optim_state(params)
    state.m = {k: p.data / 4 for k, p in params.items()}
    state.v = {k: p.data * p.data for k, p in params.items()}
    save_checkpoint(tmp_path / "c.vclc", params, state, step=7)
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("d.vcld", "c.vclc")}
    assert digest == {
        "d.vcld": "7f564e5a0821018c718b506859245a065723f285ab796b652547613f4bcccdda",
        "c.vclc": "a4ce3a21b713359b2823a84e9e054bf4be7914ab7005d7fb162fc9b438d5d93e"}

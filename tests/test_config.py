"""Strict JSON config parsing and echo."""

import json

import pytest

from vcl.config import (ConfigError, RunConfig, load_run_config,
                        parse_run_config, run_config_to_dict)


def test_empty_object_gives_defaults():
    run = parse_run_config({})
    assert run == RunConfig()
    assert run.objective == "vcl_beta"
    assert run.loss.tau == 0.07
    assert run.loss.beta == 0.005
    assert run.loss.sigma0 == 0.5
    assert run.loss.lambda_dist == 1.0
    assert run.loss.lambda_norm == 1.0
    assert run.loss.normalize_z is False
    assert run.augment.crop_scale == (0.2, 1.0)
    assert run.model.embed_dim == 64
    assert run.data.rho == 0.0


def test_nested_overrides_apply():
    run = parse_run_config({
        "objective": "nt_xent_cosine",
        "steps": 12,
        "loss": {"tau": 0.2, "sign_mode": "literal"},
        "model": {"hidden_dims": [64, 32, 16], "head_dim": 8},
        "data": {"m": 256, "rho": 0.25, "noise_std": 0.05},
        "optim": {"lr": 3e-4},
        "schedule": {"min_lr": 1e-5},
    })
    assert run.steps == 12
    assert run.loss.tau == 0.2
    assert run.model.hidden_dims == (64, 32, 16)
    assert run.data.gen.m == 256
    assert run.data.rho == 0.25
    assert run.data.gen.noise_std == 0.05
    assert run.optim.lr == 3e-4
    assert run.schedule.min_lr == 1e-5


def test_unknown_fields_name_their_path():
    with pytest.raises(ConfigError) as err:
        parse_run_config({"stpes": 5})
    assert err.value.field == "stpes"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"loss": {"tua": 0.1}})
    assert err.value.field == "loss.tua"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"data": {"gen": {"m": 9}}})
    assert err.value.field == "data.gen"
    # single-valued knobs that were removed
    with pytest.raises(ConfigError) as err:
        parse_run_config({"loss": {"distance": "sq_euclidean"}})
    assert err.value.field == "loss.distance"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"data": {"channels": 3}})
    assert err.value.field == "data.channels"


def test_type_and_range_errors_name_their_path():
    with pytest.raises(ConfigError) as err:
        parse_run_config({"loss": {"tau": -1.0}})
    assert err.value.field == "loss.tau"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"steps": "many"})
    assert err.value.field == "steps"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"data": {"rho": 1.0}})
    assert err.value.field == "data.rho"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"objective": "supervised"})
    assert str(err.value)  # message is printable
    with pytest.raises(ConfigError):
        parse_run_config({"model": {"hidden_dims": []}})
    with pytest.raises(ConfigError):
        parse_run_config([])
    with pytest.raises(ConfigError) as err:
        parse_run_config({"data": {"attributes": 4, "latent_dim": 2}})
    assert err.value.field == "data.latent_dim"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"data": {"seed": -2}})
    assert err.value.field == "data.seed"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"optim": {"weight_decay": -0.1}})
    assert err.value.field == "optim.weight_decay"
    assert "-0.1" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_run_config({"loss": {"tau": True}})
    assert err.value.field == "loss.tau"
    with pytest.raises(ConfigError) as err:
        parse_run_config({"augment": {"crop_out": [1.5, 2]}})
    assert err.value.field == "augment.crop_out[0]"
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ConfigError) as err:
            parse_run_config(json.loads(f'{{"loss": {{"tau": {bad}}}}}'))
        assert err.value.field == "loss.tau"
        with pytest.raises(ConfigError) as err:
            parse_run_config({"optim": {"lr": float(bad)}})
        assert err.value.field == "optim.lr"
        with pytest.raises(ConfigError) as err:
            parse_run_config({"augment": {"crop_scale": [0.5, float(bad)]}})
        assert err.value.field == "augment.crop_scale[1]"


def test_cross_field_validation():
    with pytest.raises(ConfigError):
        parse_run_config({"batch_n": 128, "data": {"m": 64}})
    with pytest.raises(ConfigError):
        parse_run_config({"augment": {"crop_out": [32, 32]},
                          "data": {"height": 16, "width": 16}})


def test_echo_roundtrip():
    run = parse_run_config({
        "steps": 9,
        "loss": {"beta": 0.01},
        "data": {"m": 128, "rho": 0.1, "outlier_mode": "labels_only"},
    })
    echoed = run_config_to_dict(run)
    assert echoed["data"]["rho"] == 0.1
    assert echoed["data"]["m"] == 128
    assert "gen" not in echoed["data"]
    assert parse_run_config(echoed) == run
    json.dumps(echoed)  # JSON-ready by construction


def test_load_run_config_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"steps": 7, "loss": {"tau": 0.1}}),
                 encoding="utf-8")
    run = load_run_config(p)
    assert run.steps == 7
    assert run.loss.tau == 0.1

    bad = tmp_path / "bad.json"
    bad.write_text("{steps: 7", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(bad)

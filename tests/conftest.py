import tracemalloc

import pytest

from vcl.config import parse_run_config


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


@pytest.fixture
def tiny_cfg():
    """Factory for fast run configs; overrides merge into a 48-row base."""

    def make(**over):
        base = {"steps": 4, "batch_n": 16, "seed": 0, "data": {"m": 48}}
        return parse_run_config(_merge(base, over))

    return make


@pytest.fixture
def traced_peak():
    """Call fn() under tracemalloc; return its result and the peak of
    memory it held at once above what was live at the call, in bytes."""

    def run(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak - base

    return run

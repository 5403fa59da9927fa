import tracemalloc
import weakref

import numpy as np
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


@pytest.fixture
def tape_refs():
    """Weak references to the arrays of the inner nodes (the ones with
    parents) of the tape under ``root``: all dead once the tape is freed."""

    def refs(root):
        out, todo, seen = [], [root], set()
        while todo:
            node = todo.pop()
            if id(node) in seen or not node._parents:
                continue
            seen.add(id(node))
            if isinstance(node.data, np.ndarray):
                out.append(weakref.ref(node.data))
            todo.extend(node._parents)
        return out

    return refs

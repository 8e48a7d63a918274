"""The traced benchmark run wraps program functions by name; each must exist."""

import importlib.util
import os

BENCH_TRACING = os.path.join(
    os.path.dirname(__file__), "..", "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    # Tracer.install raises KeyError on the first missing name
    missing = [
        (owner.__name__, attr)
        for _, bindings in _load_tracing()._targets()
        for owner, attr in bindings
        if attr not in vars(owner)]
    assert missing == []

"""The traced benchmark run wraps package functions by name; a renamed or
deleted target should fail here rather than crash ``bench/run.py --trace 1``."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing and tracing.TARGETS

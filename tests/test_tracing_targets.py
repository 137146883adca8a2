"""The per-layer benchmark traces functions by name; each name must still be
defined where `bench/tracing.py` looks for it, or `bench/run.py --trace`
fails at install."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (home, name)
        for home, name, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{home}"), name, None))
    ]
    assert missing == []
    for module in tracing.MODULES:
        importlib.import_module(f"{tracing.PACKAGE}.{module}")

"""The per-layer tracer of ``perfbench`` binds its targets by name: a
renamed or moved function would make its metrics read 0 without an error,
so every name it traces must still resolve."""

import importlib.util
from pathlib import Path

import mriordan.cli  # noqa: F401  (imports every layer the tracer names)
import mriordan.golden  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    missing = [metric for metric, (layer, path) in tracer.TARGETS.items()
               if not callable(tracer._resolve(layer, path))]
    assert tracer.TARGETS
    assert missing == []

"""Every span the benchmark's tracer installs names a function the engine still has.

The tracer skips a trace point it cannot find and then reports zero for that
layer, so a renamed engine function would otherwise go unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACE_POINTS


def test_every_trace_point_resolves_on_the_engine():
    points = _trace_points()
    assert points
    for short, attrs in points.items():
        module = importlib.import_module(f"fusion_positivity.{short}")
        for attr, span in attrs:
            owner = module
            for part in attr.split("."):
                assert hasattr(owner, part), f"{span}: fusion_positivity.{short}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"{span}: fusion_positivity.{short}.{attr} is not callable"

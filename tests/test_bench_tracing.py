"""Every function the benchmark's tracer wraps exists under the name it uses.

`bench/tracing.py` resolves each (module, name) target with `getattr` when a
traced run starts, so renaming or deleting a traced function would otherwise
break only traced benchmark runs."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    # executed from its source text, so no bytecode is written under bench/
    tracing = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    assert tracing.TARGETS
    for home, name, *_ in tracing.TARGETS:
        module = importlib.import_module(f"vpgbend.{home}")
        assert hasattr(module, name), f"bench/tracing.py traces missing vpgbend.{home}.{name}"

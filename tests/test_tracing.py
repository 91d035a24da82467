"""The benchmark's tracer must find every function it reports on."""

import importlib
import inspect
from pathlib import Path

import hardycalc  # noqa: F401  (loads every layer module the tracer reads)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    # a renamed or unexported function would leave bench/run.py --trace 1
    # without its span, and its calls metric would read 0
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    targets = spans._targets()
    produced = {name for _, _, name in targets}
    wanted = {f"{layer}.{fn}" for layer, fns in spans.TIMED.items()
              for fn in fns}
    wanted |= {name for _, _, name in spans.PRIVATE}
    assert sorted(wanted - produced) == []
    unresolved = [name for module, attr, name in targets
                  if not inspect.isfunction(getattr(module, attr, None))]
    assert unresolved == []

"""The benchmark tracer's names: every function ``bench/layers.py`` wraps
must still exist in ``src/``, or the traced benchmark run fails."""
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # bench/ is only read
    import layers
    for module, path, _ in layers.WRAPS:
        layers._resolve(module, path)     # raises TraceError naming a lost one

"""The benchmark's tracer finds every library name it rebinds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_all_resolves_every_traced_name():
    # install_all looks each name up in its owner's __dict__: a renamed or
    # moved entry point raises KeyError here instead of failing a traced run
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_all(tracer)
        installed = list(tracer._undo)
        assert installed
        for owner, attr, original in installed:
            assert callable(original), (owner, attr)
            assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert owner.__dict__[attr] is original, (owner, attr)

"""The benchmark's tracer wraps library functions by name; a refactor that
unbinds one would leave its per-layer metrics empty without failing a run."""

import importlib.util
from pathlib import Path

from halfline_bethe import _kernels, asep_exact

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    contract = _kernels.contract
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        assert asep_exact.contract is _kernels.contract is not contract
    assert tracer.missing == []
    # the wrappers are gone again
    assert asep_exact.contract is _kernels.contract is contract

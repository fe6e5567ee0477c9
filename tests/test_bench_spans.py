import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"
# every attribute install_layers wraps, the convergence watch included
LAYER_PATCHES = 21


@pytest.fixture(scope="module")
def spans():
    # the traced benchmark names the package attributes it wraps; a
    # renamed or deleted one breaks only traced runs, so check the names
    # here.  The module's dataclass needs it registered before it runs.
    name = "perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.modules.pop(name, None)


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_every_layer_span_attaches_and_is_undone(spans):
    tracer = spans.Tracer()
    with tracer.installed(spans.install_layers):
        patched = list(tracer._patches)
        assert len(patched) == LAYER_PATCHES
        for owner, attr, orig in patched:
            assert _current(owner, attr) is not orig, attr
    assert tracer._patches == []
    for owner, attr, orig in patched:
        assert _current(owner, attr) is orig, attr

import importlib.util
import numbers
import pathlib
import sys
import time

import numpy as np
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


def test_traced_tiny_chain_reports_every_layer(spans, tmp_path):
    # the hooks read package attributes (LinearMap.cols, Grid.n,
    # NystromOperator.map) that only a traced run touches
    from helsonlab.pipeline import RunConfig, run_chain

    cfg = RunConfig(alpha=1.0, sizes=(16, 48), nystrom_n=32,
                    out_dir=str(tmp_path))
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with tracer.installed(spans.install_layers):
        report = run_chain(cfg)
    metrics = spans.layer_metrics(tracer, time.perf_counter() - t0)
    assert report["stages"][-1] == "negativity"
    # trace.overhead_s needs an untraced run to compare against
    assert set(metrics) == set(spans.LAYER_UNITS) - {"trace.overhead_s"}
    for name, value in metrics.items():
        assert isinstance(value, numbers.Real), name
    assert metrics["discretize.nystrom.entries"] == 4 * 32 ** 2
    assert metrics["eigen.dense_eig.max_dim"] == 48


def test_traced_quadrature_reads_alpha_t_and_q(spans):
    # the a0_quadrature hook binds the call's arguments and reads t and Q
    # by name, so the traced call must take the package's signature
    import helsonlab.symbols as symbols

    tracer = spans.Tracer()
    with tracer.installed(spans.install_layers):
        symbols.a0_quadrature(1.0, np.array([2.0, 3.0]))
    assert tracer.calls("symbols.a0_quadrature") == 1
    assert tracer.totals["symbols.a0_quadrature.points"] == 2

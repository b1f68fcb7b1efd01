"""The certification benchmark's tracer still finds every attribute it wraps.

certbench/tracer.py times layers by swapping module attributes of
paircodes by name, so a rename in src/ breaks the benchmark without
breaking any other test.  This loads the tracer as the benchmark does
and runs one certificate under it.
"""

import importlib.util
from pathlib import Path

from paircodes import certify

TRACER = Path(__file__).resolve().parent.parent / "certbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("certbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_and_restores_every_target():
    tracer = load_tracer()
    before = [getattr(mod, attr) for mod, attr, _ in tracer.TARGETS]
    with tracer.Tracer().installed() as t:
        cert = certify.certify_family("dp9", 3)
    assert [getattr(mod, attr) for mod, attr, _ in tracer.TARGETS] == before
    metrics = t.pass_metrics(1.0)
    # dp9 q=3 is small enough for full enumeration, so the kernel ranks
    # only the sweep's 8 shapes; the full support is the one with a null space
    assert metrics["certify.shapes_swept"] == cert.shapes_swept == 8
    assert metrics["kernels.admissible.supports"] == 8
    assert metrics["certify.nullity_share"] == 1 / 8
    assert metrics["codes.null_basis.calls"] >= 1

"""Shared test setup: warm the engines once per session.

First-call costs (field tables, imports) land here instead of inside
any timed certification, so wall-clock assertions measure steady state.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports paircodes from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def run_optimized(src_env):
    """Run a script under python -O (asserts stripped); return its stdout lines."""

    def run(script):
        out = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(script)],
            capture_output=True, text=True, timeout=120, env=src_env,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()

    return run


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    from paircodes.codes import make_code, min_hamming, min_pair
    from paircodes.cosets import closed_defining_set, generator_from_defining_set
    from paircodes.field import make_field, make_tower, nth_root_of_unity

    ctx = make_field(3, 1)
    smap = make_tower(3, 1)
    root = nth_root_of_unity(smap.big, 8)
    ds = closed_defining_set(8, 1, [0, 1, 2, 4], 3)
    code = make_code(ctx, 8, 1, generator_from_defining_set(ds, root, smap), root=root)
    min_hamming(code, 8, method="support_rank")
    min_pair(code, 8, method="support_rank")
    min_hamming(code, 8, method="full_enumeration")
    yield

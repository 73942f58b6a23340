"""Checks on the benchmark harness's view of the package.

`perfbench/tracing.py` wraps drr's functions by name; a name that no longer
resolves would make every traced benchmark run crash.  The harness file is
read, never imported as a module, so the check leaves it untouched.
"""

import importlib
import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    with open(TRACING) as f:
        source = f.read()
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = TRACING
    exec(compile(source, TRACING, "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    for name, module, path in tracing.TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # The tracer swaps the attribute in the owner's own namespace.
        assert attr in vars(owner), f"{name}: {module}.{path} does not resolve"
        assert name.split(".", 1)[0] in tracing.LAYERS


def test_tracer_installs_and_restores(tracing):
    originals = []
    for _, module, path in tracing.TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        originals.append((owner, attr, vars(owner)[attr]))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert any(vars(owner)[attr] is not original for owner, attr, original in originals)
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)

"""The seams that the benchmark in bench/ reaches into plasthom through.

bench/tracing.py wraps plasthom functions by module attribute, and
bench/workloads.py builds its inputs through plasthom's public API.  A
rename or removal there breaks only a traced benchmark run, which the rest
of this suite never starts, so these tests check the seams directly.  They
import from bench/ and change nothing in it.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
sys.path.insert(0, BENCH_DIR)

import tracing
import workloads


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attr, _, _ in tracing.BINDINGS
])
def test_traced_binding_exists(owner, attr):
    assert attr in vars(owner)


def test_traced_restores_every_binding():
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.BINDINGS]
    with tracing.traced():
        wrapped = [vars(owner)[attr] for owner, attr, _, _ in tracing.BINDINGS]
    restored = [vars(owner)[attr] for owner, attr, _, _ in tracing.BINDINGS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(restored, originals))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_builds_inputs(name):
    assert workloads.WORKLOADS[name].setup(workloads.DEFAULT_SEED)

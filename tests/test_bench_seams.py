"""The seams that the benchmark in bench/ reaches into plasthom through.

bench/tracing.py wraps plasthom functions by module attribute, and
bench/workloads.py builds its inputs through plasthom's public API.  A
rename or removal there breaks only a traced benchmark run, which the rest
of this suite never starts, so these tests check the seams directly.  They
import from bench/ and change nothing in it.
"""

import json
import os
import sys

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
sys.path.insert(0, BENCH_DIR)

import tracing
import workloads

from plasthom import fem, macroscale
from plasthom.cellproblem import RveConfig
from plasthom.fem import mesh_unit_square
from plasthom.loading import AffineBoundary, StrainPath


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


def test_traced_fe2_solve_gives_json_counts():
    """A traced FE2 run yields counts that the benchmark can write as JSON."""
    path = StrainPath.ramp(np.array([0.0, 0.0, 0.5]), 1.0, steps=1)
    config = macroscale.MacroConfig(
        mesh=mesh_unit_square(2),
        rve=RveConfig(n_cells=2, n_samples=2, delta=0.003, law=workloads.TWO_PHASE),
        dirichlet=AffineBoundary(path), time_grid=np.linspace(0.0, 1.0, 2),
        load=workloads.macro_load)
    with tracing.traced() as tracer:
        macroscale.solve_effective(config)  # looked up here, where tracing wraps it
    counts = tracing.exact_counts(tracing.layer_metrics(tracer.spans))
    json.dumps(counts)
    assert counts["finescale.newton.iters"] > 0 and counts["macroscale.newton.iters"] > 0


def test_fe2_cells_pass_the_reference_with_a_sparse_direct_solver(monkeypatch):
    """fe2_macro's cell solves, done by sparse LU instead, still pass its checks."""
    calls = []

    def pinned_solve(space, A, rhs, rtol=None, step=None):
        # each system and right-hand side with the first vertex pinned, then zero-mean
        calls.append(A.shape[0])
        b = np.asarray(rhs, dtype=float)
        columns = b.reshape(b.shape[0], b.shape[1], -1)
        x = np.zeros_like(columns)
        keep = np.arange(2, space.n_packed)
        for s, system in enumerate(A):
            pinned = csc_matrix(system[np.ix_(keep, keep)])
            for j in range(columns.shape[2]):
                x[s, keep, j] = spsolve(pinned, columns[s, keep, j])
        for t in space.translation_vectors():
            x -= np.einsum("i,sij->sj", t, x)[:, None, :] * t[:, None]
        return x.reshape(b.shape)

    monkeypatch.setattr(fem, "solve_periodic_direct", pinned_solve)
    workload = workloads.WORKLOADS["fe2_macro"]
    inputs = workload.setup(workloads.DEFAULT_SEED)
    output = workload.call(inputs)
    assert calls and max(calls) > 1   # the cells went through the stub, in batches
    assert workloads.check_output(workload, inputs, output, workloads.DEFAULT_SEED, 0,
                                  workloads.load_reference()) == []

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

from plasthom import cellproblem, experiments, fem, macroscale
from plasthom.cellproblem import RveConfig
from plasthom.experiments import ExperimentSpec
from plasthom.fem import mesh_unit_square
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.media import sample_realization
from plasthom.tensors import norm


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
    assert counts["macroscale.advance.calls"] > 0 and counts["macroscale.newton.iters"] > 0
    assert counts["returnmap.plastic_step.elements"] > 0


def test_traced_sigma_solves_each_correction_through_the_traced_newton():
    """Every periodic CG solve of a traced sigma run is one counted Newton
    iteration, so its samples reach Newton through the binding tracing wraps."""
    path, grid = workloads.shear_cycle(0.6, 4)
    cfg = RveConfig(n_cells=4, refine=3, n_samples=2, delta=0.003, law=workloads.TWO_PHASE)
    with tracing.traced() as tracer:
        cellproblem.sigma(cfg, path, grid)  # looked up here, where tracing wraps it
    counts = tracing.exact_counts(tracing.layer_metrics(tracer.spans))
    assert counts["fem.pcg.calls"] == counts["finescale.newton.iters"] > 0


def test_fe2_macro_work_per_call(monkeypatch):
    """fe2_macro's first input set takes at most 18 cell evaluations and 14
    batched cell solves, one of each per joint Newton correction plus one
    evaluation per step: no step cuts a correction."""
    work = {"advance": 0, "solve": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            work[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    counted(macroscale.ElementCellState, "advance", "advance")
    counted(fem, "solve_periodic_systems", "solve")
    solution = workloads.macro_call(workloads.macro_setup(workloads.DEFAULT_SEED, 0))
    corrections = sum(solution.newton_iters)
    assert work == {"advance": len(solution.newton_iters) + corrections, "solve": corrections}
    assert work["advance"] <= 18 and work["solve"] <= 14


def test_fe2_macro_converges_quadratically(monkeypatch):
    """On fe2_macro's first input set, the joint residual rho, the larger of the
    macro and the worst cell residual norm each over its scale from
    ``newton_tolerance``, falls as rho_k+1 <= C rho_k^2 within every step.
    C is 10 times the largest ratio measured, 0.41."""
    newton_iterate = macroscale.newton_iterate
    advance = macroscale.ElementCellState.advance
    steps = []

    def recording_advance(self, *args):
        out = advance(self, *args)
        steps[-1]["cells"].append(np.max(self.trial["res"] / self.scale))
        return out

    def recording_iterate(space, u, f_ext, rtol, evaluate, solve):
        free = space.free_dofs
        steps.append({"macro": [], "cells": [], "f_norm": norm(f_ext[free])})

        def recorded(systems):
            state = evaluate(systems)
            steps[-1]["macro"].append(norm((f_ext - state[1][0])[free]))
            return state
        return newton_iterate(space, u, f_ext, rtol, recorded, solve)

    monkeypatch.setattr(macroscale.ElementCellState, "advance", recording_advance)
    monkeypatch.setattr(macroscale, "newton_iterate", recording_iterate)
    workloads.macro_call(workloads.macro_setup(workloads.DEFAULT_SEED, 0))
    assert len(steps) == workloads.MACRO_STEPS
    for step in steps:
        macro = np.array(step["macro"])
        rho = np.maximum(macro / max(macro[0], step["f_norm"]), step["cells"])
        assert rho.size >= 3 and rho[-1] <= 1e-13
        assert np.all(rho[1:] <= 4.1 * rho[:-1] ** 2)


def test_traced_ergodic_check_counts_every_cell_of_every_box():
    """media.cell_parameters.cells, read off the length of the flat parameter
    arrays, is the number of cells that overlap the largest box of each
    realization, summed over realizations: the smaller boxes nest in it and
    are not hashed again."""
    L_values, seeds = [1, 5, 2], range(7, 10)
    spec = ExperimentSpec(kind="ergodic", params={
        "law": workloads.TWO_PHASE, "L_values": L_values, "n_seeds": len(seeds),
        "base_seed": seeds[0]})
    with tracing.traced() as tracer:
        experiments.run_ergodic_check(spec)  # looked up here, where tracing wraps it
    expected, L = 0, max(L_values)
    for seed in seeds:
        # the box [-L, L]^2 at offset -shift overlaps ceil(hi) - floor(lo) cells per axis
        lo = -L - sample_realization(workloads.TWO_PHASE, seed).shift
        expected += int(np.prod(np.ceil(lo + 2 * L) - np.floor(lo)))
    counts = tracing.exact_counts(tracing.layer_metrics(tracer.spans))
    assert counts["media.cell_parameters.cells"] == expected


@pytest.mark.parametrize("name", ["cell_mc", "fe2_macro", "ergodic"])
def test_workload_passes_the_reference(name):
    """A gated workload's default-seed output passes every check of a benchmark run."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED)
    output = workload.call(inputs)
    assert workloads.check_output(workload, inputs, output, workloads.DEFAULT_SEED, 0,
                                  workloads.load_reference()) == []


def test_fe2_cells_pass_the_reference_with_a_sparse_direct_solver(monkeypatch):
    """fe2_macro's cell solves, done by sparse LU instead, still pass its checks."""
    calls = []

    def pinned_solve(space, A, rhs, rtol=None):
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

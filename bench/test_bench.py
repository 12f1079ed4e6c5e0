"""Tests of the benchmark itself: output checks, trace completeness, repeatability.

    python3 -m pytest -q bench/test_bench.py

Each workload runs at its benchmark size, so the module takes a few minutes.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from checkout import use_checkout_source

use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from plasthom import fem, finescale, macroscale  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
OTHER_SEED = 7


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module", params=NAMES)
def runs(request):
    """Per workload at the default seed: one untraced and two traced calls."""
    workload = workloads.WORKLOADS[request.param]
    inputs = workload.setup(workloads.DEFAULT_SEED)
    plain = workload.call(inputs)
    traces = []
    for _ in range(2):
        with tracing.traced() as tracer:
            output = workload.call(inputs)
        traces.append((output, tracing.layer_metrics(tracer.spans)))
    return workload, inputs, plain, traces


def test_default_seed_output_passes_checks(runs, reference):
    workload, inputs, plain, _ = runs
    assert workloads.check_output(workload, inputs, plain, workloads.DEFAULT_SEED, 0,
                                  reference) == []


def test_traced_output_is_bit_identical(runs):
    workload, _, plain, traces = runs
    expected = workload.summary(plain)
    for output, _ in traces:
        got = workload.summary(output)
        assert all(np.array_equal(got[k], expected[k]) for k in expected)


def test_counts_repeat_exactly(runs):
    (_, first), (_, second) = runs[3]
    assert tracing.exact_counts(first) == tracing.exact_counts(second)
    assert set(first) | {"trace.overhead_share"} == set(tracing.PER_LAYER)


def test_every_pcg_call_is_one_newton_iteration(runs):
    workload, _, _, traces = runs
    metrics = traces[0][1]
    if workload.name == "cell_mc":
        assert metrics["finescale.newton.calls"] > 0
        assert metrics["fem.pcg.calls"] == metrics["finescale.newton.iters"]
    if workload.name == "fe2_macro":
        assert metrics["fem.pcg.calls"] == (metrics["finescale.newton.iters"]
                                            + metrics["macroscale.newton.iters"])
        assert 0.0 < metrics["macroscale.probe_share"] < 1.0


def test_layers_report_where_they_run(runs):
    workload, _, _, traces = runs
    metrics = traces[0][1]
    solves = workload.name != "ergodic"
    assert (metrics["fem.pcg.iters"] > 0) == solves
    assert (metrics["fem.assemble.elements"] > 0) == solves
    assert (metrics["returnmap.plastic_step.elements"] > 0) == solves
    assert (metrics["macroscale.advance.calls"] > 0) == (workload.name == "fe2_macro")
    assert (metrics["experiments.self_s"] > 0) == (workload.name == "ergodic")
    assert metrics["media.cell_parameters.cells"] > 0


def test_wrong_answer_fails_reference(runs, reference):
    workload, inputs, plain, _ = runs
    rtol = workload.reference_rtol(inputs)
    skewed = {k: v * (1.0 + 10.0 * rtol) for k, v in workload.summary(plain).items()}
    assert workloads.reference_problems(workload, inputs, skewed, reference, 0)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_passes_checks(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(OTHER_SEED)
    assert workloads.check_output(workload, inputs, workload.call(inputs), OTHER_SEED, 0,
                                  None) == []


def _direct_dirichlet(A, b, diag, rtol=None, atol=None, maxiter=None, x0=None):
    return spla.spsolve(A.tocsc(), b), 0


def _direct_periodic(space, A, rhs, rtol=None, x0=None):
    """Sparse LU with the first vertex pinned, then the zero-mean representative."""
    keep = np.arange(2, A.shape[0])
    x = np.zeros(A.shape[0])
    x[keep] = spla.spsolve(A[keep][:, keep].tocsc(), rhs[keep])
    for m in space.translation_vectors():
        x -= (m @ x) * m
    return x


@pytest.mark.parametrize("name", ["cell_mc", "eps_fine", "fe2_macro"])
def test_direct_solver_passes_reference(name, reference, monkeypatch):
    """The reference tolerances admit any linear solver that converges."""
    monkeypatch.setattr(fem, "solve_periodic", _direct_periodic)
    monkeypatch.setattr(finescale, "pcg", _direct_dirichlet)
    monkeypatch.setattr(macroscale, "pcg", _direct_dirichlet)
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED)
    assert workloads.check_output(workload, inputs, workload.call(inputs),
                                  workloads.DEFAULT_SEED, 0, reference) == []

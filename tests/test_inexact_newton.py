"""The forcing term of ``newton_solve``'s linear solves, the residual check
of its direct solves, and the time step that a failed solve reports.

The reference for the forcing term is the exact-solve Newton iteration: with
``FORCING_MAX`` patched down to the CG floor, every correction is solved to
the floor.  Both runs use a Newton tolerance of 1e-12, so both converge to
within 1e-12 of the same state.
"""

import numpy as np
import pytest

from plasthom import fem, finescale
from plasthom.cellproblem import solve_cell
from plasthom.errors import NumericalError
from plasthom.fem import CG_RTOL, P1Space, mesh_torus, mesh_unit_square
from plasthom.finescale import EpsProblemConfig, solve_eps
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.media import PeriodizedMedium, ProbabilityLaw, sample_realization
from plasthom.tensors import pack

TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})
SHEAR = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
TIMES = np.linspace(0.0, 1.0, 5)
NEWTON_RTOL = 1e-12


def shear_cycle(amplitudes):
    """Pure shear through the given amplitudes at TIMES."""
    return StrainPath(TIMES, np.outer(amplitudes, SHEAR))


def torus_cell(path):
    # N = 8, r = 2: 512 unknowns, so the corrections take the DFT-CG path
    space = P1Space(mesh_torus(8, 2))
    assert space.n_packed > fem.DENSE_PERIODIC_DOFS
    traj = solve_cell(PeriodizedMedium(TWO_PHASE, 3, 8), path, 0.003, TIMES, space,
                      newton_rtol=NEWTON_RTOL)
    return traj.newton_iters, traj.z, traj.p


def direct_torus_cell(path):
    # N = 4, r = 1: 32 unknowns, so the corrections take the direct path
    space = P1Space(mesh_torus(4, 1))
    assert space.n_packed <= fem.DENSE_PERIODIC_DOFS
    traj = solve_cell(PeriodizedMedium(TWO_PHASE, 3, 4), path, 0.003, TIMES, space,
                      newton_rtol=NEWTON_RTOL)
    return traj.newton_iters, traj.z, traj.p


def dirichlet_square(path):
    cfg = EpsProblemConfig(mesh=mesh_unit_square(8), medium=sample_realization(TWO_PHASE, 0),
                           epsilon=0.25, delta=0.003, time_grid=TIMES,
                           dirichlet=AffineBoundary(path), newton_rtol=NEWTON_RTOL)
    traj = solve_eps(cfg)
    return traj.newton_iters, traj.sigma, traj.p


# the binding of ``pcg`` that each path's solves look up
CASES = [pytest.param(torus_cell, fem, id="periodic"),
         pytest.param(dirichlet_square, finescale, id="dirichlet")]


def counted_run(monkeypatch, solve, owner):
    """``solve`` on the plastic shear cycle, and the sum of its CG iterations."""
    iterations = []
    pcg = owner.pcg

    def counting_pcg(*args, **kwargs):
        x, iters = pcg(*args, **kwargs)
        iterations.append(iters)
        return x, iters

    with monkeypatch.context() as patch:
        patch.setattr(owner, "pcg", counting_pcg)
        result = solve(shear_cycle([0.0, 0.3, -0.3, 0.0, 0.3]))
    return result, sum(iterations)


@pytest.mark.parametrize("solve, owner", CASES)
def test_forcing_term_keeps_the_exact_solve_result(monkeypatch, solve, owner):
    (iters, stress, plastic), cg_iters = counted_run(monkeypatch, solve, owner)
    monkeypatch.setattr(finescale, "FORCING_MAX", CG_RTOL)
    (exact_iters, exact_stress, exact_plastic), exact_cg_iters = \
        counted_run(monkeypatch, solve, owner)
    assert np.abs(exact_plastic).max() > 0
    assert iters == exact_iters
    assert np.abs(stress - exact_stress).max() <= 1e-12 * np.abs(exact_stress).max()
    assert np.abs(plastic - exact_plastic).max() <= 1e-12 * np.abs(exact_plastic).max()
    assert cg_iters <= 0.5 * exact_cg_iters


@pytest.mark.parametrize("res, tol, eta", [
    (1.0, 1e-8, 1e-2),      # a first correction: FORCING_GAMMA * res / scale, at the cap
    (1e-3, 1e-8, 1e-5),     # FORCING_GAMMA * res / scale
    (1e-6, 1e-8, 5e-3),     # the safeguard tol / (2 res) is looser
    (1e-7, 1e-8, 1e-2),     # the safeguard, capped
    (1e-11, 1e-24, 1e-12),  # both below the floor
])
def test_forcing_term(res, tol, eta):
    assert finescale.forcing_term(res, 1.0, tol) == pytest.approx(eta, rel=1e-12)
    # each system's term depends on its own values only
    assert finescale.forcing_term(np.array([res, 1.0]), np.ones(2),
                                  np.array([tol, 1e-8]))[0] == pytest.approx(eta, rel=1e-12)


@pytest.mark.parametrize("solve, owner", CASES)
def test_failed_linear_solve_reports_the_step(monkeypatch, solve, owner):
    def failing_pcg(*args, **kwargs):
        raise NumericalError("conjugate gradients broke down", residual=0.5)

    monkeypatch.setattr(owner, "pcg", failing_pcg)
    # the strain is zero up to step 2, so step 3 makes the first linear solve
    with pytest.raises(NumericalError, match="broke down") as err:
        solve(shear_cycle([0.0, 0.0, 0.0, 0.3, 0.0]))
    assert err.value.step == 3
    assert err.value.residual == 0.5


def test_failed_direct_solve_reports_the_step(monkeypatch):
    def failing_direct(*args, **kwargs):
        raise NumericalError("direct periodic solve met a singular operator")

    monkeypatch.setattr(fem, "solve_periodic_direct", failing_direct)
    with pytest.raises(NumericalError, match="singular") as err:
        direct_torus_cell(shear_cycle([0.0, 0.0, 0.0, 0.3, 0.0]))
    assert err.value.step == 3


def test_direct_solve_is_checked_at_the_floor(monkeypatch):
    # the forcing term allows 1e-2 on a first correction; the direct check does not
    direct, exact = fem.solve_periodic_direct, np.linalg.solve
    calls = []

    def corrupted_direct(*args, **kwargs):
        calls.append(1)
        with monkeypatch.context() as patch:   # relative residual 1e-3
            patch.setattr(np.linalg, "solve", lambda A, b: (1.0 + 1e-3) * exact(A, b))
            return direct(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_periodic_direct", corrupted_direct)
    with pytest.raises(NumericalError, match="direct periodic solve left a residual") as err:
        direct_torus_cell(shear_cycle([0.0, 0.0, 0.0, 0.3, 0.0]))
    assert err.value.step == 3
    assert len(calls) == 1   # the first Newton iteration of step 3


@pytest.mark.parametrize("solve", [torus_cell, direct_torus_cell, dirichlet_square],
                         ids=["periodic", "direct", "dirichlet"])
def test_newton_failure_reports_the_step(monkeypatch, solve):
    # one iteration solves no plastic step: the first solve, at step 3, fails
    monkeypatch.setattr(finescale, "NEWTON_MAXITER", 1)
    with pytest.raises(NumericalError, match="Newton did not converge") as err:
        solve(shear_cycle([0.0, 0.0, 0.0, 0.3, 0.0]))
    assert err.value.step == 3
    assert err.value.residual > 0

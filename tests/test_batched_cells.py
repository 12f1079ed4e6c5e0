"""Lock-step batches of cell problems: ``newton_solve`` over S systems,
``ElementCellState`` over E * M cells and the direct periodic solve.

The cells are those of the FE2 benchmark: two-phase N = 4, r = 1 tori (32
unknowns), M = 2 samples, E = 8 macro strains from elastic to plastic.
"""

import numpy as np
import pytest

from plasthom import cellproblem, fem
from plasthom.cellproblem import RveConfig, build_rve
from plasthom.errors import NumericalError
from plasthom.fem import CG_RTOL, P1Space, mesh_torus, mesh_unit_square
from plasthom.finescale import newton_iterate, newton_solve
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.macroscale import ElementCellState, MacroConfig, solve_effective
from plasthom.media import ProbabilityLaw
from plasthom.returnmap import MaterialArrays
from plasthom.tensors import KDIM, pack

from helpers import central_differences, converge_cells

TWO_PHASE = ProbabilityLaw.from_config({"E": {"discrete": {"values": [1.0, 2.0]}},
                                        "nu": {"point": 0.3}, "sigma_y": {"point": 0.3}})
RVE = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE, base_seed=0)
E = 8
DT = 0.25
PERTURBATION = np.array([0.002, -0.001, 0.005])  # moves the elastic element 0 too
SHEAR = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
ITERS_ABOVE_THE_CAP = [3, 5, 3, 4]
ORACLE_RTOL = 1e-12


@pytest.fixture(scope="module")
def cells():
    return build_rve(RVE)


def macro_strains(scale):
    """E macro strains whose shear grows from 0 (elastic) to 0.5 * scale (plastic)."""
    shear = np.linspace(0.0, 0.5, E) * scale
    return np.stack([0.2 * shear, -0.1 * shear, shear], axis=1)


def newton_step(space, samples, systems, strains, p_old, phi):
    """One newton_solve over the given systems of the E * M; system s runs sample s % M."""
    mats = MaterialArrays.concatenate([samples[s % RVE.n_samples] for s in systems])
    offset = np.repeat(strains, RVE.n_samples, axis=0)[systems][:, None, :]
    u = phi[systems].copy()
    slots = [[] for _ in systems]

    def solve_tangent(batch, moduli, rhs, eta):
        return fem.solve_periodic_systems(space, moduli, rhs, eta, [slots[s] for s in batch])

    z, p, iters, res = newton_solve(space, mats, offset, p_old[systems], u, DT, RVE.delta,
                                    0.0, RVE.newton_rtol, solve_tangent)
    assert isinstance(iters, int) and res.shape == (len(systems),)
    return {"z": z, "p": p, "u": u, "iters": iters}


def in_batches(space, samples, size, strains, p_old, phi):
    """newton_step over all E * M systems in consecutive batches of ``size``."""
    parts = [newton_step(space, samples, np.arange(start, min(start + size, len(phi))),
                         strains, p_old, phi)
             for start in range(0, len(phi), size)]
    out = {key: np.concatenate([part[key] for part in parts])
           for key in ("z", "p", "u")}
    out["iters"] = sum(part["iters"] for part in parts)
    return out


def two_steps(space, samples, size):
    """Loading from rest, then reverse loading from the committed state."""
    n = E * RVE.n_samples
    first = in_batches(space, samples, size, macro_strains(1.0),
                       np.zeros((n, space.mesh.n_elements, KDIM)), np.zeros((n, space.n_packed)))
    second = in_batches(space, samples, size, macro_strains(-0.6), first["p"], first["u"])
    return first, second


def assert_close(got, expected, rtol=1e-12):
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


class TestNewtonBatches:
    @pytest.mark.parametrize("size", [3, E * RVE.n_samples])
    def test_batches_match_single_systems(self, cells, size):
        space, samples = cells
        for alone, batched in zip(two_steps(space, samples, 1),
                                  two_steps(space, samples, size)):
            assert batched["iters"] == alone["iters"]
            for key in ("z", "p", "u"):
                assert_close(batched[key], alone[key])

    def test_the_steps_cover_elastic_and_plastic_systems(self, cells):
        space, samples = cells
        first, second = two_steps(space, samples, 1)
        flowing = (first["p"] != 0).any(axis=(1, 2))
        assert not flowing[:2].any() and flowing[-2:].all()
        assert (second["p"] != first["p"]).any()

    def test_frozen_system_keeps_its_state_while_others_iterate(self, cells):
        space, samples = cells
        strains = macro_strains(1.0)
        n = E * RVE.n_samples
        p_old = np.zeros((n, space.mesh.n_elements, KDIM))
        phi = np.zeros((n, space.n_packed))
        every = np.arange(n)
        batch = newton_step(space, samples, every, strains, p_old, phi)
        alone = [newton_step(space, samples, np.array([s]), strains, p_old, phi)
                 for s in every]
        # system 2 (sample 0 of element 1) is elastic: one iteration, then
        # frozen while the plastic systems iterate on
        assert alone[2]["iters"] == 1 and max(a["iters"] for a in alone) > 2
        for key in ("z", "p", "u"):
            assert np.array_equal(batch[key][2], alone[2][key][0])

    def test_non_finite_strain_in_one_system_raises(self, cells):
        space, samples = cells
        strains = macro_strains(1.0)
        strains[5, 2] = np.nan
        n = E * RVE.n_samples
        with pytest.raises(NumericalError) as err:
            newton_step(space, samples, np.arange(n), strains,
                        np.zeros((n, space.mesh.n_elements, KDIM)),
                        np.zeros((n, space.n_packed)))
        assert not np.isfinite(err.value.residual)


class TestElementCellBatches:
    """``advance`` and ``condense`` act on every cell by itself, so cells give
    the same results in containers of any size."""

    def converged_twice(self, rve, strains, moved=False):
        """Stresses and condensed tangents of cells at the macro strains (E, 3)
        over two steps, each converged at the strains and committed.  With
        ``moved``, the cells then move along their linearization to 1.02
        times the strains plus a perturbation and converge there before the
        commit."""
        cell = ElementCellState(rve, len(strains))
        stresses, tangents = [], []
        for scale in (1.0, -0.6):
            xi = scale * strains
            for target in (xi, 1.02 * xi + scale * PERTURBATION)[:1 + moved]:
                stress, tangent, _ = converge_cells(cell, target, DT)
                stresses.append(stress)
                tangents.append(tangent)
            cell.commit()
        return np.stack(stresses), np.stack(tangents)

    @pytest.mark.parametrize("size", [1, 3])
    def test_smaller_containers_match_all_elements(self, size):
        strains = macro_strains(1.0)
        stresses, tangents = self.converged_twice(RVE, strains)
        parts = [self.converged_twice(RVE, strains[start:start + size])
                 for start in range(0, E, size)]
        assert_close(np.concatenate([s for s, _ in parts], axis=1), stresses)
        assert_close(np.concatenate([t for _, t in parts], axis=1), tangents)

    @pytest.mark.parametrize("size", [1, 3])
    def test_predicted_advances_of_smaller_containers_match_all_elements(self, size):
        strains = macro_strains(1.0)
        stresses, tangents = self.converged_twice(RVE, strains, moved=True)
        parts = [self.converged_twice(RVE, strains[start:start + size], moved=True)
                 for start in range(0, E, size)]
        assert_close(np.concatenate([s for s, _ in parts], axis=1), stresses)
        assert_close(np.concatenate([t for _, t in parts], axis=1), tangents)

    def test_predicted_advances_above_the_dense_cap(self):
        rve = RveConfig(n_cells=11, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE,
                        base_seed=0)
        space = P1Space(mesh_torus(rve.n_cells, rve.refine))
        assert space.n_packed > fem.DENSE_PERIODIC_DOFS
        strains = macro_strains(1.0)[[1, 7]]
        stresses, tangents = self.converged_twice(rve, strains, moved=True)
        for e in range(2):
            alone = self.converged_twice(rve, strains[e:e + 1], moved=True)
            assert_close(alone[0], stresses[:, e:e + 1])
            assert_close(alone[1], tangents[:, e:e + 1])

    def test_elastic_cells_are_predicted_exactly(self):
        """Cells that stay elastic respond linearly, so after one condensation
        their linearization is their solution at any macro strain; the first
        advance of the step is far from it."""
        strains = macro_strains(1.0)[[1, 2]]     # elastic in every cell
        cell = ElementCellState(RVE, len(strains))
        _, ratio = cell.advance(strains, DT)
        assert ratio > 1.0
        cell.condense()
        _, ratio = cell.advance(1.02 * strains + PERTURBATION, DT)
        assert ratio <= 1.0 and not cell.trial["p"].any()

    def test_predictor_never_outlives_commit(self):
        """After commit, cells advance bit for bit like fresh cells from the
        committed state, with their tolerances taken afresh."""
        strains = macro_strains(1.0)
        cell = ElementCellState(RVE, E)
        converge_cells(cell, strains, DT)
        cell.commit()
        fresh = ElementCellState(RVE, E)
        fresh.p, fresh.phi = cell.p.copy(), cell.phi.copy()
        reverse = macro_strains(-0.6)
        stress, ratio = cell.advance(reverse, DT)
        fresh_stress, fresh_ratio = fresh.advance(reverse, DT)
        assert np.array_equal(stress, fresh_stress) and ratio == fresh_ratio
        assert cell.trial.keys() == fresh.trial.keys()
        for key, own in fresh.trial.items():
            assert np.array_equal(cell.trial[key], own)
        assert np.array_equal(cell.tol, fresh.tol) and cell.tol.any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_predicted_advance_keeps_the_committed_state(self):
        """A non-finite macro strain after a condensation gives a non-finite
        cell ratio and leaves the committed state alone."""
        cell = ElementCellState(RVE, E)
        converge_cells(cell, macro_strains(1.0), DT)
        cell.commit()
        p, phi = cell.p.copy(), cell.phi.copy()
        strains = macro_strains(-0.6)
        cell.advance(strains, DT)
        cell.condense()
        strains[3, 0] = np.inf
        _, ratio = cell.advance(strains, DT)
        assert not np.isfinite(ratio)
        assert np.array_equal(cell.p, p) and np.array_equal(cell.phi, phi)

    def test_cells_above_the_dense_cap(self):
        """N = 11 cells: 242 unknowns, solved by DFT-preconditioned CG system by
        system, each column to the cell's forcing term.  The converged stresses
        are those of ``newton_solve``'s cells (``CellStack.step``)."""
        rve = RveConfig(n_cells=11, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE,
                        base_seed=0)
        space = P1Space(mesh_torus(rve.n_cells, rve.refine))
        assert space.n_packed > fem.DENSE_PERIODIC_DOFS
        strains = macro_strains(1.0)[[1, 7]]
        both = ElementCellState(rve, 2)
        stresses, tangents, _ = converge_cells(both, strains, DT)
        w = space.mesh.volumes / space.mesh.volumes.sum()
        for e in range(2):
            alone = ElementCellState(rve, 1)
            stress, tangent, _ = converge_cells(alone, strains[e:e + 1], DT)
            assert_close(stress, stresses[e:e + 1])
            assert_close(tangent, tangents[e:e + 1])
            z, _, _ = alone.step(np.repeat(strains[e:e + 1], 2, axis=0), DT)
            assert_close(stress, (w @ z).mean(axis=0, keepdims=True), rtol=ORACLE_RTOL)

    def test_fe2_solve_above_the_cap_builds_one_preconditioner_per_cell(self, monkeypatch):
        """Each of the E * M cells of an FE2 solve holds one reference for the
        whole solve, and that moves its results by roundoff only against a
        fresh reference for every cell solve."""
        # N = 6, r = 2 cells: 288 unknowns, on fe2_macro's mesh, path and load
        rve = RveConfig(n_cells=6, refine=2, n_samples=2, delta=0.003, law=TWO_PHASE,
                        base_seed=0)
        assert P1Space(mesh_torus(rve.n_cells, rve.refine)).n_packed > fem.DENSE_PERIODIC_DOFS
        knots = np.array([0.0, 0.25, 0.75, 1.0])
        path = StrainPath(knots, np.outer([0.0, 0.5, -0.5, 0.0], SHEAR))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve, dirichlet=AffineBoundary(path),
                          time_grid=np.linspace(0, 1, 5),
                          load=lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1)))
        builds = []
        build = fem.reference_preconditioner

        def counting_build(space, A):
            builds.append(A)
            return build(space, A)

        monkeypatch.setattr(fem, "reference_preconditioner", counting_build)
        held = solve_effective(cfg)
        assert len(builds) == cfg.mesh.n_elements * rve.n_samples
        assert held.newton_iters == ITERS_ABOVE_THE_CAP

        solve = fem.solve_periodic_systems
        monkeypatch.setattr(fem, "solve_periodic_systems",
                            lambda space, moduli, rhs, rtol, preconditioners:
                            solve(space, moduli, rhs, rtol, [[] for _ in moduli]))
        fresh = solve_effective(cfg)
        assert len(builds) > 10 * cfg.mesh.n_elements * rve.n_samples
        assert fresh.newton_iters == held.newton_iters
        assert_close(held.u, fresh.u)
        assert_close(held.average_stress(), fresh.average_stress())


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_strain_of_one_element_raises(self):
        """``newton_iterate`` rejects a first evaluation whose cell ratio is not
        finite, even at a finite macro residual."""
        cell = ElementCellState(RVE, E)
        strains = macro_strains(1.0)
        strains[3, 0] = np.inf
        space = P1Space(mesh_unit_square(2))
        assert space.mesh.n_elements == E

        def evaluate(systems):
            stresses = np.zeros((1, E, KDIM))
            _, ratio = cell.advance(strains, DT)
            return stresses, space.internal_forces(stresses), np.array([ratio])

        with pytest.raises(NumericalError, match="not finite"):
            newton_iterate(space, np.zeros((1, space.n_packed)), 0.0, 1e-6, evaluate, None)
        assert not cell.p.any() and not cell.phi.any()


def random_moduli(space, systems, seed):
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((systems, space.mesh.n_elements, KDIM, KDIM))
    return factors @ np.swapaxes(factors, -1, -2) + 0.1 * np.eye(KDIM)


class TestDirectPeriodicSolve:
    def test_dense_stack_equals_the_csr_operators(self, cells):
        space, _ = cells
        moduli = random_moduli(space, 3, 0)
        dense = space.assemble_dense(moduli)
        for A, m in zip(dense, moduli):
            assert np.array_equal(A, space.assemble_operator(m).toarray())

    def test_columns_share_one_factorization(self, cells):
        space, _ = cells
        moduli = random_moduli(space, 4, 1)
        A = space.assemble_dense(moduli)
        rhs = np.random.default_rng(2).standard_normal((4, space.n_packed, 3))
        x = fem.solve_periodic_direct(space, A, rhs)
        for j in range(3):
            assert_close(x[:, :, j], fem.solve_periodic_direct(space, A, rhs[:, :, j]),
                         rtol=1e-13)
        T = space.translation_vectors()
        projected = rhs - T.T @ (T @ rhs)
        assert np.abs(A @ x - projected).max() <= 1e-12 * np.abs(projected).max()
        assert np.abs(T @ x).max() <= 1e-14 * np.abs(x).max()

    def test_singular_stack_raises(self, cells):
        space, _ = cells
        moduli = random_moduli(space, 3, 3)
        moduli[1] = 0.0
        rhs = np.random.default_rng(4).standard_normal((3, space.n_packed))
        with pytest.raises(NumericalError, match="singular"):
            fem.solve_periodic_direct(space, space.assemble_dense(moduli), rhs)

    @pytest.mark.parametrize("corrupt", ["non-finite", "above-rtol"])
    def test_bad_residual_raises_with_step_and_residual(self, cells, corrupt, monkeypatch):
        space, _ = cells
        A = space.assemble_dense(random_moduli(space, 3, 5))
        if corrupt == "non-finite":
            A[2, 0, 0] = np.nan
        else:   # a factorization off by a relative 1e-3
            exact = np.linalg.solve
            monkeypatch.setattr(np.linalg, "solve", lambda A, b: (1.0 + 1e-3) * exact(A, b))
        rhs = np.random.default_rng(6).standard_normal((3, space.n_packed))
        with pytest.raises(NumericalError, match="residual") as err:
            fem.solve_periodic_direct(space, A, rhs)
        assert not err.value.residual <= CG_RTOL * np.linalg.norm(rhs)

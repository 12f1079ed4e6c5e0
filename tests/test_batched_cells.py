"""Lock-step batches of cell problems: ``newton_solve`` over S systems,
``ElementCellState`` over E * M cells and the direct periodic solve.

The cells are those of the FE2 benchmark: two-phase N = 4, r = 1 tori (32
unknowns), M = 2 samples, E = 8 macro strains from elastic to plastic.
"""

import numpy as np
import pytest

from plasthom import fem, finescale
from plasthom.cellproblem import CG_RTOL, RveConfig
from plasthom.errors import NumericalError
from plasthom.fem import P1Space, mesh_torus
from plasthom.finescale import newton_solve
from plasthom.macroscale import ElementCellState, _sample_materials
from plasthom.media import ProbabilityLaw
from plasthom.returnmap import MaterialArrays
from plasthom.tensors import KDIM

from helpers import central_differences

TWO_PHASE = ProbabilityLaw.from_config({"E": {"discrete": {"values": [1.0, 2.0]}},
                                        "nu": {"point": 0.3}, "sigma_y": {"point": 0.3}})
RVE = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE, base_seed=0)
E = 8
DT = 0.25
PERTURBATION = np.array([0.002, -0.001, 0.005])  # moves the elastic element 0 too


@pytest.fixture(scope="module")
def cells():
    space = P1Space(mesh_torus(RVE.n_cells, RVE.refine))
    return space, _sample_materials(RVE, space)


def macro_strains(scale):
    """E macro strains whose shear grows from 0 (elastic) to 0.5 * scale (plastic)."""
    shear = np.linspace(0.0, 0.5, E) * scale
    return np.stack([0.2 * shear, -0.1 * shear, shear], axis=1)


def newton_step(space, samples, systems, strains, p_old, phi):
    """One newton_solve over the given systems of the E * M; system s runs sample s % M."""
    mats = MaterialArrays.concatenate([samples[s % RVE.n_samples] for s in systems])
    offset = np.repeat(strains, RVE.n_samples, axis=0)[systems][:, None, :]
    u = phi[systems].copy()
    z, p, iters, res, moduli = newton_solve(space, mats, offset, p_old[systems], u, DT,
                                            RVE.delta, 0.0, RVE.newton_rtol,
                                            CG_RTOL)
    assert isinstance(iters, int) and res.shape == (len(systems),)
    return {"z": z, "p": p, "u": u, "moduli": moduli, "iters": iters}


def in_batches(space, samples, size, strains, p_old, phi):
    """newton_step over all E * M systems in consecutive batches of ``size``."""
    parts = [newton_step(space, samples, np.arange(start, min(start + size, len(phi))),
                         strains, p_old, phi)
             for start in range(0, len(phi), size)]
    out = {key: np.concatenate([part[key] for part in parts])
           for key in ("z", "p", "u", "moduli")}
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
            for key in ("z", "p", "u", "moduli"):
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
        for key in ("z", "p", "u", "moduli"):
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
    def advance_twice(self, space, samples, elements):
        """Stresses and tangents of the given elements' cells over two steps."""
        cell = ElementCellState(RVE, space, samples, len(elements))
        stresses, tangents = [], []
        for scale in (1.0, -0.6):
            stresses.append(cell.advance(macro_strains(scale)[elements], DT))
            tangents.append(cell.tangent())
            cell.commit()
        return np.stack(stresses), np.stack(tangents)

    def predicted_twice(self, rve, space, samples, strains):
        """Stresses and tangents of cells at the macro strains (E, 3) over two
        steps of advance, tangent, advance at a perturbed strain, commit; the
        second advance of each step starts from the predictor."""
        cell = ElementCellState(rve, space, samples, len(strains))
        stresses, tangents = [], []
        for scale in (1.0, -0.6):
            xi = scale * strains
            stresses.append(cell.advance(xi, DT))
            tangents.append(cell.tangent())
            stresses.append(cell.advance(1.02 * xi + scale * PERTURBATION, DT))
            tangents.append(cell.tangent())
            cell.commit()
        return np.stack(stresses), np.stack(tangents)

    @pytest.mark.parametrize("size", [1, 3])
    def test_smaller_containers_match_all_elements(self, cells, size):
        space, samples = cells
        stresses, tangents = self.advance_twice(space, samples, np.arange(E))
        parts = [self.advance_twice(space, samples, np.arange(start, min(start + size, E)))
                 for start in range(0, E, size)]
        assert_close(np.concatenate([s for s, _ in parts], axis=1), stresses)
        assert_close(np.concatenate([t for _, t in parts], axis=1), tangents)

    @pytest.mark.parametrize("size", [1, 3])
    def test_predicted_advances_of_smaller_containers_match_all_elements(self, cells, size):
        space, samples = cells
        strains = macro_strains(1.0)
        stresses, tangents = self.predicted_twice(RVE, space, samples, strains)
        parts = [self.predicted_twice(RVE, space, samples, strains[start:start + size])
                 for start in range(0, E, size)]
        assert_close(np.concatenate([s for s, _ in parts], axis=1), stresses)
        assert_close(np.concatenate([t for _, t in parts], axis=1), tangents)

    def test_predicted_advances_above_the_dense_cap(self):
        rve = RveConfig(n_cells=11, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE,
                        base_seed=0)
        space = P1Space(mesh_torus(rve.n_cells, rve.refine))
        assert space.n_packed > fem.DENSE_PERIODIC_DOFS
        samples = _sample_materials(rve, space)
        strains = macro_strains(1.0)[[1, 7]]
        stresses, tangents = self.predicted_twice(rve, space, samples, strains)
        for e in range(2):
            alone = self.predicted_twice(rve, space, samples, strains[e:e + 1])
            assert_close(alone[0], stresses[:, e:e + 1])
            assert_close(alone[1], tangents[:, e:e + 1])

    def test_elastic_cells_are_predicted_exactly(self, cells, monkeypatch):
        """Cells that stay elastic respond linearly, so the condensed-tangent
        predictor is their solution and the predicted advance runs no Newton
        iteration; the cold first advance needs some."""
        space, samples = cells
        iterations = []
        newton_solve = finescale.newton_solve

        def counting_newton(*args, **kwargs):
            out = newton_solve(*args, **kwargs)
            iterations.append(out[2])
            return out

        monkeypatch.setattr(finescale, "newton_solve", counting_newton)
        strains = macro_strains(1.0)[[1, 2]]     # elastic in every cell
        cell = ElementCellState(RVE, space, samples, len(strains))
        cell.advance(strains, DT)
        cell.tangent()
        cell.advance(1.02 * strains + PERTURBATION, DT)
        assert iterations[0] > 0 and iterations[1] == 0
        assert not cell._trial[0].any()

    def test_predictor_never_outlives_commit(self, cells):
        """After commit, and after an advance without a tangent before it,
        cells advance bit for bit like fresh cells from the committed state."""
        space, samples = cells
        strains = macro_strains(1.0)
        cell = ElementCellState(RVE, space, samples, E)
        cell.advance(strains, DT)
        cell.tangent()
        cell.advance(1.02 * strains + PERTURBATION, DT)
        cell.tangent()
        cell.commit()
        fresh = ElementCellState(RVE, space, samples, E)
        fresh.p, fresh.phi = cell.p.copy(), cell.phi.copy()
        reverse = macro_strains(-0.6)
        assert np.array_equal(cell.advance(reverse, DT), fresh.advance(reverse, DT))
        for kept, own in zip(cell._trial, fresh._trial):
            assert np.array_equal(kept, own)
        cell.tangent()
        cell.advance(0.9 * reverse, DT)        # predicted
        assert np.array_equal(cell.advance(reverse, DT), fresh.advance(reverse, DT))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_predicted_advance_keeps_the_committed_state(self, cells):
        space, samples = cells
        cell = ElementCellState(RVE, space, samples, E)
        cell.advance(macro_strains(1.0), DT)
        cell.commit()
        p, phi = cell.p.copy(), cell.phi.copy()
        strains = macro_strains(-0.6)
        cell.advance(strains, DT)
        cell.tangent()
        strains[3, 0] = np.inf
        with pytest.raises(NumericalError):
            cell.advance(strains, DT)
        assert np.array_equal(cell.p, p) and np.array_equal(cell.phi, phi)

    def test_cells_above_the_dense_cap(self):
        # N = 11 cells: 242 unknowns, solved by DFT-preconditioned CG system by system
        rve = RveConfig(n_cells=11, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE,
                        base_seed=0)
        space = P1Space(mesh_torus(rve.n_cells, rve.refine))
        assert space.n_packed > fem.DENSE_PERIODIC_DOFS
        samples = _sample_materials(rve, space)
        strains = macro_strains(1.0)[[1, 7]]
        both = ElementCellState(rve, space, samples, 2)
        stresses, tangents = both.advance(strains, DT), both.tangent()
        for e in range(2):
            alone = ElementCellState(rve, space, samples, 1)
            assert_close(alone.advance(strains[e:e + 1], DT), stresses[e:e + 1])
            assert_close(alone.tangent(), tangents[e:e + 1])
            h = 1e-4 * np.linalg.norm(strains[e:e + 1], axis=1)
            fd = central_differences(alone, strains[e:e + 1], DT, h)
            assert np.abs(tangents[e] - fd[0]).max() <= 1e-6 * np.abs(fd).max()

    def test_tangent_builds_one_preconditioner_per_cell(self, monkeypatch):
        # N = 16 cells: 512 unknowns, and 3 tangent right-hand sides per cell
        rve = RveConfig(n_cells=16, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE,
                        base_seed=0)
        space = P1Space(mesh_torus(rve.n_cells, rve.refine))
        assert space.n_packed > fem.DENSE_PERIODIC_DOFS
        cell = ElementCellState(rve, space, _sample_materials(rve, space), 1)
        cell.advance(macro_strains(1.0)[[6]], DT)
        builds = []
        build = fem.reference_preconditioner

        def counting_build(space, A):
            builds.append(A)
            return build(space, A)

        monkeypatch.setattr(fem, "reference_preconditioner", counting_build)
        tangent = cell.tangent()
        assert len(builds) == rve.n_samples

        def column_by_column(space, moduli, rhs, rtol=1e-10, step=None):
            # one solve_periodic, and so one preconditioner, per right-hand side
            x = np.empty_like(rhs)
            for s, system_moduli in enumerate(moduli):
                A = space.assemble_operator(system_moduli)
                for j in range(rhs.shape[2]):
                    x[s, :, j] = fem.solve_periodic(space, A, rhs[s, :, j], rtol=rtol)
            return x

        monkeypatch.setattr(fem, "solve_periodic_systems", column_by_column)
        assert np.array_equal(cell.tangent(), tangent)
        assert len(builds) == 4 * rve.n_samples

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_strain_of_one_element_raises(self, cells):
        space, samples = cells
        cell = ElementCellState(RVE, space, samples, E)
        strains = macro_strains(1.0)
        strains[3, 0] = np.inf
        with pytest.raises(NumericalError):
            cell.advance(strains, DT)
        assert cell._trial is None and not cell.p.any() and not cell.phi.any()


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
        x = fem.solve_periodic_direct(space, A, rhs, rtol=1e-12)
        for j in range(3):
            assert_close(x[:, :, j], fem.solve_periodic_direct(space, A, rhs[:, :, j],
                                                               rtol=1e-12), rtol=1e-13)
        T = space.translation_vectors()
        projected = rhs - T.T @ (T @ rhs)
        assert np.abs(A @ x - projected).max() <= 1e-12 * np.abs(projected).max()
        assert np.abs(T @ x).max() <= 1e-14 * np.abs(x).max()

    def test_singular_stack_raises(self, cells):
        space, _ = cells
        moduli = random_moduli(space, 3, 3)
        moduli[1] = 0.0
        rhs = np.random.default_rng(4).standard_normal((3, space.n_packed))
        with pytest.raises(NumericalError, match="singular") as err:
            fem.solve_periodic_direct(space, space.assemble_dense(moduli), rhs, step=7)
        assert err.value.step == 7

    @pytest.mark.parametrize("corrupt, rtol", [
        pytest.param(np.nan, 1e-10, id="non-finite"),
        pytest.param(1.0, 1e-30, id="above-rtol"),
    ])
    def test_bad_residual_raises_with_step_and_residual(self, cells, corrupt, rtol):
        space, _ = cells
        A = space.assemble_dense(random_moduli(space, 3, 5))
        A[2, 0, 0] *= corrupt
        rhs = np.random.default_rng(6).standard_normal((3, space.n_packed))
        with pytest.raises(NumericalError, match="residual") as err:
            fem.solve_periodic_direct(space, A, rhs, rtol=rtol, step=4)
        assert err.value.step == 4
        assert not err.value.residual <= rtol * np.linalg.norm(rhs)

import re

import numpy as np
import pytest

from plasthom import fem, finescale, macroscale
from plasthom.cellproblem import RveConfig, sigma
from plasthom.errors import ConfigurationError, NumericalError
from plasthom.fem import P1Space, mesh_simplex, mesh_torus, mesh_unit_square, solve_elastic
from plasthom.finescale import EpsProblemConfig, solve_eps
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.macroscale import (
    ElementCellState,
    MacroConfig,
    _sample_materials,
    solve_effective,
    weak_form_residual,
)
from plasthom.media import ProbabilityLaw, sample_realization
from plasthom.returnmap import MaterialArrays
from plasthom.tensors import isotropic_stiffness

from helpers import central_differences, shear_path

CONSTANT = ProbabilityLaw.constant(1.0, 0.3, 0.3, 1.0)
TWO_PHASE = ProbabilityLaw.from_config({"E": {"discrete": {"values": [1.0, 2.0]}},
                                        "nu": {"point": 0.3}, "sigma_y": {"point": 0.3}})


def single_cell_rve(delta=0.003, rtol=1e-11):
    return RveConfig(n_cells=1, refine=1, n_samples=1, delta=delta,
                     law=CONSTANT, base_seed=0, newton_rtol=rtol)


class TestSolveEffective:
    def test_zero_data_gives_zero(self):
        path = StrainPath.ramp(np.zeros(3), 1.0, steps=2)
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=single_cell_rve(),
                          dirichlet=AffineBoundary(path),
                          time_grid=np.linspace(0, 1, 3))
        sol = solve_effective(cfg)
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.sigma).max() == 0.0

    def test_elastic_regime_matches_linear_solve(self):
        steps = 3
        path = shear_path(0.1, 1.0, steps)  # elastic throughout
        mesh = mesh_unit_square(2)
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh, rve=single_cell_rve(), load=load,
                          dirichlet=AffineBoundary(path),
                          time_grid=np.linspace(0, 1, steps + 1),
                          newton_rtol=1e-9)
        sol = solve_effective(cfg)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3)
        from plasthom.tensors import unpack

        for m in range(1, steps + 1):
            t = cfg.time_grid[m]
            xi = unpack(path.at(t))
            ref = solve_elastic(space, A, f=lambda pts: load(t, pts),
                                g=lambda pts: pts @ xi.T, rtol=1e-13)
            num = np.sqrt(((sol.u[m] - ref) ** 2).sum(axis=1).mean())
            den = max(np.sqrt((ref**2).sum(axis=1).mean()), 1e-300)
            assert num <= 1e-6 * den

    def test_single_element_affine_reproduces_cell_operator(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = mesh_simplex(corners, 2.0)  # one element, all vertices on boundary
        steps = 5
        path = shear_path(0.6, 1.0, steps)
        grid = np.linspace(0, 1, steps + 1)
        rve = single_cell_rve()
        cfg = MacroConfig(mesh=mesh, rve=rve, dirichlet=AffineBoundary(path),
                          time_grid=grid)
        sol = solve_effective(cfg)
        reference = sigma(rve, path, grid)
        assert np.abs(sol.sigma[:, 0, :] - reference.sigma).max() < 1e-9

    def test_consistency_with_heterogeneous_solver(self):
        # single-cell homogeneous RVE: the effective solve must reproduce the
        # plain solver with constant coefficients step by step
        steps = 4
        path = shear_path(0.6, 1.0, steps)
        grid = np.linspace(0, 1, steps + 1)
        mesh = mesh_unit_square(2)
        load = lambda t, pts: t * np.tile([0.3, -0.1], (len(pts), 1))
        mc = MacroConfig(mesh=mesh, rve=single_cell_rve(), load=load,
                         dirichlet=AffineBoundary(path), time_grid=grid,
                         newton_rtol=1e-10)
        sol = solve_effective(mc)
        ec = EpsProblemConfig(mesh=mesh, medium=sample_realization(CONSTANT, 0),
                              epsilon=1.0, delta=0.003, time_grid=grid,
                              dirichlet=AffineBoundary(path), load=load,
                              newton_rtol=1e-11)
        traj = solve_eps(ec)
        for m in range(steps + 1):
            assert np.abs(sol.u[m] - traj.u[m]).max() <= 1e-8
            assert np.abs(sol.sigma[m] - traj.sigma[m]).max() <= 1e-8
        # the committed cell states ride along on the solution, one cell per
        # element here (M = 1), uniform like the medium
        assert sol.cells.p.shape[0] == mesh.n_elements
        for element in range(sol.cells.p.shape[1]):
            assert np.abs(sol.cells.p[:, element] - traj.p[-1]).max() <= 1e-8

    def test_weak_form_residual_bound(self):
        steps = 3
        path = shear_path(0.4, 1.0, steps)
        load = lambda t, pts: t * np.tile([0.1, 0.2], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=single_cell_rve(),
                          dirichlet=AffineBoundary(path), load=load,
                          time_grid=np.linspace(0, 1, steps + 1))
        sol = solve_effective(cfg)
        assert weak_form_residual(sol, cfg) <= 1e-6

    def test_samples_are_built_once_and_shared(self, monkeypatch):
        built = []
        from_medium = MaterialArrays.from_medium.__func__

        def counting(cls, *args, **kwargs):
            built.append(from_medium(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(MaterialArrays, "from_medium", classmethod(counting))
        law = ProbabilityLaw.from_config({"E": {"discrete": {"values": [1.0, 2.0]}},
                                          "nu": {"point": 0.3}, "sigma_y": {"point": 0.3}})
        rve = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003, law=law)
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve,
                          dirichlet=AffineBoundary(shear_path(0.1, 1.0, 1)),
                          time_grid=np.linspace(0, 1, 2))
        sol = solve_effective(cfg)
        assert len(built) == rve.n_samples
        cells = sol.cells
        assert len(cells.mats) == len(built)
        assert all(shared is own for shared, own in zip(built, cells.mats))
        # cell e * M + j of the lock-step batch runs sample j of element e
        a_dev = cells._systems.a_dev.reshape(cfg.mesh.n_elements, rve.n_samples, -1)
        for j, sample in enumerate(built):
            assert np.array_equal(a_dev[:, j], np.broadcast_to(sample.a_dev, a_dev[:, j].shape))


def cell_state(rve, n_elements=1):
    space = P1Space(mesh_torus(rve.n_cells, rve.refine))
    return ElementCellState(rve, space, _sample_materials(rve, space), n_elements)


class TestCondensedTangent:
    def test_matches_central_differences_and_keeps_committed_state(self):
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003,
                        law=TWO_PHASE, base_seed=0)
        cell = cell_state(rve)
        dt = 0.25
        cell.advance(np.array([[0.004, -0.002, 0.01]]), dt)
        cell.commit()
        p, phi = cell.p.copy(), cell.phi.copy()
        for xi, plastic in ((np.array([[0.01, -0.005, 0.003]]), False),
                            (np.array([[0.1, -0.05, 0.5]]), True)):
            cell.advance(xi, dt)
            assert any((trial != p[j]).any()
                       for j, trial in enumerate(cell._trial[0])) == plastic
            tangent = cell.tangent()
            fd = central_differences(cell, xi, dt, 1e-4 * np.linalg.norm(xi, axis=1))
            assert np.abs(tangent - fd).max() <= 1e-6 * np.abs(fd).max()
            assert np.array_equal(cell.p, p) and np.array_equal(cell.phi, phi)

    def test_elements_at_elastic_plastic_and_mixed_strains(self):
        # element 0 stays elastic, element 1 flows in every cell, element 2
        # flows in some elements of its cells only
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003,
                        law=TWO_PHASE, base_seed=5)
        cell = cell_state(rve, n_elements=3)
        dt = 0.25
        strains = np.array([[0.01, -0.005, 0.003],
                            [0.1, -0.05, 0.5],
                            [0.02, -0.01, 0.18]])
        cell.advance(strains, dt)
        flowing = (cell._trial[0] != 0).any(axis=-1).reshape(3, -1)
        assert not flowing[0].any() and flowing[1].all()
        assert flowing[2].any() and not flowing[2].all()
        tangent = cell.tangent()
        assert tangent.shape == (3, 3, 3)
        fd = central_differences(cell, strains, dt, 1e-4 * np.linalg.norm(strains, axis=1))
        for e in range(3):
            assert np.abs(tangent[e] - fd[e]).max() <= 1e-6 * np.abs(fd[e]).max()

    def test_elastic_limit_is_the_constant_stiffness(self):
        rve = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003,
                        law=CONSTANT, base_seed=0)
        cell = cell_state(rve)
        cell.advance(np.array([[0.01, -0.004, 0.02]]), 0.25)
        stiffness = isotropic_stiffness(1.0, 0.3)
        assert np.abs(cell.tangent()[0] - stiffness).max() <= 1e-10 * np.abs(stiffness).max()

    def test_one_vertex_torus_gives_the_mean_moduli(self):
        rve = RveConfig(n_cells=1, refine=1, n_samples=1, delta=0.003,
                        law=TWO_PHASE, base_seed=3)
        cell = cell_state(rve)
        assert cell.space.n_packed == 2
        cell.advance(np.array([[0.1, -0.05, 0.5]]), 0.25)
        moduli = cell._trial[2][0]
        volumes = cell.space.mesh.volumes
        mean = np.einsum("e,eij->ij", volumes, moduli) / volumes.sum()
        assert np.abs(cell.tangent()[0] - 0.5 * (mean + mean.T)).max() <= 1e-14


class TestBudgets:
    def test_wallclock_budget_raises_with_partial(self):
        path = shear_path(0.6, 1.0, 4)
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=single_cell_rve(),
                          dirichlet=AffineBoundary(path),
                          time_grid=np.linspace(0, 1, 5), max_seconds=0.0)
        with pytest.raises(NumericalError) as err:
            solve_effective(cfg)
        assert err.value.partial is not None

    def test_element_budget_is_checked(self):
        path = shear_path(0.6, 1.0, 2)
        with pytest.raises(ConfigurationError):
            MacroConfig(mesh=mesh_unit_square(4), rve=single_cell_rve(),
                        dirichlet=AffineBoundary(path),
                        time_grid=np.linspace(0, 1, 3), max_elements=8)


class TestNewtonFailure:
    def test_reported_worst_dofs_are_free(self, monkeypatch):
        """The failure message ranks the free residual, never the reaction forces."""
        monkeypatch.setattr(macroscale, "NEWTON_MAXITER", 1)
        law = ProbabilityLaw.from_config({"E": {"discrete": {"values": [1.0, 2.0]}},
                                          "nu": {"point": 0.3}, "sigma_y": {"point": 0.3}})
        rve = RveConfig(n_cells=2, refine=1, n_samples=1, delta=0.003, law=law)
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(3), rve=rve,
                          dirichlet=AffineBoundary(shear_path(0.6, 1.0, 2)), load=load,
                          time_grid=np.linspace(0, 1, 3))
        with pytest.raises(NumericalError, match="worst dofs") as err:
            solve_effective(cfg)
        worst = re.search(r"worst dofs \[([\d, ]+)\]", str(err.value)).group(1)
        dofs = [int(d) for d in worst.split(",")]
        assert len(dofs) == 5
        assert set(dofs) <= set(P1Space(cfg.mesh).free_dofs.tolist())


    @pytest.mark.parametrize("site", ["cell-advance", "cell-linear-solve", "macro-cg"])
    def test_failed_solve_names_its_step(self, monkeypatch, site):
        """A step-less NumericalError from a cell or macro solve gets the macro step."""
        commits = []
        commit = ElementCellState.commit

        def counting_commit(self):
            commits.append(1)
            commit(self)

        def failing(original):
            def fail_in_step_2(*args, **kwargs):
                if commits:
                    raise NumericalError("solve broke down", residual=1.0)
                return original(*args, **kwargs)
            return fail_in_step_2

        monkeypatch.setattr(ElementCellState, "commit", counting_commit)
        owner, name = {"cell-advance": (ElementCellState, "advance"),
                       "cell-linear-solve": (fem, "solve_periodic_systems"),
                       "macro-cg": (macroscale, "pcg")}[site]
        monkeypatch.setattr(owner, name, failing(getattr(owner, name)))
        rve = RveConfig(n_cells=2, refine=1, n_samples=1, delta=0.003, law=TWO_PHASE)
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve,
                          dirichlet=AffineBoundary(shear_path(0.6, 1.0, 3)),
                          time_grid=np.linspace(0, 1, 4))
        with pytest.raises(NumericalError, match="broke down") as err:
            solve_effective(cfg)
        assert err.value.step == 2 and len(commits) == 1


class TestCellPredictor:
    def test_warm_start_saves_a_third_of_the_cell_iterations(self, monkeypatch):
        """Cells started from the condensed-tangent predictor need at most two
        thirds of the cell Newton iterations of cells started from the
        committed corrector, for the same macro iterates and results."""
        newton_solve = finescale.newton_solve
        tangent = ElementCellState.tangent
        iterations = []

        def counting_newton(*args, **kwargs):
            out = newton_solve(*args, **kwargs)
            iterations[-1] += out[2]
            return out

        def cold_tangent(self):
            kept = tangent(self)
            self._predictor = None
            return kept

        monkeypatch.setattr(finescale, "newton_solve", counting_newton)
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve,
                          dirichlet=AffineBoundary(shear_path(0.6, 1.0, 4, unload_to=-0.6)),
                          load=load, time_grid=np.linspace(0, 1, 5))
        iterations.append(0)
        warm = solve_effective(cfg)
        monkeypatch.setattr(ElementCellState, "tangent", cold_tangent)
        iterations.append(0)
        cold = solve_effective(cfg)
        assert warm.newton_iters == cold.newton_iters and sum(cold.newton_iters) > 4
        assert 3 * iterations[0] <= 2 * iterations[1]
        for warm_field, cold_field in ((warm.u, cold.u), (warm.sigma, cold.sigma)):
            assert np.abs(warm_field - cold_field).max() \
                <= cfg.newton_rtol * np.abs(cold_field).max()


class TestConfigValidation:
    def test_rejects_dirichlet_data_that_is_not_affine(self):
        with pytest.raises(ConfigurationError):
            MacroConfig(mesh=mesh_unit_square(2), rve=single_cell_rve(),
                        dirichlet=lambda t, pts: t * pts,
                        time_grid=np.linspace(0, 1, 3))

    def test_rve_without_law_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="ProbabilityLaw"):
            solve_effective(MacroConfig(mesh=mesh_unit_square(2), rve=RveConfig(n_cells=2),
                                        dirichlet=AffineBoundary(shear_path(0.1, 1.0, 2)),
                                        time_grid=np.linspace(0, 1, 3)))

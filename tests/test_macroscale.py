import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from plasthom import cellproblem, fem, macroscale
from plasthom.cellproblem import RveConfig, sigma
from plasthom.errors import ConfigurationError, NumericalError
from plasthom.fem import CG_RTOL, P1Space, mesh_simplex, mesh_unit_square, solve_elastic
from plasthom.finescale import EpsProblemConfig, solve_eps
from plasthom.loading import AffineBoundary, StrainPath
from plasthom.macroscale import (
    ElementCellState,
    MacroConfig,
    solve_effective,
    weak_form_residual,
)
from plasthom.media import PeriodizedMedium, ProbabilityLaw, sample_realization
from plasthom.returnmap import MaterialArrays, plastic_step
from plasthom.tensors import isotropic_stiffness, pack, unpack

from helpers import SwappedMedium, central_differences, converge_cells, shear_cycle, shear_path

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

    def test_weak_form_residual_sees_perturbed_stresses(self):
        """Stresses off by 1e-4 relative read above the benchmark's limit of
        10 x the Newton tolerance."""
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve, load=load,
                          dirichlet=AffineBoundary(shear_cycle(0.5)),
                          time_grid=np.linspace(0, 1, 5))
        sol = solve_effective(cfg)
        assert weak_form_residual(sol, cfg) <= 10.0 * cfg.newton_rtol
        sol.sigma *= 1.0 + 1e-4
        assert weak_form_residual(sol, cfg) > 10.0 * cfg.newton_rtol

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
        # cell e * M + j of the lock-step batch runs sample j of element e
        a_dev = sol.cells.mats.a_dev.reshape(cfg.mesh.n_elements, rve.n_samples, -1)
        for j, sample in enumerate(built):
            assert np.array_equal(a_dev[:, j], np.broadcast_to(sample.a_dev, a_dev[:, j].shape))


def cell_state(rve, n_elements=1):
    return ElementCellState(rve, n_elements)


class TestCondensedTangent:
    """The condensed tangent of converged cells against central differences of
    cells converged by ``newton_solve``."""

    def test_matches_central_differences_and_keeps_committed_state(self):
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003,
                        law=TWO_PHASE, base_seed=0)
        cell = cell_state(rve)
        dt = 0.25
        converge_cells(cell, np.array([[0.004, -0.002, 0.01]]), dt)
        cell.commit()
        p, phi = cell.p.copy(), cell.phi.copy()
        for xi, plastic in ((np.array([[0.01, -0.005, 0.003]]), False),
                            (np.array([[0.1, -0.05, 0.5]]), True)):
            _, tangent, q = converge_cells(cell, xi, dt)
            assert not q.any()
            assert any((trial != p[j]).any()
                       for j, trial in enumerate(cell.trial["p"])) == plastic
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
        _, tangent, _ = converge_cells(cell, strains, dt)
        flowing = (cell.trial["p"] != 0).any(axis=-1).reshape(3, -1)
        assert not flowing[0].any() and flowing[1].all()
        assert flowing[2].any() and not flowing[2].all()
        assert tangent.shape == (3, 3, 3)
        fd = central_differences(cell, strains, dt, 1e-4 * np.linalg.norm(strains, axis=1))
        for e in range(3):
            assert np.abs(tangent[e] - fd[e]).max() <= 1e-6 * np.abs(fd[e]).max()

    def test_elastic_limit_is_the_constant_stiffness(self):
        rve = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003,
                        law=CONSTANT, base_seed=0)
        cell = cell_state(rve)
        _, tangent, _ = converge_cells(cell, np.array([[0.01, -0.004, 0.02]]), 0.25)
        stiffness = isotropic_stiffness(1.0, 0.3)
        assert np.abs(tangent[0] - stiffness).max() <= 1e-10 * np.abs(stiffness).max()

    def test_one_vertex_torus_gives_the_mean_moduli(self):
        rve = RveConfig(n_cells=1, refine=1, n_samples=1, delta=0.003,
                        law=TWO_PHASE, base_seed=3)
        cell = cell_state(rve)
        assert cell.space.n_packed == 2
        _, tangent, _ = converge_cells(cell, np.array([[0.1, -0.05, 0.5]]), 0.25)
        moduli = cell.trial["moduli"][0]
        volumes = cell.space.mesh.volumes
        mean = np.einsum("e,eij->ij", volumes, moduli) / volumes.sum()
        assert np.abs(tangent[0] - 0.5 * (mean + mean.T)).max() <= 1e-14


class TestTangentBounds:
    """Every condensed tangent lies between the Reuss and Voigt bounds of the
    moduli it was condensed from, in the Loewner order (Hill 1952), and
    strictly below Voigt on a two-phase cell; every converged cell meets
    Hill-Mandel, <z . (xi + D phi)> = <z> . xi."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(E=st.floats(0.5, 2.0), contrast=st.floats(2.0, 5.0), nu=st.floats(0.1, 0.4),
           seed=st.integers(0, 10**6),
           direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
           .filter(lambda v: np.linalg.norm(v) > 0.1),
           normal=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
           elastic=st.floats(0.01, 0.1), plastic=st.floats(2.0, 6.0))
    def test_bounds_and_hill_mandel(self, E, contrast, nu, seed, direction, normal, elastic,
                                    plastic):
        """Element 0 at a strain of at most a tenth of the soft phase's yield
        strain, in any direction; element 1 at 2 to 6 times it, mostly shear."""
        law = ProbabilityLaw.from_config({"E": {"discrete": {"values": [E, contrast * E]}},
                                          "nu": {"point": nu}, "sigma_y": {"point": 0.3}})
        cell = cell_state(RveConfig(n_cells=4, refine=1, n_samples=1, delta=0.003, law=law,
                                    base_seed=seed), n_elements=2)
        direction = np.array(direction) / np.linalg.norm(direction)
        strains = 0.3 * (1.0 + nu) / E * np.array([elastic * direction,
                                                   plastic * np.array(normal + [1.0])])
        dt = 0.25
        _, tangent, _ = converge_cells(cell, strains, dt)
        trial = cell.trial
        assert [(p != 0).any() for p in trial["p"]] == [False, True]

        moduli = trial["moduli"]
        w = cell.space.mesh.volumes / cell.space.mesh.volumes.sum()
        voigt = np.einsum("e,seij->sij", w, moduli)
        reuss = np.linalg.inv(np.einsum("e,seij->sij", w, np.linalg.inv(moduli)))
        scale = np.abs(moduli).max()
        gap = np.linalg.eigvalsh(voigt - tangent)
        assert gap.min() >= -CG_RTOL * scale
        assert np.linalg.eigvalsh(tangent - reuss).min() >= -CG_RTOL * scale
        two_phase = np.ptp(cell.mats.a_dev.reshape(2, -1), axis=1) > 0
        assert np.all(gap.max(axis=1)[two_phase] >= 1e-3 * scale)

        total = trial["strains"][:, None, :] + cell.space.element_strains(trial["phi"])
        z = plastic_step(total.reshape(-1, 3), cell.p.reshape(-1, 3), cell.mats, dt,
                         cell.delta)[0].reshape(total.shape)
        mean = np.einsum("e,sek->sk", w, z)
        defect = np.einsum("e,sek,sek->s", w, z, total) - np.einsum("sk,sk->s", mean, strains)
        assert np.all(np.abs(defect) <= 1e-9 * np.linalg.norm(mean, axis=1)
                      * np.linalg.norm(strains, axis=1))


class TestSwapSymmetry:
    """mesh_unit_square is invariant under the swap (x, y) -> (y, x), which
    maps elements to elements and Mandel [a11, a22, sqrt2 a12] to
    [a22, a11, sqrt2 a12]: the swapped Dirichlet path and body load, with
    every cell sample read at swapped points, must give each element's
    swapped stresses at its mirror element, through flow, unloading and
    reverse flow."""

    SWAP = [1, 0, 2]

    def test_swapped_problem_gives_swapped_element_stresses(self, monkeypatch):
        mesh = mesh_unit_square(2)
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        # the benchmark's shear cycle 0 -> +a -> -a -> 0 plus a (0.3, -0.1, 0) ramp
        knots = np.array([0.0, 0.25, 0.75, 1.0])
        values = (np.outer(0.6 * np.array([0.0, 1.0, -1.0, 0.0]),
                           pack(np.array([[0.0, 1.0], [1.0, 0.0]])))
                  + np.outer(knots, [0.3, -0.1, 0.0]))

        def stresses(path_values, force):
            sol = solve_effective(MacroConfig(
                mesh=mesh, rve=rve, dirichlet=AffineBoundary(StrainPath(knots, path_values)),
                load=lambda t, pts: t * np.tile(force, (len(pts), 1)),
                time_grid=np.linspace(0.0, 1.0, 5)))
            assert sol.cells.p.any()
            return sol.sigma

        original = stresses(values, [0.2, -0.1])
        monkeypatch.setattr(cellproblem, "PeriodizedMedium",
                            lambda *args: SwappedMedium(PeriodizedMedium(*args)))
        swapped = stresses(values[:, self.SWAP], [-0.1, 0.2])
        bary = mesh.barycenters
        mirror = [np.flatnonzero(np.abs(bary - b[::-1]).max(axis=1) < 1e-12)[0] for b in bary]
        scale = np.abs(original).max()
        assert np.abs(swapped[:, mirror] - original[..., self.SWAP]).max() <= 1e-12 * scale
        # the check can fail: the swapped cells under the original path differ
        unswapped = stresses(values, [0.2, -0.1])
        assert np.abs(unswapped[:, mirror] - original[..., self.SWAP]).max() > 1e-3 * scale


class TestBudgets:
    def test_wallclock_budget_raises_at_its_step(self):
        path = shear_path(0.6, 1.0, 4)
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=single_cell_rve(),
                          dirichlet=AffineBoundary(path),
                          time_grid=np.linspace(0, 1, 5), max_seconds=0.0)
        with pytest.raises(NumericalError) as err:
            solve_effective(cfg)
        assert err.value.step == 1

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
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve,
                          dirichlet=AffineBoundary(shear_path(0.6, 1.0, 3)), load=load,
                          time_grid=np.linspace(0, 1, 4))
        with pytest.raises(NumericalError, match="broke down") as err:
            solve_effective(cfg)
        assert err.value.step == 2 and len(commits) == 1


class TestCellsFollowTheMacroUpdate:
    def test_following_cells_save_joint_iterations(self, monkeypatch):
        """Every cell follows each macro update through its linearization,
        phi_lin + K^+ r - K^+ G (xi - xi_lin).  Cells that take K^+ r alone
        and leave the macro strain to their next correction need more joint
        iterations for the same results."""
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve,
                          dirichlet=AffineBoundary(shear_path(0.6, 1.0, 4, unload_to=-0.6)),
                          load=load, time_grid=np.linspace(0, 1, 5))
        following = solve_effective(cfg)
        condense = ElementCellState.condense

        def lagging(self):
            out = condense(self)
            xi, phi, KR, KG = self.linearization
            self.linearization = (xi, phi, KR, np.zeros_like(KG))
            return out

        monkeypatch.setattr(ElementCellState, "condense", lagging)
        lagged = solve_effective(cfg)
        assert sum(following.newton_iters) < sum(lagged.newton_iters)
        for field, lagged_field in ((following.u, lagged.u), (following.sigma, lagged.sigma)):
            assert np.abs(field - lagged_field).max() \
                <= cfg.newton_rtol * np.abs(lagged_field).max()


class TestCommittedCells:
    def test_every_committed_cell_is_converged_and_meets_hill_mandel(self, monkeypatch):
        """At every step of a loaded FE2 solve, every committed cell meets its
        own Newton test, res_c <= tol_c, and Hill-Mandel,
        <z . (xi + D phi)> = <z> . xi, to roundoff of the terms' sizes."""
        commits = []
        commit = ElementCellState.commit
        dt = 0.25

        def checked_commit(self):
            trial = self.trial
            w = self.space.mesh.volumes / self.space.mesh.volumes.sum()
            total = trial["strains"][:, None, :] + self.space.element_strains(trial["phi"])
            z = plastic_step(total.reshape(-1, 3), self.p.reshape(-1, 3), self.mats, dt,
                             self.delta)[0].reshape(total.shape)
            mean = np.einsum("e,sek->sk", w, z)
            defect = np.einsum("e,sek,sek->s", w, z, total) \
                - np.einsum("sk,sk->s", mean, trial["strains"])
            size = np.einsum("e,se->s", w, np.linalg.norm(z, axis=-1)
                             * np.linalg.norm(total, axis=-1))
            commits.append((trial["res"] <= self.tol, np.abs(defect) <= 1e-12 * size))
            commit(self)

        monkeypatch.setattr(ElementCellState, "commit", checked_commit)
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
        cfg = MacroConfig(mesh=mesh_unit_square(2), rve=rve, load=load,
                          dirichlet=AffineBoundary(shear_cycle(0.5)),
                          time_grid=np.arange(5) * dt)
        sol = solve_effective(cfg)
        assert sol.cells.p.any() and len(commits) == 4
        for converged, hill_mandel in commits:
            assert converged.all() and hill_mandel.all()


class TestAffinePredictor:
    """Each step starts from the last solution moved by the affine increment
    of the Dirichlet data, which is exact for a homogeneous response."""

    def test_unloaded_affine_solve_stays_affine(self):
        """Every element shares the same samples, so an affine field is the
        FE2 solution: the joint iterations converge the cells and leave the
        predictor in place to roundoff.  Its weak-form residual is roundoff
        of the stresses' force scale."""
        rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        path = shear_path(0.6, 1.0, 4, unload_to=-0.6)
        cfg = MacroConfig(mesh=mesh_unit_square(3), rve=rve, dirichlet=AffineBoundary(path),
                          time_grid=np.linspace(0, 1, 5))
        sol = solve_effective(cfg)
        affine = np.stack([cfg.mesh.vertices @ unpack(path.at(t)).T for t in cfg.time_grid])
        assert min(sol.newton_iters) > 0 and sol.cells.p.any()
        assert np.abs(sol.u - affine).max() <= 1e-15 * np.abs(affine).max()
        assert weak_form_residual(sol, cfg) <= 1e-12

    @pytest.mark.parametrize("loaded", [False, True], ids=["unloaded", "loaded"])
    def test_convergence_test_scales_with_the_units(self, loaded):
        """Stresses, hardening, yield stress, the regularization (stress times
        time) and the load scaled by s give the stresses scaled by s: every
        term of the convergence test is a force of the step's data."""
        stresses = {}
        for s in (1e-2, 1.0, 1e4):
            law = ProbabilityLaw.from_config({
                "E": {"discrete": {"values": [1e4 * s, 2e4 * s]}}, "nu": {"point": 0.3},
                "sigma_y": {"point": 3e3 * s}, "H": {"point": 1e4 * s}})
            rve = RveConfig(n_cells=4, refine=1, n_samples=2, delta=30.0 * s, law=law)
            load = (lambda t, pts, s=s: s * t * np.tile([2e3, -1e3], (len(pts), 1))) \
                if loaded else None
            cfg = MacroConfig(mesh=mesh_unit_square(4), rve=rve, load=load,
                              dirichlet=AffineBoundary(shear_path(0.5, 1.0, 4, unload_to=0.0)),
                              time_grid=np.linspace(0, 1, 5))
            stresses[s] = solve_effective(cfg).sigma / s
        reference = stresses[1.0]
        for scaled in stresses.values():
            assert np.abs(scaled - reference).max() <= 1e-8 * np.abs(reference).max()


class TestConfigValidation:
    def test_rejects_dirichlet_data_that_is_not_affine(self):
        with pytest.raises(ConfigurationError):
            MacroConfig(mesh=mesh_unit_square(2), rve=single_cell_rve(),
                        dirichlet=lambda t, pts: t * pts,
                        time_grid=np.linspace(0, 1, 3))

    @pytest.mark.parametrize("scale", ["eps", "effective"])
    def test_load_that_does_not_vanish_at_t0_is_rejected(self, scale):
        """Both solvers run the steps of ``finescale.dirichlet_steps``, which
        check the load at t = 0."""
        load = lambda t, pts: np.tile([1.0, 0.0], (len(pts), 1))
        common = dict(mesh=mesh_unit_square(2), time_grid=np.linspace(0, 1, 3), load=load,
                      dirichlet=AffineBoundary(shear_path(0.1, 1.0, 2)))
        solve = {"eps": lambda: solve_eps(EpsProblemConfig(
                     medium=sample_realization(CONSTANT, 0), epsilon=1.0, delta=0.003,
                     **common)),
                 "effective": lambda: solve_effective(MacroConfig(rve=single_cell_rve(),
                                                                  **common))}[scale]
        with pytest.raises(ConfigurationError, match="^load must vanish at t=0$"):
            solve()

    def test_rve_without_law_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="ProbabilityLaw"):
            solve_effective(MacroConfig(mesh=mesh_unit_square(2),
                                        rve=RveConfig(n_cells=2, law=None),
                                        dirichlet=AffineBoundary(shear_path(0.1, 1.0, 2)),
                                        time_grid=np.linspace(0, 1, 3)))


def test_dirichlet_solves_index_no_sparse_matrix(monkeypatch):
    """Every Dirichlet operator is assembled on the free dofs, so no solve
    slices one: the fine-scale, FE2 and elastic solves run with scipy's
    sparse indexing made to raise."""
    def refuse(matrix, key):
        raise AssertionError(f"a sparse {matrix.shape} matrix was indexed")

    for owner in {c for kind in (sp.csr_matrix, sp.csc_matrix) for c in kind.__mro__
                  if "__getitem__" in vars(c)}:
        monkeypatch.setattr(owner, "__getitem__", refuse)
    load = lambda t, pts: t * np.tile([0.2, -0.1], (len(pts), 1))
    common = dict(mesh=mesh_unit_square(4), time_grid=np.linspace(0, 1, 3), load=load,
                  dirichlet=AffineBoundary(shear_path(0.6, 1.0, 2)))
    traj = solve_eps(EpsProblemConfig(medium=sample_realization(TWO_PHASE, 0), epsilon=0.25,
                                      delta=0.003, **common))
    effective = solve_effective(MacroConfig(
        rve=RveConfig(n_cells=2, n_samples=2, delta=0.003, law=TWO_PHASE), **common))
    u = solve_elastic(P1Space(common["mesh"]), isotropic_stiffness(1.0, 0.3),
                      f=lambda pts: load(1.0, pts), g=lambda pts: 0.01 * pts)
    assert (traj.p != 0).any() and min(traj.newton_iters) > 0
    assert min(effective.newton_iters) > 0 and np.abs(u).max() > 0

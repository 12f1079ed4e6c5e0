import numpy as np
import pytest

from plasthom import finescale
from plasthom.errors import ConfigurationError, NumericalError
from plasthom.experiments import UNIT_RIGHT_TRIANGLE
from plasthom.fem import mesh_simplex, mesh_unit_square
from plasthom.finescale import (
    EpsProblemConfig,
    average_stress,
    residual_report,
    solve_eps,
)
from plasthom.loading import AffineBoundary, StrainPath, tabulated_offset
from plasthom.media import ProbabilityLaw, sample_realization
from plasthom.tensors import pack
from helpers import (
    SwappedMedium,
    elastic_reference,
    reference_pointwise_response,
    shear_path,
)

TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})
# the two-phase elastic moduli with a yield stress that is never reached
TWO_PHASE_ELASTIC = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 1e9},
})
CONSTANT = ProbabilityLaw.constant(1.0, 0.3, 0.3, 1.0)


def make_config(law=CONSTANT, seed=0, n=4, steps=6, amplitude=0.6, delta=0.003,
                eps=0.25, mesh=None, **kw):
    mesh = mesh_unit_square(n) if mesh is None else mesh
    path = shear_path(amplitude, 1.0, steps)
    return EpsProblemConfig(
        mesh=mesh, medium=sample_realization(law, seed), epsilon=eps, delta=delta,
        time_grid=np.linspace(0.0, 1.0, steps + 1),
        dirichlet=AffineBoundary(path), **kw,
    )


class TestZeroData:
    def test_zero_boundary_and_load_gives_zero(self):
        path = StrainPath.ramp(np.zeros(3), 1.0, steps=3)
        cfg = EpsProblemConfig(
            mesh=mesh_unit_square(3), medium=sample_realization(CONSTANT, 0),
            epsilon=0.5, delta=0.01, time_grid=np.linspace(0, 1, 4),
            dirichlet=AffineBoundary(path),
        )
        traj = solve_eps(cfg)
        assert np.abs(traj.u).max() == 0.0
        assert np.abs(traj.sigma).max() == 0.0
        assert np.abs(traj.p).max() == 0.0


class TestNewtonBudget:
    def test_a_step_needing_k_corrections_passes_with_maxiter_k(self, monkeypatch):
        """``newton_iterate`` tests the residual after every correction, the
        last one of its budget included."""
        config = make_config(law=TWO_PHASE, steps=1)
        traj = solve_eps(config)
        k = traj.newton_iters[0]
        assert k > 1 and traj.p.any()
        monkeypatch.setattr(finescale, "NEWTON_MAXITER", k)
        again = solve_eps(config)
        assert again.newton_iters == [k] and np.array_equal(again.sigma, traj.sigma)
        monkeypatch.setattr(finescale, "NEWTON_MAXITER", k - 1)
        with pytest.raises(NumericalError, match="Newton did not converge") as err:
            solve_eps(config)
        assert err.value.step == 1


class TestElasticLimit:
    def test_matches_linear_solves_per_step(self):
        cfg = make_config(law=TWO_PHASE_ELASTIC, n=16, steps=3, amplitude=0.3,
                          cg_rtol=1e-13)
        traj = solve_eps(cfg)
        linear = elastic_reference(cfg)
        for m in range(1, 4):
            num = np.sqrt(((traj.u[m] - linear[m]) ** 2).sum(axis=1).mean())
            den = np.sqrt((linear[m] ** 2).sum(axis=1).mean())
            assert num <= 1e-8 * den
        assert np.abs(traj.p).max() == 0.0


class TestHomogeneousOracle:
    def test_matches_fine_step_reference(self):
        steps = 8
        cfg = make_config(steps=steps)
        traj = solve_eps(cfg)
        avg = average_stress(traj)
        path = shear_path(0.6, 1.0, steps)
        ref_s, ref_p = reference_pointwise_response(
            1.0, 0.3, 0.3, 1.0, 0.003, lambda t: path.at(t), cfg.time_grid)
        scale = np.abs(ref_s).max()
        assert np.abs(avg - ref_s).max() <= 1e-3 * scale
        # every element sees the same affine history
        assert np.abs(traj.sigma[-1] - traj.sigma[-1][0]).max() < 1e-10

    def test_affine_predictor_needs_no_newton_iteration(self):
        """Each step starts from the last solution moved by the affine
        increment of the Dirichlet data, the solution for a homogeneous
        medium without load."""
        traj = solve_eps(make_config(steps=6, amplitude=0.8))
        assert traj.newton_iters == [0] * 6
        assert np.abs(traj.p[-1]).max() > 0.0

    def test_backward_euler_order(self):
        # the reversal's viscous after-flow must be resolvable, so the order
        # study runs at a regularization comparable to the coarsest step
        delta = 0.3
        errors, hs = [], []
        for steps in (8, 16, 32, 64):
            path = shear_path(0.8, 1.0, steps, unload_to=0.5)
            cfg = EpsProblemConfig(
                mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
                epsilon=0.25, delta=delta,
                time_grid=np.linspace(0, 1, steps + 1),
                dirichlet=AffineBoundary(path),
            )
            traj = solve_eps(cfg)
            ref_s, _ = reference_pointwise_response(
                1.0, 0.3, 0.3, 1.0, delta, lambda t: path.at(t),
                cfg.time_grid, refine=100)
            diff = average_stress(traj) - ref_s
            dt = np.diff(cfg.time_grid)
            sq = (diff**2).sum(axis=1)
            errors.append(np.sqrt(np.sum(dt * 0.5 * (sq[1:] + sq[:-1]))))
            hs.append(1.0 / steps)
        order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert order >= 0.8


class TestAverageStress:
    def test_constant_field_returns_it(self):
        cfg = make_config(steps=3, amplitude=0.2)
        traj = solve_eps(cfg)
        full = average_stress(traj)
        assert np.abs(full - traj.sigma[:, 0, :]).max() < 1e-12

    def test_zero_trajectory_zero_series(self):
        path = StrainPath.ramp(np.zeros(3), 1.0, steps=2)
        cfg = EpsProblemConfig(
            mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
            epsilon=0.5, delta=0.01, time_grid=np.linspace(0, 1, 3),
            dirichlet=AffineBoundary(path),
        )
        assert np.abs(average_stress(solve_eps(cfg))).max() == 0.0


class TestDeterminismAndCausality:
    def test_identical_configs_bitwise_equal(self):
        a = solve_eps(make_config(law=TWO_PHASE, seed=3, steps=5))
        b = solve_eps(make_config(law=TWO_PHASE, seed=3, steps=5))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.p, b.p)

    def test_truncated_data_reproduces_prefix_bitwise(self):
        steps = 6
        full = solve_eps(make_config(law=TWO_PHASE, seed=1, steps=steps))
        m_cut = 4
        path = shear_path(0.6, 1.0, steps)
        cut_path = StrainPath(path.knots[: m_cut + 1], path.values[: m_cut + 1])
        cfg = EpsProblemConfig(
            mesh=mesh_unit_square(4), medium=sample_realization(TWO_PHASE, 1),
            epsilon=0.25, delta=0.003,
            time_grid=np.linspace(0, 1, steps + 1)[: m_cut + 1],
            dirichlet=AffineBoundary(cut_path),
        )
        part = solve_eps(cfg)
        assert np.array_equal(part.u, full.u[: m_cut + 1])
        assert np.array_equal(part.sigma, full.sigma[: m_cut + 1])


class TestSwapSymmetry:
    """The lattice triangulation of the unit right triangle is invariant
    under the swap (x, y) -> (y, x), which maps elements to elements and
    Mandel [a11, a22, sqrt2 a12] to [a22, a11, sqrt2 a12]: the medium read
    at swapped points under the swapped Dirichlet path must give the swapped
    average stresses, through flow, unloading and reverse flow."""

    SWAP = [1, 0, 2]

    def test_swapped_medium_under_swapped_path_gives_swapped_stresses(self):
        eps = 0.125
        mesh = mesh_simplex(UNIT_RIGHT_TRIANGLE, eps / 2.0)
        # the benchmark's shear cycle 0 -> +a -> -a -> 0 plus a (0.3, -0.1, 0) ramp
        knots = np.array([0.0, 0.25, 0.75, 1.0])
        values = (np.outer(0.6 * np.array([0.0, 1.0, -1.0, 0.0]),
                           pack(np.array([[0.0, 1.0], [1.0, 0.0]])))
                  + np.outer(knots, [0.3, -0.1, 0.0]))

        def stresses(medium, path_values):
            config = EpsProblemConfig(
                mesh=mesh, medium=medium, epsilon=eps, delta=0.003,
                time_grid=np.linspace(0.0, 1.0, 5),
                dirichlet=AffineBoundary(StrainPath(knots, path_values)))
            traj = solve_eps(config)
            assert (traj.p != 0).any()
            return average_stress(traj)

        for seed in (0, 1):
            medium = sample_realization(TWO_PHASE, seed, zero_shift=True)
            original = stresses(medium, values)
            swapped = stresses(SwappedMedium(medium), values[:, self.SWAP])
            scale = np.abs(original).max()
            assert np.abs(swapped - original[:, self.SWAP]).max() <= 1e-12 * scale
        # the check can fail: the swapped medium under the original path differs
        unswapped = stresses(SwappedMedium(medium), values)
        assert np.abs(unswapped - original[:, self.SWAP]).max() > 1e-3 * scale


class TestDissipation:
    def test_monotone_dissipation_per_element_step(self):
        cfg = make_config(law=TWO_PHASE, seed=2, steps=8, amplitude=0.8)
        traj = solve_eps(cfg)
        H = traj.mats.hardening
        for m in range(1, traj.times.size):
            dp = traj.p[m] - traj.p[m - 1]
            tau = traj.sigma[m] - H[:, None] * traj.p[m]
            inc = np.einsum("ek,ek->e", dp, tau)
            assert inc.min() >= -1e-10


class TestResidualReport:
    def test_zero_data_zero_norms(self):
        path = StrainPath.ramp(np.zeros(3), 1.0, steps=2)
        cfg = EpsProblemConfig(
            mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
            epsilon=0.5, delta=0.01, time_grid=np.linspace(0, 1, 3),
            dirichlet=AffineBoundary(path),
        )
        rep = residual_report(solve_eps(cfg), cfg)
        assert all(v == 0.0 for v in rep.norms.values())

    def test_pointwise_invariants_hold(self):
        cfg = make_config(law=TWO_PHASE, seed=4, n=8, steps=6)
        rep = residual_report(solve_eps(cfg), cfg)
        assert rep.max_decomposition_residual <= 1e-9
        assert rep.max_constitutive_residual <= 1e-9
        assert rep.max_flow_residual <= 1e-9
        assert rep.energy_balance_defect <= 1e-6

    def test_stress_off_hookes_law_shows_in_the_decomposition_residual(self, monkeypatch):
        """The elastic strains are C^-1 sigma, so the Hooke residual is 0.0 even
        for stresses 1 + 1e-6 times those of the return map; the decomposition
        residual exceeds the benchmark's limit of 1e-10."""
        step = finescale.plastic_step

        def off_hookes_law(*args, **kwargs):
            z, p_new, moduli = step(*args, **kwargs)
            return (1 + 1e-6) * z, p_new, moduli

        monkeypatch.setattr(finescale, "plastic_step", off_hookes_law)
        cfg = make_config(law=TWO_PHASE, seed=4, n=4, steps=2)
        rep = residual_report(solve_eps(cfg), cfg)
        assert rep.max_constitutive_residual == 0.0
        assert rep.max_decomposition_residual > 1e-10

    def test_norm_ratios_stable_across_scales(self):
        corners = 0.5 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        path = shear_path(0.6, 1.0, 6)
        ratios = []
        for eps in (0.25, 0.125, 0.0625):
            mesh = mesh_simplex(corners, eps / 2)
            cfg = EpsProblemConfig(
                mesh=mesh, medium=sample_realization(TWO_PHASE, 5, zero_shift=True),
                epsilon=eps, delta=0.003, time_grid=np.linspace(0, 1, 7),
                dirichlet=AffineBoundary(path),
            )
            ratios.append(residual_report(solve_eps(cfg), cfg).ratio)
        assert max(ratios) < 2.0 * min(ratios)

    def test_energy_gap_shrinks_linearly_with_step(self):
        gaps = []
        for steps in (4, 8, 16):
            cfg = make_config(law=TWO_PHASE, seed=6, n=4, steps=steps)
            gaps.append(residual_report(solve_eps(cfg), cfg).energy_increment_gap)
        orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
        assert all(o >= 0.8 for o in orders)


class TestBoundaryOffset:
    def test_offset_shifts_displacements_only(self):
        steps = 4
        path = shear_path(0.6, 1.0, steps)
        offset = tabulated_offset([[0.0, 0.0, 0.0], [1.0, 0.3, -0.1]])
        base_cfg = make_config(law=TWO_PHASE, seed=7, steps=steps)
        cfg = EpsProblemConfig(
            mesh=base_cfg.mesh, medium=base_cfg.medium, epsilon=0.25, delta=0.003,
            time_grid=base_cfg.time_grid,
            dirichlet=AffineBoundary(path, offset),
        )
        plain = solve_eps(base_cfg)
        moved = solve_eps(cfg)
        assert np.array_equal(plain.sigma, moved.sigma)
        assert np.array_equal(plain.p, moved.p)
        shift = moved.u[-1] - plain.u[-1]
        assert np.abs(shift - offset(1.0)).max() < 1e-14


class TestValidation:
    def test_rejects_dirichlet_data_that_is_not_affine(self):
        with pytest.raises(ConfigurationError):
            EpsProblemConfig(
                mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
                epsilon=0.5, delta=0.01, time_grid=np.linspace(0, 1, 5),
                dirichlet=lambda t, pts: t * pts,
            )

    def test_rejects_bad_time_grid(self):
        path = shear_path(0.5, 1.0, 4)
        with pytest.raises(ConfigurationError):
            EpsProblemConfig(
                mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
                epsilon=0.5, delta=0.01, time_grid=np.array([0.0, 0.5, 0.5]),
                dirichlet=AffineBoundary(path),
            )

    def test_rejects_bad_epsilon(self):
        path = shear_path(0.5, 1.0, 4)
        with pytest.raises(ConfigurationError):
            EpsProblemConfig(
                mesh=mesh_unit_square(2), medium=sample_realization(CONSTANT, 0),
                epsilon=0.0, delta=0.01, time_grid=np.linspace(0, 1, 5),
                dirichlet=AffineBoundary(path),
            )

    def test_path_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            StrainPath(np.array([0.0, 1.0]), np.array([[0.1, 0.0, 0.0],
                                                       [0.2, 0.0, 0.0]]))

    def test_path_needs_a_knot(self):
        with pytest.raises(ConfigurationError):
            StrainPath(np.array([]), np.zeros((0, 3)))

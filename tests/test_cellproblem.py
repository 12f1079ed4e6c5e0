from dataclasses import replace

import numpy as np
import pytest

from plasthom import fem
from plasthom.cellproblem import (
    CellStack,
    RveConfig,
    causality_check,
    continuity_probe,
    default_probe_direction,
    sigma,
    solve_cell,
)
from plasthom.errors import ConfigurationError
from plasthom.fem import DENSE_PERIODIC_DOFS, P1Space, mesh_torus
from plasthom.loading import StrainPath
from plasthom.media import PeriodizedMedium, ProbabilityLaw
from plasthom.tensors import DEV_PROJECTOR, SPH_PROJECTOR, isotropic_stiffness, pack

from helpers import (
    SwappedMedium,
    h1_time_norm,
    laminate_elastic_response,
    reference_pointwise_response,
    shear_path,
)

CONSTANT = ProbabilityLaw.constant(1.0, 0.3, 0.3, 1.0)
TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})


class LaminateMedium:
    """Layered test medium: parameters depend on the x1 cell index only."""

    def __init__(self, layers, n_cells):
        self.layers = layers
        self.n_cells = n_cells

    def parameters_at(self, points, eps=1.0):
        idx = np.mod(np.floor(np.atleast_2d(points)[:, 0] / eps).astype(int),
                     len(self.layers))
        E = np.array([self.layers[i][0] for i in idx])
        nu = np.array([self.layers[i][1] for i in idx])
        return {"E": E, "nu": nu,
                "sigma_y": np.full(len(idx), 1e6), "H": np.ones(len(idx))}


class EqualShearMedium:
    """Checkerboard test medium with shear modulus 1/2 everywhere, a_dev = 2 mu = 1,
    and the volumetric eigenvalue a_vol = 2 lam + 2 mu of the cell (i, j) at
    ``a_vol[i, j]``.  Its parameters are elastic: the yield stress is 1e6."""

    def __init__(self, a_vol):
        self.a_vol = a_vol

    def parameters_at(self, points, eps=1.0):
        i, j = np.mod(np.floor(np.atleast_2d(points) / eps).astype(int), len(self.a_vol)).T
        lam, mu = (self.a_vol[i, j] - 1.0) / 2, 0.5
        return {"E": mu * (3 * lam + 2 * mu) / (lam + mu), "nu": lam / (2 * (lam + mu)),
                "sigma_y": np.full(i.size, 1e6), "H": np.ones(i.size)}


class TestSwapSymmetry:
    """The lattice torus is invariant under the swap (x, y) -> (y, x), which
    maps elements to elements and Mandel [a11, a22, sqrt2 a12] to
    [a22, a11, sqrt2 a12]: the mirrored medium under the mirrored path must
    give the mirrored stresses, through flow, unloading and reverse flow."""

    SWAP = [1, 0, 2]

    def test_mirrored_medium_under_mirrored_path_gives_mirrored_stresses(self):
        space = P1Space(mesh_torus(8, 2))
        assert space.n_packed == 512 > DENSE_PERIODIC_DOFS
        # the benchmark's shear cycle 0 -> +a -> -a -> 0 plus a (0.3, -0.1, 0) ramp
        knots = np.array([0.0, 0.25, 0.75, 1.0])
        values = (np.outer(0.6 * np.array([0.0, 1.0, -1.0, 0.0]),
                           pack(np.array([[0.0, 1.0], [1.0, 0.0]])))
                  + np.outer(knots, [0.3, -0.1, 0.0]))
        path = StrainPath.from_knots(knots, values)
        mirrored_path = StrainPath.from_knots(knots, values[:, self.SWAP])
        time_grid = np.linspace(0.0, 1.0, 5)
        w = space.mesh.volumes / space.mesh.volumes.sum()

        def average_stress(medium, xi_path):
            traj = solve_cell(medium, xi_path, 0.003, time_grid, space=space)
            return np.einsum("e,mek->mk", w, traj.z)

        for seed in (0, 1):
            medium = PeriodizedMedium(TWO_PHASE, seed, n_cells=8)
            original = average_stress(medium, path)
            mirrored = average_stress(SwappedMedium(medium), mirrored_path)
            scale = np.abs(original).max()
            assert np.abs(mirrored - original[:, self.SWAP]).max() <= 1e-12 * scale
        # the check can fail: the mirrored medium under the original path differs
        unmirrored = average_stress(SwappedMedium(medium), path)
        assert np.abs(unmirrored - original[:, self.SWAP]).max() > 1e-3 * scale


class TestSolveCell:
    def test_homogeneous_medium_has_no_corrector(self):
        medium = PeriodizedMedium(CONSTANT, 0, n_cells=2)
        path = shear_path(0.2, 1.0, 4)
        traj = solve_cell(medium, path, 0.003, np.linspace(0, 1, 5),
                          space=P1Space(mesh_torus(2, 1)))
        assert np.abs(traj.v).max() == 0.0
        assert np.abs(traj.phi).max() == 0.0
        spread = np.abs(traj.z - traj.z[:, :1, :]).max()
        assert spread < 1e-12

    def test_elastic_laminate_matches_transfer_matrix_oracle(self):
        layers = [(1.0, 0.3), (3.0, 0.2)]
        medium = LaminateMedium(layers, n_cells=2)
        xi = pack(np.array([[0.3, 0.1], [0.1, -0.2]]))
        path = StrainPath(np.array([0.0, 1.0]), np.stack([np.zeros(3), xi]))
        space = P1Space(mesh_torus(2, 2))
        traj = solve_cell(medium, path, 0.01, np.array([0.0, 1.0]), space=space)
        per_layer, mean = laminate_elastic_response(layers, xi)
        layer_of = np.mod(np.floor(space.mesh.barycenters[:, 0]).astype(int), 2)
        expected = per_layer[layer_of]
        assert np.abs(traj.z[-1] - expected).max() < 1e-8
        volumes = space.mesh.volumes
        assert np.abs(volumes @ traj.z[-1] / volumes.sum() - mean).max() < 1e-8

    def test_equal_shear_modulus_checkerboard_matches_hills_formula(self):
        """With the shear modulus uniform, the effective stiffness is
        C* = a_vol* SPH + a_dev DEV, 1 / (a_vol* + a_dev) = <1 / (a_vol + a_dev)>,
        for any microstructure (Hill 1963).  Deviatoric macro strains need no
        corrector, so C_hom dev = a_dev dev to roundoff; the spherical response
        converges to C* as the cell mesh is refined."""
        a_vol = np.random.default_rng(3).choice([1.5, 15.0], (8, 8))
        medium = EqualShearMedium(a_vol)
        a_star = 1.0 / np.mean(1.0 / (a_vol + 1.0)) - 1.0
        exact = a_star * SPH_PROJECTOR + DEV_PROJECTOR
        # the orthonormal strains dev_1, dev_2 and sph, one per step
        strains = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, np.sqrt(2)], [1.0, 1.0, 0.0]]) \
            / np.sqrt(2)
        path = StrainPath(np.arange(4.0), np.vstack([np.zeros(3), strains]))
        errors = []
        for refine in (1, 2, 4, 8):
            space = P1Space(mesh_torus(len(a_vol), refine))
            traj = solve_cell(medium, path, 0.01, path.knots, space=space)
            volumes = space.mesh.volumes
            responses = volumes @ traj.z[1:] / volumes.sum()        # C_hom strains[m]
            assert np.abs(responses[:2] - strains[:2]).max() <= 1e-12
            C_hom = responses.T @ strains
            errors.append(np.abs(C_hom - exact).max() / np.abs(exact).max())
        assert np.all(np.diff(errors) < 0)
        assert np.log2(errors[-2] / errors[-1]) >= 1.2

    def test_invariants_on_two_phase_run(self):
        medium = PeriodizedMedium(TWO_PHASE, 5, n_cells=4)
        space = P1Space(mesh_torus(4, 2))
        steps = 6
        path = shear_path(0.6, 1.0, steps)
        grid = np.linspace(0, 1, steps + 1)
        traj = solve_cell(medium, path, 0.003, grid, space=space)
        mesh = space.mesh
        vol = mesh.volumes

        # vanishing initial stress
        assert np.abs(traj.z[0]).max() == 0.0

        xi_vals = path.at(grid)
        for m in range(steps + 1):
            # algebraic closure: compliance(z) = xi + sym(v) - p per element
            e_of_z = traj.mats.apply_compliance(traj.z[m])
            sym_v = pack(traj.v[m])
            closure = e_of_z - (xi_vals[m][None, :] + sym_v - traj.p[m])
            scale = 1.0 + np.abs(e_of_z).max()
            assert np.abs(closure).max() <= 1e-9 * scale

            # discrete solenoidality against every periodic test field
            f_int = space.internal_forces(traj.z[m])
            z_norm = np.sqrt(np.einsum("e,ek,ek->", vol, traj.z[m], traj.z[m]))
            grad_scale = np.abs(space.B).max()
            assert np.abs(f_int).max() <= 1e-8 * max(z_norm * grad_scale, 1e-12)

            # zero-mean corrector gradient
            assert np.abs(traj.mean_corrector_gradient()[m]).max() <= 1e-10

        # orthogonality of stress against corrector-gradient increments
        for m in range(1, steps + 1):
            dv = traj.v[m] - traj.v[m - 1]
            pairing = abs(np.einsum("e,ek,ek->", vol, traj.z[m],
                                    pack(dv)))
            z_norm = np.sqrt(np.einsum("e,ek,ek->", vol, traj.z[m], traj.z[m]))
            dv_norm = np.sqrt(np.einsum("e,eab,eab->", vol, dv, dv))
            assert pairing <= 1e-8 * max(z_norm * dv_norm, 1e-14)

    def test_a_priori_ratio_stable_across_delta_and_mesh(self):
        steps = 6
        path = shear_path(0.6, 1.0, steps)
        grid = np.linspace(0, 1, steps + 1)
        xi_norm = path.h1_norm()
        ratios = []
        for delta_factor in (1e-1, 1e-2, 1e-3):
            for refine in (1, 2, 4):
                space = P1Space(mesh_torus(4, refine))
                medium = PeriodizedMedium(TWO_PHASE, 7, n_cells=4)
                traj = solve_cell(medium, path, delta_factor * 0.3, grid,
                                  space=space)
                vol = space.mesh.volumes
                total = (h1_time_norm(grid, traj.p, vol)
                         + h1_time_norm(grid, traj.z, vol)
                         + h1_time_norm(grid, traj.v, vol))
                ratios.append(total / xi_norm)
        assert max(ratios) < 2.0 * min(ratios)


class TestSigmaOperator:
    def test_constant_elastic_identity(self):
        # no fluctuation: the effective stress is the stiffness on the path
        cfg = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.01,
                        law=CONSTANT, base_seed=0)
        path = shear_path(0.1, 1.0, 4)  # stays inside the yield set
        grid = np.linspace(0, 1, 5)
        res = sigma(cfg, path, grid)
        A = isotropic_stiffness(1.0, 0.3)
        expected = path.at(grid) @ A.T
        assert np.abs(res.sigma - expected).max() <= 1e-10
        assert np.abs(res.pi).max() == 0.0

    def test_constant_plastic_matches_pointwise_reference(self):
        delta = 0.003
        cfg = RveConfig(n_cells=1, refine=1, n_samples=1, delta=delta,
                        law=CONSTANT, base_seed=0)
        steps = 8
        path = shear_path(0.6, 1.0, steps)
        grid = np.linspace(0, 1, steps + 1)
        res = sigma(cfg, path, grid)
        ref_s, ref_p = reference_pointwise_response(
            1.0, 0.3, 0.3, 1.0, delta, lambda t: path.at(t), grid)
        scale = np.abs(ref_s).max()
        assert np.abs(res.sigma - ref_s).max() <= 1e-3 * scale
        assert np.abs(res.pi - ref_p).max() <= 1e-3 * scale

    def test_zero_path_zero_response(self):
        cfg = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.01,
                        law=TWO_PHASE, base_seed=1)
        path = StrainPath.ramp(np.zeros(3), 1.0, steps=3)
        res = sigma(cfg, path, np.linspace(0, 1, 4))
        assert np.abs(res.sigma).max() == 0.0
        assert np.abs(res.pi).max() == 0.0

    def test_stderr_scales_like_inverse_sqrt_samples(self):
        path = shear_path(0.6, 1.0, 4)
        grid = np.linspace(0, 1, 5)
        stderr = {}
        for m in (4, 16, 64):
            cfg = RveConfig(n_cells=2, refine=1, n_samples=m, delta=0.003,
                            law=TWO_PHASE, base_seed=100)
            res = sigma(cfg, path, grid)
            stderr[m] = np.linalg.norm(res.mc_stderr[-1])
        for coarse, fine in ((4, 16), (16, 64)):
            measured = stderr[coarse] / stderr[fine]
            assert 1.0 <= measured <= 8.0  # 2 within a factor of 2

    def test_requires_law(self):
        for law in (None, {"E": 1.0, "nu": 0.3, "sigma_y": 0.3}):
            with pytest.raises(ConfigurationError, match="ProbabilityLaw"):
                RveConfig(n_cells=2, refine=1, n_samples=1, delta=0.01, law=law)

    def test_threads_must_be_positive(self):
        cfg = RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003, law=TWO_PHASE)
        with pytest.raises(ConfigurationError, match="threads"):
            sigma(cfg, shear_path(0.6, 1.0, 2), np.linspace(0, 1, 3), threads=0)


class TestBatchSize:
    """M samples advanced as one batch give, bit for bit, each sample solved alone."""

    @pytest.mark.parametrize("n_cells, refine", [(2, 4), (4, 3)],
                             ids=["dense-solves", "dft-cg-solves"])
    def test_batch_matches_each_sample_alone(self, n_cells, refine):
        path, grid = shear_path(0.6, 1.0, 4), np.linspace(0, 1, 5)
        cfg = RveConfig(n_cells=n_cells, refine=refine, n_samples=4, delta=0.003,
                        law=TWO_PHASE, base_seed=2)
        space = P1Space(mesh_torus(n_cells, refine))
        alone = [solve_cell(PeriodizedMedium(TWO_PHASE, cfg.sample_seed(j), n_cells), path,
                            cfg.delta, grid, space) for j in range(cfg.n_samples)]
        # some step converges after different iteration counts, so the batch
        # freezes converged samples while others iterate on
        iters = np.array([traj.newton_iters for traj in alone])
        assert np.ptp(iters, axis=0).max() > 0

        batch = sigma(cfg, path, grid)
        singles = [sigma(replace(cfg, n_samples=1, base_seed=cfg.sample_seed(j)), path, grid)
                   for j in range(cfg.n_samples)]
        for j, single in enumerate(singles):
            assert np.array_equal(batch.per_sample_sigma[j], single.per_sample_sigma[0])
        assert np.array_equal(batch.sigma, np.mean([s.sigma for s in singles], axis=0))
        assert np.array_equal(batch.pi, np.mean([s.pi for s in singles], axis=0))

        cells = CellStack(space, [traj.mats for traj in alone], cfg.delta, cfg.newton_rtol)
        for m, z, _, _ in cells.march(path, grid):
            for j, traj in enumerate(alone):
                assert np.array_equal(z[j], traj.z[m])
                assert np.array_equal(cells.p[j], traj.p[m])
                assert np.array_equal(space.unpack_field(cells.phi[j]), traj.phi[m])
        for traj in alone:
            for m in range(grid.size):
                assert np.array_equal(traj.v[m], space.element_gradients(traj.phi[m]))


class TestHeldPreconditioner:
    """Above the dense cap each sample holds one DFT reference preconditioner
    for its whole strain path, built from the operator of its first Newton
    correction and handed to every later one."""

    CFG = RveConfig(n_cells=4, refine=3, n_samples=4, delta=0.003, law=TWO_PHASE,
                    base_seed=2)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every preconditioner build (operator, preconditioner) and every
        periodic solve (operator, the preconditioner it was handed or None)."""
        builds, solves = [], []
        build, solve = fem.reference_preconditioner, fem.solve_periodic

        def counting_build(space, A):
            builds.append((A, build(space, A)))
            return builds[-1][1]

        def recording_solve(space, A, rhs, *args, **kwargs):
            solves.append((A, args[1] if len(args) > 1 else kwargs.get("precond")))
            return solve(space, A, rhs, *args, **kwargs)

        monkeypatch.setattr(fem, "reference_preconditioner", counting_build)
        monkeypatch.setattr(fem, "solve_periodic", recording_solve)
        return builds, solves

    def run_sigma(self):
        assert P1Space(mesh_torus(4, 3)).n_packed > DENSE_PERIODIC_DOFS
        return sigma(self.CFG, shear_path(0.6, 1.0, 4), np.linspace(0, 1, 5))

    def test_sigma_builds_one_preconditioner_per_sample(self, calls):
        builds, solves = calls
        self.run_sigma()
        assert len(builds) == self.CFG.n_samples
        assert len(solves) > 2 * self.CFG.n_samples      # several corrections per sample

    def test_solve_cell_builds_one_preconditioner(self, calls):
        builds, solves = calls
        space = P1Space(mesh_torus(4, 3))
        solve_cell(PeriodizedMedium(TWO_PHASE, 2, 4), shear_path(0.6, 1.0, 4), 0.003,
                   np.linspace(0, 1, 5), space)
        assert len(builds) == 1 and len(solves) > 2
        assert all(precond is builds[0][1] for _, precond in solves)

    def test_each_sample_holds_the_preconditioner_of_its_first_correction(self, calls):
        builds, solves = calls
        self.run_sigma()
        # step 1's first correction solves every sample, in sample order; each
        # sample's preconditioner comes from that correction's operator
        first = solves[:self.CFG.n_samples]
        assert len(builds) == len(first)
        for (A, precond), (built_from, held) in zip(first, builds):
            assert A is built_from and precond is held
        assert len({id(precond) for _, precond in solves}) == self.CFG.n_samples


class TestCausality:
    def make(self):
        return RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003,
                         law=TWO_PHASE, base_seed=3)

    def test_identical_paths(self):
        path = shear_path(0.6, 1.0, 6)
        dev = causality_check(self.make(), path, path, 1.0, np.linspace(0, 1, 7))
        assert dev == 0.0

    def test_future_divergence_invisible(self):
        steps = 6
        grid = np.linspace(0, 1, steps + 1)
        base = shear_path(0.6, 1.0, steps)
        bent = StrainPath(grid, base.values * np.where(grid > 0.5, 1.5, 1.0)[:, None])
        dev = causality_check(self.make(), base, bent, 0.5, grid)
        assert dev == 0.0  # bitwise equality up to t*

    def test_past_divergence_visible(self):
        steps = 6
        grid = np.linspace(0, 1, steps + 1)
        base = shear_path(0.6, 1.0, steps)
        bent = StrainPath(grid, base.values * np.where(grid >= 0.25, 1.4, 1.0)[:, None])
        dev = causality_check(self.make(), base, bent, 1.0, grid)
        assert dev > 1e-3


class TestContinuity:
    def make(self, law):
        return RveConfig(n_cells=2, refine=1, n_samples=2, delta=0.003,
                         law=law, base_seed=4)

    def test_zero_perturbation(self):
        path = shear_path(0.3, 1.0, 4)
        assert continuity_probe(self.make(TWO_PHASE), path, 0.0,
                                np.linspace(0, 1, 5)) == 0.0

    def test_elastic_response_is_linear(self):
        # in the elastic regime the deviation is exactly proportional to eta
        path = shear_path(0.02, 1.0, 4)
        grid = np.linspace(0, 1, 5)
        cfg = self.make(TWO_PHASE)
        ratios = [continuity_probe(cfg, path, eta, grid) / eta
                  for eta in (1e-2, 1e-3)]
        assert abs(ratios[0] - ratios[1]) <= 1e-8 * max(ratios)

    def test_plastic_sensitivity_bounded(self):
        path = shear_path(0.6, 1.0, 4)
        grid = np.linspace(0, 1, 5)
        cfg = self.make(TWO_PHASE)
        elastic_ratio = continuity_probe(cfg, shear_path(0.02, 1.0, 4), 1e-3,
                                         grid) / 1e-3
        for eta in (1e-1, 1e-2, 1e-3):
            ratio = continuity_probe(cfg, path, eta, grid) / eta
            assert ratio <= 10.0 * elastic_ratio

    def test_probe_direction_is_unit_shear(self):
        d = default_probe_direction()
        assert np.linalg.norm(d) == pytest.approx(1.0)
        assert d[0] == d[1] == 0.0


class TestRveConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError, match="cells per side"):
            RveConfig(n_cells=0, law=CONSTANT)
        with pytest.raises(ConfigurationError, match="sample count"):
            RveConfig(n_cells=2, n_samples=0, law=CONSTANT)
        with pytest.raises(ConfigurationError, match="delta"):
            RveConfig(n_cells=2, delta=0.0, law=CONSTANT)

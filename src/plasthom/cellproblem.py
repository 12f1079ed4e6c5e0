"""Cell problems on periodized volumes and the effective operators.

Given a strain path xi(t) with xi(0) = 0, the cell problem evolves a triple
(p, z, v) per sample medium: p is the plastic strain, z the stress, and v
the gradient of a periodic corrector displacement.  Per backward-Euler step

    z = C^-1 (xi + v^s - p),   dp/dt = dPsi^delta(z - B p),

where Psi^delta is the regularized von Mises rule of
``returnmap.plastic_step``, and z is discretely divergence-free: its weak
divergence vanishes against all periodic P1 test fields.  The effective
stress evolution is the expectation of the volume average of z over
Monte-Carlo samples of the medium; the effective plastic strain comes from
p the same way.  The probability-space problem is realized as a space
problem on a periodized block of i.i.d. cells plus Monte-Carlo averaging,
which is the single largest modeling approximation of the pipeline.

The scheme is causal: values on [0, t] never depend on the path after t,
and re-running a truncated path reproduces the earlier steps bit-identically.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, positive_int, positive_number, valid_seed
from .fem import P1Space, mesh_torus
from .finescale import newton_solve
from .loading import StrainPath, checked_time_grid
from .media import PeriodizedMedium, ProbabilityLaw
from .returnmap import MaterialArrays
from .tensors import KDIM, pack

# Floor of the forcing term of the Newton corrector solves, and the relative
# tolerance of the condensed-tangent solves of ``macroscale``
CG_RTOL = 1e-12


@dataclass(frozen=True)
class RveConfig:
    """Periodized-volume discretization: block size, mesh, sample budget."""

    n_cells: int
    law: object
    refine: int = 1
    n_samples: int = 1
    delta: float = 1e-2
    base_seed: int = 0
    newton_rtol: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.law, ProbabilityLaw):
            raise ConfigurationError(f"RveConfig.law must be a ProbabilityLaw, got {self.law!r}")
        positive_int(self.n_cells, "RVE cells per side N")
        positive_int(self.refine, "RVE refinements r")
        positive_int(self.n_samples, "RVE sample count M")
        positive_number(self.delta, "delta")
        valid_seed(self.base_seed, "RVE base_seed")
        valid_seed(self.sample_seed(self.n_samples - 1), "RVE last sample seed")

    def sample_seed(self, j):
        return self.base_seed + j


@dataclass
class CellTrajectory:
    """Per-step fields of one sample cell problem."""

    times: np.ndarray
    p: np.ndarray        # (steps+1, ne, k)
    z: np.ndarray        # (steps+1, ne, k)
    v: np.ndarray        # (steps+1, ne, d, d) corrector gradients
    phi: np.ndarray      # (steps+1, nv, d) corrector displacements
    newton_iters: list
    residual_norms: list
    space: object = field(repr=False, default=None)
    mats: object = field(repr=False, default=None)

    def volume_average_z(self):
        w = self.space.mesh.volumes
        return np.einsum("e,mek->mk", w, self.z) / w.sum()

    def volume_average_p(self):
        w = self.space.mesh.volumes
        return np.einsum("e,mek->mk", w, self.p) / w.sum()

    def mean_corrector_gradient(self):
        w = self.space.mesh.volumes
        return np.einsum("e,meab->mab", w, self.v) / w.sum()


@dataclass
class SigmaResult:
    """Effective stress and plastic-strain evolutions with sampling error."""

    times: np.ndarray
    sigma: np.ndarray      # (steps+1, k)
    pi: np.ndarray         # (steps+1, k)
    mc_stderr: np.ndarray  # (steps+1, k)
    per_sample_sigma: np.ndarray


def solve_cell(medium, xi_path, delta, time_grid, space, newton_rtol=1e-10):
    """Advance one sample's cell problem along the whole strain path.

    ``medium`` is a PeriodizedMedium whose cells align with the torus mesh
    of ``space`` (a P1Space on a ``mesh_torus``).  The per-element plastic
    update and the periodic corrector solve are nested in one Newton
    iteration per step.
    """
    time_grid = checked_time_grid(time_grid)
    mesh = space.mesh
    mats = MaterialArrays.from_medium(medium, mesh.barycenters)

    steps = time_grid.size - 1
    p_hist = np.zeros((steps + 1, mesh.n_elements, KDIM))
    z_hist = np.zeros((steps + 1, mesh.n_elements, KDIM))
    v_hist = np.zeros((steps + 1, mesh.n_elements, 2, 2))
    phi_hist = np.zeros((steps + 1, mesh.n_vertices, 2))
    iters, residuals = [], []

    xi_values = xi_path.at(time_grid)
    phi = np.zeros(space.n_packed)
    p = np.zeros((mesh.n_elements, KDIM))
    for m in range(1, steps + 1):
        dt = time_grid[m] - time_grid[m - 1]
        z, p, n_it, res, _ = newton_solve(
            space, mats, xi_values[m], p[None], phi[None], dt, delta,
            0.0, newton_rtol, CG_RTOL, step=m,
        )
        p = p[0]
        nodal = space.unpack_field(phi)
        p_hist[m] = p
        z_hist[m] = z[0]
        v_hist[m] = space.element_gradients(nodal)
        phi_hist[m] = nodal
        iters.append(n_it)
        residuals.append(res[0])

    return CellTrajectory(times=time_grid, p=p_hist, z=z_hist, v=v_hist,
                          phi=phi_hist, newton_iters=iters,
                          residual_norms=residuals, space=space, mats=mats)


def _one_sample(cfg, xi_path, time_grid, space, j):
    medium = PeriodizedMedium(cfg.law, cfg.sample_seed(j), cfg.n_cells)
    traj = solve_cell(medium, xi_path, cfg.delta, time_grid, space,
                      newton_rtol=cfg.newton_rtol)
    return traj.volume_average_z(), traj.volume_average_p()


def sigma(cfg, xi_path, time_grid, threads=1):
    """Monte-Carlo estimate of the effective operators along a strain path.

    Deterministic given the base seed: sample seeds are consecutive and the
    reduction runs in fixed seed order regardless of the thread count.
    """
    positive_int(threads, "threads")
    time_grid = np.asarray(time_grid, dtype=float)
    space = P1Space(mesh_torus(cfg.n_cells, cfg.refine))  # immutable, shareable
    jobs = range(cfg.n_samples)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda j: _one_sample(cfg, xi_path, time_grid, space, j), jobs))
    else:
        results = [_one_sample(cfg, xi_path, time_grid, space, j) for j in jobs]

    z_samples = np.stack([r[0] for r in results])   # (M, steps+1, k)
    p_samples = np.stack([r[1] for r in results])
    mean_z = z_samples.mean(axis=0)
    mean_p = p_samples.mean(axis=0)
    if cfg.n_samples > 1:
        stderr = z_samples.std(axis=0, ddof=1) / np.sqrt(cfg.n_samples)
    else:
        stderr = np.zeros_like(mean_z)
    return SigmaResult(times=time_grid, sigma=mean_z, pi=mean_p, mc_stderr=stderr,
                       per_sample_sigma=z_samples)


def causality_check(cfg, xi1, xi2, t_star, time_grid):
    """Max deviation of the effective stress on [0, t_star] for two paths.

    Paths that agree on all knots up to t_star must give bitwise-equal
    results there, since the time stepping never looks ahead.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    res1 = sigma(cfg, xi1, time_grid)
    res2 = sigma(cfg, xi2, time_grid)
    mask = time_grid <= t_star + 1e-15
    return float(np.abs(res1.sigma[mask] - res2.sigma[mask]).max())


def default_probe_direction():
    """A fixed unit-norm pure-shear direction for continuity probes."""
    comps = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return comps / np.linalg.norm(comps)


def continuity_probe(cfg, xi_path, eta, time_grid):
    """Response deviation ||Sigma(xi + eta*zeta) - Sigma(xi)|| in L2(0,T).

    ``zeta`` is the unit-norm shear ramp along ``default_probe_direction``
    on the knots of ``xi_path``; the returned deviation divided by eta is
    the empirical sensitivity of the operator.
    """
    if eta == 0.0:
        return 0.0
    time_grid = np.asarray(time_grid, dtype=float)
    zeta = np.outer(xi_path.knots / xi_path.knots[-1], default_probe_direction())
    perturbed = StrainPath(xi_path.knots, xi_path.values + eta * zeta)
    base = sigma(cfg, xi_path, time_grid)
    moved = sigma(cfg, perturbed, time_grid)
    diff = moved.sigma - base.sigma
    dt = np.diff(time_grid)
    sq = np.sum(diff**2, axis=1)
    return float(np.sqrt(np.sum(dt * 0.5 * (sq[1:] + sq[:-1]))))

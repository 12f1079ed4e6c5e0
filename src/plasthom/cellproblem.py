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
``build_rve`` builds the torus space and the M sample materials of an
RveConfig, for ``sigma`` and for the cells of every FE2 macro element.  The
samples advance in lock step, one batched Newton solve per time step, and
each gives bit for bit what it gives alone.

The scheme is causal: values on [0, t] never depend on the path after t,
and re-running a truncated path reproduces the earlier steps bit-identically.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, at_step, positive_int, positive_number, valid_seed
from .fem import CG_RTOL, P1Space, mesh_torus
from .finescale import newton_solve
from .loading import StrainPath, checked_time_grid
from .media import PeriodizedMedium, ProbabilityLaw
from .returnmap import MaterialArrays
from .tensors import KDIM, norm, pack


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
    phi: np.ndarray      # (steps+1, nv, d) corrector displacements
    newton_iters: list
    residual_norms: list
    space: object = field(repr=False, default=None)
    mats: object = field(repr=False, default=None)

    @cached_property
    def v(self):
        """Corrector gradients (steps+1, ne, d, d), computed from ``phi`` on first read."""
        return self.space.element_gradients(self.phi)

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


def _volume_average(space, fields):
    """Volume averages (m, k) of element fields (m, ne, k)."""
    w = space.mesh.volumes
    return np.einsum("e,mek->mk", w, fields) / w.sum()


def build_rve(cfg):
    """The torus P1Space of ``cfg`` and the MaterialArrays of its M samples, read-only.

    ``sigma`` builds them once per run, and FE2 once for all its macro elements.
    """
    space = P1Space(mesh_torus(cfg.n_cells, cfg.refine))
    samples = []
    for j in range(cfg.n_samples):
        medium = PeriodizedMedium(cfg.law, cfg.sample_seed(j), cfg.n_cells)
        mats = MaterialArrays.from_medium(medium, space.mesh.barycenters)
        for values in (mats.a_vol, mats.a_dev, mats.hardening, mats.yield_stress):
            values.flags.writeable = False
        samples.append(mats)
    return space, samples


def _march(space, samples, xi_path, delta, time_grid, newton_rtol):
    """Advance the cell problems of the S ``samples`` (MaterialArrays) in lock step.

    Each step m >= 1 is one ``newton_solve`` call for all S, which freezes a
    converged sample, so each runs the iterates it runs alone.  Above
    ``fem.DENSE_PERIODIC_DOFS`` each sample holds one DFT reference
    preconditioner for the whole path: the translation average of the
    sample's first tangent, built on its first Newton correction and reused
    by every later one.  It depends on the sample's own data and on steps
    already taken only, so batching and causality hold bit for bit.  Yields
    (m, z, p, phi, iterations, residuals): (S, ne, 3) stresses and plastic
    strains, (S, n) correctors that the next step updates in place, the
    summed Newton iterations and the (S,) residual norms.  A NumericalError
    names its step.
    """
    mats = MaterialArrays.concatenate(samples)
    xi_values = xi_path.at(time_grid)
    phi = np.zeros((len(samples), space.n_packed))
    p = np.zeros((len(samples), space.mesh.n_elements, KDIM))
    preconditioners = [[] for _ in samples]     # one slot per sample
    for m in range(1, time_grid.size):
        with at_step(m):
            z, p, n_it, res = newton_solve(
                space, mats, xi_values[m], p, phi, time_grid[m] - time_grid[m - 1], delta,
                0.0, newton_rtol, CG_RTOL, preconditioners=preconditioners,
            )[:4]   # held through the next step, the moduli would cost M·ne·72 B
        yield m, z, p, phi, n_it, res


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
    p_hist = np.zeros((time_grid.size, mesh.n_elements, KDIM))
    z_hist = np.zeros_like(p_hist)
    phi_hist = np.zeros((time_grid.size, mesh.n_vertices, 2))
    iters, residuals = [], []
    for m, z, p, phi, n_it, res in _march(space, [mats], xi_path, delta, time_grid,
                                          newton_rtol):
        p_hist[m], z_hist[m], phi_hist[m] = p[0], z[0], space.unpack_field(phi[0])
        iters.append(n_it)
        residuals.append(res[0])
    return CellTrajectory(times=time_grid, p=p_hist, z=z_hist, phi=phi_hist,
                          newton_iters=iters, residual_norms=residuals, space=space,
                          mats=mats)


def sigma(cfg, xi_path, time_grid, threads=1):
    """Monte-Carlo estimate of the effective operators along a strain path.

    All M samples advance as one batch (see ``_march``), and only their
    per-step volume averages are kept.  Deterministic given the base seed:
    sample seeds are consecutive, and every sample gives, bit for bit, what
    it gives alone, so the result is the same for any batch size.
    ``threads`` must be a positive int and has no other effect.
    """
    positive_int(threads, "threads")
    time_grid = checked_time_grid(time_grid)
    space, samples = build_rve(cfg)
    z_samples = np.zeros((cfg.n_samples, time_grid.size, KDIM))   # (M, steps+1, k)
    p_samples = np.zeros_like(z_samples)
    for m, z, p, *_ in _march(space, samples, xi_path, cfg.delta, time_grid,
                              cfg.newton_rtol):
        z_samples[:, m] = _volume_average(space, z)
        p_samples[:, m] = _volume_average(space, p)
    stderr = z_samples.std(axis=0, ddof=1) / np.sqrt(cfg.n_samples) if cfg.n_samples > 1 \
        else np.zeros_like(z_samples[0])
    return SigmaResult(times=time_grid, sigma=z_samples.mean(axis=0), pi=p_samples.mean(axis=0),
                       mc_stderr=stderr, per_sample_sigma=z_samples)


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
    return comps / norm(comps)


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

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
RveConfig, for ``sigma`` and for the cells of every FE2 macro element.  One
``CellStack`` owns the cells of a run, ``sigma``'s M samples or FE2's E * M
cells, and advances them in lock step.  ``sigma``'s samples take one batched
Newton solve per time step, and each gives bit for bit what it gives alone.
FE2's cells take the joint Newton iterations of the macro step
(``macroscale.ElementCellState``), which couple them through the macro
update.

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
        v = self.v
        return self.space.volume_average(v.reshape(v.shape[:2] + (-1,))).reshape(-1, 2, 2)


@dataclass
class SigmaResult:
    """Effective stress and plastic-strain evolutions with sampling error."""

    times: np.ndarray
    sigma: np.ndarray      # (steps+1, k)
    pi: np.ndarray         # (steps+1, k)
    mc_stderr: np.ndarray  # (steps+1, k)
    per_sample_sigma: np.ndarray


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


class CellStack:
    """S cell problems on one RVE torus, advanced in lock step.

    ``space`` is the torus P1Space and ``samples`` the S cells'
    MaterialArrays, held concatenated as ``mats``; ``p`` (S, ne, 3) and
    ``phi`` (S, n) are the committed plastic strains and correctors.
    ``step`` takes one backward-Euler step of every cell from the committed
    plastic strains in one ``newton_solve`` call, which freezes a converged
    cell, so each runs the iterates it runs alone.  The result is the
    ``trial`` until ``commit`` makes it the committed state; FE2's
    ``macroscale.ElementCellState`` makes its trials by its own ``advance``.
    Above ``fem.DENSE_PERIODIC_DOFS`` each cell holds one DFT reference
    preconditioner in its slot of ``preconditioners`` for its whole life: the
    translation average of its first operator, built on its first solve
    (Moulinec & Suquet 1998).  It depends on the cell's own data and on steps
    already taken only, so batching and causality hold bit for bit.
    """

    def __init__(self, space, samples, delta, newton_rtol):
        self.space, self.delta, self.newton_rtol = space, delta, newton_rtol
        self.mats = MaterialArrays.concatenate(samples)
        self.p = np.zeros((len(samples), space.mesh.n_elements, KDIM))
        self.phi = np.zeros((len(samples), space.n_packed))
        self.preconditioners = [[] for _ in samples]
        self.trial = None

    def step(self, strains, phi, dt):
        """One step at the macro strains (3,) or (S, 3) from the correctors ``phi`` (S, n).

        ``phi`` is updated in place.  Returns the stresses (S, ne, 3), the
        summed Newton iterations and the (S,) residual norms.  The trial holds
        the plastic strains ``p``, the correctors ``phi``, the converged
        ``moduli`` (S, ne, 3, 3) and the ``strains``; a failed step leaves none.
        """
        self.trial = None
        strains = np.asarray(strains, dtype=float)
        z, p, iters, res, moduli = newton_solve(
            self.space, self.mats, strains[..., None, :], self.p, phi, dt, self.delta, 0.0,
            self.newton_rtol, CG_RTOL, self.preconditioners)
        self.trial = {"p": p, "phi": phi, "moduli": moduli, "strains": strains}
        return z, iters, res

    def commit(self):
        self.p, self.phi = self.trial["p"], self.trial["phi"]
        self.trial = None

    def march(self, xi_path, time_grid):
        """Step and commit along the strain path, the correctors updated in place.

        Yields (m, z, iterations, residuals) for every step m >= 1; the
        moduli go with each commit.  A NumericalError names its step.
        """
        xi_values = xi_path.at(time_grid)
        for m in range(1, time_grid.size):
            with at_step(m):
                z, iters, res = self.step(xi_values[m], self.phi,
                                          time_grid[m] - time_grid[m - 1])
            self.commit()
            yield m, z, iters, res


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
    cell = CellStack(space, [mats], delta, newton_rtol)
    for m, z, n_it, res in cell.march(xi_path, time_grid):
        p_hist[m], z_hist[m], phi_hist[m] = cell.p[0], z[0], space.unpack_field(cell.phi[0])
        iters.append(n_it)
        residuals.append(res[0])
    return CellTrajectory(times=time_grid, p=p_hist, z=z_hist, phi=phi_hist,
                          newton_iters=iters, residual_norms=residuals, space=space,
                          mats=mats)


def sigma(cfg, xi_path, time_grid, threads=1):
    """Monte-Carlo estimate of the effective operators along a strain path.

    All M samples march as one CellStack, and only their per-step volume
    averages are kept.  Deterministic given the base seed: sample seeds are
    consecutive, and every sample gives, bit for bit, what it gives alone,
    so the result is the same for any batch size.  ``threads`` must be a
    positive int and has no other effect.
    """
    positive_int(threads, "threads")
    time_grid = checked_time_grid(time_grid)
    space, samples = build_rve(cfg)
    z_samples = np.zeros((cfg.n_samples, time_grid.size, KDIM))   # (M, steps+1, k)
    p_samples = np.zeros_like(z_samples)
    cells = CellStack(space, samples, cfg.delta, cfg.newton_rtol)
    for m, z, *_ in cells.march(xi_path, time_grid):
        z_samples[:, m] = space.volume_average(z)
        p_samples[:, m] = space.volume_average(cells.p)
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

"""Effective macroscopic problem driven by per-element cell states (FE2).

The macroscopic displacement solves -div(Sigma(sym grad u)) = f weakly on a
P1 mesh, where Sigma is the effective hysteretic stress operator evaluated
through per-element cell problems: every macro element owns one persistent
cell state per Monte-Carlo sample.  Per time step, a macro Newton iteration
updates the nodal displacements; stress increments come from advancing all
E * M cell problems in lock step at the element strains, and the macro
tangent is the condensed tangent of the converged cells,
C_hom = <C> - G^T K^+ G / |Y| (Miehe 2002; Kouznetsova, Brekelmans &
Baaijens 2001), with C the cells' algorithmic moduli, K their periodic
operator and G the nodal forces of unit macro strains.  Small cells solve
the three columns of K^+ G with one factorization of K each.  Each macro
iteration after a step's first starts the cells' Newton iterations from
the condensed-tangent predictor phi_trial - K^+ G (xi - xi_trial), which
reuses the tangent's solve; a step's first iteration starts from the
committed correctors.  The cell states are committed exactly once per
accepted step.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import fem, finescale
from .cellproblem import CG_RTOL
from .errors import ConfigurationError, NumericalError, at_step, finite_number, positive_int
from .fem import P1Space, jacobi, mesh_torus, pcg
from .finescale import _add_boundary_offset, _impose_dirichlet, _load_vector
from .loading import checked_boundary, checked_time_grid
from .media import PeriodizedMedium
from .returnmap import MaterialArrays
from .tensors import KDIM

NEWTON_MAXITER = 40


@dataclass
class MacroConfig:
    """Macroscopic problem data plus the per-element RVE budget."""

    mesh: object
    rve: object                   # RveConfig
    dirichlet: object             # AffineBoundary
    time_grid: np.ndarray
    load: object = None
    newton_rtol: float = 1e-6
    max_seconds: float = None
    max_elements: int = None

    def __post_init__(self):
        self.time_grid = checked_time_grid(self.time_grid)
        self.dirichlet = checked_boundary(self.dirichlet)
        if self.max_seconds is not None and finite_number(self.max_seconds, "max_seconds") < 0:
            raise ConfigurationError(f"max_seconds must not be negative, got {self.max_seconds}")
        if self.max_elements is not None \
                and self.mesh.n_elements > positive_int(self.max_elements, "max_elements"):
            raise ConfigurationError(
                f"mesh has {self.mesh.n_elements} elements, budget allows {self.max_elements}"
            )


def _sample_materials(rve_cfg, rve_space):
    """The MaterialArrays of the M RVE samples, with read-only arrays.

    Every macro element sees the same M samples, so FE2 builds them once.
    """
    samples = []
    for j in range(rve_cfg.n_samples):
        medium = PeriodizedMedium(rve_cfg.law, rve_cfg.sample_seed(j), rve_cfg.n_cells)
        mats = MaterialArrays.from_medium(medium, rve_space.mesh.barycenters)
        for values in (mats.a_vol, mats.a_dev, mats.hardening, mats.yield_stress):
            values.flags.writeable = False
        samples.append(mats)
    return samples


class ElementCellState:
    """The cell problems of all E macro elements, M samples each, in lock step.

    ``mats`` are the M samples' materials from ``_sample_materials``.  Cell
    problem s = e * M + j is sample j of macro element e; ``p`` (E * M, ne,
    3) and ``phi`` (E * M, n) are their committed plastic strains and
    correctors.  ``advance`` performs one implicit step of every cell from
    the committed state at trial macro strains and returns the
    sample-averaged stresses; ``tangent`` gives the condensed tangents at
    that trial state and ``commit`` makes the last advance permanent.
    Neither ``advance`` nor ``tangent`` touches committed arrays.

    ``tangent`` keeps the trial correctors, their per-cell macro strains and
    its K^+ G as the predictor of the next ``advance``, which starts each
    cell's Newton iteration from phi_trial - K^+ G (xi - xi_trial) and
    drops the predictor.  An advance without a tangent before it, such as a
    step's first, starts from the committed correctors.  The plastic update
    starts from the committed plastic strains either way, and ``commit``
    drops the predictor, so no step sees another step's predictor.
    """

    def __init__(self, rve_cfg, rve_space, mats, n_elements):
        self.cfg = rve_cfg
        self.space = rve_space
        self.mats = mats
        self.n_elements = n_elements
        self._systems = MaterialArrays.concatenate(list(mats) * n_elements)
        n_cells = n_elements * rve_cfg.n_samples
        self.p = np.zeros((n_cells, rve_space.mesh.n_elements, KDIM))
        self.phi = np.zeros((n_cells, rve_space.n_packed))
        self._trial = None
        self._predictor = None

    def _sample_mean(self, values):
        """Per-element mean over the samples of per-cell values (E * M, ...)."""
        shape = (self.n_elements, self.cfg.n_samples) + values.shape[1:]
        return values.reshape(shape).mean(axis=1)

    def advance(self, strains, dt):
        """One backward-Euler step of every cell at the macro strains (E, 3).

        Returns the sample-averaged mean stresses, (E, 3).
        """
        cfg = self.cfg
        w = self.space.mesh.volumes / self.space.mesh.volumes.sum()
        offset = np.repeat(np.asarray(strains, dtype=float), cfg.n_samples, axis=0)
        if self._predictor is None:
            phi = self.phi.copy()
        else:
            phi_trial, offset_trial, KG = self._predictor
            phi = phi_trial - np.einsum("snj,sj->sn", KG, offset - offset_trial)
        self._predictor = None
        z, p_new, _, _, moduli = finescale.newton_solve(
            self.space, self._systems, offset[:, None, :], self.p, phi, dt,
            cfg.delta, 0.0, cfg.newton_rtol, CG_RTOL,
        )
        self._trial = (p_new, phi, moduli, offset)
        return self._sample_mean(w @ z)

    def tangent(self):
        """The condensed tangents dSigma/dxi at the last advance, (E, 3, 3).

        Per cell, with C the converged algorithmic moduli, K the periodic
        operator assembled from them and G[:, j] the nodal forces of the
        stresses C e_j, a macro strain increment d moves the fluctuation by
        -K^+ G d, so the mean stress moves by (<C> - G^T K^+ G / |Y|) d.
        Returns the symmetrized mean over each element's samples.
        """
        space = self.space
        volumes = space.mesh.volumes
        _, phi, moduli, offset = self._trial
        G = space.internal_forces(np.moveaxis(moduli, -1, 1))     # (E * M, 3, n)
        KG = fem.solve_periodic_systems(space, moduli, np.swapaxes(G, 1, 2), rtol=CG_RTOL)
        self._predictor = (phi, offset, KG)
        total = self._sample_mean(np.einsum("e,seij->sij", volumes, moduli) - G @ KG)
        total /= volumes.sum()
        return 0.5 * (total + np.swapaxes(total, 1, 2))

    def commit(self):
        self.p, self.phi, _, _ = self._trial
        self._trial = None
        self._predictor = None


@dataclass
class EffectiveSolution:
    """Displacements, per-element stress series, Newton counts and cell states."""

    times: np.ndarray
    u: np.ndarray              # (steps+1, nv, d)
    sigma: np.ndarray          # (steps+1, ne, k)
    newton_iters: list
    space: object = field(repr=False, default=None)
    cells: object = field(repr=False, default=None)  # final ElementCellState

    def average_stress(self):
        w = self.space.mesh.volumes
        return np.einsum("e,mek->mk", w, self.sigma) / w.sum()


def solve_effective(config):
    """Time-incremental FE2 solve of the effective plasticity problem.

    Raises NumericalError with partial results if the wall-clock budget is
    exceeded, and with element-wise residual diagnostics on Newton failure.
    """
    mesh = config.mesh
    space = P1Space(mesh)
    times = config.time_grid
    steps = times.size - 1
    start = _time.monotonic()

    rve_space = P1Space(mesh_torus(config.rve.n_cells, config.rve.refine))
    cells = ElementCellState(config.rve, rve_space, _sample_materials(config.rve, rve_space),
                             mesh.n_elements)

    u_hist = np.zeros((steps + 1, mesh.n_vertices, 2))
    sig_hist = np.zeros((steps + 1, mesh.n_elements, KDIM))
    iter_history = []

    u = np.zeros(space.n_packed)
    free = space.free_dofs

    for m in range(1, steps + 1):
        with at_step(m):
            t, dt = times[m], times[m] - times[m - 1]
            _impose_dirichlet(space, config, t, u)
            f_ext = _load_vector(space, config, t)

            converged = False
            res_norm = np.inf
            for it in range(NEWTON_MAXITER):
                if config.max_seconds is not None \
                        and _time.monotonic() - start > config.max_seconds:
                    raise NumericalError(
                        "wall-clock budget exceeded",
                        partial=_package(times, u_hist, sig_hist, iter_history, space,
                                         upto=m - 1),
                    )
                strains = space.element_strains(space.unpack_field(u))
                sig = cells.advance(strains, dt)
                f_int = space.internal_forces(sig)
                residual = (f_ext - f_int)[free]
                res_norm = np.linalg.norm(residual)
                denom = max(np.linalg.norm(f_int[free]), np.linalg.norm(f_ext[free]),
                            1e-300)
                if res_norm <= config.newton_rtol * denom + 1e-14 * (1.0 + denom):
                    cells.commit()
                    sig_hist[m] = sig
                    converged = True
                    iter_history.append(it)
                    break
                A = space.assemble_operator(cells.tangent())
                Aff = A[free][:, free]
                du, _ = pcg(Aff, residual, jacobi(Aff), rtol=1e-12)
                u[free] += du
            if not converged:
                worst = free[np.argsort(np.abs(residual))[-5:]]
                raise NumericalError(
                    f"macro Newton did not converge (worst dofs {worst.tolist()})",
                    residual=float(res_norm),
                )
            u_hist[m] = space.unpack_field(u)

    _add_boundary_offset(config, times, u_hist)
    return _package(times, u_hist, sig_hist, iter_history, space, cells=cells)


def _package(times, u_hist, sig_hist, iter_history, space, upto=None, cells=None):
    if upto is not None:
        times = times[: upto + 1]
        u_hist, sig_hist = u_hist[: upto + 1], sig_hist[: upto + 1]
    return EffectiveSolution(times=times, u=u_hist, sigma=sig_hist,
                             newton_iters=iter_history, space=space, cells=cells)


def weak_form_residual(solution, config):
    """Max relative weak-form defect over every P1 basis function and step."""
    space = solution.space
    free = space.free_dofs
    worst = 0.0
    for m in range(1, solution.times.size):
        f_ext = _load_vector(space, config, solution.times[m])
        f_int = space.internal_forces(solution.sigma[m])
        denom = max(np.linalg.norm(f_int[free]), np.linalg.norm(f_ext[free]), 1e-300)
        worst = max(worst, np.abs((f_ext - f_int)[free]).max() / denom)
    return worst

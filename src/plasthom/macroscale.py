"""Effective macroscopic problem driven by per-element cell states (FE2).

The macroscopic displacement solves -div(Sigma(sym grad u)) = f weakly on a P1
mesh, where Sigma is the effective hysteretic stress operator evaluated
through per-element cell problems: every macro element owns one persistent
cell state per Monte-Carlo sample, all built by ``cellproblem.build_rve``.
The time steps are the Dirichlet steps of the fine-scale problem
(``finescale.dirichlet_steps``); only the stress differs.  Per time step, the
Newton loop of the cells (``finescale.newton_iterate``) updates the nodal
displacements; stress increments come from advancing all E * M cell problems
in lock step at the element strains, and the macro tangent is the condensed
tangent of the converged cells, C_hom = <C> - G^T K^+ G / |Y| (Miehe 2002;
Kouznetsova, Brekelmans & Baaijens 2001), with C the cells' algorithmic
moduli, K their periodic operator and G the nodal forces of unit macro
strains.  Small cells solve the three columns of K^+ G with one factorization
of K each, larger ones with the cell's held DFT reference
(``cellproblem.CellStack``).  Each macro iteration after a step's first starts
the cells' Newton iterations from the condensed-tangent predictor
phi_trial - K^+ G (xi - xi_trial), which reuses the tangent's solve; a step's
first evaluation and a line-search retry start from the committed correctors.
The cell states are committed exactly once per accepted step.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .cellproblem import CellStack, build_rve
from .errors import ConfigurationError, NumericalError, at_step, finite_number, positive_int
from .fem import CG_RTOL, P1Space, jacobi, pcg
from .finescale import dirichlet_steps, newton_iterate
from .loading import checked_boundary, checked_time_grid
from .tensors import KDIM, norm

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


class ElementCellState(CellStack):
    """The cell problems of all E macro elements, M samples each, in lock step.

    A ``cellproblem.CellStack`` of E * M cells on the torus of
    ``cellproblem.build_rve``: cell s = e * M + j is sample j of macro
    element e, and each cell holds its reference preconditioner for the
    whole solve.  ``advance`` steps every cell from the committed state at
    trial macro strains and returns the sample-averaged stresses;
    ``tangent`` gives the condensed tangents at that trial and ``commit``
    makes the last advance permanent.  Neither ``advance`` nor ``tangent``
    touches committed arrays.

    ``tangent`` adds its K^+ G to the trial as the predictor of the next
    ``advance``, which starts each cell's Newton iteration from
    phi_trial - K^+ G (xi - xi_trial).  An advance replaces the trial and
    ``commit`` drops it, so an advance without a tangent before it, such as
    a step's first, starts from the committed correctors, and no step sees
    another step's predictor.  The plastic update starts from the committed
    plastic strains either way.
    """

    def __init__(self, rve_cfg, n_elements):
        space, samples = build_rve(rve_cfg)
        super().__init__(space, samples * n_elements, rve_cfg.delta, rve_cfg.newton_rtol)
        self.n_samples = rve_cfg.n_samples

    def _sample_mean(self, values):
        """Per-element mean over the samples of per-cell values (E * M, ...)."""
        return values.reshape((-1, self.n_samples) + values.shape[1:]).mean(axis=1)

    def advance(self, strains, dt):
        """One backward-Euler step of every cell at the macro strains (E, 3).

        Returns the sample-averaged mean stresses, (E, 3).
        """
        offset = np.repeat(np.asarray(strains, dtype=float), self.n_samples, axis=0)
        trial = self.trial or {}
        if "KG" in trial:
            phi = trial["phi"] - np.einsum("snj,sj->sn", trial["KG"], offset - trial["strains"])
        else:
            phi = self.phi.copy()
        z, _, _ = self.step(offset, phi, dt)
        w = self.space.mesh.volumes / self.space.mesh.volumes.sum()
        return self._sample_mean(w @ z)

    def tangent(self):
        """The condensed tangents dSigma/dxi at the last advance, (E, 3, 3).

        Per cell, with C the converged algorithmic moduli, K the periodic
        operator assembled from them and G[:, j] the nodal forces of the
        stresses C e_j, a macro strain increment d moves the fluctuation by
        -K^+ G d, so the mean stress moves by (<C> - G^T K^+ G / |Y|) d.
        Returns the symmetrized mean over each element's samples.
        """
        space, trial = self.space, self.trial
        volumes = space.mesh.volumes
        moduli = trial["moduli"]
        G = space.internal_forces(np.moveaxis(moduli, -1, 1))     # (E * M, 3, n)
        trial["KG"] = fem.solve_periodic_systems(space, moduli, np.swapaxes(G, 1, 2), CG_RTOL,
                                                 self.preconditioners)
        total = self._sample_mean(np.einsum("e,seij->sij", volumes, moduli) - G @ trial["KG"])
        total /= volumes.sum()
        return 0.5 * (total + np.swapaxes(total, 1, 2))


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
        return self.space.volume_average(self.sigma)


def solve_effective(config):
    """Time-incremental FE2 solve of the effective plasticity problem.

    The steps are those of ``solve_eps`` (``finescale.dirichlet_steps``): the
    same load check at t = 0, affine Dirichlet predictor, load vector and
    boundary constant a(t); only the stresses come from the cells.  The
    predictor is the solution when there is no load, since all elements share
    the M samples.  Each step runs ``finescale.newton_iterate`` on one
    system: an evaluation checks the wall-clock budget and advances the cells
    at the element strains, and a correction solves the condensed tangent by
    Jacobi CG to ``fem.CG_RTOL``.  A NumericalError names its step.
    """
    mesh = config.mesh
    space = P1Space(mesh)
    times = config.time_grid
    start = _time.monotonic()

    cells = ElementCellState(config.rve, mesh.n_elements)
    u_hist = np.zeros((times.size, mesh.n_vertices, 2))
    sig_hist = np.zeros((times.size, mesh.n_elements, KDIM))
    iter_history = []

    for m, dt, u, f_ext in dirichlet_steps(space, config, u_hist):
        def evaluate(_):
            if config.max_seconds is not None and _time.monotonic() - start > config.max_seconds:
                raise NumericalError("wall-clock budget exceeded")
            sig = cells.advance(space.element_strains(u), dt)
            return sig[None], space.internal_forces(sig)[None]

        def solve(_, rhs, *__):
            A = space.assemble_operator(cells.tangent())
            return pcg(A, rhs[0, space.free_dofs], jacobi(A), rtol=CG_RTOL)[0][None]

        with at_step(m):
            (sig, _), iters, _ = newton_iterate(space, u[None], f_ext, config.newton_rtol,
                                                NEWTON_MAXITER, evaluate, solve)
        cells.commit()
        sig_hist[m] = sig[0]
        iter_history.append(int(iters[0]))

    return EffectiveSolution(times, u_hist, sig_hist, iter_history, space, cells)


def weak_form_residual(solution, config):
    """Max relative weak-form defect over every P1 basis function and step, relative
    to |force_scale(sigma)| + |f_ext| on the free dofs, ``newton_tolerance``'s force scale."""
    space = solution.space
    free = space.free_dofs
    worst = 0.0
    for m, _, _, f_ext in dirichlet_steps(space, config, np.empty_like(solution.u)):
        f_int = space.internal_forces(solution.sigma[m])
        denom = max(norm(space.force_scale(solution.sigma[m])[free]) + norm(f_ext[free]), 1e-300)
        worst = max(worst, np.abs((f_ext - f_int)[free]).max() / denom)
    return worst

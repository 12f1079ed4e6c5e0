"""Effective macroscopic problem driven by per-element cell states (FE2).

The macroscopic displacement solves -div(Sigma(sym grad u)) = f weakly on a
P1 mesh, where Sigma is the effective hysteretic stress operator evaluated
through per-element cell problems: every macro element owns one persistent
cell state per Monte-Carlo sample, all built by ``cellproblem.build_rve``.
The time steps are the Dirichlet steps of the fine-scale problem
(``finescale.dirichlet_steps``); only the stress differs.  Per time step, a
macro Newton iteration updates the nodal displacements; stress increments
come from advancing all E * M cell problems in lock step at the element
strains, and the macro tangent is the condensed tangent of the converged cells,
C_hom = <C> - G^T K^+ G / |Y| (Miehe 2002; Kouznetsova, Brekelmans &
Baaijens 2001), with C the cells' algorithmic moduli, K their periodic
operator and G the nodal forces of unit macro strains.  Small cells solve
the three columns of K^+ G with one factorization of K each, larger ones
with the cell's held DFT reference (``cellproblem.CellStack``).  Each macro
iteration after a step's first starts the cells' Newton iterations from
the condensed-tangent predictor phi_trial - K^+ G (xi - xi_trial), which
reuses the tangent's solve; a step's first iteration starts from the
committed correctors.  The cell states are committed exactly once per
accepted step.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .cellproblem import CellStack, build_rve
from .errors import ConfigurationError, NumericalError, at_step, finite_number, positive_int
from .fem import CG_RTOL, P1Space, jacobi, pcg
from .finescale import dirichlet_steps, newton_tolerance
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
    the M samples.  Macro Newton stops by ``newton_tolerance``, as the cell
    iterations do; each correction is solved by Jacobi CG to ``fem.CG_RTOL``.

    Raises NumericalError with the step if the wall-clock budget is exceeded,
    and with element-wise residual diagnostics on Newton failure.
    """
    mesh = config.mesh
    space = P1Space(mesh)
    times = config.time_grid
    start = _time.monotonic()

    cells = ElementCellState(config.rve, mesh.n_elements)
    u_hist = np.zeros((times.size, mesh.n_vertices, 2))
    sig_hist = np.zeros((times.size, mesh.n_elements, KDIM))
    iter_history = []
    free = space.free_dofs

    for m, dt, u, f_ext in dirichlet_steps(space, config, u_hist):
        with at_step(m):
            f_norm = norm(f_ext[free])
            for it in range(NEWTON_MAXITER):
                if config.max_seconds is not None \
                        and _time.monotonic() - start > config.max_seconds:
                    raise NumericalError("wall-clock budget exceeded")
                strains = space.element_strains(u)
                sig = cells.advance(strains, dt)
                residual = (f_ext - space.internal_forces(sig))[free]
                res_norm = norm(residual)
                if it == 0:
                    _, tol = newton_tolerance(space, sig, res_norm, f_norm, config.newton_rtol)
                if res_norm <= tol:
                    cells.commit()
                    sig_hist[m] = sig
                    iter_history.append(it)
                    break
                A = space.assemble_operator(cells.tangent())
                du, _ = pcg(A, residual, jacobi(A), rtol=CG_RTOL)
                u[free] += du
            else:
                worst = free[np.argsort(np.abs(residual))[-5:]]
                raise NumericalError(
                    f"macro Newton did not converge (worst dofs {worst.tolist()})",
                    residual=float(res_norm),
                )

    return EffectiveSolution(times, u_hist, sig_hist, iter_history, space, cells)


def weak_form_residual(solution, config):
    """Max relative weak-form defect over every P1 basis function and step."""
    space = solution.space
    free = space.free_dofs
    worst = 0.0
    for m, _, _, f_ext in dirichlet_steps(space, config, np.empty_like(solution.u)):
        f_int = space.internal_forces(solution.sigma[m])
        denom = max(norm(f_int[free]), norm(f_ext[free]), 1e-300)
        worst = max(worst, np.abs((f_ext - f_int)[free]).max() / denom)
    return worst

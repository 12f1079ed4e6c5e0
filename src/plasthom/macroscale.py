"""Effective macroscopic problem driven by per-element cell states (FE2).

The macroscopic displacement solves -div(Sigma(sym grad u)) = f weakly on a P1
mesh, where Sigma is the effective hysteretic stress operator evaluated
through per-element cell problems: every macro element owns one persistent
cell state per Monte-Carlo sample, all built by ``cellproblem.build_rve``.
The time steps are those of the fine-scale problem (``finescale.dirichlet_steps``).
Each runs one Newton loop (``finescale.newton_iterate``) on the nodal
displacements and all cell correctors at once (Lange, Huetter & Kiefer 2021),
which condenses the cells into the macro tangent C_hom = <C> - G^T K^+ G / |Y|
(Miehe 2002; Kouznetsova, Brekelmans & Baaijens 2001), and commits the cells
once per accepted step.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import finescale
from .cellproblem import CellStack, build_rve
from .errors import ConfigurationError, NumericalError, at_step, finite_number, positive_int
from .fem import CG_RTOL, P1Space, jacobi, pcg
from .finescale import dirichlet_steps, newton_iterate
from .loading import checked_boundary, checked_time_grid
from .tensors import KDIM, norm


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

    A ``cellproblem.CellStack`` of E * M cells on the ``build_rve`` torus:
    cell s = e * M + j is sample j of macro element e, and holds its
    reference preconditioner for the whole solve.  ``advance`` evaluates
    every cell from the committed plastic strains, ``condense`` linearizes
    it there through the stack's ``solve`` and ``commit`` makes the last
    advance permanent.  A step's first advance takes the committed
    correctors, later ones each cell's update
    phi_lin + K^+ r - K^+ G (xi - xi_lin) from the last condense.  A cell's
    tolerance tol_c (``finescale.newton_tolerance``) comes from the step's
    first evaluation that gives it a stress, and is 0 until then.
    """

    def __init__(self, rve_cfg, n_elements):
        space, samples = build_rve(rve_cfg)
        super().__init__(space, samples * n_elements, rve_cfg.delta, rve_cfg.newton_rtol)
        self.n_samples = rve_cfg.n_samples
        self.linearization, (self.scale, self.tol) = None, np.zeros((2, len(self.p)))

    def _sample_mean(self, values):
        """Per-element mean over the samples of per-cell values (E * M, ...)."""
        return values.reshape((-1, self.n_samples) + values.shape[1:]).mean(axis=1)

    def advance(self, strains, dt):
        """Sample-mean stresses (E, 3) and max res_c / tol_c of the cells at strains (E, 3)."""
        offset = np.repeat(np.asarray(strains, dtype=float), self.n_samples, axis=0)
        phi = self.phi
        if self.linearization is not None:
            xi, phi, KR, KG = self.linearization
            phi = phi + KR - np.einsum("snj,sj->sn", KG, offset - xi)
        strains = offset[:, None] + self.space.element_strains(phi)
        z, forces, p, moduli = finescale.return_map_state(self.space, self.mats, strains, self.p,
                                                          dt, self.delta)
        res = norm(forces)
        unset = self.tol == 0
        if unset.any():
            scale, tol = finescale.newton_tolerance(self.space, z, res, 0.0, self.newton_rtol)
            self.scale[unset], self.tol[unset] = scale[unset], tol[unset]
        self.trial = dict(strains=offset, phi=phi, forces=forces, res=res, p=p, moduli=moduli)
        ratio = np.divide(res, self.tol, out=np.zeros_like(res), where=res != 0)
        return self._sample_mean(self.space.volume_average(z)), float(ratio.max())

    def condense(self):
        """Condensed tangents (E, 3, 3) and stress corrections (E, 3) at the last advance.

        Per cell, with C its algorithmic moduli, K their periodic operator,
        G[:, j] the nodal forces of C e_j and r = -f_int (0 once converged), a
        macro strain increment d moves the corrector by K^+ r - K^+ G d and
        the mean stress by q + (<C> - G^T K^+ G / |Y|) d, q = G^T K^+ r / |Y|.
        [K^+ r, K^+ G] is one ``solve`` to the cell's forcing term.  Returns the
        symmetrized tangents and q, means over each element's samples.
        """
        space, trial, volumes = self.space, self.trial, self.space.mesh.volumes
        moduli, res = trial["moduli"], trial["res"]
        G = space.internal_forces(np.moveaxis(moduli, -1, 1))     # (E * M, 3, n)
        live = res > self.tol
        eta = np.full(len(res), finescale.FORCING_MAX)
        eta[live] = finescale.forcing_term(res[live], self.scale[live], self.tol[live])
        rhs = np.concatenate([live[:, None, None] * -trial["forces"][..., None],
                              np.swapaxes(G, 1, 2)], axis=2)
        X = self.solve(range(len(res)), moduli, rhs, eta)
        KR, KG = X[..., 0], X[..., 1:]
        self.linearization = (trial["strains"], trial["phi"], KR, KG)
        tangent = self._sample_mean(np.einsum("e,seij->sij", volumes, moduli) - G @ KG)
        q = self._sample_mean(np.einsum("sjn,sn->sj", G, KR))
        return (tangent + np.swapaxes(tangent, 1, 2)) / (2 * volumes.sum()), q / volumes.sum()

    def commit(self):
        super().commit()
        self.linearization, (self.scale, self.tol) = None, np.zeros((2, len(self.p)))


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
    boundary constant a(t); only the stresses come from the cells.  Each step
    runs ``finescale.newton_iterate`` on one joint system: an evaluation
    checks the wall-clock budget and advances the cells at the element
    strains, and a correction condenses them and solves C_hom for
    f_ext - f_int(Sigma + q) by Jacobi CG to ``fem.CG_RTOL``.  A
    NumericalError names its step.
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
            sig, ratio = cells.advance(space.element_strains(u), dt)
            return sig[None], space.internal_forces(sig)[None], np.array([ratio])

        def solve(_, rhs, *__):
            tangent, q = cells.condense()
            A, b = space.assemble_operator(tangent), rhs[0] - space.internal_forces(q)
            return pcg(A, b[space.free_dofs], jacobi(A), rtol=CG_RTOL)[0][None]

        with at_step(m):
            (sig, *_), iters, _ = newton_iterate(space, u[None], f_ext, config.newton_rtol,
                                                 evaluate, solve)
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

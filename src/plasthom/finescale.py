"""Implicit solver for the heterogeneous quasi-static plasticity problem.

The displacement satisfies the quasi-static balance -div(sigma) = f with
Dirichlet data, Hooke's law sigma = C^-1 e, the additive split of the
symmetrized gradient into e + p, and the regularized von Mises flow rule
for p with kinematic hardening.  Oscillating coefficients are read from a
sampled medium at the element barycenters at scale eps.

Time discretization is backward Euler; each step runs a global Newton
iteration on the displacement with the element-level plastic update solved
in closed form and a consistent algorithmic tangent.  That loop,
``newton_iterate``, also runs the cell problems and the FE2 macro step,
which pass their own evaluation and correction.  The scheme never looks
ahead in time, so truncating the data after a step reproduces the earlier
steps bit-identically.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, at_step, positive_number
from .fem import CG_RTOL, P1Space, jacobi, pcg
from .flowrules import VON_MISES, FlowRule
from .loading import checked_boundary, checked_time_grid
from .returnmap import MaterialArrays, plastic_step
from .tensors import KDIM, inner, norm, unpack

NEWTON_MAXITER = 50
# Forcing term of the inexact Newton iteration (see ``forcing_term``): a
# system's correction is solved to the relative CG tolerance
# FORCING_GAMMA * res / scale, loosened to Kelley's safeguard 0.5 * tol / res
# once that is all the correction needs to reach the Newton tolerance tol,
# and clipped to [fem.CG_RTOL, FORCING_MAX].
FORCING_GAMMA = 1e-2
FORCING_MAX = 1e-2


@dataclass
class EpsProblemConfig:
    """Problem data for one heterogeneous solve.

    ``dirichlet`` is an AffineBoundary.  ``load`` is a callable
    f(t, points) -> (n, d) with f(0, .) = 0, or None.  The initial plastic
    strain is zero.
    """

    mesh: object
    medium: object
    epsilon: float
    delta: float
    time_grid: np.ndarray
    dirichlet: object
    load: object = None
    newton_rtol: float = 1e-8

    def __post_init__(self):
        self.time_grid = checked_time_grid(self.time_grid)
        self.dirichlet = checked_boundary(self.dirichlet)
        positive_number(self.epsilon, "scale epsilon")
        positive_number(self.delta, "delta")


@dataclass
class PlasticTrajectory:
    """Fields of one solve: nodal displacements plus element stress state."""

    times: np.ndarray
    u: np.ndarray          # (steps+1, nv, d)
    sigma: np.ndarray      # (steps+1, ne, k)
    e: np.ndarray          # elastic strains
    p: np.ndarray          # plastic strains
    newton_iters: list
    residual_norms: list
    space: object = field(repr=False, default=None)
    mats: object = field(repr=False, default=None)


def _boundary_values(config, t, points):
    """The strain part xi(t) x of the Dirichlet data at the given points."""
    return points @ unpack(config.dirichlet.path.at(t)).T


def dirichlet_steps(space, config, u_hist):
    """The backward-Euler steps of ``config``'s Dirichlet problem on ``space``.

    Checks that the load vanishes at t = 0, then yields (m, dt, u, f_ext) for
    m = 1, 2, ...: the packed displacements u of step m - 1 moved by the affine
    increment (xi(t_m) - xi(t_m-1)) x of the Dirichlet data, a predictor exact for
    a homogeneous response, with the constrained rows at the data of t_m, and the
    load vector f_ext at t_m.  The caller solves for u in place; u plus the
    boundary constant a(t_m) then goes to ``u_hist[m]``.
    """
    mesh, times, load = space.mesh, config.time_grid, config.load
    if load is not None and np.abs(np.asarray(load(0.0, mesh.barycenters))).max() > 1e-12:
        raise ConfigurationError("load must vanish at t=0")
    u = np.zeros(space.n_packed)
    bc = space.pack_field(_boundary_values(config, times[0], mesh.vertices))
    for m in range(1, times.size):
        t = times[m]
        previous, bc = bc, space.pack_field(_boundary_values(config, t, mesh.vertices))
        u += bc - previous
        u[~space.free_mask] = bc[~space.free_mask]
        f_ext = np.zeros(space.n_packed) if load is None \
            else space.load_vector(np.asarray(load(t, mesh.barycenters), dtype=float))
        yield m, t - times[m - 1], u, f_ext
        u_hist[m] = space.unpack_field(u)
        if config.dirichlet.offset is not None:
            u_hist[m] += config.dirichlet.offset_at(t)


def newton_tolerance(space, z0, res0, f_norm, rtol):
    """Newton's convergence test on ``space``: (scale, tol), from a step's first evaluation.

    ``z0`` (..., ne, 3) are its stresses, ``res0`` its free residual norms and ``f_norm``
    the free load norms.  A residual norm at most tol = rtol * scale + 1e-14
    (|force_scale(z0)| + |f_ext|), scale = max(res0, |f_ext|), has converged: every term
    is a force of the step's own data, so the test scales with the units."""
    scale = np.maximum(res0, f_norm)
    floor = 1e-14 * (norm(space.force_scale(z0)[..., space.free_dofs]) + f_norm)
    return scale, rtol * scale + floor


def forcing_term(res, scale, tol):
    """Relative CG tolerance eta of a Newton correction at residual norm ``res``.

    eta = clip(max(FORCING_GAMMA * res / scale, 0.5 * tol / res), CG_RTOL, FORCING_MAX),
    with ``scale`` and ``tol`` from ``newton_tolerance`` and the CG floor ``fem.CG_RTOL``.
    The first term shrinks with the residual, which keeps the local convergence
    fast (Eisenstat & Walker 1996).  The second is Kelley's terminal safeguard
    (Iterative Methods for Linear and Nonlinear Equations, 1995, sec. 6.3.2): a
    correction solved to eta leaves a linearized residual of eta * res, and
    the Newton test needs no less than half of tol, so the last correction of a
    step is not solved tighter than that.  Entries broadcast; every system's
    eta depends on its own residual only.
    """
    eta = np.maximum(FORCING_GAMMA * res / scale, 0.5 * tol / res)
    return np.minimum(np.maximum(eta, CG_RTOL), FORCING_MAX)


def newton_iterate(space, u, f_ext, rtol, evaluate, solve):
    """Newton iterations of one backward-Euler step for S systems at once, in lock step.

    ``u`` (S, n) holds packed vectors on ``space`` with the Dirichlet rows set
    and is updated in place on the free dofs; ``f_ext`` broadcasts to (S, n).
    ``evaluate(systems)`` returns the state of the given systems at their
    ``u``, a tuple of per-system arrays that starts with the stresses
    (k, ne, 3), the internal forces (k, n) and the cell ratios (k,): the
    largest res_c / tol_c of the cell problems that a system carries
    (``macroscale.solve_effective``), 0 for a system without cells.
    ``solve(systems, rhs, state, res, scale, tol)`` returns their
    corrections (k, free dofs) from their residual rows f_ext - f_int
    (k, n), the accepted state of all systems, and their residual norms and
    ``newton_tolerance``'s scale and tolerance.

    The first residual and cell ratios must be finite.  A system has
    converged once its residual norm is at most tol and its cell ratio at
    most 1.  Each system runs its own test and, if a full step fails to
    reduce its merit res + tol * ratio (res alone without cells), its own
    step halving; a converged system is frozen and no longer evaluated, so it
    runs the iterates it runs alone.  On one system the last state evaluated
    is always the accepted one.  At most NEWTON_MAXITER corrections run,
    and the test runs after each of them.  A failure raises NumericalError
    without a step that names the worst system's five free dofs of largest
    residual.  Returns (state, iterations, residuals), the last two (S,).
    """
    n_systems = u.shape[0]
    free = space.free_dofs
    f_ext = np.broadcast_to(f_ext, u.shape)

    def residual_norms(systems, f_int):
        return norm((f_ext[systems] - f_int)[:, free])

    def failure(message, systems):
        worst = systems[np.argmax(res[systems])]
        dofs = free[np.argsort(np.abs(f_ext[worst] - state[1][worst])[free])[-5:]]
        return NumericalError(f"{message} (worst dofs {dofs.tolist()})",
                              residual=float(res[worst]))

    active = np.arange(n_systems)
    state = evaluate(active)
    res = residual_norms(active, state[1])
    if not np.all(np.isfinite(res) & np.isfinite(state[2])):
        raise NumericalError("the equilibrium residual is not finite",
                             residual=float(np.max(res)))
    scale, tol = newton_tolerance(space, state[0], res, norm(f_ext[:, free]), rtol)
    iters = np.zeros(n_systems, dtype=int)

    def unconverged(systems):
        return systems[(res[systems] > tol[systems]) | (state[2][systems] > 1.0)]

    for k in range(NEWTON_MAXITER + 1):
        active = unconverged(active)
        if active.size == 0:
            return state, iters, res
        if k == NEWTON_MAXITER:
            raise failure("Newton did not converge", active)
        iters[active] += 1
        du = solve(active, f_ext[active] - state[1][active], state,
                   res[active], scale[active], tol[active])
        alpha = np.ones(active.size)
        trying = np.arange(active.size)       # positions in ``active`` still searching
        for _ in range(11):
            systems = active[trying]
            correction = alpha[trying, None] * du[trying]
            u[np.ix_(systems, free)] += correction
            tried = evaluate(systems)
            res_try, ratio_try, tol_try = residual_norms(systems, tried[1]), tried[2], tol[systems]
            accept = (res_try + tol_try * ratio_try < res[systems] + tol_try * state[2][systems]) \
                | ((res_try <= tol_try) & (ratio_try <= 1.0))
            if accept.all() and systems.size == n_systems:
                state, res = tried, res_try
            else:
                done = systems[accept]
                for kept, new in zip(state, tried):
                    kept[done] = new[accept]
                res[done] = res_try[accept]
                u[np.ix_(systems[~accept], free)] -= correction[~accept]
            trying = trying[~accept]
            alpha[trying] *= 0.5
            if trying.size == 0:
                break
        else:
            raise failure("Newton step failed to reduce the equilibrium residual",
                          active[trying])


def return_map_state(space, mats, strains, p_old, dt, delta):
    """The state of S systems at the element strains (S, ne, 3), by ``plastic_step``.

    ``p_old`` is (S, ne, 3) and ``mats`` holds the S * ne elements system
    after system.  Returns the stresses (S, ne, 3), the internal forces
    (S, n), the plastic strains (S, ne, 3) and the algorithmic moduli
    (S, ne, 3, 3).
    """
    z, p_new, moduli = plastic_step(strains.reshape(-1, KDIM), p_old.reshape(-1, KDIM),
                                    mats, dt, delta)
    z = z.reshape(strains.shape)
    return z, space.internal_forces(z), p_new.reshape(z.shape), moduli.reshape(z.shape + (KDIM,))


def newton_solve(space, mats, strain_offset, p_old, u, dt, delta, f_ext, rtol,
                 solve_tangent):
    """``newton_iterate`` on S systems of the return map ``plastic_step``.

    ``u`` and ``f_ext`` are as there, ``p_old`` is (S, ne, 3), ``mats`` holds
    the S * ne elements system after system and ``strain_offset`` broadcasts
    to (S, ne, 3).  Each correction solves the tangent operators of the given
    systems by ``solve_tangent(systems, moduli, rhs, eta)``, which returns
    their corrections (k, free dofs) from their algorithmic moduli
    (k, ne, 3, 3) and residual rows (k, n), each only to the relative
    tolerance eta of ``forcing_term`` (Dembo, Eisenstat & Steihaug 1982).
    That depends on the system's own residual only, so a system runs the
    same iterates in any batch.  The caller owns the linear solver: Jacobi
    CG for ``solve_eps``, ``cellproblem.CellStack.solve`` for the cells.

    Returns (z, p_new, iterations, residuals): stresses and plastic strains
    (S, ne, 3), the summed iteration count and the final residual norms (S,).
    """
    n_systems = u.shape[0]
    ne = space.mesh.n_elements
    offset = np.broadcast_to(strain_offset, (n_systems, ne, KDIM))

    # With every system taking part, the materials here and the accepted state
    # in ``newton_iterate`` are used whole rather than copied: the copies cost
    # about 6 % of cell_mc's wall time (one cell of 2,048 elements).
    def evaluate(systems):
        strains = offset[systems] + space.element_strains(u[systems])
        sub = mats if systems.size == n_systems \
            else mats.take((systems[:, None] * ne + np.arange(ne)).ravel())
        z, f_int, p_new, moduli = return_map_state(space, sub, strains, p_old[systems], dt, delta)
        return z, f_int, np.zeros(systems.size), p_new, moduli

    def solve(systems, rhs, state, res, scale, tol):
        return solve_tangent(systems, state[4][systems], rhs, forcing_term(res, scale, tol))

    (z, _, _, p_new, _), iters, res = newton_iterate(space, u, f_ext, rtol, evaluate, solve)
    return z, p_new, int(iters.sum()), res


def solve_eps(config):
    """Solve the heterogeneous plasticity problem on the configured mesh.

    Returns a PlasticTrajectory whose fields satisfy, per element and step,
    the additive strain decomposition, Hooke's law, and the discrete flow
    rule up to solver tolerances.
    """
    mesh = config.mesh
    space = P1Space(mesh)
    mats = MaterialArrays.from_medium(config.medium, mesh.barycenters, config.epsilon)
    times = config.time_grid
    u_hist = np.zeros((times.size, mesh.n_vertices, 2))
    sig_hist = np.zeros((times.size, mesh.n_elements, KDIM))
    p_hist = np.zeros((times.size, mesh.n_elements, KDIM))
    iters, residuals = [], []

    def solve_tangent(_, moduli, rhs, eta):
        A = space.assemble_operator(moduli[0])
        return pcg(A, rhs[0, space.free_dofs], jacobi(A), rtol=eta[0])[0][None]

    p = np.zeros((mesh.n_elements, KDIM))
    for m, dt, u, f_ext in dirichlet_steps(space, config, u_hist):
        with at_step(m):
            z, p, n_it, res = newton_solve(space, mats, 0.0, p[None], u[None], dt,
                                           config.delta, f_ext, config.newton_rtol,
                                           solve_tangent)
        p = p[0]
        sig_hist[m] = z[0]
        p_hist[m] = p
        iters.append(n_it)
        residuals.append(res[0])

    return PlasticTrajectory(times=times, u=u_hist, sigma=sig_hist,
                             e=mats.apply_compliance(sig_hist), p=p_hist,
                             newton_iters=iters, residual_norms=residuals,
                             space=space, mats=mats)


def average_stress(traj):
    """Volume-weighted element-stress average per time step, (steps+1, 3)."""
    return traj.space.volume_average(traj.sigma)


@dataclass
class ResidualReport:
    """Norms, constitutive residuals and the discrete energy balance.

    ``max_decomposition_residual`` is the largest |eps(u) - e - p| and
    ``max_constitutive_residual`` (Hooke's law) the largest
    |C (eps(u) - p) - sigma| of an element, each relative to 1 plus the
    magnitudes of the terms it compares.  Since ``solve_eps`` defines the
    elastic strains as C^-1 sigma, a stress off Hooke's law shows in both.
    """

    norms: dict
    data_norm: float
    ratio: float
    max_decomposition_residual: float
    max_constitutive_residual: float
    max_flow_residual: float
    energy_balance_defect: float
    energy_increment_gap: float


def _h1_time_l2_norm(times, fields, weights):
    """Discrete H1(0,T; L2) norm of per-step fields (steps+1, n, k)."""
    dt = np.diff(times)
    w = weights / weights.sum()
    sq = np.einsum("e,mek->m", w, fields**2)
    rate = np.diff(fields, axis=0) / dt[:, None, None]
    rate_sq = np.einsum("e,mek->m", w, rate**2)
    mid = 0.5 * (sq[1:] + sq[:-1])
    return float(np.sqrt(np.sum(dt * (mid + rate_sq))))


def residual_report(traj, config):
    """Diagnostics of a trajectory: norms, pointwise residuals, energy balance.

    The energy balance defect tests the telescoped discrete identity that the
    backward-Euler scheme satisfies exactly up to solver tolerances; the
    increment gap is the quadratic remainder separating it from the
    continuous-time identity and shrinks linearly with the step size.
    """
    space, mats = traj.space, traj.mats
    mesh = space.mesh
    vol = mesh.volumes
    times = traj.times

    u_eff = traj.u
    if config.dirichlet.offset is not None:
        u_eff = traj.u - np.stack([config.dirichlet.offset_at(t) for t in times])[:, None]

    strains = space.element_strains(space.pack_field(u_eff))
    decomp = np.abs(strains - traj.e - traj.p).max(axis=-1)
    scale = 1.0 + np.abs(traj.e).max(axis=-1) + np.abs(traj.p).max(axis=-1)
    max_decomp = float((decomp / scale).max())

    stress = mats.apply_stiffness(strains - traj.p)
    hooke = np.abs(stress - traj.sigma).max(axis=-1) \
        / (1.0 + np.abs(stress).max(axis=-1) + np.abs(traj.sigma).max(axis=-1))

    tau = traj.sigma - mats.hardening[None, :, None] * traj.p
    flow = FlowRule(VON_MISES, mats.yield_stress).regularized(config.delta)
    rates = np.diff(traj.p, axis=0) / np.diff(times)[:, None, None]
    grads = flow.gradient(tau[1:])
    flow_res = np.max(np.abs(rates - grads).max(axis=(1, 2))
                      / (1.0 + np.abs(grads).max(axis=(1, 2))), initial=0.0)

    u_at_bary = u_eff[:, mesh.simplices].mean(axis=2)
    norms = {
        "u": _h1_time_l2_norm(times, u_at_bary, vol),
        "e": _h1_time_l2_norm(times, traj.e, vol),
        "p": _h1_time_l2_norm(times, traj.p, vol),
        "sigma": _h1_time_l2_norm(times, traj.sigma, vol),
    }

    data_norm = config.dirichlet.path.h1_norm()
    if config.load is not None:
        loads = np.stack([np.asarray(config.load(t, mesh.barycenters), dtype=float)
                          for t in times])
        data_norm += _h1_time_l2_norm(times, loads, vol)
        f_ext = np.stack([space.load_vector(values) for values in loads])
    else:
        f_ext = np.zeros((times.size, space.n_packed))

    # discrete energy bookkeeping
    a_e = mats.apply_stiffness(traj.e)
    energy = 0.5 * np.einsum("e,mek,mek->m", vol, traj.e, a_e) \
        + 0.5 * np.einsum("e,mek,mek->m", vol,
                          traj.p, mats.hardening[None, :, None] * traj.p)
    # per step: the increment dU of the boundary data, its strains, and the
    # increment of u - U, on which the load does work
    dU = np.diff(np.stack([_boundary_values(config, t, mesh.vertices) for t in times]),
                 axis=0)
    bc_strains = space.element_strains(space.pack_field(dU))
    free_increments = space.pack_field(np.diff(u_eff, axis=0) - dU)
    defect_tight = 0.0
    gap_running = 0.0
    scale_acc = abs(energy[-1]) + 1e-300
    for m in range(1, times.size):
        dp = traj.p[m] - traj.p[m - 1]
        de = traj.e[m] - traj.e[m - 1]
        diss = np.einsum("e,ek,ek->", vol, tau[m], dp)
        quad = 0.5 * np.einsum("e,ek,ek->", vol, de, mats.apply_stiffness(de)) \
            + 0.5 * np.einsum("e,ek,ek->", vol, dp, mats.hardening[:, None] * dp)
        work_bc = np.einsum("e,ek,ek->", vol, traj.sigma[m], bc_strains[m - 1])
        work_f = inner(f_ext[m], free_increments[m - 1])
        rhs = work_bc + work_f
        defect_tight += (energy[m] - energy[m - 1]) + diss + quad - rhs
        gap_running += quad
        scale_acc += abs(diss) + abs(rhs) + abs(quad)

    return ResidualReport(
        norms=norms,
        data_norm=float(data_norm),
        ratio=float((norms["u"] + norms["e"] + norms["p"] + norms["sigma"])
                    / max(data_norm, 1e-300)),
        max_decomposition_residual=max_decomp,
        max_constitutive_residual=float(hooke.max()),
        max_flow_residual=float(flow_res),
        energy_balance_defect=float(abs(defect_tight) / scale_acc),
        energy_increment_gap=float(gap_running / scale_acc),
    )

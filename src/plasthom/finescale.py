"""Implicit solver for the heterogeneous quasi-static plasticity problem.

The displacement satisfies the quasi-static balance -div(sigma) = f with
Dirichlet data, Hooke's law sigma = C^-1 e, the additive split of the
symmetrized gradient into e + p, and the regularized von Mises flow rule
for p with kinematic hardening.  Oscillating coefficients are read from a
sampled medium at the element barycenters at scale eps.

Time discretization is backward Euler; each step runs a global Newton
iteration on the displacement with the element-level plastic update solved
in closed form and a consistent algorithmic tangent.  The scheme never looks
ahead in time, so truncating the data after a step reproduces the earlier
steps bit-identically.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import ConfigurationError, NumericalError, at_step, positive_number
from .fem import P1Space, jacobi, pcg
from .flowrules import VON_MISES, FlowRule
from .loading import checked_boundary, checked_time_grid
from .returnmap import MaterialArrays, plastic_step
from .tensors import KDIM, inner, norm, unpack

NEWTON_MAXITER = 50
# Forcing term of the inexact Newton iteration (see ``forcing_term``): a
# system's correction is solved to the relative CG tolerance
# FORCING_GAMMA * res / scale, loosened to Kelley's safeguard 0.5 * tol / res
# once that is all the correction needs to reach the Newton tolerance tol,
# and clipped to [cg_rtol, FORCING_MAX].
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
    cg_rtol: float = 1e-12  # floor of the Newton forcing term

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


def forcing_term(res, scale, tol, floor):
    """Relative CG tolerance eta of a Newton correction at residual norm ``res``.

    eta = clip(max(FORCING_GAMMA * res / scale, 0.5 * tol / res), floor, FORCING_MAX),
    with ``scale`` and ``tol`` from ``newton_tolerance`` and ``floor`` the CG floor.
    The first term shrinks with the residual, which keeps the local convergence
    fast (Eisenstat & Walker 1996).  The second is Kelley's terminal safeguard
    (Iterative Methods for Linear and Nonlinear Equations, 1995, sec. 6.3.2): a
    correction solved to eta leaves a linearized residual of eta * res, and
    the Newton test needs no less than half of tol, so the last correction of a
    step is not solved tighter than that.  Entries broadcast; every system's
    eta depends on its own residual only.
    """
    eta = np.maximum(FORCING_GAMMA * res / scale, 0.5 * tol / res)
    return np.minimum(np.maximum(eta, floor), FORCING_MAX)


def newton_solve(space, mats, strain_offset, p_old, u, dt, delta,
                 f_ext, rtol, cg_rtol, preconditioners=None):
    """Global Newton iterations of one backward-Euler step for S systems at once.

    The systems share ``space`` and differ in their data: ``u`` (S, n)
    holds packed vectors with the Dirichlet rows already set and is updated
    in place on the free dofs; ``p_old`` is (S, ne, 3), ``mats`` holds the
    S * ne elements system after system, and ``strain_offset`` and
    ``f_ext`` broadcast to (S, ne, 3) and (S, n).  Each correction solves
    the tangent operator on the free dofs (``P1Space.assemble_operator``).
    On a ``mesh_torus`` space the solves are periodic: all dofs are free and
    the translation kernel is projected out of the updates.

    Every system runs its own Newton iteration in lock step with the others:
    its own convergence test (``newton_tolerance``), and, if a full tangent
    step fails to reduce its residual, its own correction damped by halving.  A
    converged system is frozen and no longer evaluated, so it runs the
    iterate sequence it would run alone.  At most NEWTON_MAXITER iterations
    run.

    The Newton iteration is inexact (Dembo, Eisenstat & Steihaug 1982):
    system s solves its correction by CG only to the relative tolerance
    eta_s = clip(max(FORCING_GAMMA * res_s / scale_s, 0.5 * tol_s / res_s),
    cg_rtol, FORCING_MAX) of ``forcing_term``, with res_s its current
    residual norm and scale_s, tol_s the scale and tolerance of its
    convergence test.  The first term shrinks with the residual (Eisenstat &
    Walker 1996); the second, Kelley's terminal safeguard, keeps the last
    correction of a step from being solved tighter than the test needs.  Both
    depend on the system's own residual only, so a system runs the same
    iterates in any batch.  The convergence test and the line search do not
    depend on eta, so the converged state meets the same tolerance as with
    exact solves.  Periodic systems go to ``fem.solve_periodic_systems``,
    which solves small ones directly and checks those at ``fem.CG_RTOL``
    whatever eta is.  Larger ones run CG with the DFT reference
    preconditioner in the system's slot of ``preconditioners``, one slot
    per system that its owner keeps (``cellproblem.CellStack``, see
    ``fem.solve_periodic_systems``); Dirichlet systems need none.  A failed
    solve raises NumericalError without a step, which the time loop
    attaches (``errors.at_step``).

    Returns (z, p_new, iterations, residuals, moduli): stresses and
    plastic strains (S, ne, 3), the sum of the systems' iteration counts
    (an int), the final residual norms (S,) and the algorithmic moduli
    (S, ne, 3, 3) of the last accepted evaluation, i.e. of the converged
    state.
    """
    n_systems = u.shape[0]
    ne = space.mesh.n_elements
    free = space.free_dofs
    periodic = bool(space.mesh.grid_size)
    offset = np.broadcast_to(strain_offset, (n_systems, ne, KDIM))
    f_ext = np.broadcast_to(f_ext, u.shape)
    f_norm = norm(f_ext[:, free])

    # With every system taking part, the materials and the accepted state are
    # used whole rather than copied: the copies cost about 9 % of the wall
    # time of fe2_macro (16 cells of 32 elements) and 6 % of cell_mc's (one
    # cell of 2,048 elements).
    def evaluate(systems):
        strains = offset[systems] + space.element_strains(u[systems])
        sub = mats if systems.size == n_systems \
            else mats.take((systems[:, None] * ne + np.arange(ne)).ravel())
        z, p_new, moduli = plastic_step(strains.reshape(-1, KDIM),
                                        p_old[systems].reshape(-1, KDIM),
                                        sub, dt, delta)
        z = z.reshape(-1, ne, KDIM)
        f_int = space.internal_forces(z)
        res = norm((f_ext[systems] - f_int)[:, free])
        return z, p_new.reshape(z.shape), moduli.reshape(-1, ne, KDIM, KDIM), f_int, res

    def solve(systems):
        rhs = f_ext[systems] - f_int[systems]
        eta = forcing_term(res[systems], scale[systems], tol[systems], cg_rtol)
        if periodic:
            return fem.solve_periodic_systems(space, moduli[systems], rhs, eta,
                                              [preconditioners[s] for s in systems])
        updates = []
        for s, b, eta_s in zip(systems, rhs, eta):  # Jacobi CG, one system at a time
            A = space.assemble_operator(moduli[s])
            updates.append(pcg(A, b[free], jacobi(A), rtol=eta_s)[0])
        return np.stack(updates)

    active = np.arange(n_systems)
    z, p_new, moduli, f_int, res = evaluate(active)
    if not np.all(np.isfinite(res)):
        raise NumericalError("the equilibrium residual is not finite",
                             residual=float(np.max(res)))
    scale, tol = newton_tolerance(space, z, res, f_norm, rtol)
    iters = np.zeros(n_systems, dtype=int)
    for _ in range(NEWTON_MAXITER):
        active = active[res[active] > tol[active]]
        iters[active] += 1
        if active.size == 0:
            return z, p_new, int(iters.sum()), res, moduli
        du = solve(active)
        alpha = np.ones(active.size)
        trying = np.arange(active.size)       # positions in ``active`` still searching
        for _ in range(11):
            systems = active[trying]
            correction = alpha[trying, None] * du[trying]
            u[np.ix_(systems, free)] += correction
            z_try, p_try, moduli_try, f_try, res_try = evaluate(systems)
            accept = (res_try < res[systems]) | (res_try <= tol[systems])
            if accept.all() and systems.size == n_systems:
                z, p_new, moduli, f_int, res = z_try, p_try, moduli_try, f_try, res_try
            else:
                done = systems[accept]
                z[done], p_new[done], moduli[done] = \
                    z_try[accept], p_try[accept], moduli_try[accept]
                f_int[done], res[done] = f_try[accept], res_try[accept]
                u[np.ix_(systems[~accept], free)] -= correction[~accept]
            trying = trying[~accept]
            alpha[trying] *= 0.5
            if trying.size == 0:
                break
        else:
            raise NumericalError(
                "Newton step failed to reduce the equilibrium residual",
                residual=float(np.max(res[active[trying]])),
            )
    raise NumericalError("Newton did not converge", residual=float(np.max(res[active])))


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

    p = np.zeros((mesh.n_elements, KDIM))
    for m, dt, u, f_ext in dirichlet_steps(space, config, u_hist):
        with at_step(m):
            z, p, n_it, res, _ = newton_solve(space, mats, 0.0, p[None], u[None], dt,
                                              config.delta, f_ext, config.newton_rtol,
                                              config.cg_rtol)
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

    ``max_constitutive_residual`` (Hooke's law) reads 0.0 on every trajectory of
    ``solve_eps``, whose elastic strains are C^-1 sigma by definition; a stress
    off Hooke's law shows in ``max_decomposition_residual`` instead.
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

    hooke = np.abs(traj.e - mats.apply_compliance(traj.sigma)).max()

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
        max_constitutive_residual=float(hooke),
        max_flow_residual=float(flow_res),
        energy_balance_defect=float(abs(defect_tight) / scale_acc),
        energy_increment_gap=float(gap_running / scale_acc),
    )

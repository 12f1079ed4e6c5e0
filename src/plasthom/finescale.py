"""Implicit solver for the heterogeneous quasi-static plasticity problem.

The displacement satisfies the quasi-static balance -div(sigma) = f with
Dirichlet data, Hooke's law sigma = C^-1 e, the additive split of the
symmetrized gradient into e + p, and the regularized flow rule for p with
kinematic hardening.  Oscillating coefficients are read from a sampled
medium at the element barycenters at scale eps.

Time discretization is backward Euler; each step runs a global Newton
iteration on the displacement with the element-level plastic update solved
in closed form and a consistent algorithmic tangent.  The scheme never looks
ahead in time, so truncating the data after a step reproduces the earlier
steps bit-identically.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import ConfigurationError, NumericalError, positive_number
from .fem import P1Space, jacobi, pcg, solve_elastic
from .flowrules import VON_MISES, FlowRule
from .loading import checked_boundary, checked_time_grid
from .returnmap import MaterialArrays, plastic_step
from .tensors import KDIM, unpack

NEWTON_MAXITER = 50


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
    rule_kind: str = VON_MISES
    newton_rtol: float = 1e-8
    cg_rtol: float = 1e-12

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


def _impose_dirichlet(space, config, t, u):
    """Set the constrained rows of the packed vector ``u`` to the data at time t."""
    bc_field = space.zero_field()
    idx = space.dirichlet_vertices
    bc_field[idx] = _boundary_values(config, t, space.mesh.vertices[idx])
    packed_bc = space.pack_field(bc_field)
    u[~space.free_mask] = packed_bc[~space.free_mask]


def _add_boundary_offset(config, times, u_hist):
    """Add the AffineBoundary constant a(t_m) to the displacements of steps m >= 1."""
    if config.dirichlet.offset is not None:
        for m in range(1, times.size):
            u_hist[m] = u_hist[m] + config.dirichlet.offset_at(times[m])


def _load_vector(space, config, t):
    if config.load is None:
        return np.zeros(space.n_packed)
    values = np.asarray(config.load(t, space.mesh.barycenters), dtype=float)
    return space.load_vector(values)


def _norms(rows):
    """Euclidean norm of each row, by the dot product ``np.linalg.norm`` takes of a vector."""
    return np.sqrt([np.dot(row, row) for row in rows])


def newton_solve(space, mats, strain_offset, p_old, u, dt, delta, kind,
                 f_ext, rtol, cg_rtol, step=None):
    """Global Newton iterations of one backward-Euler step for S systems at once.

    The systems share ``space`` and differ in their data: ``u`` (S, n)
    holds packed vectors with the Dirichlet rows already set and is updated
    in place on the free dofs; ``p_old`` is (S, ne, 3), ``mats`` holds the
    S * ne elements system after system, and ``strain_offset`` and
    ``f_ext`` broadcast to (S, ne, 3) and (S, n).  On a ``mesh_torus``
    space the solves are periodic: all dofs are free and the translation
    kernel is projected out of the updates.

    Every system runs its own Newton iteration in lock step with the others:
    its own convergence test and roundoff floor, and, if a full tangent step
    fails to reduce its residual, its own correction damped by halving.  A
    converged system is frozen and no longer evaluated, so it runs the
    iterate sequence it would run alone.  At most NEWTON_MAXITER iterations
    run.  Returns (z, p_new, iterations, residuals, moduli): stresses and
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
    f_norm = _norms(f_ext[:, free])

    # With every system taking part, the materials and the accepted state are
    # used whole rather than copied: the copies cost about 9 % of the wall
    # time of fe2_macro (16 cells of 32 elements) and 6 % of cell_mc's (one
    # cell of 2,048 elements).
    def evaluate(systems):
        strains = offset[systems] + space.element_strains(space.unpack_field(u[systems]))
        sub = mats if systems.size == n_systems \
            else mats.take((systems[:, None] * ne + np.arange(ne)).ravel())
        z, p_new, moduli = plastic_step(strains.reshape(-1, KDIM),
                                        p_old[systems].reshape(-1, KDIM),
                                        sub, dt, delta, kind)
        z = z.reshape(-1, ne, KDIM)
        f_int = space.internal_forces(z)
        res = _norms((f_ext[systems] - f_int)[:, free])
        return z, p_new.reshape(z.shape), moduli.reshape(-1, ne, KDIM, KDIM), f_int, res

    def solve(systems):
        rhs = f_ext[systems] - f_int[systems]
        if periodic:
            return fem.solve_periodic_systems(space, moduli[systems], rhs, rtol=cg_rtol,
                                              step=step)
        updates = []
        for s, b in zip(systems, rhs):  # Jacobi CG, one system at a time
            A = space.assemble_operator(moduli[s])
            Aff = A[free][:, free]
            updates.append(pcg(Aff, b[free], jacobi(Aff), rtol=cg_rtol)[0])
        return np.stack(updates)

    active = np.arange(n_systems)
    z, p_new, moduli, f_int, res = evaluate(active)
    if not np.all(np.isfinite(res)):
        raise NumericalError("the equilibrium residual is not finite", step=step,
                             residual=float(np.max(res)))
    floor = 1e-14 * (_norms(space.force_scale(z)[:, free]) + f_norm)
    tol = rtol * np.maximum(res, f_norm) + floor
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
                step=step, residual=float(np.max(res[active[trying]])),
            )
    raise NumericalError("Newton did not converge", step=step,
                         residual=float(np.max(res[active])))


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
    steps = times.size - 1

    if config.load is not None:
        f0 = np.asarray(config.load(0.0, mesh.barycenters))
        if np.abs(f0).max() > 1e-12:
            raise ConfigurationError("load must vanish at t=0")

    u_hist = np.zeros((steps + 1, mesh.n_vertices, 2))
    sig_hist = np.zeros((steps + 1, mesh.n_elements, KDIM))
    p_hist = np.zeros((steps + 1, mesh.n_elements, KDIM))
    iters, residuals = [], []

    u = np.zeros(space.n_packed)
    p = np.zeros((mesh.n_elements, KDIM))
    for m in range(1, steps + 1):
        t, dt = times[m], times[m] - times[m - 1]
        _impose_dirichlet(space, config, t, u)
        f_ext = _load_vector(space, config, t)
        z, p, n_it, res, _ = newton_solve(
            space, mats, 0.0, p[None], u[None], dt, config.delta, config.rule_kind,
            f_ext, config.newton_rtol, config.cg_rtol, step=m,
        )
        p = p[0]
        u_hist[m] = space.unpack_field(u)
        sig_hist[m] = z[0]
        p_hist[m] = p
        iters.append(n_it)
        residuals.append(res[0])

    _add_boundary_offset(config, times, u_hist)
    e_hist = np.stack([mats.apply_compliance(sig_hist[m]) for m in range(steps + 1)])
    return PlasticTrajectory(times=times, u=u_hist, sigma=sig_hist, e=e_hist,
                             p=p_hist, newton_iters=iters, residual_norms=residuals,
                             space=space, mats=mats)


def average_stress(traj):
    """Volume-weighted element-stress average per time step, (steps+1, 3)."""
    w = traj.space.mesh.volumes
    return np.einsum("e,mek->mk", w, traj.sigma) / w.sum()


def elastic_reference(config):
    """Per-step linear-elastic displacements with the same data (oracle hook)."""
    mesh = config.mesh
    space = P1Space(mesh)
    mats = MaterialArrays.from_medium(config.medium, mesh.barycenters, config.epsilon)
    moduli = mats.stiffness_moduli()
    out = [np.zeros((mesh.n_vertices, 2))]
    for t in config.time_grid[1:]:
        g = lambda pts, t=t: _boundary_values(config, t, pts)
        f = None if config.load is None else (lambda pts, t=t: config.load(t, pts))
        out.append(solve_elastic(space, moduli, f=f, g=g, rtol=config.cg_rtol))
    return np.stack(out)


@dataclass
class ResidualReport:
    """Norms, constitutive residuals and the discrete energy balance."""

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
        u_eff = traj.u - np.stack([np.tile(config.dirichlet.offset_at(t),
                                           (mesh.n_vertices, 1)) for t in times])

    strains = np.stack([space.element_strains(u_eff[m]) for m in range(times.size)])
    decomp = np.abs(strains - traj.e - traj.p).max(axis=-1)
    scale = 1.0 + np.abs(traj.e).max(axis=-1) + np.abs(traj.p).max(axis=-1)
    max_decomp = float((decomp / scale).max())

    hooke = np.abs(traj.e - np.stack([mats.apply_compliance(traj.sigma[m])
                                      for m in range(times.size)])).max()

    tau = traj.sigma - mats.hardening[None, :, None] * traj.p
    flow = FlowRule(config.rule_kind, mats.yield_stress).regularized(config.delta)
    flow_res = 0.0
    for m in range(1, times.size):
        dt = times[m] - times[m - 1]
        rates = (traj.p[m] - traj.p[m - 1]) / dt
        grads = flow.gradient(tau[m])
        flow_res = max(flow_res, float(np.abs(rates - grads).max()
                                       / (1.0 + float(np.abs(grads).max()))))

    u_at_bary = np.stack([u_eff[m][mesh.simplices].mean(axis=1)
                          for m in range(times.size)])
    norms = {
        "u": _h1_time_l2_norm(times, u_at_bary, vol),
        "e": _h1_time_l2_norm(times, traj.e, vol),
        "p": _h1_time_l2_norm(times, traj.p, vol),
        "sigma": _h1_time_l2_norm(times, traj.sigma, vol),
    }

    data_norm = config.dirichlet.path.h1_norm()
    if config.load is not None:
        loads = np.stack([np.asarray(config.load(t, mesh.barycenters)) for t in times])
        data_norm += _h1_time_l2_norm(times, loads, vol)

    # discrete energy bookkeeping
    a_e = np.stack([mats.apply_stiffness(traj.e[m]) for m in range(times.size)])
    energy = 0.5 * np.einsum("e,mek,mek->m", vol, traj.e, a_e) \
        + 0.5 * np.einsum("e,mek,mek->m", vol,
                          traj.p, mats.hardening[None, :, None] * traj.p)
    defect_tight = 0.0
    gap_running = 0.0
    scale_acc = abs(energy[-1]) + 1e-300
    for m in range(1, times.size):
        dp = traj.p[m] - traj.p[m - 1]
        de = traj.e[m] - traj.e[m - 1]
        diss = np.einsum("e,ek,ek->", vol, tau[m], dp)
        quad = 0.5 * np.einsum("e,ek,ek->", vol, de, mats.apply_stiffness(de)) \
            + 0.5 * np.einsum("e,ek,ek->", vol, dp, mats.hardening[:, None] * dp)
        du = u_eff[m] - u_eff[m - 1]
        dU = _boundary_values(config, times[m], mesh.vertices) \
            - _boundary_values(config, times[m - 1], mesh.vertices)
        work_bc = np.einsum("e,ek,ek->", vol, traj.sigma[m],
                            space.element_strains(dU))
        f_ext = _load_vector(space, config, times[m])
        work_f = f_ext @ space.pack_field(du - dU)
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

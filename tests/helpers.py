"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written from scratch against the defining
equations, without touching the package's return-map or assembly code, so a
bug in the production path cannot hide in its own oracle.  The exceptions
are ``elastic_reference``, which runs the package's linear-elastic P1 solve,
the oracle that the nonlinear plastic solver must reproduce in the elastic
limit, and the FE2 cell helpers ``converge_cells`` and
``central_differences``, which run the cells they are given.
"""

import math

import numpy as np

SQRT2 = np.sqrt(2.0)


def dev2(c):
    tr = c[..., 0] + c[..., 1]
    out = np.array(c, dtype=float)
    out[..., 0] -= tr / 2
    out[..., 1] -= tr / 2
    return out


def plane_strain_stiffness_matrix(E, nu):
    """Dense Mandel stiffness from the Lame form, assembled entry by entry."""
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    m = 2 * mu * np.eye(3)
    m[0, 0] += lam
    m[0, 1] += lam
    m[1, 0] += lam
    m[1, 1] += lam
    return m


def reference_pointwise_response(E, nu, sigma_y, hardening, delta, path_fn,
                                 times, refine=100):
    """Fine-step implicit integration of the single-point evolution.

    Each refined backward-Euler step solves the full three-component implicit
    equation with a generic Newton iteration (forward-difference Jacobian,
    backtracking on the residual norm, no radial reduction), so this is an
    independent reference for homogeneous-medium trajectories.  The
    arithmetic runs on Python floats, which is far cheaper than numpy on
    3-vectors.  Returns (stresses, plastic strains) sampled on the coarse grid.
    """
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))

    def stiff(c):
        """Plane-strain stress lam tr(c) I + 2 mu c, Mandel components."""
        tr = c[0] + c[1]
        return [lam * tr + 2 * mu * c[0], lam * tr + 2 * mu * c[1], 2 * mu * c[2]]

    def flow_gradient(tau):
        half_tr = (tau[0] + tau[1]) / 2
        d = [tau[0] - half_tr, tau[1] - half_tr, tau[2]]
        n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        if n == 0.0:
            return [0.0, 0.0, 0.0]
        mag = max(n - sigma_y, 0.0) / delta
        return [mag / n * di for di in d]

    def norm(v):
        return math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)

    def newton(residual, x):
        """Root of ``residual`` from ``x``; stops once a step is below 1e-14 relative."""
        r = residual(x)
        for _ in range(100):
            h = 1e-8 * max(1.0, *map(abs, x))
            cols = [residual([x[i] + h * (i == j) for i in range(3)]) for j in range(3)]
            jac = [[(cols[j][i] - r[i]) / h for j in range(3)] for i in range(3)]
            step = np.linalg.solve(jac, r).tolist()
            if norm(step) <= 1e-14 * norm(x):
                return [xi - si for xi, si in zip(x, step)]
            # the flow gradient has kinks, across which full steps can cycle
            t = 1.0
            while norm(trial := residual([xi - t * si for xi, si in zip(x, step)])) \
                    >= norm(r) and t > 1e-6:
                t /= 2
            x, r = [xi - t * si for xi, si in zip(x, step)], trial
        return x

    p = [0.0, 0.0, 0.0]
    out_s, out_p = [p], [p]
    for m in range(len(times) - 1):
        sub = np.linspace(times[m], times[m + 1], refine + 1)
        for t1 in sub[1:]:
            dt = sub[1] - sub[0]
            xi = path_fn(t1).tolist()

            def implicit(pn):
                tau = [s - hardening * q for s, q in
                       zip(stiff([a - q for a, q in zip(xi, pn)]), pn)]
                return [q - p0 - dt * g for q, p0, g in zip(pn, p, flow_gradient(tau))]

            p_new = newton(implicit, p)
            if norm(implicit(p_new)) > 1e-11:
                raise RuntimeError(f"oracle Newton iteration failed at t={t1}")
            p = p_new
        out_p.append(p)
        out_s.append(stiff([a - q for a, q in zip(path_fn(times[m + 1]).tolist(), p)]))
    return np.array(out_s), np.array(out_p)


def laminate_elastic_response(layer_params, xi_mandel):
    """Exact elastic response of a layered medium under a mean strain.

    Layers are orthogonal to the x1 axis with equal volume fractions;
    ``layer_params`` is a list of (E, nu).  Tractions through layer
    interfaces are continuous, the in-layer strain component along x2 is
    shared, and the corrector gradient averages to zero; that fixes a 2x2
    linear system for the transmitted traction components.  Returns the
    per-layer stresses (Mandel) and the averaged stress.
    """
    n = len(layer_params)
    mats = [plane_strain_stiffness_matrix(E, nu) for E, nu in layer_params]

    # per layer and for unit tractions: strain = xi + sym(phi' (x) e1),
    # phi' = (a, b):  extra Mandel strain (a, 0, b/sqrt(2))
    def layer_solution(A, s1, s2):
        # solve [A (xi + extra)]_0 = s1, [A (xi + extra)]_2 = s2/sqrt2 scaling:
        # Mandel row 0 is the 11 stress, row 2 is sqrt2 * 12 stress
        base = A @ xi_mandel
        M = np.array([[A[0, 0], A[0, 2] / SQRT2],
                      [A[2, 0], A[2, 2] / SQRT2]])
        rhs = np.array([s1 - base[0], SQRT2 * s2 - base[2]])
        a, b = np.linalg.solve(M, rhs)
        return np.array([a, b])

    # mean of phi' over layers must vanish: linear in (s1, s2)
    def mean_phi(s1, s2):
        acc = np.zeros(2)
        for A in mats:
            acc += layer_solution(A, s1, s2)
        return acc / n

    base = mean_phi(0.0, 0.0)
    col1 = mean_phi(1.0, 0.0) - base
    col2 = mean_phi(0.0, 1.0) - base
    s = np.linalg.solve(np.stack([col1, col2], axis=1), -base)
    s1, s2 = s

    stresses = []
    for A in mats:
        a, b = layer_solution(A, s1, s2)
        extra = np.array([a, 0.0, b / SQRT2])
        stresses.append(A @ (xi_mandel + extra))
    stresses = np.array(stresses)
    return stresses, stresses.mean(axis=0)


def h1_time_norm(times, fields, weights):
    """Discrete H1(0,T; weighted-L2) norm of (steps+1, n, comps) fields."""
    dt = np.diff(times)
    w = weights / weights.sum()
    flat = fields.reshape(fields.shape[0], fields.shape[1], -1)
    sq = np.einsum("e,mek->m", w, flat**2)
    rate = np.diff(flat, axis=0) / dt[:, None, None]
    rate_sq = np.einsum("e,mek->m", w, rate**2)
    return float(np.sqrt(np.sum(dt * (0.5 * (sq[1:] + sq[:-1]) + rate_sq))))


def shear_path(amplitude, T, steps, unload_to=None):
    """Pure-shear ramp (optionally with partial unloading) as a StrainPath."""
    from plasthom.loading import StrainPath
    from plasthom.tensors import pack

    direction = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
    if unload_to is None:
        return StrainPath.ramp(amplitude * direction, T, steps=steps)
    times = np.linspace(0.0, T, steps + 1)
    half = T / 2
    scale = np.where(times <= half, times / half,
                     1.0 + (unload_to - 1.0) * (times - half) / half)
    return StrainPath(times, np.outer(scale * amplitude, direction))



def shear_cycle(amplitude):
    """Pure shear 0 -> a -> 0 -> -a -> 0, linear between knots t = 0, 1/4, ..., 1."""
    from plasthom.loading import StrainPath
    from plasthom.tensors import pack

    direction = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return StrainPath(np.linspace(0.0, 1.0, 5),
                      np.outer(amplitude * np.array([0.0, 1.0, 0.0, -1.0, 0.0]), direction))


class SwappedMedium:
    """Test medium: ``medium`` read at swapped points (y, x), its mirror image
    in the diagonal."""

    def __init__(self, medium):
        self.medium = medium

    def parameters_at(self, points, eps=1.0):
        return self.medium.parameters_at(np.atleast_2d(points)[:, ::-1], eps)


def elastic_reference(config):
    """Per-step linear-elastic displacements with the data of an EpsProblemConfig.

    The oracle of the elastic limit: one P1 elastic solve per time step, with
    the medium's moduli at the element barycenters, the loads and the strain
    part xi(t) x of the Dirichlet data, at the config's CG tolerance.
    """
    from plasthom.fem import P1Space, solve_elastic
    from plasthom.returnmap import MaterialArrays
    from plasthom.tensors import unpack

    mesh = config.mesh
    space = P1Space(mesh)
    mats = MaterialArrays.from_medium(config.medium, mesh.barycenters, config.epsilon)
    moduli = mats.stiffness_moduli()
    out = [np.zeros((mesh.n_vertices, 2))]
    for t in config.time_grid[1:]:
        xi = unpack(config.dirichlet.path.at(t))
        g = lambda pts, xi=xi: pts @ xi.T
        f = None if config.load is None else (lambda pts, t=t: config.load(t, pts))
        out.append(solve_elastic(space, moduli, f=f, g=g, rtol=config.cg_rtol))
    return np.stack(out)


def converge_cells(cells, strains, dt, maxiter=20):
    """Converge every cell of an ElementCellState at the macro strains (E, 3)
    by its own joint iteration at fixed strains: ``advance``, then
    ``condense``, until every cell meets its Newton test.  Returns the
    stresses (E, 3), condensed tangents (E, 3, 3) and stress corrections
    (E, 3) there; the corrections of converged cells are 0."""
    for _ in range(maxiter):
        stresses, ratio = cells.advance(strains, dt)
        tangents, q = cells.condense()
        if ratio <= 1.0:
            return stresses, tangents, q
    raise AssertionError(f"cells did not converge in {maxiter} iterations")


def central_differences(cells, strains, dt, h):
    """dSigma_e/dxi_e of every element of an ElementCellState by central
    differences at the strains (E, 3) with steps h (E,); (E, 3, 3).  The
    oracle is ``CellStack.step``: each stress is that of cells converged by
    ``finescale.newton_solve`` from the committed state."""
    w = cells.space.mesh.volumes / cells.space.mesh.volumes.sum()

    def converged(xi):
        z, _, _ = cells.step(np.repeat(xi, cells.n_samples, axis=0), cells.phi.copy(), dt)
        return (w @ z).reshape(len(xi), cells.n_samples, 3).mean(axis=1)

    fd = np.empty((len(strains), 3, 3))
    for comp in range(3):
        step = h[:, None] * np.eye(3)[comp]
        fd[:, :, comp] = (converged(strains + step) - converged(strains - step)) \
            / (2 * h[:, None])
    return fd


def cellwise_ergodic_average(omega, g, L):
    """The box average that ``media.ergodic_average`` returns for ``omega``,
    summed cell by cell.

    Lists every cell of the box as one (n, 2) row of indices from a
    ``meshgrid`` and takes its weight as the product of its two axis
    overlaps, in that order, and reduces them against the values with the
    einsum of ``tensors.inner``, so the sum runs over the same products in
    the same order as the grid evaluation and must agree with it bit for bit.
    """
    offset = omega.translation - omega.shift
    axes = []
    for i in range(2):
        lo, hi = -L + offset[i], L + offset[i]
        cells = np.arange(int(np.floor(lo)), int(np.floor(hi)) + 1)
        weights = np.minimum(cells + 1.0, hi) - np.maximum(cells.astype(float), lo)
        keep = weights > 0
        axes.append((cells[keep], weights[keep]))
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    cells = np.stack([grid.ravel() for grid in grids], axis=-1)
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1)
    params = omega.law.cell_parameters(omega.seed, (cells[:, 0], cells[:, 1]))
    values = np.broadcast_to(np.asarray(g(params), dtype=float), weights.shape)
    return float(np.einsum("...i,...i->...", weights, values) / (2.0 * L) ** 2)

"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written from scratch against the defining
equations, without touching the package's return-map or assembly code, so a
bug in the production path cannot hide in its own oracle.
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
                                 times, refine=100, kind="von_mises"):
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
        if kind == "von_mises":
            mag = max(n - sigma_y, 0.0) / delta
        else:
            mag = min(n / delta, sigma_y)
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


def central_differences(cells, strains, dt, h):
    """dSigma_e/dxi_e of every element of an ElementCellState by central
    differences of its advance at the strains (E, 3) with steps h (E,); (E, 3, 3)."""
    fd = np.empty((len(strains), 3, 3))
    for comp in range(3):
        step = h[:, None] * np.eye(3)[comp]
        fd[:, :, comp] = (cells.advance(strains + step, dt)
                          - cells.advance(strains - step, dt)) / (2 * h[:, None])
    return fd

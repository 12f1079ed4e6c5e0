"""Element-wise backward-Euler plastic update (radial return) and tangent.

For shear-isotropic elasticity and scalar kinematic hardening the implicit
flow-rule update decouples into a hydrostatic part that stays elastic and a
deviatoric part whose magnitude solves a scalar equation with a closed-form
root.  Everything is vectorized over elements.

Unknowns per element, given the total driving strain xi and the previous
plastic strain p_old:

    z = A (xi - p),    p = p_old + dt * dPsi^delta(z - H p),

where A has deviatoric eigenvalue a_dev = 2 mu and volumetric eigenvalue
a_vol, and the regularized flow direction is radial in dev(z - H p).  Psi
is the von Mises rule, the indicator of the yield set { |dev s| <= sigma_y },
whose regularized gradient has magnitude max(|dev s| - sigma_y, 0) / delta;
it is the only flow rule the solvers run.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError
from .tensors import KDIM, lame_parameters


@dataclass(frozen=True)
class MaterialArrays:
    """Per-element isotropic material data for the vectorized planar update.

    Construction checks that all entries are positive (NaN fails).
    """

    a_vol: np.ndarray    # volumetric stiffness eigenvalue, 2*lam + 2*mu
    a_dev: np.ndarray    # deviatoric stiffness eigenvalue, 2*mu
    hardening: np.ndarray
    yield_stress: np.ndarray

    def __post_init__(self):
        if not (np.all(self.a_vol > 0) and np.all(self.a_dev > 0)):
            raise ConfigurationError("material field violates ellipticity")
        if not (np.all(self.hardening > 0) and np.all(self.yield_stress > 0)):
            raise ConfigurationError("hardening and yield stress must be positive")

    @classmethod
    def from_parameters(cls, E, nu, sigma_y, hardening):
        E = np.atleast_1d(np.asarray(E, dtype=float))
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        lam, mu = lame_parameters(E, nu)
        return cls(
            a_vol=2.0 * lam + 2.0 * mu,
            a_dev=2.0 * mu,
            hardening=np.broadcast_to(np.asarray(hardening, dtype=float), E.shape).copy(),
            yield_stress=np.broadcast_to(np.asarray(sigma_y, dtype=float), E.shape).copy(),
        )

    @classmethod
    def from_medium(cls, medium, points, eps=1.0):
        params = medium.parameters_at(points, eps)
        return cls.from_parameters(params["E"], params["nu"], params["sigma_y"],
                                   params["H"])

    @classmethod
    def concatenate(cls, parts):
        """The elements of ``parts``, one after the other."""
        return cls(**{f.name: np.concatenate([getattr(part, f.name) for part in parts])
                      for f in fields(cls)})

    def take(self, elements):
        """The data of the given elements, in their order."""
        return type(self)(**{f.name: getattr(self, f.name)[elements] for f in fields(self)})

    def stiffness_moduli(self):
        """Dense Mandel stiffness matrices per element, shape (n, 3, 3)."""
        return _moduli(self.a_vol, self.a_dev)

    def apply_stiffness(self, comps):
        sph = np.zeros_like(comps)
        tr = comps[..., :2].sum(axis=-1) / 2
        sph[..., :2] = tr[..., None]
        return self.a_vol[:, None] * sph + self.a_dev[:, None] * (comps - sph)

    def apply_compliance(self, comps):
        sph = np.zeros_like(comps)
        tr = comps[..., :2].sum(axis=-1) / 2
        sph[..., :2] = tr[..., None]
        return sph / self.a_vol[:, None] + (comps - sph) / self.a_dev[:, None]


_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]  # in the order of _moduli's entries


def _moduli(a_vol, a_dev, h=0.0, r=0.0, n_dir=None):
    """Mandel matrices a_vol SPH + (a_dev - h) DEV - (r - h) n n^T, shape (n, 3, 3).

    The coefficients are (n,) arrays or scalars, and ``n_dir`` holds the
    three (n,) components of n, or is None for r = h.  The six distinct
    entries are computed as flat arrays and each is written to both of its
    places, so every matrix is symmetric bit for bit.
    """
    vol, dev = 0.5 * a_vol, a_dev - h
    diagonal, off = vol + 0.5 * dev, vol - 0.5 * dev
    if n_dir is None:
        entries = [diagonal, off, 0.0, diagonal, 0.0, dev]
    else:
        n0, n1, n2 = n_dir
        c0, c1, c2 = (r - h) * n0, (r - h) * n1, (r - h) * n2
        entries = [diagonal - c0 * n0, off - c0 * n1, -(c0 * n2),
                   diagonal - c1 * n1, -(c1 * n2), dev - c2 * n2]
    out = np.empty((len(a_vol), KDIM, KDIM))
    for (i, j), entry in zip(_UPPER, entries):
        out[:, i, j] = entry
        if i != j:
            out[:, j, i] = entry
    return out


def plastic_step(xi_total, p_old, mats, dt, delta):
    """One implicit von Mises update for all elements at once.

    The plastic multiplier lambda = max(s_trial - sigma_y, 0) dt / (delta +
    (a_dev + H) dt) is the closed-form root of the scalar equation for the
    deviatoric magnitude, with s_trial = |a_dev dev(xi) - (a_dev + H) p_old|.

    Parameters
    ----------
    xi_total : (n, k) total driving strains (boundary strain plus corrector).
    p_old : (n, k) previous plastic strains (deviatoric).
    mats : MaterialArrays.
    dt, delta : time step and regularization.

    Returns
    -------
    z, p_new, moduli: stresses, updated plastic strains, and the consistent
    algorithmic moduli (n, k, k).
    """
    # every quantity is a list of flat (n,) component rows
    xi = np.asarray(xi_total, dtype=float).T
    p_old = np.asarray(p_old, dtype=float).T
    a_vol, a_dev = mats.a_vol, mats.a_dev
    half_trace = 0.5 * (xi[0] + xi[1])
    dev_xi = (xi[0] - half_trace, xi[1] - half_trace, xi[2])

    hard = a_dev + mats.hardening
    s_vec = [a_dev * d - hard * q for d, q in zip(dev_xi, p_old)]
    s_trial = np.sqrt(s_vec[0] * s_vec[0] + s_vec[1] * s_vec[1] + s_vec[2] * s_vec[2])

    rate = dt / (delta + hard * dt)   # d lambda / d s_trial where the element flows
    lam = np.maximum(s_trial - mats.yield_stress, 0.0) * rate
    safe = np.where(s_trial > 0.0, s_trial, 1.0)
    n_dir = [s / safe for s in s_vec]
    p_new = [q + lam * n for q, n in zip(p_old, n_dir)]
    z = [a_dev * (d - p) for d, p in zip(dev_xi, p_new)]
    z[0] += a_vol * half_trace
    z[1] += a_vol * half_trace
    z, p_new = np.stack(z, axis=-1), np.stack(p_new, axis=-1)

    active = lam > 0.0
    if not np.any(active):
        return z, p_new, mats.stiffness_moduli()
    # a_dev^2 lambda / s_trial across and a_dev^2 rate radially, both 0 where
    # the element stays elastic
    a_dev2 = a_dev**2
    hoop = a_dev2 * lam / safe
    radial = np.where(active, a_dev2 * rate, 0.0)
    return z, p_new, _moduli(a_vol, a_dev, hoop, radial, n_dir)

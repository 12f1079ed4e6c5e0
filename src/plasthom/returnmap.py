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
from .tensors import DEV_PROJECTOR, SPH_PROJECTOR, deviatoric, lame_parameters


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
        return (self.a_vol[:, None, None] * SPH_PROJECTOR
                + self.a_dev[:, None, None] * DEV_PROJECTOR)

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
    dev_xi = deviatoric(xi_total)
    sph_xi = xi_total - dev_xi

    hard = mats.a_dev + mats.hardening
    s_vec = mats.a_dev[:, None] * dev_xi - hard[:, None] * p_old
    s_trial = np.linalg.norm(s_vec, axis=-1)

    rate = dt / (delta + hard * dt)   # d lambda / d s_trial where the element flows
    lam = np.maximum(s_trial - mats.yield_stress, 0.0) * rate
    safe = np.where(s_trial > 0.0, s_trial, 1.0)
    n_dir = s_vec / safe[:, None]
    p_new = p_old + lam[:, None] * n_dir

    z = mats.a_vol[:, None] * sph_xi + mats.a_dev[:, None] * (dev_xi - p_new)

    moduli = mats.stiffness_moduli()
    active = lam > 0.0
    if np.any(active):
        nn = np.einsum("ei,ej->eij", n_dir, n_dir)
        a_dev2 = mats.a_dev**2
        radial = (a_dev2 * rate)[:, None, None] * nn
        hoop = (a_dev2 * lam / safe)[:, None, None] * (DEV_PROJECTOR - nn)
        moduli = moduli - np.where(active[:, None, None], radial + hoop, 0.0)
    return z, p_new, moduli

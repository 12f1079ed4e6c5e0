"""Symmetric-tensor algebra in Mandel vector form.

A symmetric d x d tensor (d in {2, 3}) is stored as a vector of length
k = d(d+1)/2 with the off-diagonal entries scaled by sqrt(2):

    d=2:  [a11, a22, sqrt(2)*a12]
    d=3:  [a11, a22, a33, sqrt(2)*a23, sqrt(2)*a13, sqrt(2)*a12]

With this scaling the Frobenius inner product of two tensors equals the dot
product of their component vectors, and a symmetric fourth-order map acting
on symmetric tensors is an ordinary symmetric k x k matrix.  Tensors are
plain arrays with the component axis last, shape (..., k), and maps are
plain (k, k) matrices.

The 2-d isotropic law is interpreted as plane strain with the 3-d Lame
constants, which keeps it elliptic with the three-dimensional moduli.
"""

import functools

import numpy as np

from .errors import ConfigurationError

SQRT2 = np.sqrt(2.0)

# index pairs of the off-diagonal Mandel slots, per dimension
_OFFDIAG = {2: [(0, 1)], 3: [(1, 2), (0, 2), (0, 1)]}


def mandel_dim(dim):
    """Length of the Mandel component vector, k = d(d+1)/2."""
    _check_dim(dim)
    return dim * (dim + 1) // 2


def _check_dim(dim):
    if dim not in (2, 3):
        raise ConfigurationError(f"spatial dimension must be 2 or 3, got {dim}")


def pack(mat):
    """Pack symmetric matrices (..., d, d) into Mandel components (..., k).

    The input is symmetrized, so antisymmetric parts are discarded.
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    _check_dim(d)
    sym = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    diag = [sym[..., i, i] for i in range(d)]
    off = [SQRT2 * sym[..., i, j] for i, j in _OFFDIAG[d]]
    return np.stack(diag + off, axis=-1)


def unpack(comps, dim):
    """Expand Mandel components (..., k) into dense matrices (..., d, d)."""
    comps = np.asarray(comps, dtype=float)
    _check_dim(dim)
    mat = np.zeros(comps.shape[:-1] + (dim, dim))
    for i in range(dim):
        mat[..., i, i] = comps[..., i]
    for slot, (i, j) in enumerate(_OFFDIAG[dim]):
        mat[..., i, j] = comps[..., dim + slot] / SQRT2
        mat[..., j, i] = mat[..., i, j]
    return mat


def trace_of(comps, dim):
    """Trace of tensors given as Mandel components."""
    return np.asarray(comps)[..., :dim].sum(axis=-1)


def identity_comps(dim):
    """Mandel components of the identity tensor."""
    k = mandel_dim(dim)
    e = np.zeros(k)
    e[:dim] = 1.0
    return e


def deviatoric(comps, dim):
    """Deviatoric part, s - (tr s / d) * Id, in Mandel components."""
    comps = np.asarray(comps, dtype=float)
    out = comps.copy()
    out[..., :dim] -= trace_of(comps, dim)[..., None] / dim
    return out


# The projectors are read-only constants per dimension, built once: the
# return map assembles its moduli from them on every call.
@functools.cache
def sph_projector(dim):
    """Mandel matrix of the projector onto hydrostatic tensors."""
    e = identity_comps(dim)
    m = np.outer(e, e) / dim
    m.flags.writeable = False
    return m


@functools.cache
def dev_projector(dim):
    """Mandel matrix of the projector onto deviatoric tensors."""
    m = np.eye(mandel_dim(dim)) - sph_projector(dim)
    m.flags.writeable = False
    return m


def ellipticity_check(matrix, gamma):
    """True iff the symmetric Mandel matrix has all eigenvalues in [gamma, 1/gamma]."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
    m = np.asarray(matrix, dtype=float)
    if m.shape not in ((3, 3), (6, 6)):
        raise ConfigurationError(f"expected a 3x3 or 6x6 Mandel matrix, got shape {m.shape}")
    if np.abs(m - m.T).max() > 1e-14 * max(np.abs(m).max(), np.finfo(float).tiny):
        raise ConfigurationError("Mandel matrix is not symmetric")
    eigs = np.linalg.eigvalsh(m)
    return bool(eigs.min() >= gamma and eigs.max() <= 1.0 / gamma)


def lame_parameters(E, nu):
    """First Lame parameter and shear modulus from (E, nu)."""
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return lam, mu


def _validate_isotropic(E, nu):
    if E <= 0.0:
        raise ConfigurationError(f"Young modulus must be positive, got {E}")
    if not -1.0 < nu < 0.5:
        raise ConfigurationError(f"Poisson ratio must lie in (-1, 1/2), got {nu}")


def isotropic_eigenvalues(E, nu, dim):
    """(volumetric, deviatoric) eigenvalues of the isotropic stiffness.

    In Mandel space the isotropic stiffness has the hydrostatic eigenvalue
    d*lam + 2*mu (multiplicity 1) and the deviatoric eigenvalue 2*mu
    (multiplicity k-1).  For d=2 this is the plane-strain restriction.
    """
    _validate_isotropic(E, nu)
    _check_dim(dim)
    lam, mu = lame_parameters(E, nu)
    return dim * lam + 2.0 * mu, 2.0 * mu


def isotropic_stiffness(E, nu, dim):
    """Mandel (k, k) matrix of the isotropic stiffness (strain -> stress).

    Plane strain for d=2.
    """
    a_vol, a_dev = isotropic_eigenvalues(E, nu, dim)
    return a_vol * sph_projector(dim) + a_dev * dev_projector(dim)


def isotropic_compliance(E, nu, dim):
    """Mandel (k, k) matrix of the isotropic compliance, the stiffness inverse.

    Closed form: 1/(d*lam + 2*mu) on hydrostatic tensors and 1/(2*mu) on
    deviatoric ones.
    """
    a_vol, a_dev = isotropic_eigenvalues(E, nu, dim)
    return sph_projector(dim) / a_vol + dev_projector(dim) / a_dev

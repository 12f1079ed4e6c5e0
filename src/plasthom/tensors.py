"""Symmetric-tensor algebra in Mandel vector form, in the plane.

A symmetric 2 x 2 tensor is stored as a vector of length KDIM = 3 with the
off-diagonal entry scaled by sqrt(2):

    [a11, a22, sqrt(2)*a12]

With this scaling the Frobenius inner product of two tensors equals the dot
product of their component vectors, and a symmetric fourth-order map acting
on symmetric tensors is an ordinary symmetric 3 x 3 matrix.  Tensors are
plain arrays with the component axis last, shape (..., 3), and maps are
plain (3, 3) matrices.

The isotropic law is interpreted as plane strain with the 3-d Lame
constants, which keeps it elliptic with the three-dimensional moduli.
"""

import numpy as np

from .errors import ConfigurationError

SQRT2 = np.sqrt(2.0)
KDIM = 3  # length of the Mandel component vector


def inner(a, b):
    """Sums of a * b over the last axis, broadcast over the leading axes.

    Every vector reduction of the package goes through here, never through
    BLAS (``np.dot``, a 1-d ``@``, ``np.linalg.norm`` without ``axis``):
    numpy's einsum loop runs on the calling thread, so no BLAS worker wakes
    up and the rounding does not depend on the BLAS thread count.  A sum is
    fixed by its operands' shapes, so reruns are bit-identical; a row longer
    than numpy's 8,192-entry iterator buffer may round differently alone
    than in a stack of rows.
    """
    return np.einsum("...i,...i->...", a, b)


def norm(a):
    """Euclidean norms over the last axis, by ``inner``."""
    return np.sqrt(inner(a, a))


def pack(mat):
    """Pack symmetric matrices (..., 2, 2) into Mandel components (..., 3).

    The input is symmetrized, so antisymmetric parts are discarded.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape[-2:] != (2, 2):
        raise ConfigurationError(f"expected 2 x 2 matrices, got shape {mat.shape}")
    sym = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    return np.stack([sym[..., 0, 0], sym[..., 1, 1], SQRT2 * sym[..., 0, 1]], axis=-1)


def unpack(comps):
    """Expand Mandel components (..., 3) into dense matrices (..., 2, 2)."""
    comps = np.asarray(comps, dtype=float)
    mat = np.zeros(comps.shape[:-1] + (2, 2))
    mat[..., 0, 0] = comps[..., 0]
    mat[..., 1, 1] = comps[..., 1]
    mat[..., 0, 1] = comps[..., 2] / SQRT2
    mat[..., 1, 0] = mat[..., 0, 1]
    return mat


def trace_of(comps):
    """Trace of tensors given as Mandel components."""
    return np.asarray(comps)[..., :2].sum(axis=-1)


def identity_comps():
    """Mandel components of the identity tensor."""
    return np.array([1.0, 1.0, 0.0])


def deviatoric(comps):
    """Deviatoric part, s - (tr s / 2) * Id, in Mandel components."""
    comps = np.asarray(comps, dtype=float)
    out = comps.copy()
    out[..., :2] -= trace_of(comps)[..., None] / 2
    return out


# Read-only Mandel matrices of the projectors onto hydrostatic and onto
# deviatoric tensors, from which the isotropic stiffness and compliance are built.
SPH_PROJECTOR = np.outer(identity_comps(), identity_comps()) / 2
SPH_PROJECTOR.flags.writeable = False
DEV_PROJECTOR = np.eye(KDIM) - SPH_PROJECTOR
DEV_PROJECTOR.flags.writeable = False


def ellipticity_check(matrix, gamma):
    """True iff the symmetric Mandel matrix has all eigenvalues in [gamma, 1/gamma]."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
    m = np.asarray(matrix, dtype=float)
    if m.shape != (KDIM, KDIM):
        raise ConfigurationError(f"expected a 3x3 Mandel matrix, got shape {m.shape}")
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


def isotropic_eigenvalues(E, nu):
    """(volumetric, deviatoric) eigenvalues of the plane-strain isotropic stiffness.

    In Mandel space the isotropic stiffness has the hydrostatic eigenvalue
    2*lam + 2*mu (multiplicity 1) and the deviatoric eigenvalue 2*mu
    (multiplicity 2).
    """
    _validate_isotropic(E, nu)
    lam, mu = lame_parameters(E, nu)
    return 2 * lam + 2.0 * mu, 2.0 * mu


def isotropic_stiffness(E, nu):
    """Mandel (3, 3) matrix of the plane-strain isotropic stiffness (strain -> stress)."""
    a_vol, a_dev = isotropic_eigenvalues(E, nu)
    return a_vol * SPH_PROJECTOR + a_dev * DEV_PROJECTOR


def isotropic_compliance(E, nu):
    """Mandel (3, 3) matrix of the isotropic compliance, the stiffness inverse.

    Closed form: 1/(2*lam + 2*mu) on hydrostatic tensors and 1/(2*mu) on
    deviatoric ones.
    """
    a_vol, a_dev = isotropic_eigenvalues(E, nu)
    return SPH_PROJECTOR / a_vol + DEV_PROJECTOR / a_dev

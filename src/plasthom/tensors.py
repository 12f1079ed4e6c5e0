"""Symmetric-tensor algebra in Mandel vector form.

A symmetric d x d tensor (d in {2, 3}) is stored as a vector of length
k = d(d+1)/2 with the off-diagonal entries scaled by sqrt(2):

    d=2:  [a11, a22, sqrt(2)*a12]
    d=3:  [a11, a22, a33, sqrt(2)*a23, sqrt(2)*a13, sqrt(2)*a12]

With this scaling the Frobenius inner product of two tensors equals the dot
product of their component vectors, and a symmetric fourth-order map acting
on symmetric tensors is an ordinary symmetric k x k matrix.  Batched helpers
operate on arrays with the component axis last, shape (..., k).

The 2-d isotropic law is interpreted as plane strain with the 3-d Lame
constants, which keeps it elliptic with the three-dimensional moduli.
"""

from dataclasses import dataclass, field

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


def sph_projector(dim):
    """Mandel matrix of the projector onto hydrostatic tensors."""
    e = identity_comps(dim)
    return np.outer(e, e) / dim


def dev_projector(dim):
    """Mandel matrix of the projector onto deviatoric tensors."""
    return np.eye(mandel_dim(dim)) - sph_projector(dim)


@dataclass(frozen=True)
class SymTensor:
    """A symmetric d x d tensor value in Mandel component form.

    Immutable; arithmetic returns new instances.  ``inner`` is the Frobenius
    product, which by the Mandel convention is the plain dot product of the
    component vectors.
    """

    dim: int
    comps: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        c = np.array(self.comps, dtype=float)
        if c.shape != (mandel_dim(self.dim),):
            raise ConfigurationError(
                f"expected {mandel_dim(self.dim)} components, got shape {c.shape}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "comps", c)

    @classmethod
    def zero(cls, dim):
        return cls(dim, np.zeros(mandel_dim(dim)))

    @classmethod
    def identity(cls, dim):
        return cls(dim, identity_comps(dim))

    @classmethod
    def from_matrix(cls, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigurationError(f"expected a square matrix, got shape {mat.shape}")
        scale = max(np.abs(mat).max(), 1.0)
        if np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise ConfigurationError("matrix is not symmetric; use symmetrize()")
        return cls(mat.shape[0], pack(mat))

    def to_matrix(self):
        return unpack(self.comps, self.dim)

    def inner(self, other):
        return float(self.comps @ other.comps)

    def norm(self):
        return float(np.linalg.norm(self.comps))

    def trace(self):
        return float(trace_of(self.comps, self.dim))

    def dev(self):
        return SymTensor(self.dim, deviatoric(self.comps, self.dim))

    def __add__(self, other):
        return SymTensor(self.dim, self.comps + other.comps)

    def __sub__(self, other):
        return SymTensor(self.dim, self.comps - other.comps)

    def __mul__(self, scalar):
        return SymTensor(self.dim, self.comps * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SymTensor(self.dim, -self.comps)


def symmetrize(mat):
    """Return (m + m^T)/2 of a dense d x d matrix as a SymTensor."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ConfigurationError("matrix has non-finite entries")
    _check_dim(mat.shape[0])
    return SymTensor(mat.shape[0], pack(mat))


def deviator(s):
    """Trace-free part of a SymTensor."""
    return s.dev()


@dataclass(frozen=True)
class FourthOrderMap:
    """Symmetric linear map on symmetric tensors, stored as a Mandel matrix.

    Used for both compliance (stress -> strain) and hardening maps.  The
    matrix must be symmetric to machine precision; validation happens at
    construction.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        k = mandel_dim(self.dim)
        m = np.array(self.matrix, dtype=float)
        if m.shape != (k, k):
            raise ConfigurationError(f"expected a {k}x{k} Mandel matrix, got {m.shape}")
        scale = max(np.abs(m).max(), np.finfo(float).tiny)
        if np.abs(m - m.T).max() > 1e-14 * scale:
            raise ConfigurationError("fourth-order map matrix is not symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, dim):
        return cls(dim, np.eye(mandel_dim(dim)))

    @classmethod
    def scaled_identity(cls, dim, factor):
        return cls(dim, float(factor) * np.eye(mandel_dim(dim)))

    def apply(self, s):
        if s.dim != self.dim:
            raise ConfigurationError(
                f"dimension mismatch: map is {self.dim}-d, tensor is {s.dim}-d"
            )
        return SymTensor(self.dim, self.matrix @ s.comps)

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)

    def inverse(self):
        return FourthOrderMap(self.dim, np.linalg.inv(self.matrix))


def apply_map(tensor_map, s):
    """Matrix-vector product of a FourthOrderMap with a SymTensor."""
    return tensor_map.apply(s)


def ellipticity_check(tensor_map, gamma):
    """True iff all eigenvalues lie in [gamma, 1/gamma]."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
    eigs = tensor_map.eigenvalues()
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
    """Isotropic stiffness map (strain -> stress), plane strain for d=2."""
    a_vol, a_dev = isotropic_eigenvalues(E, nu, dim)
    m = a_vol * sph_projector(dim) + a_dev * dev_projector(dim)
    return FourthOrderMap(dim, m)


def isotropic_compliance(E, nu, dim):
    """Isotropic compliance map (stress -> strain), the stiffness inverse.

    Closed form: 1/(d*lam + 2*mu) on hydrostatic tensors and 1/(2*mu) on
    deviatoric ones.
    """
    a_vol, a_dev = isotropic_eigenvalues(E, nu, dim)
    m = sph_projector(dim) / a_vol + dev_projector(dim) / a_dev
    return FourthOrderMap(dim, m)


@dataclass(frozen=True)
class MaterialPoint:
    """Pointwise material data: compliance C, hardening B, yield stress.

    The raw sampled parameters are kept alongside the maps so that scalar
    statistics of a random medium can be evaluated without inverting maps.
    """

    compliance: FourthOrderMap
    hardening: FourthOrderMap
    yield_stress: float
    E: float = field(default=np.nan)
    nu: float = field(default=np.nan)
    hardening_modulus: float = field(default=np.nan)

    def __post_init__(self):
        if self.compliance.dim != self.hardening.dim:
            raise ConfigurationError("compliance and hardening dimensions differ")
        if not self.yield_stress > 0.0:
            raise ConfigurationError(
                f"yield stress must be positive, got {self.yield_stress}"
            )

    @classmethod
    def from_parameters(cls, E, nu, yield_stress, hardening_modulus=1.0, dim=2):
        _validate_isotropic(E, nu)
        if hardening_modulus <= 0.0:
            raise ConfigurationError(
                f"hardening modulus must be positive, got {hardening_modulus}"
            )
        return cls(
            compliance=isotropic_compliance(E, nu, dim),
            hardening=FourthOrderMap.scaled_identity(dim, hardening_modulus),
            yield_stress=float(yield_stress),
            E=float(E),
            nu=float(nu),
            hardening_modulus=float(hardening_modulus),
        )

    @property
    def dim(self):
        return self.compliance.dim

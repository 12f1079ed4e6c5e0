"""Convex flow-rule potentials and their Moreau-Yosida regularizations.

Two one-parameter families of convex, lower-semicontinuous potentials with
value 0 at the origin are provided, both acting on the deviatoric part of
the stress:

``von_mises``
    The indicator of the yield set K = { s : |dev s| <= sigma_y }, i.e.
    0 inside and +inf outside.  Its regularization is the squared distance
    to K over 2*delta (Perzyna-type viscoplasticity), and its conjugate is
    the support function sigma_y * |p| on deviatoric p.

``norm``
    The positively homogeneous potential sigma_y * |dev s|.  Its
    regularization is a Huber-type envelope and its conjugate the indicator
    of the dual ball { p deviatoric : |p| <= sigma_y }.

Everything here is vectorized over leading axes: inputs are Mandel
component arrays of shape (..., 3).  +inf is used as an absorbing sentinel
for the extended value; it never arises from floating-point overflow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensors import deviatoric, trace_of

VON_MISES = "von_mises"
NORM_TYPE = "norm"

_KINDS = (VON_MISES, NORM_TYPE)

# relative tolerance for the "deviatoric" constraint in conjugate values
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class FlowRule:
    """Unregularized convex potential of the plastic flow rule.

    ``yield_stress`` may be an array with one entry per leading index.
    """

    kind: str
    yield_stress: object

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown flow rule kind {self.kind!r}")
        if not np.all(np.asarray(self.yield_stress) > 0.0):
            raise ConfigurationError(
                f"yield stress must be positive, got {self.yield_stress}"
            )

    def value(self, s):
        """Potential value; +inf outside the yield set for the indicator rule."""
        dev_n = np.linalg.norm(deviatoric(s), axis=-1)
        if self.kind == VON_MISES:
            val = np.where(dev_n <= self.yield_stress * (1.0 + 1e-14), 0.0, np.inf)
        else:
            val = self.yield_stress * dev_n
        return float(val) if val.ndim == 0 else val

    def project(self, s):
        """Euclidean projection onto K = { s : |dev s| <= sigma_y }.

        The hydrostatic part is unchanged; the deviatoric part is radially
        scaled back to the yield surface when it lies outside.  Only defined
        for the indicator rule.
        """
        if self.kind != VON_MISES:
            raise ConfigurationError("projection is defined for the indicator rule only")
        s = np.asarray(s, dtype=float)
        dev = deviatoric(s)
        dev_n = np.linalg.norm(dev, axis=-1)
        outside = dev_n > self.yield_stress
        scale = np.where(outside, self.yield_stress / np.where(outside, dev_n, 1.0), 1.0)
        return s - dev + scale[..., None] * dev

    def conjugate(self, p):
        """Legendre-Fenchel conjugate, +inf where the dual constraint fails.

        For the indicator rule: sigma_y * |p| for deviatoric p, +inf for
        tensors with nonzero trace.  For the norm rule: the indicator of the
        dual ball { p deviatoric : |p| <= sigma_y }.
        """
        p = np.asarray(p, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ConfigurationError("conjugate argument has non-finite entries")
        norm = np.linalg.norm(p, axis=-1)
        tr = np.abs(trace_of(p))
        dev_ok = tr <= _TRACE_TOL * (1.0 + norm)
        if self.kind == VON_MISES:
            val = np.where(dev_ok, self.yield_stress * norm, np.inf)
        else:
            inside = norm <= self.yield_stress * (1.0 + _TRACE_TOL)
            val = np.where(dev_ok & inside, 0.0, np.inf)
        return float(val) if val.ndim == 0 else val

    def regularized(self, delta=None):
        """Moreau-Yosida regularization; default delta = 1e-2 * sigma_y."""
        if delta is None:
            delta = 1e-2 * self.yield_stress
        return RegularizedFlow(self, float(delta))


@dataclass(frozen=True)
class RegularizedFlow:
    """Moreau-Yosida envelope of a flow rule at regularization delta > 0.

    The envelope is the inf-convolution of the potential with |.|^2/(2 delta);
    it is finite, convex and differentiable with a gradient that is
    single-valued and 1/delta-Lipschitz.
    """

    rule: FlowRule
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")

    def _dev_split(self, s):
        dev = deviatoric(s)
        return dev, np.linalg.norm(dev, axis=-1)

    def value(self, s):
        """Envelope value Psi^delta(s) >= 0."""
        _, dev_n = self._dev_split(s)
        sy, d = self.rule.yield_stress, self.delta
        if self.rule.kind == VON_MISES:
            excess = np.maximum(dev_n - sy, 0.0)
            val = excess**2 / (2.0 * d)
        else:
            # Huber envelope of sy*|dev s|
            quad = dev_n**2 / (2.0 * d)
            lin = sy * dev_n - sy**2 * d / 2.0
            val = np.where(dev_n <= sy * d, quad, lin)
        return float(val) if val.ndim == 0 else val

    def gradient(self, s):
        """Gradient of the envelope, (s - q)/delta with q the minimizer of the
        inf-convolution (for the indicator rule the projection onto the yield
        set, for the norm rule s with its deviatoric norm shrunk by
        sigma_y * delta); always deviatoric."""
        dev, dev_n = self._dev_split(s)
        sy, d = self.rule.yield_stress, self.delta
        safe = np.where(dev_n > 0.0, dev_n, 1.0)
        if self.rule.kind == VON_MISES:
            slope = np.maximum(dev_n - sy, 0.0) / (d * safe)
        else:
            slope = np.minimum(dev_n / d, sy) / safe
        return slope[..., None] * dev

    def conjugate(self, p):
        """Conjugate of the envelope: Psi*(p) + delta * |p|^2 / 2."""
        base = self.rule.conjugate(p)
        quad = self.delta * np.sum(np.asarray(p, dtype=float) ** 2, axis=-1) / 2.0
        val = np.asarray(base) + quad
        return float(val) if val.ndim == 0 else val


def fenchel_gap(flow, s, p):
    """Duality gap Psi(s) + Psi*(p) - <s, p> of a (regularized) flow rule.

    Nonnegative for every pair; zero exactly when p is a subgradient at s.
    ``flow`` may be a FlowRule or a RegularizedFlow; +inf values propagate
    absorbingly.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    pairing = np.sum(s * p, axis=-1)
    gap = np.asarray(flow.value(s)) + np.asarray(flow.conjugate(p)) - pairing
    return float(gap) if gap.ndim == 0 else gap

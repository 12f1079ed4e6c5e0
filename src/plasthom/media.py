"""Seeded random checkerboard media and ergodic-averaging diagnostics.

A medium is an i.i.d. field of material parameters on the unit-square lattice,
translated by a uniform random shift so that the ensemble is stationary
under all spatial shifts, not only integer ones.  Cell values are pure
functions of (seed, cell index): they are produced by a counter-based
integer hash, so the field is defined on the whole plane with O(1) memory
and re-evaluation is bit-identical.  The hash takes one index array per
axis: a list of cells passes two columns, and a box passes its rows and its
columns, so the medium is evaluated on their product grid without listing
its cells.  An array of seeds adds a leading axis, one realization per seed,
so several realizations' boxes are hashed as one stack of grids.  Either way
the parameter arrays come back flat, one entry per cell in row-major order.

Scaled coefficient fields are realized by reading the medium at x/eps.
Shifting a realization by y yields the realization of the translated medium,
and composing shifts adds displacements.
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    INT64_LIMIT,
    ConfigurationError,
    array_size,
    finite_number,
    positive_int,
    valid_seed,
)
from .tensors import inner, isotropic_eigenvalues

# SplitMix64 constants; salts are premultiplied as an array so every uint64
# product happens in array arithmetic (silent wrap mod 2^64)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SALTS = np.arange(1, 64, dtype=np.uint64) * _GOLDEN

# hash channels for the per-cell parameter draws and the global shift
_CHANNELS = {"E": 0, "nu": 1, "sigma_y": 2, "H": 3}
_SHIFT_CHANNEL = 16


def _mix(x):
    """SplitMix64 finalizer on a uint64 array, in place (wraps mod 2^64); returns ``x``."""
    scratch = x >> np.uint64(30)
    x ^= scratch
    x *= _M1
    np.right_shift(x, np.uint64(27), out=scratch)
    x ^= scratch
    x *= _M2
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def _seed_axes(seed, coords):
    """``seed`` as an int64 array whose axes lead those of the broadcast ``coords``;
    never 0-d, so the hash wraps in array arithmetic, silently."""
    seed = np.asarray(seed, dtype=np.int64)
    ndim = max(1, *(np.ndim(index) for index in coords))
    return seed.reshape(seed.shape + (1,) * (ndim - seed.ndim))


def _uniform01(seed, coords, channel):
    """Uniform [0,1) draws, one per cell of the integer index arrays ``coords``.

    ``coords`` holds one index array per axis, and the arrays broadcast
    together: two columns (n,) name n cells, a column of row indices
    (r, 1) and a row of column indices (1, c) name the r x c grid.  ``seed``
    is an int or an int64 array of seeds whose axes lead the broadcast
    shape: seeds (S,) with rows (S, r, 1) and columns (S, 1, c) name S grids,
    one per realization.  The hash mixes in the seed, then one axis per
    round, so on a stack of grids the seed round runs once per realization,
    the row round once per row and only the last round once per cell.
    Draws come back flat, in row-major order of the broadcast shape.  Pure
    in (seed, cell, channel); distinct channels give independent draws.
    Arithmetic runs on uint64 arrays, wrapping mod 2^64 by construction.
    """
    h = _mix(_seed_axes(seed, coords).astype(np.uint64) + _SALTS[channel])
    for axis, index in enumerate(coords):
        key = np.asarray(index, dtype=np.int64).astype(np.uint64)
        key += _SALTS[axis + 1]
        h = _mix(h ^ key)
    h >>= np.uint64(11)
    u = h.astype(np.float64).ravel()
    u *= 2.0**-53
    return u


def sample_shifts(seeds):
    """The uniform [0,1)^2 shift attached to each seed, vectorized."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    out = np.empty((seeds.size, 2))
    for axis in range(2):
        out[:, axis] = _uniform01(0, (seeds,), _SHIFT_CHANNEL + axis)
    return out


@dataclass(frozen=True)
class Distribution:
    """A scalar distribution: point mass, uniform interval, or finite discrete."""

    kind: str  # "point" | "uniform" | "discrete"
    params: tuple

    @classmethod
    def point(cls, value):
        return cls("point", (float(finite_number(value, "point value")),))

    @classmethod
    def uniform(cls, lo, hi):
        lo, hi = (float(finite_number(v, "uniform bound")) for v in (lo, hi))
        if not hi > lo:
            raise ConfigurationError(f"uniform interval needs hi > lo, got [{lo}, {hi}]")
        return cls("uniform", (lo, hi))

    @classmethod
    def discrete(cls, values, weights=None):
        values = [float(finite_number(v, "discrete value")) for v in values]
        if not values:
            raise ConfigurationError("discrete distribution with empty support")
        if weights is None:
            weights = [1.0] * len(values)
        weights = np.array([float(finite_number(w, "discrete weight")) for w in weights])
        if weights.shape != (len(values),) or np.any(weights < 0) \
                or not 0 < weights.sum() < np.inf:
            raise ConfigurationError("discrete weights must be nonnegative with a positive, "
                                     "finite sum")
        return cls("discrete", (tuple(values), tuple(weights / weights.sum())))

    @classmethod
    def from_config(cls, spec):
        """Parse ``{"point": v}``, ``{"uniform": [lo, hi]}`` or
        ``{"discrete": {"values": [...], "weights": [...]}}``; every value
        and weight must be a finite number."""
        if isinstance(spec, numbers.Real):
            return cls.point(spec)
        if not isinstance(spec, dict) or len(spec) != 1:
            raise ConfigurationError(f"bad distribution spec {spec!r}")
        (key, val), = spec.items()
        if key not in ("point", "uniform", "discrete"):
            raise ConfigurationError(f"unknown distribution kind {key!r}")
        try:
            if key == "point":
                return cls.point(val)
            if key == "uniform":
                return cls.uniform(*val)
            return cls.discrete(val["values"], val.get("weights"))
        except ConfigurationError:
            raise
        except (TypeError, ValueError, KeyError, AttributeError):
            raise ConfigurationError(f"bad {key} distribution spec {val!r}") from None

    def sample(self, u):
        """Map uniform [0,1) draws to values (inverse transform).

        A discrete draw's index is the number of the first K - 1 cumulative
        weights that it reaches, counted by K - 1 comparisons: the index of
        ``searchsorted(edges, u, "right")`` capped at K - 1, bit for bit.
        One pass per value beats the binary search up to about 64 values,
        by several times for the few phases of a checkerboard law.  For
        K = 2 the index is also twice as fast as ``np.where`` on the one
        comparison (60 us against 122 us per 16,641 draws, shared 2-core x86
        machine), which pays for broadcasting its two scalars.
        """
        u = np.asarray(u)
        if self.kind == "point":
            return np.full_like(u, self.params[0], dtype=float)
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        values, weights = self.params
        edges = np.cumsum(weights)[:-1]
        if not edges.size:
            return np.full(u.shape, values[0])
        idx = (u >= edges[0]).astype(np.intp)
        for edge in edges[1:]:
            idx += u >= edge
        return np.asarray(values, dtype=float)[idx]

    def support_extremes(self):
        if self.kind == "point":
            return [self.params[0]]
        if self.kind == "uniform":
            return list(self.params)
        return [min(self.params[0]), max(self.params[0])]

    def mean(self):
        if self.kind == "point":
            return self.params[0]
        if self.kind == "uniform":
            return 0.5 * (self.params[0] + self.params[1])
        values, weights = self.params
        return float(inner(values, weights))

    @property
    def is_point(self):
        return self.kind == "point"


@dataclass(frozen=True)
class ProbabilityLaw:
    """Independent per-cell distributions for (E, nu, sigma_y, H).

    Construction validates that every extremal parameter combination yields
    positive-definite, bounded compliance and hardening, so any realization
    satisfies a uniform two-sided ellipticity bound.  The bound constants
    are exposed as ``gamma`` (compliance) and ``beta`` (hardening).
    """

    E: Distribution
    nu: Distribution
    sigma_y: Distribution
    hardening: Distribution = field(default_factory=lambda: Distribution.point(1.0))

    def __post_init__(self):
        for E in self.E.support_extremes():
            for nu in self.nu.support_extremes():
                isotropic_eigenvalues(E, nu)  # raises unless E > 0, -1 < nu < 1/2
        for sy in self.sigma_y.support_extremes():
            if sy <= 0:
                raise ConfigurationError(f"law admits non-positive yield stress {sy}")
        for h in self.hardening.support_extremes():
            if h <= 0:
                raise ConfigurationError(f"law admits non-positive hardening modulus {h}")

    @classmethod
    def from_config(cls, cfg):
        """Build from JSON-style keys ``E``, ``nu``, ``sigma_y`` and optional ``H``."""
        try:
            return cls(
                E=Distribution.from_config(cfg["E"]),
                nu=Distribution.from_config(cfg["nu"]),
                sigma_y=Distribution.from_config(cfg["sigma_y"]),
                hardening=Distribution.from_config(cfg.get("H", 1.0)),
            )
        except KeyError as missing:
            raise ConfigurationError(f"law config misses key {missing}") from None

    @classmethod
    def constant(cls, E, nu, sigma_y, hardening=1.0):
        """Point-mass law: a homogeneous medium."""
        return cls(
            Distribution.point(E),
            Distribution.point(nu),
            Distribution.point(sigma_y),
            Distribution.point(hardening),
        )

    @property
    def gamma(self):
        """Two-sided ellipticity constant of the compliance over the law support."""
        bound = np.inf
        for E in self.E.support_extremes():
            for nu in self.nu.support_extremes():
                a_vol, a_dev = isotropic_eigenvalues(E, nu)
                for a in (a_vol, a_dev):
                    bound = min(bound, a, 1.0 / a)
        return bound

    @property
    def beta(self):
        bound = np.inf
        for h in self.hardening.support_extremes():
            bound = min(bound, h, 1.0 / h)
        return bound

    def cell_parameters(self, seed, coords):
        """Parameter arrays of integer cells: dict with E, nu, sigma_y, H.

        ``seed`` and ``coords`` are as in ``_uniform01``: one seed, or an
        int64 array of seeds leading the broadcast shape, and one int64 index
        array per axis, such as the two columns of a list of cells or a
        column of row indices and a row of column indices for a box.  Every
        array is flat, one entry per cell in row-major order.  A point-mass
        parameter is a read-only zero-stride view of its one value
        (``_constant``), so no constant is written out per cell; callers copy
        what they modify.
        """
        n_cells = np.broadcast(_seed_axes(seed, coords), *coords).size
        out = {}
        for name, dist in (("E", self.E), ("nu", self.nu),
                           ("sigma_y", self.sigma_y), ("H", self.hardening)):
            if dist.is_point:
                out[name] = _constant(dist.params[0], (n_cells,))
            else:
                out[name] = dist.sample(_uniform01(seed, coords, _CHANNELS[name]))
        return out


def _constant(value, shape):
    """A read-only array of ``shape`` whose every entry is ``value``.

    A zero-stride view of a one-element buffer, as ``np.broadcast_to``
    gives, at less than half its cost per call (1.4 us against 3.3 us by
    timeit on a shared 2-core x86 machine).
    """
    view = np.ndarray(shape, dtype=float, buffer=np.array([value], dtype=float),
                      strides=(0,) * len(shape))
    view.flags.writeable = False
    return view


def _points_of(points):
    """Points as rows of a float array; raises unless each has 2 coordinates."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[-1] != 2:
        raise ConfigurationError(f"points have {points.shape[-1]} coordinates, "
                                 "but the medium is planar")
    return points


@dataclass(frozen=True)
class Realization:
    """One sampled medium: a shifted checkerboard, cell values keyed by seed.

    ``shift`` is the uniform [0,1)^2 translation drawn from the seed;
    ``translation`` accumulates explicit shifts applied afterwards.  The
    material at x on scale eps is the cell value at floor(x/eps + translation
    - shift).
    """

    law: ProbabilityLaw
    seed: int
    shift: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        for name in ("shift", "translation"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (2,):
                raise ConfigurationError(f"{name} must have shape (2,)")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def _cells_at(self, points, eps):
        cells = np.floor(_points_of(points) / eps + (self.translation - self.shift))
        if not np.all(np.abs(cells) < INT64_LIMIT):  # NaN fails too
            raise ConfigurationError(f"scale eps={eps} puts cell indices outside int64")
        return cells.astype(np.int64)

    def parameters_at(self, points, eps=1.0):
        """Raw parameter arrays of the cells containing the given points."""
        if not eps > 0:
            raise ConfigurationError(f"scale eps must be positive, got {eps}")
        cells = self._cells_at(points, eps)
        return self.law.cell_parameters(self.seed, (cells[:, 0], cells[:, 1]))


def sample_realization(law, seed, zero_shift=False):
    """Draw the realization attached to ``seed``: deterministic, bit-stable.

    With ``zero_shift`` the uniform translation is suppressed and the cells
    stay lattice-aligned; statistics on large boxes are unchanged, but meshes
    aligned with the lattice then resolve the medium exactly.
    """
    valid_seed(seed, "seed")
    shift = np.zeros(2) if zero_shift else sample_shifts([seed])[0]
    return Realization(law=law, seed=int(seed), shift=shift, translation=np.zeros(2))


def shifted(omega, y):
    """The translated realization; composing shifts adds displacements."""
    y = np.asarray(y, dtype=float)
    return replace(omega, translation=omega.translation + y)


# cells hashed at once by ergodic_average: a batch holds the largest boxes of
# several realizations, or one box if it is larger; each hash temporary stays
# near 128 kB, the size of one benchmark box at L = 64, and stays in cache
_BATCH_CELLS = 2**14


def _box_axis(offsets, L):
    """The cells that [-L, L] + offset overlaps along one axis, for S offsets.

    Returns the first cell floor(lo) of each box (S,), the overlap weights
    (S, m) of the candidate cells from it on and the number of cells with a
    positive overlap (S,), which lead each row of weights.
    """
    lo, hi = -L + offsets, L + offsets
    first = np.floor(lo).astype(np.int64)
    cells = first[:, None] + np.arange(int(np.max(np.floor(hi) - first)) + 1)
    weights = np.minimum(cells + 1.0, hi[:, None]) - np.maximum(cells.astype(float),
                                                                lo[:, None])
    return first, weights, (weights > 0).sum(axis=1)


def _box_sums(law, g, seeds, rows, cols, boxes, members):
    """Overlap-weighted sums of ``g`` over the nested boxes of several realizations.

    Realization k, number ``members[k]`` of the sweep, is hashed once, on
    the grid of ``rows[k]`` and ``cols[k]`` of its largest box in the medium
    of ``seeds[k]``.  Each entry of ``boxes`` places one half-width's boxes
    in those grids (see ``ergodic_average``).  Returns the sums, shape
    (len(boxes), len(members)).
    """
    params = law.cell_parameters(seeds, (rows[:, :, None], cols[:, None, :]))
    shape = (seeds.size, rows.shape[1], cols.shape[1])
    values = np.asarray(g(params), dtype=float)
    values = values.reshape(shape) if values.ndim else _constant(values, shape)
    sums = np.empty((len(boxes), len(members)))
    for i, (r0, r_weights, r_n, c0, c_weights, c_n) in enumerate(boxes):
        for k, (grid, s) in enumerate(zip(values, members)):
            rs, cs = slice(r0[s], r0[s] + r_n[s]), slice(c0[s], c0[s] + c_n[s])
            weights = r_weights[s, :r_n[s], None] * c_weights[s, None, :c_n[s]]
            # reshape, not ravel: a scalar statistic keeps its zero stride,
            # so the sum rounds as for a box broadcast alone
            sums[i, k] = inner(weights.ravel(), grid[rs, cs].reshape(-1))
    return sums


def ergodic_average(omegas, g, L_values):
    """Exact volume averages of a cell statistic over the boxes [-L, L]^2 at scale 1.

    ``omegas`` is a non-empty sequence of realizations of one law and
    ``L_values`` a non-empty list of half-widths L >= 1; the result holds
    one box average per half-width and realization, shape (len(L_values),
    S).  ``g`` receives the parameter dict of
    ``ProbabilityLaw.cell_parameters`` (flat arrays ``E``, ``nu``,
    ``sigma_y`` and ``H``, one entry per cell of several boxes, box after
    box, each in row-major order) and returns the statistic per cell; a
    scalar is broadcast to every cell.  The field is piecewise constant on
    shifted unit cells, so each integral is a finite sum over cells weighted
    by the overlap volume with the box (cut cells included exactly); a
    cell's weight is its row overlap times its column overlap.

    The boxes of one realization are nested, so the cells of every box are a
    sub-grid of those of its largest box, and each realization is hashed
    once, on its largest box.  Largest boxes that cut the same numbers of
    rows and columns are hashed together as one (boxes, rows, columns) grid,
    at most ``_BATCH_CELLS`` cells or one box at a time.  Each box keeps its
    own row-major weights and its own ``tensors.inner`` sum, so an average
    depends neither on the boxes hashed beside it nor on the BLAS thread
    count.
    """
    omegas = list(omegas)
    if not omegas:
        raise ConfigurationError("ergodic_average needs at least one realization")
    law = omegas[0].law
    if any(omega.law != law for omega in omegas):
        raise ConfigurationError("ergodic_average needs realizations of one law")
    if not isinstance(L_values, (list, tuple)) or not L_values:
        raise ConfigurationError(f"ergodic_average needs a non-empty list of box "
                                 f"half-widths, got {L_values!r}")
    for L in L_values:
        if not finite_number(L, "box half-width L") >= 1:
            raise ConfigurationError(f"box half-width must be >= 1, got {L}")
    L_max = max(L_values)
    array_size((2 * L_max + 2) ** 2, "box half-width L")  # the most cells a box cuts
    seeds = np.array([omega.seed for omega in omegas], dtype=np.int64)
    offsets = np.array([omega.translation - omega.shift for omega in omegas])
    row_first, _, n_rows = _box_axis(offsets[:, 0], L_max)
    col_first, _, n_cols = _box_axis(offsets[:, 1], L_max)
    # per half-width and axis: each box's first cell within the cells of its
    # realization's largest box, its weights and its number of cells
    boxes = []
    for L in L_values:
        r_first, r_weights, r_n = _box_axis(offsets[:, 0], L)
        c_first, c_weights, c_n = _box_axis(offsets[:, 1], L)
        boxes.append(((r_first - row_first).tolist(), r_weights, r_n.tolist(),
                      (c_first - col_first).tolist(), c_weights, c_n.tolist()))
    sums = np.empty((len(L_values), len(omegas)))
    for n_r, n_c in sorted(set(zip(n_rows.tolist(), n_cols.tolist()))):
        members = np.flatnonzero((n_rows == n_r) & (n_cols == n_c))
        per_batch = max(1, _BATCH_CELLS // (n_r * n_c))
        for start in range(0, members.size, per_batch):
            b = members[start:start + per_batch]
            sums[:, b] = _box_sums(law, g, seeds[b], row_first[b, None] + np.arange(n_r),
                                   col_first[b, None] + np.arange(n_c), boxes, b.tolist())
    return sums / (2.0 * np.asarray(L_values, dtype=float)[:, None]) ** 2


@dataclass(frozen=True)
class PeriodizedMedium:
    """An N x N block of i.i.d. cells wrapped periodically: the RVE medium.

    This is the computable surrogate for the abstract stationary medium used
    by the cell problems; it converges to it as the block size and the
    Monte-Carlo sample count grow.
    """

    law: ProbabilityLaw
    seed: int
    n_cells: int

    def __post_init__(self):
        positive_int(self.n_cells, "RVE cells per side N")
        valid_seed(self.seed, "RVE sample seed")

    def parameters_at(self, points, eps=1.0):
        cells = np.floor(_points_of(points) / eps)
        cells = np.mod(cells.astype(np.int64), self.n_cells)
        return self.law.cell_parameters(self.seed, (cells[:, 0], cells[:, 1]))

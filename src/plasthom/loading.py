"""Strain paths and boundary loading programs.

A StrainPath is a time-discretized evolution of a planar (2 x 2) symmetric
tensor with vanishing initial value, interpolated piecewise linearly between
its knots.  Affine Dirichlet programs U(t, x) = xi(t) x + a(t) are
represented structurally so that solvers can exploit that the additive
constant a never influences strains: it is stripped before solving and added
back to displacements, which makes stress outputs bitwise independent of a.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensors import SQRT2, norm


def checked_time_grid(time_grid):
    """The time grid as a float array; it must start at 0 and increase strictly."""
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.ndim != 1 or not time_grid.size or time_grid[0] != 0.0 \
            or np.any(np.diff(time_grid) <= 0):
        raise ConfigurationError("time grid must start at 0 and increase strictly")
    return time_grid


@dataclass(frozen=True)
class StrainPath:
    """Piecewise-linear tensor path with value zero at time zero."""

    knots: np.ndarray      # (m,)
    values: np.ndarray     # (m, 3) Mandel components

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float)
        values = np.array(self.values, dtype=float)
        if knots.ndim != 1 or not knots.size or np.any(np.diff(knots) <= 0):
            raise ConfigurationError("knots must be non-empty and strictly increasing")
        if values.shape != (knots.size, 3):
            raise ConfigurationError(
                f"values must have shape ({knots.size}, 3), got {values.shape}"
            )
        if knots[0] != 0.0 or np.any(values[0] != 0.0):
            raise ConfigurationError("strain paths must start at t=0 with value 0")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ConfigurationError("strain paths must be finite")
        knots.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def ramp(cls, target, T, steps=1):
        """Linear ramp from zero to ``target`` (Mandel components) over [0, T]."""
        target = np.asarray(target, dtype=float)
        times = np.linspace(0.0, T, steps + 1)
        return cls(times, np.outer(times / T, target))

    @classmethod
    def from_knots(cls, times, tensors):
        return cls(np.asarray(times, dtype=float), np.asarray(tensors, dtype=float))

    def at(self, t):
        """Linear interpolation; clamped to the end values outside the knots."""
        t = np.asarray(t, dtype=float)
        out = np.stack(
            [np.interp(t, self.knots, self.values[:, c])
             for c in range(self.values.shape[1])],
            axis=-1,
        )
        return out

    def h1_norm(self):
        """Discrete H1(0,T) norm: L2 of values plus L2 of difference quotients."""
        dt = np.diff(self.knots)
        mid_sq = 0.5 * (np.sum(self.values[1:] ** 2, axis=1)
                        + np.sum(self.values[:-1] ** 2, axis=1))
        rate_sq = np.sum(np.diff(self.values, axis=0) ** 2, axis=1) / dt**2
        return float(np.sqrt(np.sum(dt * (mid_sq + rate_sq))))


def path_from_csv(path):
    """Read a strain path from CSV columns t, xi_11, xi_22, xi_12 (tensor entries).

    Off-diagonal columns hold the physical tensor entries; the Mandel sqrt(2)
    scaling is applied on read.  The file is UTF-8 text; a leading byte-order
    mark, as spreadsheet tools write it, is skipped.
    """
    columns = ("xi_11", "xi_22", "xi_12")
    times, rows = [], []
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except (OSError, ValueError) as err:  # ValueError: the name holds a NUL byte
        raise ConfigurationError(f"cannot read strain path {path!r}: "
                                 f"{getattr(err, 'strerror', None) or err}") from None
    try:
        with fh:
            for record in csv.DictReader(fh):
                times.append(float(record["t"]))
                rows.append([float(record[name]) for name in columns])
    except KeyError as missing:
        raise ConfigurationError(f"strain path {path} misses column {missing}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"strain path {path} is not UTF-8 text") from None
    except (TypeError, ValueError, csv.Error) as err:
        raise ConfigurationError(f"strain path {path} has a missing or non-numeric "
                                 f"entry: {err}") from None
    if not rows:
        raise ConfigurationError(f"strain path {path} has no rows")
    values = np.asarray(rows, dtype=float)
    values[:, 2] *= SQRT2
    return StrainPath(np.asarray(times), values)


@dataclass(frozen=True)
class AffineBoundary:
    """Dirichlet program U(t, x) = xi(t) x + a(t).

    ``offset`` is an optional callable t -> (d,) additive constant with
    offset(0) = 0; it shifts displacements but never strains or stresses.
    """

    path: StrainPath
    offset: object = None

    def __post_init__(self):
        if self.offset is not None:
            a0 = np.asarray(self.offset(0.0), dtype=float)
            if norm(a0) > 1e-14:
                raise ConfigurationError("additive boundary constant must vanish at t=0")

    def offset_at(self, t):
        if self.offset is None:
            return np.zeros(2)
        return np.asarray(self.offset(t), dtype=float)


def checked_boundary(boundary):
    """The Dirichlet data of a solve; it must be an AffineBoundary."""
    if not isinstance(boundary, AffineBoundary):
        raise ConfigurationError(f"Dirichlet data must be an AffineBoundary, "
                                 f"got {type(boundary).__name__}")
    return boundary


def tabulated_offset(rows):
    """Piecewise-linear offset t -> a(t) from rows [t, a_1, a_2], t increasing."""
    try:
        rows = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != 3 \
            or not np.all(np.isfinite(rows)) or np.any(np.diff(rows[:, 0]) <= 0):
        raise ConfigurationError("offset table must hold rows [t, a_1, a_2] of finite "
                                 "numbers with increasing t")
    times, vals = rows[:, 0], rows[:, 1:]

    def offset(t):
        return np.stack([np.interp(t, times, vals[:, c]) for c in range(vals.shape[1])],
                        axis=-1)

    return offset

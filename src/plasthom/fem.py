"""Simplicial meshes, P1 vector elements, assembly and sparse solves (d=2).

Meshes are triangulations with optional periodic vertex identification
(torus RVE carriers).  Displacements are continuous piecewise-linear vector
fields; strains are element-wise constant, so one-point (barycenter)
quadrature is exact for stiffness and internal-force integrals with
element-wise constant coefficients.

Element strains and nodal forces are products with two sparse operators
that each space builds once: the strain operator D, which places the rows
of every element's strain-displacement matrix B_e at the element's packed
dofs, and its volume-weighted transpose (vol D)^T, stored as its own CSR
matrix.  The stiffness is linear in the moduli, so each space also builds
once its fixed CSR pattern on the free dofs, the unknowns of its systems,
and a sparse map from the six distinct entries of every element's moduli
to the pattern's upper nonzeros.  Assembly is one product with that map
for a system or a stack of systems, after which each lower nonzero takes
its upper partner's value; it gives a CSR matrix per system, or a dense
stack of matrices for a batch of small systems, with no row or column of a
constrained dof (on a torus every dof is free).  Dirichlet systems are
solved with Jacobi-preconditioned conjugate gradients, which is
deterministic.  Periodic systems on the uniform torus grid go to
``solve_periodic_systems``, which picks their solver by size.  Up to
``DENSE_PERIODIC_DOFS`` unknowns a whole stack of systems is solved
directly by one batched LU solve, and a system's right-hand sides share its
factorization.  Above, CG runs with the exact inverse of the translation
average of an operator as preconditioner, a block-circulant matrix
diagonalized by the discrete Fourier transform (a reference medium in the
sense of Moulinec and Suquet), whose iteration count is bounded by the phase
contrast and does not grow with the grid; its transforms run on the real
half spectrum.  A system's right-hand sides share it, and its owner holds it
across solves: every cell of ``cellproblem.CellStack`` keeps the translation
average of its first operator for its whole life, since a mean over the
whole torus hardly moves between Newton corrections and steps.
The translation kernel of periodic problems is projected out of the
right-hand side and of the solution, which is the zero-mean representative.

Every CG solve stops at a relative residual tolerance ``rtol``, and a stack of
periodic systems takes one per system: ``finescale.newton_solve`` solves
each Newton correction by CG only as tightly as its system's own residual
and Newton tolerance need (an inexact Newton forcing term with Kelley's
terminal safeguard, ``finescale.forcing_term``), while the tangent and
elastic solves keep a fixed tight tolerance.  A direct solve ignores the
tolerance: its residual check takes ``CG_RTOL`` for every system.

CG's inner products and norms and the translation projections are taken by
``tensors.inner`` and ``tensors.norm``, never by BLAS: above about 10,000
entries OpenBLAS splits a dot product over its threads, which changes its
rounding with the thread count and leaves a worker spinning between calls.
So a solve's bits do not depend on the BLAS thread count.  Matrix products
(sparse matvecs, the DFT transforms, batched LU solves) stay with numpy and
scipy.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .errors import (
    INT64_LIMIT,
    ConfigurationError,
    NumericalError,
    array_size,
    positive_int,
    positive_number,
)
from .tensors import KDIM, SQRT2, inner, norm

DIM = 2
# the entries of an element's strain-displacement matrix B (3, 6) that are not
# zero by construction: e11 on the x dofs, e22 on the y dofs, the shear on both
_B_PATTERN = np.ones((KDIM, 3 * DIM), dtype=bool)
_B_PATTERN[0, 1::2] = _B_PATTERN[1, 0::2] = False
# Largest periodic system solved directly.  Per system of a stack of 16
# two-phase plastic tangents at rtol 1e-12 on a shared 2-core machine, one
# BLAS thread, in ms, ``solve_periodic_systems`` on the direct path (dense
# assembly, batched LU) against the CG path (assembly plus DFT-preconditioned
# CG), for 1 and 3 right-hand sides, medians of alternating runs: 0.04/1.0
# and 0.06/2.9 at 32 dofs (m = 4), 0.30/1.2 and 0.35/2.9 at 98 (m = 7),
# 0.84/1.4 and 0.9/3.7 at 162 (m = 9), 1.1/1.5 and 1.2/3.8 at 200 (m = 10),
# 1.6/1.5 and 1.8/3.9 at 242 (m = 11), 2.4/1.5 and 2.6/4.0 at 288 (m = 12).
# The single right-hand sides of the Newton solves cross over between the
# 10 x 10 and the 11 x 11 torus grids (direct about 25 % cheaper at 10, 5 %
# dearer at 11), so the cap is the 10 x 10 grid.
DENSE_PERIODIC_DOFS = 200
# The tight relative tolerance: the floor of the Newton forcing term, the
# tolerance of the tangent and macro solves, and the bound of every direct
# solve's residual check
CG_RTOL = 1e-12


@dataclass
class SimplicialMesh:
    """Triangulation of a planar domain, possibly with periodic identification.

    ``master`` maps every vertex to the vertex whose degrees of freedom it
    shares: itself by default, a master vertex for the duplicated (slave)
    vertices of a torus.  Element geometry always uses the duplicated
    coordinates so that affine element maps stay nondegenerate on the torus.
    ``h`` is the largest element edge.
    """

    vertices: np.ndarray          # (nv, 2)
    simplices: np.ndarray         # (ne, 3) int
    boundary_vertices: np.ndarray  # (nb,) int
    master: np.ndarray = None     # (nv,) int
    grid_size: int = 0            # m of an m x m torus grid from mesh_torus, else 0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.simplices = np.asarray(self.simplices, dtype=np.int64)
        self.boundary_vertices = np.asarray(self.boundary_vertices, dtype=np.int64)
        self.master = np.arange(self.n_vertices) if self.master is None \
            else np.asarray(self.master, dtype=np.int64)
        coords = self.vertices[self.simplices]          # (ne, 3, 2)
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        edges = np.stack([e1, e2, coords[:, 2] - coords[:, 1]], axis=1)
        self.h = float(np.linalg.norm(edges, axis=-1).max())
        if np.any(det <= 1e-12 * self.h**DIM):
            raise ConfigurationError("mesh has degenerate or negatively oriented elements")
        self.volumes = 0.5 * det
        self.barycenters = coords.mean(axis=1)
        # barycentric gradients: rows g1, g2 solve G [e1; e2]^T = I, g0 = -g1-g2
        inv_det = 1.0 / det
        g1 = np.stack([e2[:, 1] * inv_det, -e2[:, 0] * inv_det], axis=-1)
        g2 = np.stack([-e1[:, 1] * inv_det, e1[:, 0] * inv_det], axis=-1)
        self.grads = np.stack([-g1 - g2, g1, g2], axis=1)  # (ne, 3, 2)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.simplices.shape[0]


def _frozen(kind, data, indices, indptr, shape):
    """Sparse matrix ``kind`` (CSR or CSC) on the given arrays, made read-only.

    The arrays are not copied: the caller hands over arrays nothing else
    holds.  Duplicate or unsorted indices within a row (column) are kept,
    and no later canonicalization can reorder them in place.
    """
    idx = np.int32 if max(len(indices), *shape) < np.iinfo(np.int32).max else np.int64
    arrays = (np.asarray(data, dtype=float), np.asarray(indices, dtype=idx),
              np.asarray(indptr, dtype=idx))
    for a in arrays:
        a.flags.writeable = False
    return kind(arrays, shape=shape)


def _strain_operators(B, element_dofs, volumes, n):
    """The strain operator D (3 ne, n) and its volume-weighted transpose (vol D)^T.

    Row 3 e + k of D holds the entries of B_e[k] that are not zero by
    construction, at the element's dofs; repeated dofs of an element stay
    separate entries, and so do they in (vol D)^T, in the row order of D.
    """
    keep = np.broadcast_to(_B_PATTERN, B.shape).ravel()
    dofs = np.repeat(element_dofs[:, None, :], KDIM, axis=1).ravel()[keep]
    row_sizes = np.tile(_B_PATTERN.sum(axis=1), B.shape[0])
    D = _frozen(sp.csr_matrix, B.ravel()[keep], dofs,
                np.concatenate([[0], np.cumsum(row_sizes)]), (B.shape[0] * KDIM, n))
    T = D.T.tocsr()
    return D, _frozen(sp.csr_matrix, T.data * volumes[T.indices // KDIM], T.indices,
                      T.indptr, T.shape)


@cache
def _moduli_terms():
    """The products of B entries that make up the stiffness as a map of the moduli.

    One term for every moduli entry (k, l), k <= l, and element dof pair
    i <= j (in ``np.triu_indices(6)`` order) whose B[k, i] B[l, j] +
    B[l, i] B[k, j] does not vanish by the structure of B, in that order: 72
    terms.  Returned as the term's pair, its flat moduli index 3 k + l, and
    the four factors' flat indices into B (3 x 6) with a zero appended.  For
    k = l the sum is twice one product, which the half of a diagonal moduli
    entry takes back, so the second product's factors are the appended zero.
    Built on first use, so that importing the module does not run it.
    """
    pair_i, pair_j = np.triu_indices(3 * DIM)
    zero = KDIM * 3 * DIM
    terms = []
    for k, l in zip(*np.triu_indices(KDIM)):
        pairs = np.flatnonzero(_B_PATTERN[k, pair_i] & _B_PATTERN[l, pair_j]
                               | _B_PATTERN[l, pair_i] & _B_PATTERN[k, pair_j])
        i, j = pair_i[pairs], pair_j[pairs]
        second = [np.full(pairs.size, zero)] * 2 if k == l \
            else [3 * DIM * l + i, 3 * DIM * k + j]
        terms.append(np.stack([pairs, np.full(pairs.size, KDIM * k + l),
                               3 * DIM * k + i, 3 * DIM * l + j, *second]))
    table = np.concatenate(terms, axis=1)
    table.flags.writeable = False          # one table for every caller
    pairs, column, *factors = table
    return pairs, column, factors


# Elements per pass of ``_moduli_map``.  Whole-mesh (ne, 72) temporaries
# made P1Space(mesh_torus(16, 2)) about 1.5 ms slower (one thread, medians).
_MODULI_CHUNK = 128


def _moduli_map(B, volumes, upper_of_pair, multiplicity, n_upper):
    """The stiffness as a linear map of the moduli: a CSC matrix (n_upper, 9 ne).

    Its product with moduli (ne, 3, 3) flattened to (9 ne,) gives the upper
    nonzeros (row <= column) of the stiffness.  Column 9 e + 3 k + l, k <= l,
    holds what C_e[k, l] adds to them: vol_e (B_e[k, i] B_e[l, j] +
    B_e[l, i] B_e[k, j]), halved for k = l, for every element dof pair
    i <= j, at the pair's upper nonzero ``upper_of_pair`` (ne, 21), times
    the pair's ``multiplicity`` (ne, 21): 2 where the pair is one dof twice
    (on tori of m <= 2), 0 where it touches a constrained dof, else 1.
    Columns l < k are empty, so the lower moduli entries are never read.
    Products that vanish by the structure of B are never formed
    (``_moduli_terms``), exact zeros are dropped, and no element matrix is
    built.
    """
    ne = B.shape[0]
    pairs, column, (f1, f2, f3, f4) = _moduli_terms()
    flat = np.concatenate([B.reshape(ne, -1), np.zeros((ne, 1))], axis=1)
    weighted = flat * volumes[:, None]
    multiplicity = multiplicity[:, pairs] if (multiplicity != 1.0).any() else None
    upper_of_pair = upper_of_pair.astype(np.int32 if n_upper < np.iinfo(np.int32).max
                                         else np.int64)
    keep = np.empty((ne, pairs.size), dtype=bool)
    data, rows = [], []
    for part in (slice(s, s + _MODULI_CHUNK) for s in range(0, ne, _MODULI_CHUNK)):
        w, f = weighted[part], flat[part]
        values = w[:, f1] * f[:, f2]
        values += w[:, f3] * f[:, f4]
        if multiplicity is not None:
            values *= multiplicity[part]
        kept = np.flatnonzero(np.not_equal(values, 0.0, out=keep[part]))
        data.append(values.take(kept))
        rows.append(upper_of_pair[part][:, pairs].take(kept))
    # the entries run by element, then by moduli entry: the CSC column order
    starts = np.flatnonzero(np.diff(column, prepend=-1))
    counts = np.zeros((ne, KDIM * KDIM), dtype=np.int64)
    counts[:, column[starts]] = np.add.reduceat(keep, starts, axis=1)
    return _frozen(sp.csc_matrix, np.concatenate(data), np.concatenate(rows),
                   np.concatenate([[0], np.cumsum(counts.ravel())]), (n_upper, counts.size))


def _apply(op, x):
    """The products op x of vectors x (..., op.shape[1]), shape (..., op.shape[0])."""
    flat = x.reshape(-1, x.shape[-1])
    return (op @ flat.T).T.reshape(x.shape[:-1] + (op.shape[0],))


def _lattice(n, name, triangle=False):
    """Lattice coordinates (i, j) of the vertices of an n x n grid, and its triangles.

    Grid vertex (i, j) has id i (n + 1) + j, and lattice square (i, j) splits
    into the triangles [v00, v10, v01] and [v10, v11, v01], squares in
    row-major order.  With ``triangle`` only the part i + j <= n is kept,
    vertices renumbered in the same order.  ``name`` is the input that sets n.
    """
    i, j = np.divmod(np.arange(array_size((n + 1) ** 2, name)), n + 1)
    si, sj = np.divmod(np.arange(n * n), n)
    v00 = si * (n + 1) + sj
    v10, v01 = v00 + (n + 1), v00 + 1
    tris = np.stack([np.stack([v00, v10, v01], axis=-1),
                     np.stack([v10, v10 + 1, v01], axis=-1)], axis=1)
    if not triangle:
        return i, j, tris.reshape(-1, 3)
    keep = i + j <= n
    tris = tris[np.stack([si + sj < n, si + sj < n - 1], axis=-1)]
    return i[keep], j[keep], (np.cumsum(keep) - 1)[tris]


def mesh_simplex(corners, h):
    """Uniformly refine one triangle into elements of diameter < h.

    Midpoint refinement is applied as a structured barycentric lattice, so
    lattice-aligned right triangles refine into grid-aligned elements.  The
    union of the elements covers the input triangle exactly.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (3, 2):
        raise ConfigurationError(f"expected 3 corner points in 2-d, got {corners.shape}")
    positive_number(h, "mesh size h")
    edges = [corners[1] - corners[0], corners[2] - corners[0], corners[2] - corners[1]]
    diam = norm(np.array(edges)).max()
    cross = edges[0][0] * edges[1][1] - edges[0][1] * edges[1][0]
    if abs(cross) < 1e-14 * max(diam, 1.0) ** 2:
        raise ConfigurationError("input simplex is degenerate")
    if cross < 0:
        corners = corners[[0, 2, 1]]
    n = 1
    while diam / n >= h and n < INT64_LIMIT:  # _lattice rejects n this large
        n *= 2
    i, j, tris = _lattice(n, "mesh size h", triangle=True)
    verts = corners[0] + (i / n)[:, None] * (corners[1] - corners[0]) \
        + (j / n)[:, None] * (corners[2] - corners[0])
    boundary = np.flatnonzero((i == 0) | (j == 0) | (i + j == n))
    return SimplicialMesh(verts, tris, boundary)


def mesh_unit_square(n):
    """Structured triangulation of [0,1]^2 with n cells per side."""
    positive_int(n, "cells per side n")
    i, j, tris = _lattice(n, "cells per side n")
    boundary = np.flatnonzero((i == 0) | (i == n) | (j == 0) | (j == n))
    return SimplicialMesh(np.stack([i, j], axis=-1) * (1.0 / n), tris, boundary)


def mesh_torus(n_cells, refine):
    """Periodic structured triangulation of [0, N)^2, aligned with unit cells.

    Every element lies inside exactly one integer lattice cell.  Opposite
    faces are identified through ``master``: grid vertex (i, j) shares the
    degrees of freedom of vertex (i mod m, j mod m), which is the
    (i * m + j)-th master, m = N * r being ``grid_size``.  The duplicated
    boundary vertices keep their geometric coordinates.
    """
    m = positive_int(n_cells, "torus cells N") * positive_int(refine, "torus refinements r")
    i, j, tris = _lattice(m, "torus cells N times refinements r")
    return SimplicialMesh(np.stack([i, j], axis=-1) * (1.0 / refine), tris,
                          np.asarray([], dtype=np.int64),
                          master=(i % m) * (m + 1) + j % m, grid_size=m)


class P1Space:
    """Vector-valued P1 space with Dirichlet and periodic constraints folded in.

    The mesh's boundary vertices carry Dirichlet constraints, which never
    appear in solve vectors; periodic slave vertices share their master's
    degrees of freedom.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        master = mesh.master
        constrained = np.zeros(mesh.n_vertices, dtype=bool)
        constrained[master[mesh.boundary_vertices]] = True
        constrained = constrained[master]  # constraint lives on the master
        self.dirichlet_vertices = np.flatnonzero(
            constrained & (master == np.arange(mesh.n_vertices))
        )

        is_master = master == np.arange(mesh.n_vertices)
        self.master_ids = np.flatnonzero(is_master)
        packed_of_vertex = -np.ones(mesh.n_vertices, dtype=np.int64)
        packed_of_vertex[self.master_ids] = np.arange(self.master_ids.size)
        self.packed_of_vertex = packed_of_vertex[master]  # every vertex -> packed master slot
        self.n_packed = self.master_ids.size * DIM

        self._translations = np.tile(np.eye(DIM), self.master_ids.size) \
            / np.sqrt(self.master_ids.size)
        self._translations.flags.writeable = False

        free = ~constrained[self.master_ids]
        self.free_mask = np.repeat(free, DIM)
        self.free_dofs = np.flatnonzero(self.free_mask)

        # per-element packed dof indices, (ne, 6)
        tri = mesh.simplices
        slots = self.packed_of_vertex[tri]                       # (ne, 3)
        self.element_dofs = (slots[:, :, None] * DIM + np.arange(DIM)).reshape(-1, 3 * DIM)

        # strain-displacement matrices B: (ne, 3, 6), Mandel rows
        g = mesh.grads                                           # (ne, 3, 2)
        B = np.zeros((mesh.n_elements, KDIM, 3 * DIM))
        B[:, 0, 0::2] = g[:, :, 0]
        B[:, 1, 1::2] = g[:, :, 1]
        B[:, 2, 0::2] = g[:, :, 1] / SQRT2
        B[:, 2, 1::2] = g[:, :, 0] / SQRT2
        self.B = B

        self._strain_op, self._force_op = _strain_operators(
            B, self.element_dofs, mesh.volumes, self.n_packed)

        # CSR pattern of the stiffness on the free dofs, from the element dof
        # pairs i <= j: the upper nonzeros (row <= column), numbered in sorted
        # order, and the upper partner of every nonzero.  A pair that touches
        # a constrained dof takes the key n * n, past every nonzero, and
        # multiplicity 0, so the map drops its terms as exact zeros.
        n = self.free_dofs.size
        free_of_packed = np.full(self.n_packed, -1)
        free_of_packed[self.free_dofs] = np.arange(n)
        pair_i, pair_j = np.triu_indices(3 * DIM)
        dofs = free_of_packed[self.element_dofs]
        first, second = dofs[:, pair_i], dofs[:, pair_j]
        low, high = np.minimum(first, second), np.maximum(first, second)
        kept = low >= 0
        upper_keys, upper_of_pair = np.unique(np.where(kept, low * n + high, n * n),
                                              return_inverse=True)
        upper_keys = upper_keys[upper_keys < n * n]
        # a pair that is one dof twice (tori of m <= 2) counts twice
        multiplicity = kept * np.where((low == high) & (pair_i != pair_j), 2.0, 1.0)
        upper_rows, upper_cols = np.divmod(upper_keys, n)
        off = np.flatnonzero(upper_rows != upper_cols)
        keys = np.concatenate([upper_keys, upper_cols[off] * n + upper_rows[off]])
        order = np.argsort(keys, kind="stable")
        self._keys = keys = keys[order]    # flat position of each nonzero in a dense matrix
        self._partner = np.concatenate([np.arange(upper_keys.size), off])[order]
        key_rows, key_cols = np.divmod(keys, n)
        idx = np.int32 if keys.size < np.iinfo(np.int32).max else np.int64
        self._indices = key_cols.astype(idx)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(key_rows, minlength=n))]).astype(idx)
        self._indices.flags.writeable = False
        self._indptr.flags.writeable = False
        self._moduli_map = _moduli_map(B, mesh.volumes, upper_of_pair.reshape(kept.shape),
                                       multiplicity, upper_keys.size)

        # torus grid: lattice offset and dof components of every nonzero, the
        # DFT matrix F[k, x] = exp(-2 pi i k x / m), and the real half-spectrum
        # transforms along the second grid axis, over k = 0 .. m // 2 and per
        # dof component: forward, rows (x, c) to columns (c, k, [cos, -sin]),
        # so that a real product viewed as complex is the DFT of each
        # component; inverse, rows (c, k, [Re, Im]) to columns (x, c), with each
        # k weighted by the number of wavevectors among k and -k it stands for
        m = mesh.grid_size
        if m:
            gi, gj = np.divmod(np.arange(n) // DIM, m)
            di = (gi[key_cols] - gi[key_rows]) % m
            dj = (gj[key_cols] - gj[key_rows]) % m
            self._lattice_offset = ((di * m + dj) * DIM + key_rows % DIM) * DIM \
                + key_cols % DIM
            k = np.arange(m)
            self._dft = np.exp(-2j * np.pi * (np.outer(k, k) % m) / m)
            k_half = k[:m // 2 + 1]
            half = self._dft[:, k_half]                             # (x, k)
            weight = np.where((k_half == 0) | (2 * k_half == m), 1.0, 2.0)
            parts = np.stack([half.real, half.imag], axis=-1)      # (x, k, 2)
            eye = np.eye(DIM)
            self._half_forward = np.einsum("xkp,cd->xcdkp", parts, eye).reshape(m * DIM, -1)
            self._half_inverse = np.einsum("xkp,k,cd->ckpxd", parts, weight, eye) \
                .reshape(-1, m * DIM)

    # -- field packing -------------------------------------------------

    def pack_field(self, u):
        """Nodal fields (..., nv, 2) -> packed vectors (..., n) over master dofs."""
        u = np.asarray(u)
        return u[..., self.master_ids, :].reshape(u.shape[:-2] + (-1,))

    def unpack_field(self, packed):
        """Packed vectors (..., n) -> nodal fields (..., nv, 2), slaves mirroring masters."""
        u = packed.reshape(packed.shape[:-1] + (-1, DIM))
        return u[..., self.packed_of_vertex, :]

    # -- strains -------------------------------------------------------

    def element_strains(self, u):
        """Element-wise Mandel strains D u of packed vectors (..., n), shape (..., ne, 3)."""
        u = np.asarray(u, dtype=float)
        return _apply(self._strain_op, u).reshape(u.shape[:-1] + (-1, KDIM))

    def element_gradients(self, u):
        """Element-wise full gradients of nodal fields (..., nv, 2), shape (..., ne, 2, 2)."""
        local = np.asarray(u)[..., self.mesh.simplices, :]       # (..., ne, 3, 2)
        return np.einsum("...eia,eib->...eab", local, self.mesh.grads)

    def volume_average(self, fields):
        """Volume averages (m, k) of element fields (m, ne, k)."""
        w = self.mesh.volumes
        return np.einsum("e,mek->mk", w, fields) / w.sum()

    # -- assembly ------------------------------------------------------

    def _stiffness_values(self, moduli):
        """Nonzero values of the stiffness of moduli (ne, 3, 3) or stacks (S, ne, 3, 3).

        The moduli must be finite and symmetric.  The upper nonzeros are one
        product with the map built with the space (``_moduli_map``), which
        reads the upper moduli entries only, and every lower nonzero takes
        its upper partner's value, so every operator is symmetric bit for
        bit.  The largest |entry|, which scales the symmetry test, is not
        finite as soon as any entry is not, lower ones included.  Shape
        (nnz,) or (S, nnz).
        """
        moduli = np.asarray(moduli, dtype=float)
        flat = moduli.reshape(moduli.shape[:-2] + (KDIM * KDIM,))
        scale = max(np.abs(flat).max(initial=0.0), np.finfo(float).tiny)
        if not np.isfinite(scale):
            raise NumericalError("element moduli are not finite")
        if np.abs(flat[..., [1, 2, 5]] - flat[..., [3, 6, 7]]).max(initial=0.0) \
                > 1e-12 * scale:
            raise NumericalError("element moduli lost symmetry")
        upper = _apply(self._moduli_map, flat.reshape(flat.shape[:-2] + (-1,)))
        return upper.take(self._partner, axis=-1)

    def assemble_operator(self, moduli):
        """Stiffness CSR on the free dofs from (ne, 3, 3) symmetric Mandel moduli.

        Its rows and columns follow ``free_dofs``; on a torus every dof is free.
        """
        n = self.free_dofs.size
        return sp.csr_matrix((self._stiffness_values(moduli), self._indices, self._indptr),
                             shape=(n, n))

    def assemble_dense(self, moduli):
        """Dense stiffness stack (S, n, n) on the free dofs from (S, ne, 3, 3) moduli.

        Each matrix equals ``assemble_operator`` of its moduli; meant for
        small systems, whose dense storage is cheap.
        """
        n = self.free_dofs.size
        data = self._stiffness_values(moduli)
        A = np.zeros(data.shape[:-1] + (n * n,))
        A[..., self._keys] = data
        return A.reshape(data.shape[:-1] + (n, n))

    def _element_sums(self, op, stresses):
        """Packed vectors op z of element stresses (..., ne, 3) -> (..., n)."""
        z = np.asarray(stresses, dtype=float)
        return _apply(op, z.reshape(z.shape[:-2] + (-1,)))

    def internal_forces(self, stresses):
        """Packed nodal forces of element stresses (..., ne, 3): sum_e vol_e B_e^T z_e."""
        return self._element_sums(self._force_op, stresses)

    def force_scale(self, stresses):
        """The nodal forces of |z_e| through |B_e|: their size without cancellation.

        Every entry |vol_e| |B_e[k, i]| of the operator is taken apart, before
        any entries that share a dof are summed.
        """
        op = self._force_op
        magnitude = sp.csr_matrix((np.abs(op.data), op.indices, op.indptr), shape=op.shape)
        return self._element_sums(magnitude, np.abs(stresses))

    def load_vector(self, f_values):
        """Packed load vector by barycenter quadrature, f given per element (ne, 2)."""
        contrib = (self.mesh.volumes[:, None] / 3.0) * np.asarray(f_values)  # (ne, 2)
        return np.bincount(self.element_dofs.ravel(), minlength=self.n_packed,
                           weights=np.repeat(contrib[:, None, :], 3, axis=1).ravel())

    def translation_vectors(self):
        """Packed unit translation fields, one row per component, shape (2, n_packed)."""
        return self._translations


def jacobi(A):
    """Jacobi preconditioner r -> r / diag(A); non-positive diagonal entries act as 1."""
    diag = A.diagonal()
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
    return lambda r: inv_diag * r


def reference_preconditioner(space, A):
    """Exact inverse of the translation average of a torus-grid operator.

    ``A`` is assembled by ``space.assemble_operator`` on a ``mesh_torus``
    grid of m x m vertices.  Averaging A over the m^2 lattice translations
    gives a block-circulant operator, whose DFT is a Hermitian 2 x 2 symbol
    per wavevector k.  The returned map r -> z inverts the symbol in closed
    form and zeroes the k = 0 (translation) mode.  Its input and output are
    real, so it works on the half spectrum k2 = 0 .. m // 2: one real
    product with the cosines and sines along the second grid axis, then one
    complex m x m DFT product along the first, and the same back with each
    k2 weighted by the number of wavevectors among k and -k it stands for.
    At m = 32 on one thread one apply takes 58 us, against 105 us with full
    complex m x m DFT products and 126 us with ``numpy.fft.rfft2`` and
    ``irfft2``.
    """
    m = space.mesh.grid_size
    if not m:
        raise ConfigurationError("the reference preconditioner needs a mesh_torus grid")
    F = space._dft
    Fc = F.conj()

    def half_spectrum(fields):
        """DFT of real fields (m, m, 2): (k1, (c, k2)) for k2 = 0 .. m // 2, (m, 2 h)."""
        return F @ (fields.reshape(m, -1) @ space._half_forward).view(complex)

    kernel = np.bincount(space._lattice_offset, weights=A.data, minlength=m * m * DIM * DIM)
    kernel = kernel.reshape(m, m, DIM, DIM) / m**2
    # symbol S(k) = sum_d K(d) exp(2 pi i k.d / m), the conjugate DFT of the
    # real kernel; its (1, 0) block is conj(S01)
    h = m // 2 + 1
    s0, s1 = (half_spectrum(kernel[:, :, a]).conj() for a in range(DIM))
    s00, s01, s11 = s0[:, :h].real, s0[:, h:], s1[:, h:].real
    det = s00 * s11 - np.abs(s01) ** 2
    det[0, 0] = np.inf                       # zero the translation mode
    det *= m**2                              # and fold in the inverse DFT's 1/m^2
    i00, i11, i01 = s11 / det, s00 / det, -s01 / det
    i10 = i01.conj()

    def apply(r):
        w = half_spectrum(r)
        w0, w1 = w[:, :h], w[:, h:]
        z = np.concatenate([i00 * w0 + i01 * w1, i10 * w0 + i11 * w1], axis=1)
        return ((Fc @ z).view(float) @ space._half_inverse).ravel()

    return apply


def pcg(A, b, precond, rtol=1e-10):
    """Preconditioned conjugate gradients from a zero start; deterministic.

    ``A`` is a symmetric sparse matrix and ``precond`` a symmetric positive
    (semi)definite map r -> z, e.g. ``jacobi(A)``.  At most 10 times the
    system size iterations run.  Returns (x, iterations).  Raises
    NumericalError with the iteration and the residual on a non-finite
    right-hand side or residual, on a breakdown (p^T A p <= 0, which an SPD
    operator never shows) and on non-convergence.
    """
    b = np.asarray(b, dtype=float)
    maxiter = 10 * b.size
    x = np.zeros_like(b)
    r = b.copy()
    res = norm_b = norm(b)
    if not np.isfinite(norm_b):
        raise NumericalError("conjugate gradients got a non-finite right-hand side "
                             "at iteration 0", residual=float(res))
    target = rtol * norm_b
    if res <= target:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = inner(r, z)
    for it in range(1, maxiter + 1):
        Ap = A @ p
        pAp = inner(p, Ap)
        # a non-finite residual reaches p^T A p one iteration later
        if not pAp > 0:
            what = "broke down" if np.isfinite(pAp) else "hit a non-finite value"
            raise NumericalError(f"conjugate gradients {what} at iteration {it}: "
                                 f"p^T A p = {pAp:.3e}", residual=float(res))
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = norm(r)
        if res <= target:
            return x, it
        z = precond(r)
        rz_new = inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NumericalError(
        f"conjugate gradients did not converge in {maxiter} iterations",
        residual=float(res),
    )


def solve_periodic(space, A, rhs, rtol, precond):
    """Solve a periodic (all-free) torus system; returns the zero-mean solution.

    ``A`` is a CSR matrix from ``space.assemble_operator`` and ``rhs`` is
    (n,), or (n, k) for k right-hand sides.  CG runs on each right-hand
    side projected off the translation kernel (a periodic problem's load is
    orthogonal to it up to roundoff, which CG could not remove), all with
    ``precond``: a ``reference_preconditioner`` of the same space, whose
    range holds no translation.  ``solve_periodic_systems`` calls it above
    ``DENSE_PERIODIC_DOFS`` unknowns only, with the system's held reference.
    """
    b = np.asarray(rhs, dtype=float)
    columns = b.reshape(b.shape[0], -1)
    x = np.empty_like(columns)
    for j in range(columns.shape[1]):
        column = columns[:, j]
        for t in space.translation_vectors():
            column = column - inner(t, column) * t
        x[:, j], _ = pcg(A, column, precond, rtol=rtol)
    return x.reshape(b.shape)


def solve_periodic_systems(space, moduli, rhs, rtol, preconditioners):
    """Solve the periodic systems of S moduli stacks (S, ne, 3, 3) at once.

    ``rhs`` is (S, n), or (S, n, k) for k right-hand sides per system, and
    ``rtol`` is one relative tolerance for all systems or one per system
    (S,).  Systems of at most ``DENSE_PERIODIC_DOFS`` unknowns are assembled
    as one dense stack and go to ``solve_periodic_direct``, which ignores
    ``rtol`` and ``preconditioners`` and checks every solve at ``CG_RTOL``.
    Larger ones are assembled one at a time and go to ``solve_periodic``
    with their own tolerance and their own ``reference_preconditioner`` for
    all their right-hand sides.  ``preconditioners`` holds the caller's slot
    of each system, a list that is empty or holds the system's reference:
    an empty slot is filled from the system's operator, and a held one is
    used as it is, so each system's reference is built once, from its first
    operator.  A failed solve raises NumericalError.
    """
    rhs = np.asarray(rhs, dtype=float)
    if space.n_packed <= DENSE_PERIODIC_DOFS:
        return solve_periodic_direct(space, space.assemble_dense(moduli), rhs)
    rtol = np.broadcast_to(rtol, (len(moduli),))
    x = np.empty_like(rhs)
    for s, (system_moduli, held) in enumerate(zip(moduli, preconditioners)):
        A = space.assemble_operator(system_moduli)
        if not held:
            held.append(reference_preconditioner(space, A))
        # positional: the direct solver that bench/test_bench.py patches in for
        # solve_periodic takes (space, A, rhs, rtol, x0) and ignores the fifth
        x[s] = solve_periodic(space, A, rhs[s], rtol[s], held[0])
    return x


def solve_periodic_direct(space, A, rhs):
    """Solve a stack of small periodic torus systems directly; zero-mean solutions.

    ``A`` is (S, n, n) from ``space.assemble_dense`` and ``rhs`` is (S, n),
    or (S, n, k) for k right-hand sides per system, which share one
    factorization.  The kernel of each A is exactly the two translations T
    (orthonormal rows), so with s the mean diagonal entry A + s T^T T is
    invertible.  One batched LU solve with it on the right-hand sides
    projected off T gives the solutions, which are then projected off T
    too.  Every system's residual must lie within ``CG_RTOL`` of its
    right-hand side, whatever tolerance its caller solves to; a singular
    matrix or a non-finite or larger residual raises NumericalError with the
    worst residual.
    """
    b = np.asarray(rhs, dtype=float)
    if space.n_packed == DIM:
        return np.zeros_like(b)  # a one-vertex torus holds only translations
    T = space.translation_vectors()
    single = b.ndim == 2
    if single:
        b = b[..., None]
    b = b - T.T @ (T @ b)
    shift = np.trace(A, axis1=1, axis2=2) / space.n_packed
    try:
        x = np.linalg.solve(A + shift[:, None, None] * (T.T @ T), b)
    except np.linalg.LinAlgError:
        raise NumericalError("direct periodic solve met a singular operator") from None
    x = x - T.T @ (T @ x)
    res = np.linalg.norm(b - A @ x, axis=1)                     # (S, k)
    bound = CG_RTOL * np.linalg.norm(b, axis=1)
    if not np.all(res <= bound):  # NaN fails
        worst = np.unravel_index(np.argmax(np.where(res <= bound, -1.0, res)), res.shape)
        raise NumericalError(
            f"direct periodic solve left a residual of {res[worst]:.3e}, above rtol "
            f"{CG_RTOL:.1e} relative to its right-hand side", residual=float(res[worst]))
    return x[..., 0] if single else x


def solve_elastic(space, stiffness_field, f=None, g=None, rtol=1e-10):
    """Galerkin solution of linear elasticity with Dirichlet data.

    ``stiffness_field`` is one Mandel stiffness matrix (3, 3) for all
    elements or one per element (ne, 3, 3); ``f`` is a load callable
    f(x) -> (2,), evaluated at the barycenters, and ``g`` a callable
    g(x) -> (2,) of Dirichlet values, evaluated at the constrained vertices;
    either may be None for zero data.  Returns the nodal displacement.
    """
    mesh = space.mesh
    ne = mesh.n_elements
    moduli = np.asarray(stiffness_field, dtype=float)
    if moduli.shape == (KDIM, KDIM):
        moduli = np.broadcast_to(moduli, (ne, KDIM, KDIM))
    if moduli.shape != (ne, KDIM, KDIM):
        raise ConfigurationError(f"stiffness field has shape {moduli.shape}")
    bc = np.zeros((mesh.n_vertices, DIM))
    if g is not None:
        idx = space.dirichlet_vertices
        bc[idx] = g(mesh.vertices[idx])
    u = space.pack_field(bc)          # the lift of the data, zero on the free dofs
    rhs = -space.internal_forces(np.einsum("ekl,el->ek", moduli, space.element_strains(u)))
    if f is not None:
        rhs += space.load_vector(f(mesh.barycenters))
    A = space.assemble_operator(moduli)
    free = space.free_dofs
    u[free], _ = pcg(A, rhs[free], jacobi(A), rtol=rtol)
    return space.unpack_field(u)


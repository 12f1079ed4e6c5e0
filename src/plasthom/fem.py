"""Simplicial meshes, P1 vector elements, assembly and sparse solves (d=2).

Meshes are triangulations with optional periodic vertex identification
(torus RVE carriers).  Displacements are continuous piecewise-linear vector
fields; strains are element-wise constant, so one-point (barycenter)
quadrature is exact for stiffness and internal-force integrals with
element-wise constant coefficients.

Every mesh is built on a ``lattice.Lattice``, an affine image of an n x n
lattice of squares split into two triangle templates, which the mesh
records; a space needs that record.  Element strains and nodal forces are
products with two sparse operators that each space builds once: the strain
operator D, which places the rows of every element's strain-displacement
matrix B_e at the element's packed dofs, and its volume-weighted transpose
(vol D)^T, stored as its own CSR matrix.  The stiffness is linear in the
moduli, so each space also builds once its fixed CSR pattern on the free
dofs, the unknowns of its systems, and a sparse map from the six distinct
entries of every element's moduli to the pattern's upper nonzeros.  None
of them is searched for element by element: the pattern is a fixed
7-vertex stencil of 2 x 2 blocks (``lattice.stencil_pattern``), B_e is its
template's B, and the map's products are formed once per template and
placed at each square's stencil entries by index arithmetic.  On a dyadic
lattice, whose vertex coordinates and edges are exact in floating point
(every mesh of the benchmark, among them), the templates' B equal each
element's to the last bit.  Assembly is one product with that map
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
across solves: ``cellproblem.CellStack.solve``, the one caller of
``solve_periodic_systems``, keeps for each cell the translation average of
its first operator for the cell's whole life, since a mean over the whole
torus hardly moves between Newton corrections and steps.
The translation kernel of periodic problems is projected out of the
right-hand side and of the solution, which is the zero-mean representative.

Every CG solve stops at a relative residual tolerance ``rtol``, and a stack of
periodic systems takes one per system: each Newton correction is solved
only as tightly as its system's own residual and Newton tolerance need (an
inexact Newton forcing term with Kelley's terminal safeguard,
``finescale.forcing_term``, floored at ``CG_RTOL``), while the FE2 macro
and elastic solves keep a fixed tight tolerance.  A direct solve ignores
the tolerance: its residual check takes ``CG_RTOL`` for every system.

CG's inner products and norms and the translation projections are taken by
``tensors.inner`` and ``tensors.norm``, never by BLAS: above about 10,000
entries OpenBLAS splits a dot product over its threads, which changes its
rounding with the thread count and leaves a worker spinning between calls.
So a solve's bits do not depend on the BLAS thread count.  Matrix products
(sparse matvecs, the DFT transforms, batched LU solves) stay with numpy and
scipy.
"""

from dataclasses import dataclass
from functools import cached_property

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
from .lattice import DIM, SLOTS, STENCIL, TEMPLATES, Lattice, index_dtype, stencil_pattern
from .tensors import KDIM, SQRT2, inner, norm

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


def _lattice_mesh(kind, n, origin, steps, name):
    """The SimplicialMesh of a ``Lattice``; ``name`` is the input that sets n."""
    array_size((n + 1) ** 2, name)
    lattice = Lattice(kind, n, origin, steps)
    i, j, tris, _ = lattice.grid
    vertices = origin + i[:, None] * steps[0] + j[:, None] * steps[1]
    if kind == "torus":
        return SimplicialMesh(vertices, tris, np.zeros(0, dtype=np.int64),
                              master=(i % n) * (n + 1) + j % n, lattice=lattice)
    outer = (i + j == n) if kind == "triangle" else (i == n) | (j == n)
    return SimplicialMesh(vertices, tris, np.flatnonzero((i == 0) | (j == 0) | outer),
                          lattice=lattice)


@dataclass
class SimplicialMesh:
    """Triangulation of a planar domain, possibly with periodic identification.

    ``master`` maps every vertex to the vertex whose degrees of freedom it
    shares: itself by default, a master vertex for the duplicated (slave)
    vertices of a torus.  Element geometry always uses the duplicated
    coordinates so that affine element maps stay nondegenerate on the torus.
    ``h`` is the largest element edge.  ``lattice`` is the ``Lattice`` that
    the mesh builders record, whose vertex and element counts the mesh must
    have; the geometry is then its two templates', ``template_volumes`` (2,)
    and ``template_grads`` (2, 3, 2), which ``element_types`` index.  Without
    one every element is its own template, and the mesh has no ``P1Space``.
    """

    vertices: np.ndarray          # (nv, 2)
    simplices: np.ndarray         # (ne, 3) int
    boundary_vertices: np.ndarray  # (nb,) int
    master: np.ndarray = None     # (nv,) int
    lattice: Lattice = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.simplices = np.asarray(self.simplices, dtype=np.int64)
        self.boundary_vertices = np.asarray(self.boundary_vertices, dtype=np.int64)
        self.master = np.arange(self.n_vertices) if self.master is None \
            else np.asarray(self.master, dtype=np.int64)
        x0, x1, x2 = (self.vertices.take(self.simplices[:, c], axis=0) for c in range(3))
        self.barycenters = (x0 + x1 + x2) / 3.0
        if self.lattice is None:
            edges = np.stack([x1 - x0, x2 - x0, x2 - x1], axis=1)
            self.element_types = np.arange(self.n_elements)
        else:
            i, _, tris, places = self.lattice.grid
            if (self.n_vertices, self.n_elements) != (i.size, len(tris)):
                raise ConfigurationError(
                    f"a {self.lattice.kind} lattice of n = {self.lattice.n} has {i.size} "
                    f"vertices and {len(tris)} elements, not {self.n_vertices} and "
                    f"{self.n_elements}")
            # the templates' edges: lattice offsets under the steps, exactly
            edges = (TEMPLATES[:, [1, 2, 2]] - TEMPLATES[:, [0, 0, 1]]) @ self.lattice.steps
            self.element_types = places % 2
        e1, e2 = edges[:, 0], edges[:, 1]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.h = float(np.linalg.norm(edges, axis=-1).max())
        if np.any(det <= 1e-12 * self.h**DIM):
            raise ConfigurationError("mesh has degenerate or negatively oriented elements")
        # barycentric gradients: rows g1, g2 solve G [e1; e2]^T = I, g0 = -g1-g2
        inv_det = 1.0 / det
        g1 = np.stack([e2[:, 1] * inv_det, -e2[:, 0] * inv_det], axis=-1)
        g2 = np.stack([-e1[:, 1] * inv_det, e1[:, 0] * inv_det], axis=-1)
        self.template_volumes, self.template_grads = 0.5 * det, np.stack([-g1 - g2, g1, g2], 1)
        self.volumes = self.template_volumes.take(self.element_types)
        self.grads = self.template_grads.take(self.element_types, axis=0)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.simplices.shape[0]


def _frozen(kind, data, indices, indptr, shape):
    """Sparse matrix ``kind`` (CSR or CSC) on the given arrays, made read-only.

    The arrays are not copied: the caller hands over arrays that only frozen
    matrices hold.  Duplicate or unsorted indices within a row (column) are
    kept, and no later canonicalization can reorder them in place.
    """
    idx = index_dtype(max(len(indices), *shape))
    arrays = (np.asarray(data, dtype=float), np.asarray(indices, dtype=idx),
              np.asarray(indptr, dtype=idx))
    for a in arrays:
        a.flags.writeable = False
    return kind(arrays, shape=shape)


def _strain_operators(B, volumes, types, element_dofs, n):
    """The strain operator D (3 ne, n), (vol D)^T and its entrywise magnitude |vol D|^T.

    Row 3 e + k of D holds the entries of B[types[e], k], of the templates B
    (2, 3, 6), that are not zero by construction, at the element's dofs;
    repeated dofs of an element stay separate entries, in (vol D)^T too:
    scipy's transpose of D with each template's entries times its volume.
    """
    entries = B.reshape(len(B), -1)[:, _B_PATTERN.ravel()]                # (2, 12)
    dofs = np.take(element_dofs, np.nonzero(_B_PATTERN)[1], axis=1).ravel()
    indptr = np.concatenate([[0], np.cumsum(np.tile(_B_PATTERN.sum(axis=1), len(types)))])
    T = sp.csc_matrix(((entries * volumes[:, None]).take(types, axis=0).ravel(), dofs, indptr),
                      shape=(n, KDIM * len(types))).tocsr()
    for a in (T.data, T.indices, T.indptr):
        a.flags.writeable = False
    return (_frozen(sp.csr_matrix, entries.take(types, axis=0).ravel(), dofs, indptr,
                    T.shape[::-1]),
            T, _frozen(sp.csr_matrix, np.abs(T.data), T.indices, T.indptr, T.shape))


def _stiffness_terms():
    """The terms of the stiffness as a map of the moduli: a moduli entry k <= l
    (column 3 k + l) with an element dof pair i <= j, 6 x 21 in that order,
    and a zero term last that pads lists.  Returns (k, l), (i, j), each
    term's column, whether each of the 64 patterns of an element (bits 0-2
    its free vertices, bits 3-5 its vertex pairs (0, 1), (0, 2), (1, 2) that
    are one vertex) keeps it and counts it twice, (64, 127), and per
    template its block entry, (2, 127): the square corner (2 i + j) of its
    first vertex, its components and its stencil slot."""
    (k, l), (i, j) = np.triu_indices(KDIM), np.triu_indices(3 * DIM)
    column = np.append(np.repeat(KDIM * k + l, len(i)), 0)
    dof_i, dof_j = np.append(np.tile(i, len(k)), 0), np.append(np.tile(j, len(k)), 0)
    first, second = dof_i // DIM, dof_j // DIM
    bits = (np.arange(64)[:, None] >> np.arange(6) & 1).astype(bool)
    one_vertex = bits[:, np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]])[first, second]]
    twice = (first != second) & (dof_i % DIM == dof_j % DIM) & one_vertex
    template = np.arange(2)[:, None]
    block = (TEMPLATES[template, first] @ [DIM, 1] * DIM * DIM
             + dof_i % DIM * DIM + dof_j % DIM) * len(STENCIL) + SLOTS[template, first, second]
    return (k, l), (i, j), column, bits[:, first] & bits[:, second], twice, block


_TERMS = _stiffness_terms()


def _moduli_map(B, volumes, lattice, ranks, element_ranks, block_partner, n_upper):
    """The stiffness as a linear map of the moduli: a CSC matrix (n_upper, 9 ne).

    Its product with moduli (ne, 3, 3) flattened to (9 ne,) gives the upper
    nonzeros (row <= column) of the stiffness.  Column 9 e + 3 k + l, k <= l,
    holds what C_e[k, l] adds to them: vol_e (B_e[k, i] B_e[l, j] +
    B_e[l, i] B_e[k, j]), halved for k = l, for every element dof pair
    i <= j, at the pair's upper nonzero, twice where the pair is one dof
    twice (on the one-vertex torus), and not where it touches a constrained
    dof; exact zeros are dropped.  Columns l < k are empty, so the lower
    moduli entries are never read.  The products are formed once per
    template, B (2, 3, 6) and ``volumes`` (2,), and each element takes them
    by its pattern (``_TERMS``) of free (``element_ranks`` (ne, 3) >= 0) and
    coinciding vertices; each square reads its rows, the upper partners
    ``block_partner`` (2, 2, 7, nf), at its corners' ``ranks``.
    """
    n, places, template = lattice.n, lattice.grid[3], np.arange(2)[:, None]
    (k, l), (i, j), column, free_pair, twice, block = _TERMS
    weighted = B * volumes[:, None, None]
    products = weighted[:, k[:, None], i] * B[:, l[:, None], j]
    products += np.where((k != l)[:, None], weighted[:, l[:, None], i] * B[:, k[:, None], j], 0.0)
    products = np.append(products.reshape(2, -1), np.zeros((2, 1)), axis=1)      # (2, 127)
    # each template's nonzero terms, the shorter list padded with the zero one
    nonzero = [np.flatnonzero(p) for p in products]
    terms = np.full((2, max(map(len, nonzero))), products.shape[1] - 1)
    for t, term in zip(terms, nonzero):
        t[:len(term)] = term
    width, products, block = terms.shape[1], products[template, terms], block[template, terms]
    # each element's pattern keeps and doubles its template's terms
    kept = free_pair[:, terms] & (products != 0.0)                            # (64, 2, width)
    values = np.where(twice[:, terms], 2.0 * products, products)
    pattern = ((element_ranks >= 0) @ [1, 2, 4]
               + 8 * (element_ranks[:, 0] == element_ranks[:, 1])
               + 16 * (element_ranks[:, 0] == element_ranks[:, 2])
               + 32 * (element_ranks[:, 1] == element_ranks[:, 2])) * 2 + places % 2
    # the entries of each moduli entry, for the patterns that occur
    counts = np.zeros(kept.shape[:2] + (KDIM * KDIM,), dtype=np.intp)
    for p, t in zip(*np.divmod(np.flatnonzero(np.bincount(pattern)), 2)):
        counts[p, t] = np.bincount(column[terms[t]][kept[p, t]], minlength=KDIM * KDIM)
    values, keep, counts = (a.reshape(len(kept) * 2, -1).take(pattern, axis=0)
                            for a in (values, kept, counts))
    # every square's corner ranks (n n, 4) and its rows, from a table by vertex
    # whose last row a constrained vertex (-1) reads
    corners = np.stack([ranks[a:a + n, b:b + n].ravel() for a in (0, 1) for b in (0, 1)], axis=1)
    table = np.zeros((block_partner.shape[-1] + 1, DIM * DIM * len(STENCIL)),
                     dtype=block_partner.dtype)
    table[:-1] = block_partner.reshape(table.shape[1], -1).T
    rows = table.take(corners.astype(np.intp), axis=0).reshape(n * n, -1) \
        .take(block.ravel(), axis=1).reshape(-1, width)
    if len(places) < len(rows):
        rows = rows.take(places, axis=0)
    # the entries run by element, then by moduli entry: the CSC column order
    if not keep.all():
        values, rows = values[keep], rows[keep]
    return _frozen(sp.csc_matrix, values.ravel(), rows.ravel(),
                   np.concatenate([[0], np.cumsum(counts)]), (n_upper, counts.size))


def _apply(op, x):
    """The products op x of vectors x (..., op.shape[1]), shape (..., op.shape[0])."""
    flat = x.reshape(-1, x.shape[-1])
    return (op @ flat.T).T.reshape(x.shape[:-1] + (op.shape[0],))


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
    while diam / n >= h and n < INT64_LIMIT:  # _lattice_mesh rejects n this large
        n *= 2
    # n is a power of 2, so the steps and the vertices' coordinates divide exactly
    return _lattice_mesh("triangle", n, corners[0], (corners[1:] - corners[0]) / n, "mesh size h")


def mesh_unit_square(n):
    """Structured triangulation of [0,1]^2 with n cells per side."""
    positive_int(n, "cells per side n")
    return _lattice_mesh("square", n, np.zeros(DIM), np.eye(DIM) * (1.0 / n), "cells per side n")


def mesh_torus(n_cells, refine):
    """Periodic structured triangulation of [0, N)^2, aligned with unit cells.

    Every element lies inside exactly one integer lattice cell.  Opposite
    faces are identified through ``master``: grid vertex (i, j) shares the
    degrees of freedom of vertex (i mod m, j mod m), which is the
    (i * m + j)-th master, m = N * r being the lattice's n.  The duplicated
    boundary vertices keep their geometric coordinates.
    """
    m = positive_int(n_cells, "torus cells N") * positive_int(refine, "torus refinements r")
    return _lattice_mesh("torus", m, np.zeros(DIM), np.eye(DIM) * (1.0 / refine),
                         "torus cells N times refinements r")


class P1Space:
    """Vector-valued P1 space with Dirichlet and periodic constraints folded in.

    The mesh's boundary vertices carry Dirichlet constraints, which never
    appear in solve vectors; periodic slave vertices share their master's
    degrees of freedom.  The mesh must record its ``Lattice``: the space's
    pattern, strain operators and moduli map follow from it.
    """

    def __init__(self, mesh):
        if mesh.lattice is None:
            raise ConfigurationError("P1Space needs a mesh that records its lattice; build it "
                                     "with mesh_unit_square, mesh_torus or mesh_simplex")
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
        slots = self.packed_of_vertex.take(tri)                  # (ne, 3)
        self.element_dofs = (slots[:, :, None] * DIM + np.arange(DIM)).reshape(-1, 3 * DIM)

        # the free rank of every vertex at its lattice coordinates, -1 where
        # constrained: the pattern, the moduli map and D follow from it
        lattice, index = mesh.lattice, index_dtype(self.n_packed)
        rank = np.full(self.master_ids.size, -1, dtype=index)
        rank[free] = np.arange(free.sum())
        i, j = lattice.grid[:2]
        ranks = np.full((lattice.n + 1, lattice.n + 1), -1, dtype=index)
        ranks[i, j] = rank = rank.take(self.packed_of_vertex)
        self._indices, indptr, self._partner, block_partner, self._lattice_offset = \
            stencil_pattern(lattice, ranks, self.master_ids[free])
        self._indptr = indptr.astype(index_dtype(indptr[-1]))
        self._indices.flags.writeable = self._indptr.flags.writeable = False
        g, B = mesh.template_grads, np.zeros((2, KDIM, 3 * DIM))   # B's templates, Mandel rows
        B[:, 0, 0::2], B[:, 1, 1::2] = g[..., 0], g[..., 1]
        B[:, 2, 0::2], B[:, 2, 1::2] = g[..., 1] / SQRT2, g[..., 0] / SQRT2
        self._strain_op, self._force_op, self._force_magnitude = _strain_operators(
            B, mesh.template_volumes, mesh.element_types, self.element_dofs, self.n_packed)
        self._moduli_map = _moduli_map(B, mesh.template_volumes, lattice, ranks, rank.take(tri),
                                       block_partner, int(self._partner.max(initial=-1)) + 1)

        # torus grid: the DFT matrix F[k, x] = exp(-2 pi i k x / m), and the
        # real half-spectrum transforms along the second grid axis, over
        # k = 0 .. m // 2 and per dof component: forward, rows (x, c) to
        # columns (c, k, [cos, -sin]), so that a real product viewed as complex
        # is the DFT of each component; inverse, rows (c, k, [Re, Im]) to
        # columns (x, c), with each k weighted by the number of wavevectors
        # among k and -k it stands for
        if mesh.lattice.kind == "torus":
            m = mesh.lattice.n
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

    @cached_property
    def _keys(self):
        """The flat position of every nonzero in a dense matrix on the free dofs."""
        n = self.free_dofs.size
        return np.repeat(np.arange(n), np.diff(self._indptr)) * n + self._indices

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
        return self._element_sums(self._force_magnitude, np.abs(stresses))

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
    if space.mesh.lattice.kind != "torus":
        raise ConfigurationError("the reference preconditioner needs a mesh_torus grid")
    m = space.mesh.lattice.n
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
    operator.  The one caller, ``cellproblem.CellStack.solve``, owns the
    slots.  A failed solve raises NumericalError.
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


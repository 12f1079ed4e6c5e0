"""Simplicial meshes, P1 vector elements, assembly and sparse solves (d=2).

Meshes are triangulations with optional periodic vertex identification
(torus RVE carriers).  Displacements are continuous piecewise-linear vector
fields; strains are element-wise constant, so one-point (barycenter)
quadrature is exact for stiffness and internal-force integrals with
element-wise constant coefficients.

Assembly scatters batched element stiffnesses into a pattern that each
space builds once: a CSR matrix per system, or a dense stack of matrices for
a batch of small systems.  Dirichlet systems are solved with Jacobi-
preconditioned conjugate gradients, which is deterministic.  Periodic
systems on the uniform torus grid pick their solver by size.  Up to
``DENSE_PERIODIC_DOFS`` unknowns a whole stack of systems is solved directly
by one batched LU solve, and a system's right-hand sides share its
factorization.  Above, CG runs with the exact inverse of the translation
average of the operator as preconditioner, a block-circulant matrix
diagonalized by the discrete Fourier transform (a reference medium in the
sense of Moulinec and Suquet), whose iteration count is bounded by the phase
contrast and does not grow with the grid.  The translation kernel of
periodic problems is projected out of the right-hand side and of the
solution, which is the zero-mean representative.
"""

from dataclasses import dataclass

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
from .tensors import KDIM, SQRT2

DIM = 2
# Largest periodic system solved directly.  Per system of a stack of 16
# two-phase plastic tangents at rtol 1e-12 on 2 cores, in ms, the batched
# direct solve against assembly plus DFT-preconditioned CG, for 1 and 3
# right-hand sides: 0.05/1.2 and 0.06/3.5 at 32 dofs (m = 4), 0.30/1.3 and
# 0.38/3.5 at 98 (m = 7), 0.95/1.4 and 1.2/3.8 at 162 (m = 9), 1.6/1.7 and
# 1.6/3.7 at 200 (m = 10), 2.0/2.5 and 2.1/4.6 at 242 (m = 11), 2.9/1.8 and
# 3.0/3.9 at 288 (m = 12).  The single right-hand sides of the Newton
# solves cross over between the 10 x 10 and the 12 x 12 torus grid.
DENSE_PERIODIC_DOFS = 200


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


def _sum_into_bins(index, values, size):
    """Sums of ``values`` into bins ``index``, per system: shape (S, size).

    ``values`` holds S systems' entries, ``index.size`` each; every system
    adds into its own ``size`` bins, in entry order as ``np.bincount`` does.
    """
    count = values.size // index.size
    if count > 1:
        index = index + size * np.arange(count)[:, None]
    return np.bincount(index.ravel(), weights=values.ravel(),
                       minlength=count * size).reshape(count, size)


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
    diam = max(np.linalg.norm(e) for e in edges)
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
        self._BtV = np.swapaxes(B, 1, 2) * mesh.volumes[:, None, None]

        # CSR pattern of the stiffness: element entry -> nonzero, and the
        # nonzero of each transposed entry; shared, read-only index arrays
        n = self.n_packed
        rows = np.repeat(self.element_dofs, 3 * DIM, axis=1).ravel()
        cols = np.tile(self.element_dofs, (1, 3 * DIM)).ravel()
        keys, self._scatter = np.unique(rows * n + cols, return_inverse=True)
        self._keys = keys                  # flat position of each nonzero in a dense matrix
        key_rows, key_cols = np.divmod(keys, n)
        self._transpose = np.searchsorted(keys, key_cols * n + key_rows)
        idx = np.int32 if keys.size < np.iinfo(np.int32).max else np.int64
        self._indices = key_cols.astype(idx)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(key_rows, minlength=n))]).astype(idx)
        self._indices.flags.writeable = False
        self._indptr.flags.writeable = False

        # torus grid: lattice offset and dof components of every nonzero,
        # and the DFT matrix F[k, x] = exp(-2 pi i k x / m)
        m = mesh.grid_size
        if m:
            gi, gj = np.divmod(np.arange(n) // DIM, m)
            di = (gi[key_cols] - gi[key_rows]) % m
            dj = (gj[key_cols] - gj[key_rows]) % m
            self._lattice_offset = ((di * m + dj) * DIM + key_rows % DIM) * DIM \
                + key_cols % DIM
            k = np.arange(m)
            self._dft = np.exp(-2j * np.pi * (np.outer(k, k) % m) / m)

    # -- field packing -------------------------------------------------

    def pack_field(self, u):
        """Nodal field (nv, 2) -> packed vector over master dofs."""
        return np.asarray(u)[self.master_ids].ravel()

    def unpack_field(self, packed):
        """Packed vectors (..., n) -> nodal fields (..., nv, 2), slaves mirroring masters."""
        u = packed.reshape(packed.shape[:-1] + (-1, DIM))
        return u[..., self.packed_of_vertex, :]

    def zero_field(self):
        return np.zeros((self.mesh.n_vertices, DIM))

    # -- strains -------------------------------------------------------

    def element_strains(self, u):
        """Element-wise Mandel strains of nodal fields (..., nv, 2), shape (..., ne, 3)."""
        u = np.asarray(u)
        local = u[..., self.mesh.simplices, :].reshape(u.shape[:-2] + (-1, 3 * DIM))
        return np.einsum("eki,...ei->...ek", self.B, local)

    def element_gradients(self, u):
        """Element-wise full displacement gradients, shape (ne, 2, 2)."""
        local = np.asarray(u)[self.mesh.simplices]               # (ne, 3, 2)
        return np.einsum("eia,eib->eab", local, self.mesh.grads)

    # -- assembly ------------------------------------------------------

    def _stiffness_values(self, moduli):
        """Nonzero values of the stiffness of each of S moduli stacks, (S, nnz).

        ``moduli`` is (ne, 3, 3) for one system or (S, ne, 3, 3).  They must
        be symmetric; each value is then averaged with its transposed
        partner, so every operator is symmetric bit for bit.
        """
        moduli = np.asarray(moduli, dtype=float)
        scale = max(np.abs(moduli).max(initial=0.0), np.finfo(float).tiny)
        if np.abs(moduli - np.swapaxes(moduli, -1, -2)).max(initial=0.0) > 1e-12 * scale:
            raise NumericalError("element moduli lost symmetry")
        ke = self._BtV @ (moduli @ self.B)                        # (..., ne, 6, 6)
        data = _sum_into_bins(self._scatter, ke, self._indices.size)
        return 0.5 * (data + data.take(self._transpose, axis=1))

    def assemble_operator(self, moduli):
        """Stiffness CSR over all packed dofs from (ne, 3, 3) symmetric Mandel moduli."""
        return sp.csr_matrix((self._stiffness_values(moduli)[0], self._indices, self._indptr),
                             shape=(self.n_packed, self.n_packed))

    def assemble_dense(self, moduli):
        """Dense stiffness stack (S, n, n) from (S, ne, 3, 3) symmetric Mandel moduli.

        Each matrix equals ``assemble_operator`` of its moduli; meant for
        small systems, whose dense storage is cheap.
        """
        data = self._stiffness_values(moduli)
        A = np.zeros((data.shape[0], self.n_packed * self.n_packed))
        A[:, self._keys] = data
        return A.reshape(-1, self.n_packed, self.n_packed)

    def _sum_into_dofs(self, contrib):
        """Packed sums of per-element dof contributions (..., ne, 6) -> (..., n)."""
        return _sum_into_bins(self.element_dofs.ravel(), contrib, self.n_packed) \
            .reshape(contrib.shape[:-2] + (self.n_packed,))

    def internal_forces(self, stresses):
        """Packed nodal forces of element stresses (..., ne, 3): sum_e vol_e B_e^T z_e."""
        return self._sum_into_dofs(
            np.einsum("e,eki,...ek->...ei", self.mesh.volumes, self.B, stresses))

    def force_scale(self, stresses):
        """The nodal forces of |z_e| through |B_e|: their size without cancellation."""
        return self._sum_into_dofs(np.einsum("e,eki,...ek->...ei", np.abs(self.mesh.volumes),
                                             np.abs(self.B), np.abs(stresses)))

    def load_vector(self, f_values):
        """Packed load vector by barycenter quadrature, f given per element (ne, 2)."""
        contrib = (self.mesh.volumes[:, None] / 3.0) * np.asarray(f_values)  # (ne, 2)
        return self._sum_into_dofs(np.repeat(contrib[:, None, :], 3, axis=1)
                                   .reshape(-1, 3 * DIM))

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
    form and zeroes the k = 0 (translation) mode.  It applies the transforms
    as dense m x m DFT matrices, which beats ``numpy.fft`` at the grid sizes
    of cell problems.
    """
    m = space.mesh.grid_size
    if not m:
        raise ConfigurationError("the reference preconditioner needs a mesh_torus grid")
    F = space._dft
    Fc = F.conj()
    kernel = np.bincount(space._lattice_offset, weights=A.data, minlength=m * m * DIM * DIM)
    kernel = kernel.reshape(m, m, DIM, DIM).transpose(2, 3, 0, 1) / m**2
    # symbol S(k) = sum_d K(d) exp(2 pi i k.d / m); its (1, 0) block is conj(S01)
    s00 = (Fc @ kernel[0, 0] @ Fc).real
    s11 = (Fc @ kernel[1, 1] @ Fc).real
    s01 = Fc @ kernel[0, 1] @ Fc
    det = s00 * s11 - np.abs(s01) ** 2
    det[0, 0] = np.inf                       # zero the translation mode
    det *= m**2                              # and fold in the inverse DFT's 1/m^2
    i00, i11, i01 = s11 / det, s00 / det, -s01 / det
    i10 = i01.conj()

    def apply(r):
        w = F @ r.reshape(m, m, DIM).transpose(2, 0, 1) @ F
        z = np.stack([i00 * w[0] + i01 * w[1], i10 * w[0] + i11 * w[1]])
        return (Fc @ z @ Fc).real.transpose(1, 2, 0).ravel()

    return apply


def pcg(A, b, precond, rtol=1e-10, maxiter=None):
    """Preconditioned conjugate gradients from a zero start; deterministic.

    ``A`` is a symmetric sparse matrix and ``precond`` a symmetric positive
    (semi)definite map r -> z, e.g. ``jacobi(A)``.  ``maxiter`` defaults to
    10 times the system size.  Returns (x, iterations).  Raises
    NumericalError with the iteration and the residual on a non-finite
    right-hand side or residual, on a breakdown (p^T A p <= 0, which an SPD
    operator never shows) and on non-convergence.
    """
    b = np.asarray(b, dtype=float)
    if maxiter is None:
        maxiter = 10 * b.size
    x = np.zeros_like(b)
    r = b.copy()
    res = norm_b = np.linalg.norm(b)
    if not np.isfinite(norm_b):
        raise NumericalError("conjugate gradients got a non-finite right-hand side "
                             "at iteration 0", residual=float(res))
    target = rtol * norm_b
    if res <= target:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        Ap = A @ p
        pAp = p @ Ap
        # a non-finite residual reaches p^T A p one iteration later
        if not pAp > 0:
            what = "broke down" if np.isfinite(pAp) else "hit a non-finite value"
            raise NumericalError(f"conjugate gradients {what} at iteration {it}: "
                                 f"p^T A p = {pAp:.3e}", residual=float(res))
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r)
        if res <= target:
            return x, it
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NumericalError(
        f"conjugate gradients did not converge in {maxiter} iterations",
        residual=float(res),
    )


def solve_periodic(space, A, rhs, rtol=1e-10):
    """Solve a periodic (all-free) torus system; returns the zero-mean solution.

    ``A`` is a CSR matrix from ``space.assemble_operator``.  Systems of at
    most ``DENSE_PERIODIC_DOFS`` unknowns go to ``solve_periodic_direct``.
    Larger ones run CG with ``reference_preconditioner``, whose range holds
    no translation, on the right-hand side projected off the translation
    kernel (a periodic problem's load is orthogonal to it up to roundoff,
    which CG could not remove).
    """
    b = np.asarray(rhs, dtype=float)
    if space.n_packed <= DENSE_PERIODIC_DOFS:
        return solve_periodic_direct(space, A.toarray()[None], b[None], rtol=rtol)[0]
    for t in space.translation_vectors():
        b = b - (t @ b) * t
    x, _ = pcg(A, b, reference_preconditioner(space, A), rtol=rtol)
    return x


def solve_periodic_systems(space, moduli, rhs, rtol=1e-10, step=None):
    """Solve the periodic systems of S moduli stacks (S, ne, 3, 3) at once.

    ``rhs`` is (S, n), or (S, n, k) for k right-hand sides per system.
    Systems of at most ``DENSE_PERIODIC_DOFS`` unknowns are assembled as one
    dense stack and go to ``solve_periodic_direct``.  Larger ones are
    assembled one at a time, and ``solve_periodic`` runs CG on each
    right-hand side.
    """
    rhs = np.asarray(rhs, dtype=float)
    if space.n_packed <= DENSE_PERIODIC_DOFS:
        return solve_periodic_direct(space, space.assemble_dense(moduli), rhs, rtol=rtol,
                                     step=step)
    columns = rhs.reshape(rhs.shape[0], rhs.shape[1], -1)
    x = np.empty_like(columns)
    for s, system_moduli in enumerate(moduli):
        A = space.assemble_operator(system_moduli)
        for j in range(columns.shape[2]):
            x[s, :, j] = solve_periodic(space, A, columns[s, :, j], rtol=rtol)
    return x.reshape(rhs.shape)


def solve_periodic_direct(space, A, rhs, rtol=1e-10, step=None):
    """Solve a stack of small periodic torus systems directly; zero-mean solutions.

    ``A`` is (S, n, n) from ``space.assemble_dense`` and ``rhs`` is (S, n),
    or (S, n, k) for k right-hand sides per system, which share one
    factorization.  The kernel of each A is exactly the two translations T
    (orthonormal rows), so with s the mean diagonal entry A + s T^T T is
    invertible.  One batched LU solve with it on the right-hand sides
    projected off T gives the solutions, which are then projected off T
    too.  Every system's residual must lie within ``rtol`` of its
    right-hand side; a singular matrix or a non-finite or larger residual
    raises NumericalError with ``step`` and the worst residual.
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
        raise NumericalError("direct periodic solve met a singular operator",
                             step=step) from None
    x = x - T.T @ (T @ x)
    res = np.linalg.norm(b - A @ x, axis=1)
    bound = rtol * np.linalg.norm(b, axis=1)
    if not np.all(res <= bound):  # NaN fails
        worst = float(np.max(np.where(res <= bound, 0.0, res)))
        raise NumericalError(
            f"direct periodic solve left a residual of {worst:.3e}, above rtol {rtol:.1e} "
            "relative to its right-hand side", step=step, residual=worst)
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
    A = space.assemble_operator(moduli)
    if f is None:
        rhs = np.zeros(space.n_packed)
    else:
        rhs = space.load_vector(f(mesh.barycenters))
    bc = space.zero_field()
    if g is not None:
        idx = space.dirichlet_vertices
        bc[idx] = g(mesh.vertices[idx])
    u = space.pack_field(bc)
    free = space.free_dofs
    fixed = np.flatnonzero(~space.free_mask)
    rows = A[free]
    b = rhs[free] - rows[:, fixed] @ u[fixed]
    Aff = rows[:, free]
    u[free], _ = pcg(Aff, b, jacobi(Aff), rtol=rtol)
    return space.unpack_field(u)


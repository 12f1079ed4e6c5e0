"""Simplicial meshes, P1 vector elements, assembly and sparse solves (d=2).

Meshes are triangulations with optional periodic vertex identification
(torus RVE carriers).  Displacements are continuous piecewise-linear vector
fields; strains are element-wise constant, so one-point (barycenter)
quadrature is exact for stiffness and internal-force integrals with
element-wise constant coefficients.

Linear systems are solved with Jacobi-preconditioned conjugate gradients,
which is deterministic and matrix-free friendly.  Periodic problems carry a
d-dimensional translation kernel that is removed by a symmetric rank-d
correction instead of pinning a vertex.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, NumericalError
from .tensors import SQRT2, SymTensor, mandel_dim

DIM = 2
KDIM = mandel_dim(DIM)


@dataclass
class SimplicialMesh:
    """Triangulation of a planar domain, possibly with periodic identification.

    ``periodic_pairs`` maps duplicated (slave) vertex indices to their master
    vertex; element geometry always uses the duplicated coordinates so that
    affine element maps stay nondegenerate on the torus.
    """

    vertices: np.ndarray          # (nv, 2)
    simplices: np.ndarray         # (ne, 3) int
    boundary_vertices: np.ndarray  # (nb,) int
    periodic_pairs: dict = field(default_factory=dict)
    h: float = 0.0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.simplices = np.asarray(self.simplices, dtype=np.int64)
        self.boundary_vertices = np.asarray(self.boundary_vertices, dtype=np.int64)
        coords = self.vertices[self.simplices]          # (ne, 3, 2)
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if self.h <= 0.0:
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

    def shape_regularity(self):
        """Max ratio circumradius / inradius over all elements."""
        coords = self.vertices[self.simplices]
        a = np.linalg.norm(coords[:, 1] - coords[:, 2], axis=-1)
        b = np.linalg.norm(coords[:, 0] - coords[:, 2], axis=-1)
        c = np.linalg.norm(coords[:, 0] - coords[:, 1], axis=-1)
        s = 0.5 * (a + b + c)
        inradius = self.volumes / s
        circum = a * b * c / (4.0 * self.volumes)
        return float((circum / inradius).max())

    def master_vertex(self):
        """Vertex index -> master vertex index after periodic identification."""
        master = np.arange(self.n_vertices)
        for slave, m in self.periodic_pairs.items():
            master[slave] = m
        # single pass suffices: pairs always point at true masters
        return master


def mesh_simplex(corners, h, shape_bound=None):
    """Uniformly refine one triangle into elements of diameter < h.

    Midpoint refinement is applied as a structured barycentric lattice, so
    lattice-aligned right triangles refine into grid-aligned elements.  The
    union of the elements covers the input triangle exactly.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (3, 2):
        raise ConfigurationError(f"expected 3 corner points in 2-d, got {corners.shape}")
    if h <= 0.0:
        raise ConfigurationError(f"target size must be positive, got h={h}")
    edges = [corners[1] - corners[0], corners[2] - corners[0], corners[2] - corners[1]]
    diam = max(np.linalg.norm(e) for e in edges)
    cross = edges[0][0] * edges[1][1] - edges[0][1] * edges[1][0]
    if abs(cross) < 1e-14 * max(diam, 1.0) ** 2:
        raise ConfigurationError("input simplex is degenerate")
    if cross < 0:
        corners = corners[[0, 2, 1]]
    n = 1
    while diam / n >= h:
        n *= 2

    verts, index = [], {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            index[(i, j)] = len(verts)
            verts.append(corners[0] + (i / n) * (corners[1] - corners[0])
                         + (j / n) * (corners[2] - corners[0]))
    tris = []
    for i in range(n):
        for j in range(n - i):
            tris.append([index[(i, j)], index[(i + 1, j)], index[(i, j + 1)]])
            if i + j < n - 1:
                tris.append([index[(i + 1, j)], index[(i + 1, j + 1)], index[(i, j + 1)]])
    boundary = [index[(i, j)] for (i, j) in index if i == 0 or j == 0 or i + j == n]
    mesh = SimplicialMesh(np.asarray(verts), np.asarray(tris), np.asarray(sorted(boundary)))
    if shape_bound is not None and mesh.shape_regularity() > shape_bound:
        raise ConfigurationError("refined mesh violates the shape-regularity bound")
    return mesh


def _structured_grid(nx, ny, dx, dy):
    """Vertices and lower/upper triangles of an (nx x ny)-square grid."""
    xs = np.arange(nx + 1) * dx
    ys = np.arange(ny + 1) * dy
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([X.ravel(), Y.ravel()], axis=-1)

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append([v00, v10, v01])
            tris.append([v10, v11, v01])
    return verts, np.asarray(tris), vid


def mesh_unit_square(n):
    """Structured triangulation of [0,1]^2 with n cells per side."""
    if n < 1:
        raise ConfigurationError(f"need n >= 1 cells per side, got {n}")
    verts, tris, vid = _structured_grid(n, n, 1.0 / n, 1.0 / n)
    boundary = sorted({vid(i, j) for i in range(n + 1) for j in range(n + 1)
                       if i in (0, n) or j in (0, n)})
    return SimplicialMesh(verts, tris, np.asarray(boundary))


def mesh_torus(n_cells, refine):
    """Periodic structured triangulation of [0, N)^2, aligned with unit cells.

    Every element lies inside exactly one integer lattice cell.  Opposite
    faces are identified through ``periodic_pairs``; the duplicated boundary
    vertices keep their geometric coordinates.
    """
    if n_cells < 1 or refine < 1:
        raise ConfigurationError(f"need N >= 1 and r >= 1, got N={n_cells}, r={refine}")
    m = n_cells * refine
    dx = 1.0 / refine
    verts, tris, vid = _structured_grid(m, m, dx, dx)
    pairs = {}
    for i in range(m + 1):
        for j in range(m + 1):
            wi, wj = i % m, j % m
            if (wi, wj) != (i, j):
                pairs[vid(i, j)] = vid(wi, wj)
    return SimplicialMesh(verts, tris, np.asarray([], dtype=np.int64),
                          periodic_pairs=pairs)


class P1Space:
    """Vector-valued P1 space with Dirichlet and periodic constraints folded in.

    Constrained (Dirichlet) degrees of freedom never appear in solve vectors;
    periodic slave vertices share their master's degrees of freedom.
    """

    def __init__(self, mesh, dirichlet_vertices=None):
        self.mesh = mesh
        self.dim_range = DIM
        master = mesh.master_vertex()
        self.master = master
        if dirichlet_vertices is None:
            dirichlet_vertices = mesh.boundary_vertices
        constrained = np.zeros(mesh.n_vertices, dtype=bool)
        constrained[master[np.asarray(dirichlet_vertices, dtype=np.int64)]] = True
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

        free = ~constrained[self.master_ids]
        self.free_mask = np.repeat(free, DIM)
        self.free_dofs = np.flatnonzero(self.free_mask)
        self.n_free = self.free_dofs.size

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

    # -- field packing -------------------------------------------------

    def pack_field(self, u):
        """Nodal field (nv, 2) -> packed vector over master dofs."""
        return np.asarray(u)[self.master_ids].ravel()

    def unpack_field(self, packed):
        """Packed vector -> nodal field (nv, 2), slaves mirroring masters."""
        u = packed.reshape(-1, DIM)
        return u[self.packed_of_vertex]

    def zero_field(self):
        return np.zeros((self.mesh.n_vertices, DIM))

    # -- strains -------------------------------------------------------

    def element_strains(self, u):
        """Element-wise Mandel strains of a nodal field, shape (ne, 3)."""
        local = np.asarray(u)[self.mesh.simplices].reshape(-1, 3 * DIM)
        return np.einsum("eki,ei->ek", self.B, local)

    def element_gradients(self, u):
        """Element-wise full displacement gradients, shape (ne, 2, 2)."""
        local = np.asarray(u)[self.mesh.simplices]               # (ne, 3, 2)
        return np.einsum("eia,eib->eab", local, self.mesh.grads)

    # -- assembly ------------------------------------------------------

    def assemble_operator(self, moduli):
        """Stiffness CSR over all packed dofs from (ne, 3, 3) Mandel moduli."""
        vol = self.mesh.volumes
        ke = np.einsum("e,eki,ekl,elj->eij", vol, self.B, moduli, self.B)
        rows = np.repeat(self.element_dofs, 3 * DIM, axis=1).ravel()
        cols = np.tile(self.element_dofs, (1, 3 * DIM)).ravel()
        A = sp.coo_matrix((ke.ravel(), (rows, cols)),
                          shape=(self.n_packed, self.n_packed)).tocsr()
        scale = max(abs(A).max(), np.finfo(float).tiny)
        if abs(A - A.T).max() > 1e-12 * scale:
            raise NumericalError("assembled operator lost symmetry")
        return A

    def internal_forces(self, stresses):
        """Packed nodal forces of element stresses: sum_e vol_e B_e^T z_e."""
        contrib = np.einsum("e,eki,ek->ei", self.mesh.volumes, self.B, stresses)
        return np.bincount(self.element_dofs.ravel(), weights=contrib.ravel(),
                           minlength=self.n_packed)

    def load_vector(self, f_values):
        """Packed load vector by barycenter quadrature, f given per element (ne, 2)."""
        contrib = (self.mesh.volumes[:, None] / 3.0) * np.asarray(f_values)  # (ne, 2)
        contrib = np.repeat(contrib[:, None, :], 3, axis=1).reshape(-1, 3 * DIM)
        return np.bincount(self.element_dofs.ravel(), weights=contrib.ravel(),
                           minlength=self.n_packed)

    def translation_vectors(self):
        """Packed unit translation fields (one per component), volume-normalized."""
        out = []
        for comp in range(DIM):
            v = np.zeros(self.n_packed)
            v[comp::DIM] = 1.0
            out.append(v / np.linalg.norm(v))
        return out


def pcg(matvec, b, diag, rtol=1e-10, atol=0.0, maxiter=None, x0=None):
    """Jacobi-preconditioned conjugate gradients; deterministic.

    ``matvec`` is a callable or a sparse matrix; ``diag`` the preconditioner
    diagonal.  ``maxiter`` defaults to 10 times the system size.  Raises
    NumericalError with the iteration and the residual on a non-finite
    right-hand side or residual, on a breakdown (p^T A p <= 0, which an SPD
    operator never shows) and on non-convergence.
    """
    if sp.issparse(matvec):
        A = matvec
        matvec = lambda v: A @ v
    b = np.asarray(b, dtype=float)
    if maxiter is None:
        maxiter = 10 * b.size
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x.any() else b.copy()
    res = np.linalg.norm(r)
    norm_b = np.linalg.norm(b)
    if not np.isfinite(norm_b + res):
        raise NumericalError("conjugate gradients got a non-finite right-hand side "
                             "or start at iteration 0", residual=float(res))
    target = max(rtol * norm_b, atol)
    if res <= target:
        return x, 0
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
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
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NumericalError(
        f"conjugate gradients did not converge in {maxiter} iterations",
        residual=float(res),
    )


def solve_constrained(space, A, rhs, dirichlet_values, rtol=1e-10, x0=None):
    """Solve A u = rhs with Dirichlet values imposed on constrained dofs.

    ``dirichlet_values`` is a full nodal field carrying the boundary data;
    returns the full packed solution vector.
    """
    u = space.pack_field(dirichlet_values)
    free = space.free_dofs
    fixed = np.flatnonzero(~space.free_mask)
    rows = A[free]
    b = rhs[free] - rows[:, fixed] @ u[fixed]
    Aff = rows[:, free]
    x0_free = None if x0 is None else space.pack_field(x0)[free]
    x, _ = pcg(Aff, b, Aff.diagonal(), rtol=rtol, x0=x0_free)
    u[free] = x
    return u


def solve_periodic(space, A, rhs, rtol=1e-10, x0=None):
    """Solve a periodic (all-free) system with the translation kernel removed.

    A symmetric rank-d correction rho * sum_k m_k m_k^T is added, which fixes
    the mean displacement without breaking symmetry; the right-hand side of a
    periodic problem is orthogonal to translations, so the corrected solve
    returns the zero-mean representative.
    """
    kernel = space.translation_vectors()
    diag = A.diagonal()
    rho = max(diag.mean(), np.finfo(float).tiny)

    def matvec(v):
        out = A @ v
        for m in kernel:
            out = out + rho * (m @ v) * m
        return out

    diag_corr = diag + rho * sum(m**2 for m in kernel)
    x, _ = pcg(matvec, rhs, diag_corr, rtol=rtol, x0=x0)
    return x


def _moduli_array(space, stiffness_field):
    ne = space.mesh.n_elements
    if callable(stiffness_field):
        moduli = np.stack([np.asarray(stiffness_field(e).matrix) for e in range(ne)])
    elif hasattr(stiffness_field, "matrix"):
        moduli = np.broadcast_to(stiffness_field.matrix, (ne, KDIM, KDIM))
    else:
        moduli = np.asarray(stiffness_field, dtype=float)
        if moduli.shape == (KDIM, KDIM):
            moduli = np.broadcast_to(moduli, (ne, KDIM, KDIM))
    if moduli.shape != (ne, KDIM, KDIM):
        raise ConfigurationError(f"stiffness field has shape {moduli.shape}")
    return moduli


def solve_elastic(space, stiffness_field, f=None, g=None, rtol=1e-10):
    """Galerkin solution of linear elasticity with Dirichlet data.

    ``stiffness_field`` maps elements to elastic stiffness (FourthOrderMap,
    callable, or (ne, 3, 3) array); ``f`` is a load callable f(x) -> (2,) or
    per-element array; ``g`` assigns Dirichlet values, either a callable
    g(x) -> (2,) or a full nodal array.  Returns the nodal displacement.
    """
    mesh = space.mesh
    A = space.assemble_operator(_moduli_array(space, stiffness_field))
    if f is None:
        rhs = np.zeros(space.n_packed)
    else:
        fvals = f(mesh.barycenters) if callable(f) else np.asarray(f)
        rhs = space.load_vector(fvals)
    bc = space.zero_field()
    if g is not None:
        if callable(g):
            idx = space.dirichlet_vertices
            bc[idx] = g(mesh.vertices[idx])
        else:
            bc = np.asarray(g, dtype=float).copy()
    packed = solve_constrained(space, A, rhs, bc, rtol=rtol)
    return space.unpack_field(packed)


def element_strain(space, u, k):
    """Constant symmetrized gradient of a nodal field on element k."""
    if not 0 <= k < space.mesh.n_elements:
        raise ConfigurationError(f"element index {k} out of range")
    return SymTensor(DIM, space.element_strains(u)[k])

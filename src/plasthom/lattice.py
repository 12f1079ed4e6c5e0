"""The lattices that meshes are built on, and the index arithmetic of their stencil.

Every mesh of the package is an affine image of an n x n lattice of squares,
each split into two triangles, the templates: the whole grid (a square
domain, or a torus whose opposite faces are identified) or its part
i + j <= n (a triangle).  A ``Lattice`` records n, the kind and the affine
map, and numbers the lattice's vertices and elements.  A P1 space on it
couples each vertex with the seven vertices of a fixed stencil, so its
sparsity pattern follows by index arithmetic from the vertex numbering,
with no search over the elements' dof pairs: ``stencil_pattern``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, array_size, positive_int

DIM = 2  # the space dimension
# A vertex's stencil, itself and its six neighbours, as lattice offsets in
# lexicographic order (negating an offset reverses its index); the templates,
# the lattice offsets of the vertices of a square's two elements; and the
# stencil slot (2, 3, 3) of each template's vertex j seen from its vertex i
STENCIL = np.array([(-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0)])
TEMPLATES = np.array([[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]])
SLOTS = (TEMPLATES[:, None, :, None] - TEMPLATES[:, :, None, None] == STENCIL) \
    .all(axis=-1).argmax(axis=-1)


def index_dtype(size):
    """int32 for indices below ``size`` if it fits, else int64."""
    return np.int32 if size < np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True, eq=False)
class Lattice:
    """An n x n lattice of squares under an affine map, a mesh's record.

    Vertex (i, j) lies at ``origin + i steps[0] + j steps[1]``, and square
    (i, j) splits into templates [v00, v10, v01] and [v10, v11, v01].
    ``kind`` is "square", "torus" (opposite faces identified) or "triangle"
    (the part i + j <= n).
    """

    kind: str
    n: int
    origin: np.ndarray    # (2,)
    steps: np.ndarray     # (2, 2): the images of the lattice steps (1, 0) and (0, 1)

    def __post_init__(self):
        if self.kind not in ("square", "torus", "triangle"):
            raise ConfigurationError(f"unknown lattice kind {self.kind!r}")
        array_size((positive_int(self.n, "lattice n") + 1) ** 2, "lattice n")

    @cached_property
    def grid(self):
        """Lattice coordinates (i, j) of the vertices, the elements and their places.

        In the whole grid vertex (i, j) is number i (n + 1) + j, and the
        element at place 2 k + t is template t of square k = i n + j.  A
        triangle keeps the vertices and elements with i + j <= n, renumbered
        in the same order.  Returns i, j, the elements' vertices (ne, 3) and
        their places (ne,), whose parity is their template.
        """
        n = self.n
        i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
        v00 = (np.arange(n * n) // n * (n + 1) + np.arange(n * n) % n)[:, None]
        tris = (v00 + [0, n + 1, 1, n + 1, n + 2, 1]).reshape(-1, 3)
        places = np.arange(2 * n * n)
        if self.kind == "triangle":
            inside = i + j <= n
            places = np.flatnonzero((i + j)[tris].max(axis=1) <= n)
            i, j, tris = i[inside], j[inside], (np.cumsum(inside) - 1)[tris[places]]
        return i, j, tris, places


def stencil_pattern(lattice, ranks, free_vertices):
    """The CSR pattern on the free dofs of a lattice space, in 2 x 2 blocks of a stencil.

    ``ranks`` (n + 1, n + 1) numbers the free masters at their lattice
    coordinates, a slave taking its master's number, and is -1 elsewhere;
    ``free_vertices`` lists the free masters in order.  Each couples with
    the free vertices of its ``STENCIL``, in rank order, each once (on tori
    of m <= 2 one vertex fills several slots).  Returns the CSR indices and
    indptr; the upper partner of every nonzero, its own number among the
    upper nonzeros (row <= column) in CSR order, or its transpose's; the
    upper partners of the block entries (a, b, s, v), component a of free
    vertex v with component b of its slot s, (2, 2, 7, nf); and on a torus
    every nonzero's lattice offset and components, else None.
    """
    i, j = lattice.grid[:2]
    nf, width, torus = len(free_vertices), len(STENCIL), lattice.kind == "torus"
    index = index_dtype(nf * width * DIM * DIM)
    wrap = np.arange(-1, lattice.n + 1) % lattice.n     # a torus's grid, wrapped by one
    grid = ranks.take(wrap, axis=0).take(wrap, axis=1) if torus else ranks
    home = (i[free_vertices] + torus) * len(grid) + j[free_vertices] + torus
    neighbour = grid.ravel().take((STENCIL @ [len(grid), 1])[:, None] + home)  # (7, nf)
    # each free neighbour once, placed by rank; row (v, a) numbers its upper
    # nonzeros from its diagonal, at place 2 own + a, on, from first[a, v]
    repeated = np.tri(width, k=-1, dtype=bool)[:, :, None] & (neighbour[:, None] == neighbour)
    kept = (neighbour >= 0) & ~repeated.any(axis=1)
    place = (kept & (neighbour < neighbour[:, None])).sum(axis=1, dtype=index)
    count, own, comp = kept.sum(axis=0, dtype=index), place[3], np.arange(DIM, dtype=index)
    n_upper = (DIM * (count - own) - comp[:, None]).T.ravel()
    first = (np.cumsum(n_upper, dtype=index) - n_upper).reshape(nf, DIM).T \
        - DIM * own - comp[:, None]
    # block (v, s), neighbour w, is upper for w > v and on the diagonal for
    # b >= a; else it is the transpose of block (w, reversed s)
    vertex, w = np.arange(nf, dtype=index), np.maximum(neighbour, 0).astype(np.intp)
    upper = first[:, None] + DIM * place                                    # (a, s, v)
    lower = first.take(w, axis=1) \
        + DIM * place.ravel().take((width - 1 - np.arange(width))[:, None] * nf + w)
    combos = [(a, b) for a in comp for b in comp]
    block_partner = np.stack([np.where(neighbour >= vertex + (b < a), upper[a] + b, lower[b] + a)
                              for a, b in combos]).reshape(DIM, DIM, width, nf)
    # the CSR positions of the block entries; those of a repeated or
    # constrained slot go past the end
    indptr = np.concatenate([[0], np.cumsum(np.repeat(DIM * count, DIM))])
    start = DIM * place.astype(np.intp) + indptr[:-1:DIM]
    at = np.stack([start + (DIM * a * count + b) for a, b in combos])
    at[:, ~kept] = indptr[-1]
    at = at.reshape(DIM, DIM, width, nf)

    def csr_order(values, dtype=np.intp):
        out = np.empty(indptr[-1] + 1, dtype=dtype)
        out[at] = values
        return out[:-1]

    offset = None
    if torus:  # the lattice offset of slot s, with components a and b: (offset 2 + a) 2 + b
        offset = csr_order((STENCIL % lattice.n @ [lattice.n, 1])[:, None] * DIM * DIM
                           + (DIM * comp[:, None] + comp).reshape(DIM, DIM, 1, 1))
    return (csr_order(DIM * neighbour + comp[:, None, None], index), indptr,
            csr_order(block_partner), block_partner, offset)

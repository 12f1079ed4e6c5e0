import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh, spsolve

from plasthom import fem
from plasthom.errors import ConfigurationError, NumericalError
from plasthom.fem import (
    P1Space,
    SimplicialMesh,
    jacobi,
    mesh_simplex,
    mesh_torus,
    mesh_unit_square,
    pcg,
    reference_preconditioner,
    solve_elastic,
    solve_periodic,
    solve_periodic_systems,
)
from plasthom.media import PeriodizedMedium, ProbabilityLaw
from plasthom.returnmap import MaterialArrays, plastic_step
from plasthom.tensors import isotropic_stiffness, pack

UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TWO_PHASE = ProbabilityLaw.from_config({
    "E": {"discrete": {"values": [1.0, 2.0]}},
    "nu": {"point": 0.3},
    "sigma_y": {"point": 0.3},
})
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
DENSE_GRID = math.isqrt(fem.DENSE_PERIODIC_DOFS // 2)  # m of the largest dense m x m torus


class TestMeshSimplex:
    def test_large_h_keeps_single_element(self):
        mesh = mesh_simplex(UNIT_TRIANGLE, 2.0)
        assert mesh.n_elements == 1

    def test_refinement_quarters_elements(self):
        coarse = mesh_simplex(UNIT_TRIANGLE, 1.0)
        fine = mesh_simplex(UNIT_TRIANGLE, 0.5)
        assert fine.n_elements == 4 * coarse.n_elements
        assert fine.h == pytest.approx(coarse.h / 2)

    def test_elements_partition_the_simplex(self):
        corners = np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]])
        mesh = mesh_simplex(corners, 0.21)
        e1, e2 = corners[1] - corners[0], corners[2] - corners[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        assert mesh.volumes.sum() == pytest.approx(area, rel=1e-12)
        assert np.all(np.linalg.norm(
            mesh.vertices[mesh.simplices][:, 1] - mesh.vertices[mesh.simplices][:, 0],
            axis=-1) < 0.21)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ConfigurationError):
            mesh_simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 0.5)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ConfigurationError):
            mesh_simplex(UNIT_TRIANGLE, 0.0)


class TestMeshTorus:
    def test_single_cell_counts(self):
        mesh = mesh_torus(1, 1)
        assert mesh.n_elements == 2
        assert mesh.n_vertices == 4
        assert np.count_nonzero(mesh.master != np.arange(mesh.n_vertices)) == 3
        space = P1Space(mesh)
        assert space.free_dofs.size == 2  # one master vertex, two components

    def test_element_count_formula(self):
        for n, r in ((1, 1), (2, 1), (3, 2), (4, 3)):
            assert mesh_torus(n, r).n_elements == 2 * (n * r) ** 2

    def test_elements_stay_inside_one_cell(self):
        mesh = mesh_torus(3, 2)
        coords = mesh.vertices[mesh.simplices]
        lo = np.floor(mesh.barycenters)
        assert np.all(coords >= lo[:, None, :] - 1e-12)
        assert np.all(coords <= lo[:, None, :] + 1.0 + 1e-12)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            mesh_torus(0, 1)
        with pytest.raises(ConfigurationError):
            mesh_torus(2, 0)


class TestElementStrain:
    def test_affine_field_reproduced_exactly(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        xi = np.array([[0.2, 0.05], [0.05, -0.1]])
        u = mesh.vertices @ xi.T
        strains = space.element_strains(space.pack_field(u))
        expected = pack(xi)
        assert np.abs(strains - expected).max() < 1e-14

    def test_rigid_rotation_has_zero_strain(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        w = np.array([[0.0, 0.3], [-0.3, 0.0]])
        u = mesh.vertices @ w.T
        assert np.abs(space.element_strains(space.pack_field(u))).max() < 1e-14

    def test_translation_has_zero_strain(self):
        mesh = mesh_unit_square(3)
        space = P1Space(mesh)
        u = np.tile([1.7, -2.5], (mesh.n_vertices, 1))
        assert np.abs(space.element_strains(space.pack_field(u))).max() < 1e-13


STRAIN_MESHES = {
    "unit_square": lambda: mesh_unit_square(3),
    "simplex": lambda: mesh_simplex(np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]]), 0.3),
    **{f"torus_m{m}": (lambda m=m: mesh_torus(m, 1)) for m in (1, 2, 3, 32)},
}


def per_element_sums(space, values):
    """Packed sums of per-element dof values (..., ne, 6), one element at a time."""
    out = np.zeros(values.shape[:-2] + (space.n_packed,))
    for e, dofs in enumerate(space.element_dofs):
        for i, dof in enumerate(dofs):
            out[..., dof] += values[..., e, i]
    return out


class TestStrainOperators:
    """The strain operator and its weighted transpose against the element definitions."""

    @pytest.fixture(params=sorted(STRAIN_MESHES))
    def space(self, request):
        return P1Space(STRAIN_MESHES[request.param]())

    @staticmethod
    def assert_close(got, expected, magnitude):
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-14 * magnitude)

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_strains_are_B_e_u_e(self, space, lead):
        u = np.random.default_rng(1).standard_normal(lead + (space.n_packed,))
        local = u[..., space.element_dofs]                          # (..., ne, 6)
        expected = np.einsum("eki,...ei->...ek", space.B, local)
        magnitude = np.einsum("eki,...ei->...ek", np.abs(space.B), np.abs(local))
        self.assert_close(space.element_strains(u), expected, magnitude)

    # (S, ne, 3) as newton_solve passes them, (S, 3, ne, 3) as the FE2 tangent does
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_forces_and_their_scale_are_element_sums(self, space, lead):
        ne, vol = space.mesh.n_elements, space.mesh.volumes
        z = np.random.default_rng(2).standard_normal(lead + (ne, 3))
        forces = per_element_sums(space, np.einsum("e,eki,...ek->...ei", vol, space.B, z))
        scale = per_element_sums(space, np.einsum("e,eki,...ek->...ei", np.abs(vol),
                                                  np.abs(space.B), np.abs(z)))
        self.assert_close(space.internal_forces(z), forces, scale)
        self.assert_close(space.force_scale(z), scale, scale)

    def test_operator_arrays_are_private_and_read_only(self, space):
        for op in (space._strain_op, space._force_op):
            assert op.indices.dtype == op.indptr.dtype == np.int32
            for a in (op.data, op.indices, op.indptr):
                assert not a.flags.writeable
                assert not np.shares_memory(a, space.B)


class TestSolveElastic:
    def test_patch_test_affine_exact(self):
        mesh = mesh_unit_square(8)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3)
        xi = np.array([[0.1, 0.05], [0.05, -0.2]])
        u = solve_elastic(space, A, g=lambda pts: pts @ xi.T, rtol=1e-14)
        assert np.abs(u - mesh.vertices @ xi.T).max() < 1e-12

    def test_zero_data_zero_solution(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        u = solve_elastic(space, isotropic_stiffness(1.0, 0.3))
        assert np.abs(u).max() == 0.0

    def test_manufactured_solution_rate(self):
        E, nu = 1.0, 0.3
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        mu = E / (2 * (1 + nu))
        A = isotropic_stiffness(E, nu)
        pi = np.pi

        def exact(pts):
            return np.stack([np.sin(pi * pts[:, 0]) * np.sin(pi * pts[:, 1]),
                             np.zeros(len(pts))], axis=-1)

        def load(pts):
            sx, sy = np.sin(pi * pts[:, 0]), np.sin(pi * pts[:, 1])
            cx, cy = np.cos(pi * pts[:, 0]), np.cos(pi * pts[:, 1])
            return np.stack([(lam + 3 * mu) * pi**2 * sx * sy,
                             -(lam + mu) * pi**2 * cx * cy], axis=-1)

        errors = []
        for n in (8, 16, 32):
            mesh = mesh_unit_square(n)
            space = P1Space(mesh)
            u = solve_elastic(space, A, f=load, g=lambda p: 0.0 * p, rtol=1e-12)
            diff = u - exact(mesh.vertices)
            errors.append(np.sqrt((diff**2).sum(axis=1).mean()))
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.7 <= r <= 2.3 for r in rates)

    def test_galerkin_orthogonality(self):
        mesh = mesh_unit_square(8)
        space = P1Space(mesh)
        A = isotropic_stiffness(2.0, 0.25)
        load = lambda pts: np.stack([pts[:, 0], -pts[:, 1]], axis=-1)
        u = solve_elastic(space, A, f=load, rtol=1e-12)
        op = space.assemble_operator(np.broadcast_to(A, (mesh.n_elements, 3, 3)))
        b = space.load_vector(load(mesh.barycenters))
        residual = (b - op @ space.pack_field(u))[space.free_dofs]
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b[space.free_dofs])

    def test_stiffness_is_positive_definite_on_free_dofs(self):
        mesh = mesh_unit_square(6)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3)
        op = space.assemble_operator(np.broadcast_to(A, (mesh.n_elements, 3, 3)))
        Aff = op[space.free_dofs][:, space.free_dofs]
        assert eigsh(Aff.tocsc(), k=1, sigma=-1e-9, return_eigenvectors=False)[0] > 0.0

    def test_heterogeneous_stiffness_field(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        moduli = np.stack([isotropic_stiffness(1.0 + (e % 2), 0.3)
                           for e in range(mesh.n_elements)])
        u = solve_elastic(space, moduli, g=lambda pts: 0.01 * pts, rtol=1e-12)
        assert np.isfinite(u).all()


class TestPeriodicAssembly:
    def test_translations_span_the_kernel(self):
        mesh = mesh_torus(2, 2)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3)
        op = space.assemble_operator(np.broadcast_to(A, (mesh.n_elements, 3, 3)))
        for v in space.translation_vectors():
            assert np.abs(op @ v).max() < 1e-12
        vals = eigsh(op.tocsc(), k=3, sigma=-1e-9, return_eigenvectors=False)
        vals = np.sort(vals)
        assert np.abs(vals[:2]).max() < 1e-10  # two translation modes
        assert vals[2] > 1e-6                  # and nothing else


class TestPcgFailures:
    def test_nan_rhs_raises(self):
        A = sp.identity(3, format="csr")
        with pytest.raises(NumericalError, match="iteration 0") as err:
            pcg(A, np.array([1.0, np.nan, 0.0]), jacobi(A))
        assert np.isnan(err.value.residual)

    def test_indefinite_operator_breaks_down(self):
        A = sp.diags([1.0, -1.0], format="csr")
        with pytest.raises(NumericalError, match="iteration 1") as err:
            pcg(A, np.ones(2), jacobi(A))
        assert err.value.residual == pytest.approx(np.sqrt(2.0))

    def test_exhausted_budget_raises(self):
        n = 32
        A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="csr")
        with pytest.raises(NumericalError, match="in 4 iterations") as err:
            pcg(A, np.ones(n), jacobi(A), maxiter=4)
        assert err.value.residual > 1e-10 * np.sqrt(n)


@st.composite
def torus_moduli(draw, max_cells=3, max_refine=3):
    """A torus space and per-element SPD moduli, constant on each lattice cell."""
    n_cells = draw(st.integers(1, max_cells))
    refine = draw(st.integers(1, max_refine))
    return random_torus_moduli(n_cells, refine, draw(st.integers(0, 2**32 - 1)),
                               draw(st.floats(1.0, 100.0)))


def random_torus_moduli(n_cells, refine, seed, contrast):
    space = P1Space(mesh_torus(n_cells, refine))
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n_cells * n_cells, 3, 3))
    cell_moduli = factors @ np.swapaxes(factors, 1, 2) + np.eye(3)
    cell_moduli *= contrast ** rng.random(n_cells * n_cells)[:, None, None]
    cells = np.floor(space.mesh.barycenters).astype(int) @ [n_cells, 1]
    return space, cell_moduli[cells]


def random_spd_moduli(shape, seed):
    factors = np.random.default_rng(seed).standard_normal(shape + (3, 3))
    return factors @ np.swapaxes(factors, -1, -2) + np.eye(3)


def jittered_square(n, seed):
    """mesh_unit_square(n) with every vertex moved by at most h / 5, orientations kept.

    No gradient component of any element is zero, so every one of the 72
    products of B entries in the stiffness's map of the moduli is formed.
    The boundary vertices move too: an element of the unit square's lattice
    with all three vertices on the boundary would keep both legs on the axes.
    """
    mesh = mesh_unit_square(n)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2 * np.pi, mesh.n_vertices)
    radius = rng.uniform(0.0, 0.2 / n, mesh.n_vertices)
    moved = mesh.vertices + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    return SimplicialMesh(moved, mesh.simplices, mesh.boundary_vertices)


def jittered_case(seed):
    space = P1Space(jittered_square(4, seed))
    return space, random_spd_moduli((space.mesh.n_elements,), seed)


def coo_assembly(space, moduli, magnitude=False):
    """Element stiffnesses (or their absolute values) summed by scipy's COO -> CSR."""
    ke = np.einsum("e,eki,ekl,elj->eij", space.mesh.volumes, space.B, moduli, space.B)
    if magnitude:
        ke = np.abs(ke)
    rows = np.repeat(space.element_dofs, 6, axis=1).ravel()
    cols = np.tile(space.element_dofs, (1, 6)).ravel()
    return sp.coo_matrix((ke.ravel(), (rows, cols)),
                         shape=(space.n_packed, space.n_packed)).tocsr()


def zero_mean(space, v):
    for t in space.translation_vectors():
        v = v - (t @ v) * t
    return v


class TestFixedPatternAssembly:
    @PROPERTY
    @given(torus_moduli())
    @example(jittered_case(0))
    def test_operator_is_symmetric_bit_for_bit(self, case):
        space, moduli = case
        A = space.assemble_operator(moduli)
        assert (A != A.T).nnz == 0

    @PROPERTY
    @given(torus_moduli())
    # one dof twice in an element: every vertex of m = 1, edges across m = 2
    @example(random_torus_moduli(1, 1, 1, 10.0))
    @example(random_torus_moduli(1, 2, 2, 10.0))
    @example(random_torus_moduli(2, 1, 3, 10.0))
    @example(jittered_case(1))
    def test_matches_coo_assembly(self, case):
        space, moduli = case
        A = space.assemble_operator(moduli)
        # relative to the summed magnitudes: a one-vertex torus sums to roundoff
        scale = coo_assembly(space, moduli, magnitude=True).max()
        assert abs(A - coo_assembly(space, moduli)).max() <= 1e-14 * scale

    def test_matches_coo_assembly_with_dirichlet_rows(self):
        mesh = mesh_unit_square(5)
        space = P1Space(mesh)
        moduli = np.stack([isotropic_stiffness(1.0 + e % 3, 0.3)
                           for e in range(mesh.n_elements)])
        A = space.assemble_operator(moduli)
        reference = coo_assembly(space, moduli)
        assert (A != A.T).nnz == 0
        assert abs(A - reference).max() <= 1e-14 * abs(reference).max()

    @PROPERTY
    @given(torus_moduli(max_cells=2, max_refine=3).filter(lambda c: c[0].mesh.grid_size > 1))
    def test_psd_with_exactly_the_translation_kernel(self, case):
        space, moduli = case
        A = space.assemble_operator(moduli).toarray()
        vals = np.linalg.eigvalsh(A)
        scale = vals[-1]
        assert np.abs(vals[:2]).max() <= 1e-12 * scale     # two translations
        assert vals[2] > 1e-6 * scale                      # and nothing else
        for t in space.translation_vectors():
            assert np.abs(A @ t).max() <= 1e-12 * scale

    def test_jittered_dense_stack_equals_the_operators(self):
        space = P1Space(jittered_square(4, 2))
        assert space._moduli_map.nnz == 72 * space.mesh.n_elements
        moduli = random_spd_moduli((3, space.mesh.n_elements), 3)
        for A, m in zip(space.assemble_dense(moduli), moduli):
            assert np.array_equal(A, space.assemble_operator(m).toarray())

    @pytest.mark.parametrize("stacked", [False, True], ids=["operator", "last-of-stack"])
    @pytest.mark.parametrize("k, l", [(0, 1), (0, 2), (1, 2)])
    def test_asymmetric_moduli_raise(self, k, l, stacked):
        space = P1Space(mesh_torus(2, 1))
        moduli = np.broadcast_to(isotropic_stiffness(1.0, 0.3),
                                 (3, space.mesh.n_elements, 3, 3)).copy()
        moduli[-1, 3, k, l] += 1e-6
        with pytest.raises(NumericalError, match="symmetry"):
            if stacked:
                space.assemble_dense(moduli)
            else:
                space.assemble_operator(moduli[-1])

    @pytest.mark.parametrize("stacked", [False, True], ids=["operator", "last-of-stack"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_lower_moduli_entry_raises(self, value, stacked):
        """The map reads only upper moduli entries, so a non-finite lower entry
        alone never reaches the operator; it must raise all the same."""
        space = P1Space(mesh_torus(2, 1))
        moduli = np.broadcast_to(isotropic_stiffness(1.0, 0.3),
                                 (3, space.mesh.n_elements, 3, 3)).copy()
        moduli[-1, 3, 1, 0] = value
        with pytest.raises(NumericalError, match="not finite"):
            if stacked:
                space.assemble_dense(moduli)
            else:
                space.assemble_operator(moduli[-1])


def full_dft_preconditioner(space, A):
    """The reference preconditioner by full complex m x m DFT products (test oracle)."""
    m = space.mesh.grid_size
    F = np.exp(-2j * np.pi * (np.outer(np.arange(m), np.arange(m)) % m) / m)
    Fc = F.conj()
    kernel = np.bincount(space._lattice_offset, weights=A.data, minlength=m * m * 4)
    kernel = kernel.reshape(m, m, 2, 2).transpose(2, 3, 0, 1) / m**2
    s00 = (Fc @ kernel[0, 0] @ Fc).real
    s11 = (Fc @ kernel[1, 1] @ Fc).real
    s01 = Fc @ kernel[0, 1] @ Fc
    det = s00 * s11 - np.abs(s01) ** 2
    det[0, 0] = np.inf
    det *= m**2
    i00, i11, i01 = s11 / det, s00 / det, -s01 / det

    def apply(r):
        w = F @ r.reshape(m, m, 2).transpose(2, 0, 1) @ F
        z = np.stack([i00 * w[0] + i01 * w[1], i01.conj() * w[0] + i11 * w[1]])
        return (Fc @ z @ Fc).real.transpose(1, 2, 0).ravel()

    return apply


class TestReferencePreconditioner:
    # odd m has no Nyquist column in the half spectrum, even m has one
    @pytest.mark.parametrize("n_cells, refine", [(2, 1), (3, 2), (8, 4), (3, 1), (5, 1),
                                                 (11, 1)])
    def test_homogeneous_torus_takes_one_iteration(self, n_cells, refine):
        space = P1Space(mesh_torus(n_cells, refine))
        A = space.assemble_operator(np.broadcast_to(
            isotropic_stiffness(1.7, 0.3), (space.mesh.n_elements, 3, 3)))
        b = zero_mean(space, np.random.default_rng(0).standard_normal(space.n_packed))
        x, iters = pcg(A, b, reference_preconditioner(space, A), rtol=1e-10)
        assert iters == 1
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 11, 32])
    def test_matches_the_full_dft_formula(self, m):
        # a two-phase plastic tangent, as the cell problems assemble
        space = P1Space(mesh_torus(m, 1))
        ne = space.mesh.n_elements
        mats = MaterialArrays.from_medium(PeriodizedMedium(TWO_PHASE, 3, n_cells=m),
                                          space.mesh.barycenters)
        xi = pack(np.array([[0.0, 0.6], [0.6, 0.0]]))
        _, _, moduli = plastic_step(np.broadcast_to(xi, (ne, 3)), np.zeros((ne, 3)),
                                    mats, 0.25, 0.003)
        A = space.assemble_operator(moduli)
        apply, oracle = reference_preconditioner(space, A), full_dft_preconditioner(space, A)
        for r in np.random.default_rng(m).standard_normal((3, space.n_packed)):
            expected = oracle(r)
            assert np.abs(apply(r) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("amplitude", [0.2, 0.6])
    def test_iterations_flat_under_refinement(self, amplitude):
        # one 8 x 8 two-phase medium, resolved with N r = 8, 16, 32, 64
        xi = pack(np.array([[0.0, amplitude], [amplitude, 0.0]]))
        counts = []
        for refine in (1, 2, 4, 8):
            space = P1Space(mesh_torus(8, refine))
            ne = space.mesh.n_elements
            mats = MaterialArrays.from_medium(PeriodizedMedium(TWO_PHASE, 3, n_cells=8),
                                              space.mesh.barycenters)
            _, p, moduli = plastic_step(np.broadcast_to(xi, (ne, 3)), np.zeros((ne, 3)),
                                        mats, 0.25, 0.003)
            assert 0 < (p != 0).any(axis=1).sum()
            A = space.assemble_operator(moduli)
            b = zero_mean(space, np.random.default_rng(refine).standard_normal(space.n_packed))
            _, iters = pcg(A, b, reference_preconditioner(space, A), rtol=1e-10)
            counts.append(iters)
        assert max(counts) <= counts[0] + 2, counts

    @PROPERTY
    @given(torus_moduli(max_cells=4).filter(lambda c: c[0].mesh.grid_size > 1),
           st.integers(0, 2**32 - 1))
    # the largest grid that solve_periodic_systems inverts densely, and the smallest above
    @example(random_torus_moduli(DENSE_GRID, 1, 5, 100.0), 0)
    @example(random_torus_moduli(DENSE_GRID + 1, 1, 6, 100.0), 1)
    def test_solve_periodic_matches_pinned_direct_solve(self, case, seed):
        space, moduli = case
        A = space.assemble_operator(moduli)
        rhs = zero_mean(space, np.random.default_rng(seed).standard_normal(space.n_packed))
        x = solve_periodic_systems(space, moduli[None], rhs[None], rtol=1e-13)[0]
        keep = np.arange(2, space.n_packed)   # pin the first vertex
        pinned = np.zeros(space.n_packed)
        pinned[keep] = spsolve(A[keep][:, keep].tocsc(), rhs[keep])
        reference = zero_mean(space, pinned)
        assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)
        assert max(abs(t @ x) for t in space.translation_vectors()) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n_cells, refine, dense", [(4, 1, True), (16, 2, False)])
    def test_size_selects_the_preconditioner(self, n_cells, refine, dense, monkeypatch):
        # fe2_macro's cells (32 dofs) and cell_mc's (2,048 dofs), two-phase and plastic
        space = P1Space(mesh_torus(n_cells, refine))
        ne = space.mesh.n_elements
        mats = MaterialArrays.from_medium(PeriodizedMedium(TWO_PHASE, 3, n_cells=n_cells),
                                          space.mesh.barycenters)
        xi = pack(np.array([[0.0, 0.6], [0.6, 0.0]]))
        _, p, moduli = plastic_step(np.broadcast_to(xi, (ne, 3)), np.zeros((ne, 3)),
                                    mats, 0.25, 0.003)
        assert (p != 0).any()
        A = space.assemble_operator(moduli)
        b = zero_mean(space, np.random.default_rng(n_cells).standard_normal(space.n_packed))
        counts = []

        def counting_pcg(*args, **kwargs):
            x, iters = pcg(*args, **kwargs)
            counts.append(iters)
            return x, iters

        monkeypatch.setattr(fem, "pcg", counting_pcg)
        solve_periodic_systems(space, moduli[None], b[None], rtol=1e-12)
        assert (space.n_packed <= fem.DENSE_PERIODIC_DOFS) == dense
        if dense:
            assert counts == []  # solved directly
        else:
            _, reference_iters = pcg(A, b, reference_preconditioner(space, A), rtol=1e-12)
            assert counts == [reference_iters] and reference_iters > 2

    def test_one_vertex_torus_returns_zero(self):
        space = P1Space(mesh_torus(1, 1))
        A = space.assemble_operator(np.broadcast_to(
            isotropic_stiffness(1.0, 0.3), (2, 3, 3)))
        assert np.array_equal(solve_periodic(space, A, np.ones(2)), np.zeros(2))

    def test_needs_a_torus_grid(self):
        space = P1Space(mesh_unit_square(2))
        A = space.assemble_operator(np.broadcast_to(
            isotropic_stiffness(1.0, 0.3), (space.mesh.n_elements, 3, 3)))
        with pytest.raises(ConfigurationError, match="mesh_torus"):
            reference_preconditioner(space, A)


class TestPerSystemTolerance:
    """``solve_periodic_systems`` with one relative tolerance per system."""

    RTOL = np.array([1e-3, 1e-7, 1e-12])

    @staticmethod
    def stack(n_cells, refine):
        systems = [random_torus_moduli(n_cells, refine, seed, 10.0) for seed in range(3)]
        space = systems[0][0]
        moduli = np.stack([m for _, m in systems])
        rng = np.random.default_rng(4)
        rhs = np.stack([zero_mean(space, rng.standard_normal(space.n_packed))
                        for _ in range(3)])
        return space, moduli, rhs

    def test_each_cg_solve_stops_at_its_own_tolerance(self):
        space, moduli, rhs = self.stack(8, 2)
        assert space.n_packed > fem.DENSE_PERIODIC_DOFS
        x = solve_periodic_systems(space, moduli, rhs, rtol=self.RTOL)
        res = np.array([np.linalg.norm(space.assemble_operator(m) @ xs - b)
                        for m, xs, b in zip(moduli, x, rhs)])
        norm_b = np.linalg.norm(rhs, axis=1)
        assert np.all(res <= self.RTOL * norm_b)
        assert res[0] > self.RTOL[-1] * norm_b[0]  # not the tightest tolerance for all

    def test_scalar_tolerance_for_several_right_hand_sides(self):
        space, moduli, rhs = self.stack(8, 2)
        columns = np.stack([rhs, rhs[::-1], 2.0 * rhs], axis=-1)   # (3, n, 3)
        x = solve_periodic_systems(space, moduli, columns, rtol=1e-12)
        for m, xs, b in zip(moduli, x, columns):
            res = np.linalg.norm(space.assemble_operator(m) @ xs - b, axis=0)
            assert np.all(res <= 1e-12 * np.linalg.norm(b, axis=0))

    @pytest.mark.parametrize("n_cells, refine", [(DENSE_GRID, 1), (8, 2)],
                             ids=["direct", "cg"])
    def test_stack_equals_single_solves_bit_for_bit(self, n_cells, refine):
        space, moduli, rhs = self.stack(n_cells, refine)
        x = solve_periodic_systems(space, moduli, rhs, rtol=self.RTOL)
        for s in range(3):
            alone = solve_periodic_systems(space, moduli[s:s + 1], rhs[s:s + 1],
                                           rtol=self.RTOL[s:s + 1])
            assert np.array_equal(x[s], alone[0])

    def test_direct_check_uses_each_systems_tolerance(self):
        space, moduli, rhs = self.stack(DENSE_GRID, 1)
        A = space.assemble_dense(moduli)
        fem.solve_periodic_direct(space, A, rhs, rtol=self.RTOL)
        with pytest.raises(NumericalError, match="above rtol 1.0e-30"):
            fem.solve_periodic_direct(space, A, rhs, rtol=[1e-3, 1e-30, 1e-3])

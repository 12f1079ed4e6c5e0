import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from plasthom.errors import ConfigurationError, NumericalError
from plasthom.fem import (
    P1Space,
    element_strain,
    mesh_simplex,
    mesh_torus,
    mesh_unit_square,
    pcg,
    solve_elastic,
)
from plasthom.tensors import isotropic_stiffness, pack

UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


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

    def test_shape_regularity_bounded(self):
        mesh = mesh_simplex(UNIT_TRIANGLE, 0.1)
        assert mesh.shape_regularity() < 10.0


class TestMeshTorus:
    def test_single_cell_counts(self):
        mesh = mesh_torus(1, 1)
        assert mesh.n_elements == 2
        assert mesh.n_vertices == 4
        assert len(mesh.periodic_pairs) == 3
        space = P1Space(mesh)
        assert space.n_free == 2  # one master vertex, two components

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
        strains = space.element_strains(u)
        expected = pack(xi)
        assert np.abs(strains - expected).max() < 1e-14

    def test_rigid_rotation_has_zero_strain(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        w = np.array([[0.0, 0.3], [-0.3, 0.0]])
        u = mesh.vertices @ w.T
        assert np.abs(space.element_strains(u)).max() < 1e-14

    def test_translation_has_zero_strain(self):
        mesh = mesh_unit_square(3)
        space = P1Space(mesh)
        u = np.tile([1.7, -2.5], (mesh.n_vertices, 1))
        assert np.abs(space.element_strains(u)).max() < 1e-13

    def test_single_element_accessor(self):
        mesh = mesh_unit_square(2)
        space = P1Space(mesh)
        u = mesh.vertices @ np.array([[0.1, 0.0], [0.0, 0.2]])
        s = element_strain(space, u, 3)
        assert np.allclose(s.comps, [0.1, 0.2, 0.0], atol=1e-14)
        with pytest.raises(ConfigurationError):
            element_strain(space, u, mesh.n_elements)


class TestSolveElastic:
    def test_patch_test_affine_exact(self):
        mesh = mesh_unit_square(8)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3, 2)
        xi = np.array([[0.1, 0.05], [0.05, -0.2]])
        u = solve_elastic(space, A, g=lambda pts: pts @ xi.T, rtol=1e-14)
        assert np.abs(u - mesh.vertices @ xi.T).max() < 1e-12

    def test_zero_data_zero_solution(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        u = solve_elastic(space, isotropic_stiffness(1.0, 0.3, 2))
        assert np.abs(u).max() == 0.0

    def test_manufactured_solution_rate(self):
        E, nu = 1.0, 0.3
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        mu = E / (2 * (1 + nu))
        A = isotropic_stiffness(E, nu, 2)
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
        A = isotropic_stiffness(2.0, 0.25, 2)
        load = lambda pts: np.stack([pts[:, 0], -pts[:, 1]], axis=-1)
        u = solve_elastic(space, A, f=load, rtol=1e-12)
        op = space.assemble_operator(np.broadcast_to(A.matrix, (mesh.n_elements, 3, 3)))
        b = space.load_vector(load(mesh.barycenters))
        residual = (b - op @ space.pack_field(u))[space.free_dofs]
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b[space.free_dofs])

    def test_stiffness_is_positive_definite_on_free_dofs(self):
        mesh = mesh_unit_square(6)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3, 2)
        op = space.assemble_operator(np.broadcast_to(A.matrix, (mesh.n_elements, 3, 3)))
        Aff = op[space.free_dofs][:, space.free_dofs]
        assert eigsh(Aff.tocsc(), k=1, sigma=-1e-9, return_eigenvectors=False)[0] > 0.0

    def test_heterogeneous_stiffness_field_callable(self):
        mesh = mesh_unit_square(4)
        space = P1Space(mesh)
        maps = [isotropic_stiffness(1.0 + (e % 2), 0.3, 2)
                for e in range(mesh.n_elements)]
        u = solve_elastic(space, lambda e: maps[e],
                          g=lambda pts: 0.01 * pts, rtol=1e-12)
        assert np.isfinite(u).all()


class TestPeriodicAssembly:
    def test_translations_span_the_kernel(self):
        mesh = mesh_torus(2, 2)
        space = P1Space(mesh)
        A = isotropic_stiffness(1.0, 0.3, 2)
        op = space.assemble_operator(np.broadcast_to(A.matrix, (mesh.n_elements, 3, 3)))
        for v in space.translation_vectors():
            assert np.abs(op @ v).max() < 1e-12
        vals = eigsh(op.tocsc(), k=3, sigma=-1e-9, return_eigenvectors=False)
        vals = np.sort(vals)
        assert np.abs(vals[:2]).max() < 1e-10  # two translation modes
        assert vals[2] > 1e-6                  # and nothing else


class TestPcgFailures:
    def test_nan_rhs_raises(self):
        with pytest.raises(NumericalError, match="iteration 0") as err:
            pcg(sp.identity(3, format="csr"), np.array([1.0, np.nan, 0.0]), np.ones(3))
        assert np.isnan(err.value.residual)

    def test_indefinite_operator_breaks_down(self):
        A = sp.diags([1.0, -1.0], format="csr")
        with pytest.raises(NumericalError, match="iteration 1") as err:
            pcg(A, np.ones(2), A.diagonal())
        assert err.value.residual == pytest.approx(np.sqrt(2.0))

    def test_exhausted_budget_raises(self):
        n = 32
        A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="csr")
        with pytest.raises(NumericalError, match="in 4 iterations") as err:
            pcg(A, np.ones(n), A.diagonal(), maxiter=4)
        assert err.value.residual > 1e-10 * np.sqrt(n)

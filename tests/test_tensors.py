import numpy as np
import pytest

from plasthom.errors import ConfigurationError
from plasthom.tensors import (
    deviatoric,
    ellipticity_check,
    identity_comps,
    isotropic_compliance,
    isotropic_stiffness,
    pack,
    trace_of,
    unpack,
)

from helpers import plane_strain_stiffness_matrix


class TestMandelPacking:
    def test_inner_product_equals_frobenius(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            a = 0.5 * (a + a.T)
            b = 0.5 * (b + b.T)
            frob = np.sum(a * b)
            dot = float(pack(a) @ pack(b))
            assert abs(frob - dot) <= 1e-13 * max(abs(frob), 1.0)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            m = 0.5 * (m + m.T)
            back = unpack(pack(m))
            assert np.abs(back - m).max() <= 2 * np.finfo(float).eps

    def test_batched_shapes(self):
        rng = np.random.default_rng(2)
        mats = rng.standard_normal((5, 7, 2, 2))
        comps = pack(mats)
        assert comps.shape == (5, 7, 3)
        assert unpack(comps).shape == (5, 7, 2, 2)


class TestSymmetrize:
    """``pack`` keeps the symmetric part (m + m^T)/2 of its input."""

    def test_identity_is_fixed_point(self):
        assert np.allclose(unpack(pack(np.eye(2))), np.eye(2))

    def test_antisymmetric_maps_to_zero(self):
        assert np.linalg.norm(pack([[0.0, 1.0], [-1.0, 0.0]])) == 0.0

    def test_half_offdiagonal(self):
        s = pack([[0.0, 1.0], [0.0, 0.0]])
        assert np.isclose(unpack(s)[0, 1], 0.5)
        assert np.isclose(s[2], 0.5 * np.sqrt(2.0))

    def test_rejects_bad_dimension(self):
        for shape in [(1, 1), (3, 3), (4, 4), (2,), (2, 3)]:
            with pytest.raises(ConfigurationError):
                pack(np.ones(shape))


class TestDeviator:
    def test_identity_becomes_zero(self):
        assert np.linalg.norm(deviatoric(identity_comps())) == 0.0

    def test_diagonal_example(self):
        s = pack(np.diag([2.0, 0.0]))
        assert np.allclose(unpack(deviatoric(s)), np.diag([1.0, -1.0]))

    def test_traceless_unchanged(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((2, 2))
            m = 0.5 * (m + m.T)
            m -= 0.5 * np.trace(m) * np.eye(2)
            s = pack(m)
            assert np.allclose(deviatoric(s), s, atol=1e-15)

    def test_idempotent_and_trace_free(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((2, 2))
        d = deviatoric(pack(m))
        assert abs(trace_of(d)) <= 1e-14
        assert np.allclose(deviatoric(d), d, atol=1e-15)


class TestApplyMap:
    """Maps act on Mandel vectors as plain matrix-vector products."""

    def test_compliance_on_pure_shear_matches_inverse_oracle(self):
        # numeric inverse of an independently assembled stiffness matrix
        E, nu = 1.0, 0.3
        C = isotropic_compliance(E, nu)
        oracle = np.linalg.inv(plane_strain_stiffness_matrix(E, nu))
        shear = pack([[0.0, 1.0], [1.0, 0.0]])
        got = C @ shear
        assert np.allclose(got, oracle @ shear, rtol=1e-12)
        assert np.allclose(got, (1 + nu) / E * shear, rtol=1e-12)

    def test_compliance_on_hydrostatic_matches_inverse_oracle(self):
        E, nu = 1.0, 0.3
        C = isotropic_compliance(E, nu)
        oracle = np.linalg.inv(plane_strain_stiffness_matrix(E, nu))
        hydro = identity_comps()
        got = C @ hydro
        assert np.allclose(got, oracle @ hydro, rtol=1e-12)
        factor = (1 + nu) * (1 - 2 * nu) / E
        assert np.allclose(got, factor * hydro, rtol=1e-12)

    def test_symmetric_pairing(self):
        rng = np.random.default_rng(6)
        C = isotropic_compliance(2.0, 0.25)
        for _ in range(100):
            a = pack(rng.standard_normal((2, 2)))
            b = pack(rng.standard_normal((2, 2)))
            lhs = (C @ a) @ b
            rhs = a @ (C @ b)
            bound = 1e-13 * np.abs(C).max() * np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(lhs - rhs) <= bound


class TestIsotropicCompliance:
    def test_nu_zero_is_identity(self):
        C = isotropic_compliance(1.0, 0.0)
        assert np.allclose(C, np.eye(3), atol=1e-14)
        rng = np.random.default_rng(7)
        s = pack(rng.standard_normal((2, 2)))
        assert np.allclose(C @ s, s)
        # stiffness is the identity too, per the numeric inverse
        assert np.allclose(np.linalg.inv(plane_strain_stiffness_matrix(1.0, 0.0)),
                           np.eye(3))

    def test_eigenvalues_positive(self):
        eigs = np.linalg.eigvalsh(isotropic_compliance(2.0, 0.3))
        assert np.all(eigs > 0)

    def test_near_incompressible_gap(self):
        eigs = np.linalg.eigvalsh(isotropic_compliance(1.0, 0.49))
        # volumetric compliance collapses relative to deviatoric
        assert eigs[0] < 0.05 * eigs[-1]

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            isotropic_compliance(1.0, 0.5)
        with pytest.raises(ConfigurationError):
            isotropic_compliance(1.0, -1.0)
        with pytest.raises(ConfigurationError):
            isotropic_compliance(0.0, 0.3)

    def test_compliance_inverts_stiffness(self):
        C = isotropic_compliance(2.0, 0.3)
        A = isotropic_stiffness(2.0, 0.3)
        assert np.allclose(C @ A, np.eye(3), atol=1e-13)


class TestEllipticityCheck:
    def test_identity_passes_at_gamma_one(self):
        assert ellipticity_check(np.eye(3), 1.0) is True

    def test_scaled_identity_fails(self):
        assert ellipticity_check(3.0 * np.eye(3), 0.5) is False

    def test_compliance_passes_at_half_min_eigenvalue(self):
        C = isotropic_compliance(1.0, 0.3)
        gamma = 0.5 * float(np.min(np.linalg.eigvalsh(C)))
        assert ellipticity_check(C, gamma) is True

    def test_gamma_validation(self):
        with pytest.raises(ConfigurationError):
            ellipticity_check(np.eye(3), 0.0)
        with pytest.raises(ConfigurationError):
            ellipticity_check(np.eye(3), 1.5)


class TestFourthOrderMap:
    """Fourth-order maps are (3, 3) Mandel matrices; malformed ones are rejected."""

    def test_rejects_asymmetric_matrix(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ConfigurationError):
            ellipticity_check(m, 0.5)

    def test_rejects_wrong_shape(self):
        for size in (2, 4, 6):
            with pytest.raises(ConfigurationError):
                ellipticity_check(np.eye(size), 0.5)

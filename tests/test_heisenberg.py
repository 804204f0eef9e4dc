"""Group law, j-map, Lorentz force classification and isotropy."""

import math

import numpy as np
import pytest

from heisenmag.errors import DomainError
from heisenmag.heisenberg import (
    AlgebraVector,
    CanonicalTag,
    HeisenbergPoint,
    IDENTITY,
    LorentzForce,
    act_on_force,
    canonical_to_json,
    classify_force,
    coordinate_two_form,
    group_product,
    isotropy_member,
    j_map,
    potential_one_form,
)

BASIS = (AlgebraVector(1, 0, 0), AlgebraVector(0, 1, 0), AlgebraVector(0, 0, 1))


def assert_point(p, expected, tol=1e-12):
    assert abs(p.x - expected[0]) <= tol
    assert abs(p.y - expected[1]) <= tol
    assert abs(p.z - expected[2]) <= tol


class TestGroupLaw:
    def test_identity(self):
        assert_point(IDENTITY * HeisenbergPoint(3.0, -2.0, 7.0), (3.0, -2.0, 7.0))

    def test_product_example(self):
        # central correction of one half for the commuting pair e1, e2
        assert_point(
            group_product(HeisenbergPoint(1, 0, 0), HeisenbergPoint(0, 1, 0)),
            (1.0, 1.0, 0.5),
        )

    def test_inverse(self):
        p = HeisenbergPoint(2.0, -3.0, 5.0)
        assert_point(p.inverse(), (-2.0, 3.0, -5.0))
        assert_point(p * p.inverse(), (0.0, 0.0, 0.0))

    def test_associativity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b, c = (HeisenbergPoint(*rng.uniform(-5, 5, 3)) for _ in range(3))
            left = (a * b) * c
            right = a * (b * c)
            assert_point(left, (right.x, right.y, right.z), tol=1e-12)


class TestAlgebra:
    def test_bracket(self):
        e1, e2, e3 = BASIS
        assert e1.bracket(e2) == AlgebraVector(0.0, 0.0, 1.0)
        assert e2.bracket(e1) == AlgebraVector(0.0, 0.0, -1.0)
        assert e1.bracket(e3) == AlgebraVector(0.0, 0.0, 0.0)

    def test_j_map_defining_identity(self):
        # <j(Z)U, V> = <Z, [U, V]> on basis pairs
        e1, e2, e3 = BASIS
        for zc in (1.0, -0.5, 2.0):
            z = AlgebraVector(0, 0, zc)
            for u in (e1, e2):
                for v in (e1, e2):
                    lhs = j_map(zc, u).dot(v)
                    rhs = z.dot(u.bracket(v))
                    assert abs(lhs - rhs) < 1e-14

    def test_j_map_values(self):
        assert j_map(1.0, AlgebraVector(1, 0, 0)) == AlgebraVector(-0.0, 1.0, 0.0)
        got = j_map(-2.5, AlgebraVector(0, 1, 0))
        assert got.a == 2.5 and got.b == -0.0
        assert j_map(0.0, AlgebraVector(0.3, -0.7, 0)) == AlgebraVector(-0.0, 0.0, 0.0)

    def test_j_map_rejects_central_component(self):
        with pytest.raises(DomainError):
            j_map(1.0, AlgebraVector(1, 0, 1))


class TestClassification:
    def test_u_nonzero(self):
        canon = classify_force(LorentzForce(alpha=4, beta=3, rho=2))
        assert canon.tag is CanonicalTag.A_RHO
        assert abs(canon.rho_canonical - 0.4) < 1e-14
        assert abs(canon.witness_r - 0.2) < 1e-14

    def test_exact_class(self):
        canon = classify_force(LorentzForce(alpha=0, beta=0, rho=-3))
        assert canon.tag is CanonicalTag.B
        assert canon.rho_canonical == 1.0

    def test_already_canonical(self):
        canon = classify_force(LorentzForce(alpha=0, beta=1, rho=0))
        assert canon.tag is CanonicalTag.A_RHO
        assert canon.rho_canonical == 0.0
        np.testing.assert_allclose(np.array(canon.witness_b), np.eye(2), atol=1e-15)

    def test_zero_force(self):
        assert classify_force(LorentzForce(0, 0, 0)).tag is CanonicalTag.ZERO

    def test_idempotent(self):
        # classifying a canonical form returns itself with identity witness
        for canonical in (
            LorentzForce(alpha=0, beta=1, rho=0.7),
            LorentzForce(alpha=0, beta=0, rho=1.0),
            LorentzForce(0, 0, 0),
        ):
            canon = classify_force(canonical)
            assert canon.force() == canonical
            np.testing.assert_allclose(np.array(canon.witness_b), np.eye(2), atol=1e-15)
            assert canon.witness_r == 1.0

    def test_witness_soundness_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            force = LorentzForce(*rng.uniform(-4, 4, 3))
            canon = classify_force(force)
            acted = act_on_force(force, np.array(canon.witness_b), canon.witness_r)
            np.testing.assert_allclose(
                acted.matrix(), canon.force().matrix(), atol=1e-10
            )

    def test_distinct_rho_distinct_orbits(self):
        c1 = classify_force(LorentzForce(alpha=0, beta=1, rho=0.5))
        c2 = classify_force(LorentzForce(alpha=0, beta=1, rho=0.8))
        assert c1.tag == c2.tag
        assert abs(c1.rho_canonical - c2.rho_canonical) > 0.2

    def test_canonical_json(self):
        force = LorentzForce(alpha=1.25, beta=-0.5, rho=3.0)
        text = canonical_to_json(classify_force(force))
        assert '"tag"' in text and '"witness"' in text


class TestIsotropy:
    # Conjugating the force matrix shows the isotropy member for rho > 0
    # is the reflection fixing e1 (the same map the x0 < 0 trajectory
    # symmetry uses), paired with r = -1; these tests pin that down.

    def test_reflection_for_positive_rho(self):
        force = LorentzForce(alpha=0, beta=1, rho=0.8)
        assert isotropy_member(force, np.diag([1.0, -1.0]), -1.0)
        assert not isotropy_member(force, np.diag([-1.0, 1.0]), -1.0)

    def test_scaling_never_member(self):
        for force in (LorentzForce(0, 1, 0.5), LorentzForce(0, 0, 1)):
            assert not isotropy_member(force, np.eye(2), 2.0)

    def test_rotations_fix_exact_force(self):
        force = LorentzForce(0, 0, 1)
        for theta in (0.3, 1.0, 2.5):
            rot = np.array(
                [
                    [math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)],
                ]
            )
            assert isotropy_member(force, rot, 1.0)
            refl = rot @ np.diag([1.0, -1.0])
            assert isotropy_member(force, refl, -1.0)

    def test_harmonic_class_has_four_components(self):
        force = LorentzForce(alpha=0, beta=1, rho=0)
        members = [
            (np.eye(2), 1.0),
            (np.diag([-1.0, 1.0]), 1.0),
            (-np.eye(2), -1.0),
            (np.diag([1.0, -1.0]), -1.0),
        ]
        for b, r in members:
            assert isotropy_member(force, b, r)


class TestForms:
    def test_potential_exact_force(self):
        theta = potential_one_form(LorentzForce(0, 0, 2.0), HeisenbergPoint(0.3, 0.7, 5.0))
        np.testing.assert_allclose(theta, (-0.7, 0.3, 0.0), atol=1e-15)

    def test_potential_vanishes_at_origin(self):
        theta = potential_one_form(LorentzForce(1.5, -2.0, 0.7), IDENTITY)
        assert theta == (0.0, 0.0, 0.0)

    def test_exterior_derivative_matches_two_form(self):
        # finite differences of theta against the coordinate 2-form of F
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            force = LorentzForce(*rng.uniform(-2, 2, 3))
            x, y, z = rng.uniform(-2, 2, 3)

            def f(i, p):
                return potential_one_form(force, HeisenbergPoint(*p))[i]

            d_xy = (
                f(1, (x + h, y, z)) - f(1, (x - h, y, z))
                - f(0, (x, y + h, z)) + f(0, (x, y - h, z))
            ) / (2 * h)
            d_xz = (
                f(2, (x + h, y, z)) - f(2, (x - h, y, z))
                - f(0, (x, y, z + h)) + f(0, (x, y, z - h))
            ) / (2 * h)
            d_yz = (
                f(2, (x, y + h, z)) - f(2, (x, y - h, z))
                - f(1, (x, y, z + h)) + f(1, (x, y, z - h))
            ) / (2 * h)
            expected = coordinate_two_form(force, HeisenbergPoint(x, y, z))
            np.testing.assert_allclose((d_xy, d_xz, d_yz), expected, atol=1e-8)

    def test_cusp_coefficient_at_special_point(self):
        force = LorentzForce(alpha=1, beta=1, rho=1)
        dxdy, _, _ = coordinate_two_form(force, HeisenbergPoint(1.0, 1.0, 0.0))
        assert dxdy == 0.0

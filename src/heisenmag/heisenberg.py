"""The Heisenberg group H3, its algebra, and left-invariant Lorentz forces.

H3 is modeled on R^3 in exponential coordinates: the point (x, y, z)
stands for exp(x e1 + y e2 + z e3), with the 2-step group law

    (v1, z1) * (v2, z2) = (v1 + v2, z1 + z2 + <J v1, v2> / 2),

where J(x, y) = (-y, x).  The algebra has the single bracket
[e1, e2] = e3 and carries the metric making e1, e2, e3 orthonormal.

A left-invariant Lorentz force is the skew map

    F = [[0, -rho, -beta], [rho, 0, -alpha], [beta, alpha, 0]]

written F_{U,rho} with U = beta e1 + alpha e2.  The isometry group
O(2)-part acts by B.(V, Z) = (B V, det(B) Z), and on forces by
(B, r) . F_{U,rho} = r det(B) F_{B U, rho}; this module classifies every
force into its canonical orbit representative and answers isotropy
membership questions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, check_finite

__all__ = [
    "HeisenbergPoint",
    "IDENTITY",
    "AlgebraVector",
    "LorentzForce",
    "CanonicalTag",
    "CanonicalForce",
    "group_product",
    "j_map",
    "act_on_force",
    "automorphism_matrix",
    "classify_force",
    "isotropy_member",
    "potential_one_form",
    "coordinate_two_form",
    "canonical_to_json",
]

_PLANE_BAND = 1e-12  # e3-component of a j_map argument read as zero, relative
_ORBIT_BAND = 1e-12  # ||U|| or |rho| read as zero in classify_force, relative to scale
_UNIT_BAND = 1e-12  # |r| read as 1 in an isotropy witness
_ISOTROPY_BAND = 1e-10  # entrywise mismatch of psi F psi^-1 and r F, relative to scale


@dataclass(frozen=True)
class HeisenbergPoint:
    """Group element in exponential coordinates (x, y, z)."""

    x: float
    y: float
    z: float

    def __mul__(self, other: "HeisenbergPoint") -> "HeisenbergPoint":
        return group_product(self, other)

    def inverse(self) -> "HeisenbergPoint":
        # exp coordinates of a 2-step group: exp(V)^-1 = exp(-V)
        return HeisenbergPoint(-self.x, -self.y, -self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


IDENTITY = HeisenbergPoint(0.0, 0.0, 0.0)


def group_product(p: HeisenbergPoint, q: HeisenbergPoint) -> HeisenbergPoint:
    """Product in exponential coordinates; <J v1, v2> = x1 y2 - y1 x2."""
    cross = p.x * q.y - p.y * q.x
    return HeisenbergPoint(p.x + q.x, p.y + q.y, p.z + q.z + 0.5 * cross)


@dataclass(frozen=True)
class AlgebraVector:
    """Element a*e1 + b*e2 + c*e3 of the Heisenberg algebra."""

    a: float
    b: float
    c: float

    def bracket(self, other: "AlgebraVector") -> "AlgebraVector":
        # [e1, e2] = e3 is the only non-trivial bracket
        return AlgebraVector(0.0, 0.0, self.a * other.b - self.b * other.a)

    def dot(self, other: "AlgebraVector") -> float:
        return self.a * other.a + self.b * other.b + self.c * other.c


def j_map(zc: float, v: AlgebraVector) -> AlgebraVector:
    """j(zc*e3) applied to v in span{e1,e2}: the scaled rotation zc*J.

    Defined by <j(Z)U, V> = <Z, [U, V]>; on this algebra j(zc*e3) acts on
    (a, b) as zc*(-b, a).
    """
    if abs(v.c) > _PLANE_BAND * max(1.0, abs(v.a), abs(v.b)):
        raise DomainError("j_map argument must lie in span{e1, e2}")
    return AlgebraVector(-zc * v.b, zc * v.a, 0.0)


@dataclass(frozen=True)
class LorentzForce:
    """Left-invariant Lorentz force F_{U,rho} with U = beta e1 + alpha e2."""

    alpha: float
    beta: float
    rho: float

    def __post_init__(self):
        check_finite(alpha=self.alpha, beta=self.beta, rho=self.rho)

    def matrix(self) -> np.ndarray:
        a, b, r = self.alpha, self.beta, self.rho
        return np.array(
            [[0.0, -r, -b], [r, 0.0, -a], [b, a, 0.0]], dtype=float
        )

    @property
    def u_norm(self) -> float:
        return math.hypot(self.beta, self.alpha)

    def scale(self) -> float:
        return max(abs(self.alpha), abs(self.beta), abs(self.rho), 1.0)


class CanonicalTag(str, Enum):
    A_RHO = "A"  # U = e1, rho >= 0
    B = "B"  # exact force F_{0,1}
    ZERO = "Zero"


@dataclass(frozen=True)
class CanonicalForce:
    tag: CanonicalTag
    rho_canonical: float
    witness_b: tuple[tuple[float, float], tuple[float, float]]
    witness_r: float

    def force(self) -> LorentzForce:
        if self.tag is CanonicalTag.A_RHO:
            return LorentzForce(alpha=0.0, beta=1.0, rho=self.rho_canonical)
        if self.tag is CanonicalTag.B:
            return LorentzForce(alpha=0.0, beta=0.0, rho=1.0)
        return LorentzForce(0.0, 0.0, 0.0)


def automorphism_matrix(b: np.ndarray) -> np.ndarray:
    """3x3 orthogonal automorphism induced by B in O(2): (V,Z) -> (BV, det(B) Z)."""
    b = np.asarray(b, dtype=float)
    psi = np.zeros((3, 3))
    psi[:2, :2] = b
    psi[2, 2] = np.linalg.det(b)
    return psi


def act_on_force(force: LorentzForce, b: np.ndarray, r: float) -> LorentzForce:
    """(B, r) . F_{U,rho} = r det(B) F_{BU,rho} = F_{r det(B) BU, r det(B) rho}."""
    b = np.asarray(b, dtype=float)
    det = float(np.linalg.det(b))
    u = b @ np.array([force.beta, force.alpha])
    s = r * det
    return LorentzForce(alpha=s * u[1], beta=s * u[0], rho=s * force.rho)


def classify_force(force: LorentzForce) -> CanonicalForce:
    """Canonical orbit representative with an explicit witness (B, r).

    Applying the witness action to the input reproduces the canonical
    matrix: act_on_force(force, B, r) == canonical.  For U != 0 the
    representative is F_{e1, |rho|/||U||}; for U = 0, rho != 0 it is the
    exact force F_{0,1}; the zero force is its own class.  ||U|| and |rho|
    count as zero within _ORBIT_BAND times the force's scale.
    """
    band = _ORBIT_BAND * force.scale()
    unorm = force.u_norm
    if unorm <= band:
        identity = ((1.0, 0.0), (0.0, 1.0))
        if abs(force.rho) <= band:
            return CanonicalForce(CanonicalTag.ZERO, 0.0, identity, 1.0)
        return CanonicalForce(CanonicalTag.B, 1.0, identity, 1.0 / force.rho)
    # (-Id, -1) to flip a negative rho, then the rotation in SO(2) sending U/||U|| to e1
    u1, u2 = force.beta / unorm, force.alpha / unorm
    sign = -1.0 if force.rho < -band else 1.0
    rho_tilde = abs(force.rho) / unorm if abs(force.rho) > band else 0.0
    witness = ((sign * u1, sign * u2), (-sign * u2, sign * u1))
    return CanonicalForce(CanonicalTag.A_RHO, rho_tilde, witness, sign / unorm)


def isotropy_member(force: LorentzForce, b: np.ndarray, r: float) -> bool:
    """Whether (B, r) fixes the force: r = +-1 and psi o F o psi^-1 = r F.

    psi is the orthogonal automorphism induced by B.  Equivalently
    (B, r) . F = F under the action on forces.
    """
    if abs(abs(r) - 1.0) > _UNIT_BAND:
        return False
    psi = automorphism_matrix(b)
    f = force.matrix()
    lhs = psi @ f @ np.linalg.inv(psi)
    return bool(np.max(np.abs(lhs - r * f)) <= _ISOTROPY_BAND * force.scale())


def potential_one_form(
    force: LorentzForce, p: HeisenbergPoint
) -> tuple[float, float, float]:
    """Primitive theta of omega_F evaluated at p, as a coordinate covector.

    theta = (-rho y/2 + beta x y/2) dx + (rho x/2 - alpha x y/2) dy
            + (beta x + alpha y) dz.
    """
    a, b, r = force.alpha, force.beta, force.rho
    f1 = -0.5 * r * p.y + 0.5 * b * p.x * p.y
    f2 = 0.5 * r * p.x - 0.5 * a * p.x * p.y
    f3 = b * p.x + a * p.y
    return (f1, f2, f3)


def coordinate_two_form(
    force: LorentzForce, p: HeisenbergPoint
) -> tuple[float, float, float]:
    """(dx^dy, dx^dz, dy^dz) coefficients of omega_F at p in coordinates.

    These are the right-hand sides of the exactness conditions
    d theta = omega_F satisfied by `potential_one_form`.
    """
    a, b, r = force.alpha, force.beta, force.rho
    return (r - 0.5 * b * p.x - 0.5 * a * p.y, b, a)


def canonical_to_json(canonical: CanonicalForce) -> str:
    return json.dumps(
        {
            "tag": canonical.tag.value,
            "rho": canonical.rho_canonical,
            "witness": {
                "B": [list(row) for row in canonical.witness_b],
                "r": canonical.witness_r,
            },
        }
    )

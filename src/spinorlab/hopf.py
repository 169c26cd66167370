"""Spinor representation dictionary and the quaternionic Hopf fibration.

A column spinor in the standard representation corresponds to an even
multivector (operator spinor) and, equivalently, to an element of the minimal
left ideal picked by the primitive idempotent f = (1+gamma_0)(1+i gamma_12)/4.
Splitting the even element over the quaternion subalgebra gives a pair
(q1, q2), i.e. a point of H^2; unit pairs form S^7 and the bilinear map

    (q1, q2) -> (|q1|^2 - |q2|^2, 2 Re(q1* i q2), 2 Re(q1* j q2),
                 2 Re(q1* k q2), 2 Re(q1* q2))

lands on S^4: the quaternionic Hopf fibration, with the right unit-quaternion
action as fiber.  A second, component-level formula set for the same five
quantities is provided verbatim; the two differ by a fixed rotation of the
fiber coordinates and both satisfy the norm identity, which is surfaced by
the comparison report rather than reconciled.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import (
    BLADE_GRADES,
    BLADE_INDEX,
    DIM,
    E0,
    Multivector,
    Quaternion,
    QUAT_I,
    QUAT_J,
    QUAT_K,
)
from .bilinears import SpinorC4, bilinears
from .gamma import gamma_rep

_EVEN_MASK = (BLADE_GRADES % 2) == 0

_IDX_12 = BLADE_INDEX[(1, 2)]
_IDX_13 = BLADE_INDEX[(1, 3)]
_IDX_23 = BLADE_INDEX[(2, 3)]
_IDX_01 = BLADE_INDEX[(0, 1)]
_IDX_02 = BLADE_INDEX[(0, 2)]
_IDX_03 = BLADE_INDEX[(0, 3)]
_IDX_PS = BLADE_INDEX[(0, 1, 2, 3)]


class QuaternionPair(NamedTuple):
    q1: Quaternion
    q2: Quaternion

    def norm_squared(self) -> float:
        return self.q1.norm_squared() + self.q2.norm_squared()

    def right_multiplied(self, u: Quaternion) -> "QuaternionPair":
        """The fiber action: multiply both quaternions by u on the right."""
        return QuaternionPair(self.q1 * u, self.q2 * u)


class HopfPoint(NamedTuple):
    """Image coordinates (J0, J1, J2, J3, omega) with radius sigma."""

    J0: float
    J1: float
    J2: float
    J3: float
    omega: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


def _require_even(mv: Multivector, tol: float) -> None:
    odd = np.linalg.norm(np.where(_EVEN_MASK, 0, mv.coeffs))
    if odd > tol * max(1.0, mv.norm()):
        raise ValueError(f"multivector has odd-grade support (norm {odd:g})")


_ONE = Multivector.scalar(1.0 + 0.0j)
_IDEAL_PROJECTOR = (_ONE + E0) * (_ONE + Multivector.blade(1, 2) * 1j) * 0.25


def ideal_projector() -> Multivector:
    """The primitive idempotent f = (1 + e0)(1 + i e12)/4 (complex), as a fresh copy."""
    return Multivector(_IDEAL_PROJECTOR.coeffs)


def even_to_ideal(psi_even: Multivector, tol: float = 1e-10) -> Multivector:
    """Right-multiply an even element by the idempotent f (complexifies)."""
    _require_even(psi_even, tol)
    return psi_even * _IDEAL_PROJECTOR


def ideal_to_column(xi: Multivector, tol: float = 1e-10) -> SpinorC4:
    """Read the column of an ideal element off its standard-rep matrix."""
    m = gamma_rep("standard").mv_to_matrix(xi)
    rest = np.linalg.norm(m[:, 1:])
    if rest > tol * max(1.0, np.linalg.norm(m)):
        raise ValueError("element is not in the minimal left ideal of f")
    return SpinorC4(m[:, 0], "standard")


def even_to_column(psi_even: Multivector, tol: float = 1e-10) -> SpinorC4:
    """Column components of an even operator spinor (standard representation)."""
    _require_even(psi_even, tol)
    c = psi_even.coeffs
    comp = np.array(
        [
            c[0] - 1j * c[_IDX_12],
            -c[_IDX_13] - 1j * c[_IDX_23],
            -c[_IDX_03] + 1j * c[_IDX_PS],
            -c[_IDX_01] - 1j * c[_IDX_02],
        ]
    )
    return SpinorC4(comp, "standard")


def column_to_even(psi: SpinorC4) -> Multivector:
    """Even operator spinor of a standard-representation column."""
    if psi.rep != "standard":
        raise ValueError("the even dictionary is tied to the standard representation")
    p = psi.components
    c = np.zeros(DIM)
    c[0] = p[0].real
    c[_IDX_12] = -p[0].imag
    c[_IDX_13] = -p[1].real
    c[_IDX_23] = -p[1].imag
    c[_IDX_03] = -p[2].real
    c[_IDX_PS] = p[2].imag
    c[_IDX_01] = -p[3].real
    c[_IDX_02] = -p[3].imag
    return Multivector(c)


def column_to_quaternions(psi: SpinorC4) -> QuaternionPair:
    """Quaternion pair of a standard-representation column spinor."""
    if psi.rep != "standard":
        raise ValueError("the quaternion dictionary is tied to the standard representation")
    p = psi.components
    q1 = Quaternion(p[0].real, -p[1].imag, p[1].real, -p[0].imag)
    q2 = Quaternion(p[2].imag, p[3].real, p[3].imag, p[2].real)
    return QuaternionPair(q1, q2)


def quaternions_to_column(pair: QuaternionPair) -> SpinorC4:
    """Inverse of :func:`column_to_quaternions`."""
    q1, q2 = pair
    comp = np.array(
        [
            q1.w - 1j * q1.z,
            q1.y - 1j * q1.x,
            q2.z + 1j * q2.w,
            q2.x + 1j * q2.y,
        ]
    )
    return SpinorC4(comp, "standard")


def even_to_quaternions(psi_even: Multivector, tol: float = 1e-10) -> QuaternionPair:
    """Quaternion pair straight from the even coefficients."""
    _require_even(psi_even, tol)
    c = psi_even.coeffs
    q1 = Quaternion(c[0], c[_IDX_23], -c[_IDX_13], c[_IDX_12])
    q2 = Quaternion(c[_IDX_PS], -c[_IDX_01], -c[_IDX_02], -c[_IDX_03])
    return QuaternionPair(q1, q2)


def hopf_map(pair: QuaternionPair, tol: float = 1e-9) -> HopfPoint:
    """Map a unit quaternion pair (a point of S^7) to its S^4 image."""
    sigma, point = hopf_map_unnormalized(pair)
    if abs(sigma - 1.0) > tol:
        raise ValueError(f"input pair has squared norm {sigma:g}; normalize to the unit sphere")
    return point


def hopf_map_unnormalized(pair: QuaternionPair) -> tuple[float, HopfPoint]:
    """Radius sigma = |q1|^2 + |q2|^2 and the (unnormalized) image point."""
    q1, q2 = pair
    q1c = q1.conjugate()
    point = HopfPoint(
        J0=q1.norm_squared() - q2.norm_squared(),
        J1=2.0 * (q1c * QUAT_I * q2).w,
        J2=2.0 * (q1c * QUAT_J * q2).w,
        J3=2.0 * (q1c * QUAT_K * q2).w,
        omega=2.0 * (q1c * q2).w,
    )
    return pair.norm_squared(), point


def hopf_from_components(psi: SpinorC4) -> tuple[float, HopfPoint]:
    """Component-level fibration formulas applied verbatim to the column.

    Returns (sigma, point) with sigma the plain squared norm of the column.
    These forms are the classical fibration written through the pairing
    q_a = p0 + p1 j, q_b = p2 + p3 j: with Q = conj(q_a) q_b the point is
    (|q_a|^2 - |q_b|^2, -2 Q.z, -2 Q.y, 2 Q.x, 2 Q.w).  The quaternion route
    uses a different pairing of the same column, so the two images share J0
    and the norm of the remaining block but differ inside that block by a
    spinor-dependent rotation; see :func:`hopf_routes_report`.
    """
    p = psi.components
    sigma = float(np.vdot(p, p).real)
    j0 = float(abs(p[0]) ** 2 + abs(p[1]) ** 2 - abs(p[2]) ** 2 - abs(p[3]) ** 2)
    j1 = 2.0 * float((p[0] * np.conj(p[3])).imag) + 2.0 * float((p[1] * np.conj(p[2])).imag)
    j2 = 2.0 * float((p[1] * np.conj(p[2])).real) - 2.0 * float((p[0] * np.conj(p[3])).real)
    j3 = 2.0 * float((p[2] * np.conj(p[0])).imag) + 2.0 * float((p[1] * np.conj(p[3])).imag)
    omega = 2.0 * float((p[0] * np.conj(p[2])).real) + 2.0 * float((p[1] * np.conj(p[3])).real)
    return sigma, HopfPoint(j0, j1, j2, j3, omega)


def column_fiber_action(psi: SpinorC4, u: Quaternion) -> SpinorC4:
    """The fiber action transported to column spinors through the dictionary."""
    return quaternions_to_column(column_to_quaternions(psi).right_multiplied(u))


def hopf_routes_report(psi: SpinorC4) -> dict:
    """Compare the quaternion-route, component-route, and direct bilinears.

    The quaternion and component routes each satisfy the norm identity
    J0^2 + J1^2 + J2^2 + J3^2 + omega^2 = sigma^2.  Relative to the direct
    bilinear evaluation, both routes swap the roles of sigma and J^0; the
    report states all three verbatim and their pairwise gaps.
    """
    psi_std = psi.in_rep("standard")
    sigma_q, point_q = hopf_map_unnormalized(column_to_quaternions(psi_std))
    sigma_c, point_c = hopf_from_components(psi_std)
    b = bilinears(psi_std)
    direct = {
        "sigma": b.sigma,
        "J": b.J.tolist(),
        "omega": b.omega,
    }
    norm_q = point_q.norm()
    norm_c = point_c.norm()
    return {
        "quaternion_route": {"sigma": sigma_q, "point": list(point_q)},
        "component_route": {"sigma": sigma_c, "point": list(point_c)},
        "direct_bilinears": direct,
        "norm_identity_residual_quaternion": abs(norm_q**2 - sigma_q**2),
        "norm_identity_residual_component": abs(norm_c**2 - sigma_c**2),
        "route_gap": float(
            np.max(np.abs(point_q.as_array() - point_c.as_array()))
        ),
        "sigma_swap_gap": {
            "quaternion_sigma_vs_direct_J0": abs(sigma_q - b.J[0]),
            "quaternion_J0_vs_direct_sigma": abs(point_q.J0 - b.sigma),
        },
    }


def instanton_obstruction(psi: SpinorC4) -> dict:
    """Report the nonvanishing first-four-coordinate norm of the image point.

    For any nonzero column the Euclidean norm of (J0..J3) from the component
    route is bounded below by sigma > 0 projected away from the omega axis;
    ELKO columns sit off the unit S^7 (sigma = 0 for their bilinear radius),
    which is reported, not asserted against.
    """
    if not np.any(psi.components):
        raise ValueError("the zero column has no image point")
    psi_std = psi.in_rep("standard")
    sigma_c, point_c = hopf_from_components(psi_std)
    b = bilinears(psi_std)
    first_four = float(np.linalg.norm(point_c.as_array()[:4]))
    return {
        "J_norm": first_four,
        "sigma_component_route": sigma_c,
        "sigma_bilinear": b.sigma,
        "omega_bilinear": b.omega,
        "on_unit_sphere": bool(abs(sigma_c - 1.0) <= 1e-9),
    }

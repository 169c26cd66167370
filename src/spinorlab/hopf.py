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

The array kernels work on blocks of N standard-representation columns.  A
quaternion is a (w, x, y, z) tuple of (N,) arrays, or of floats for one
quaternion, multiplied elementwise by ``algebra.hamilton_product``.
``column_to_quaternions_array``, ``quaternions_to_column_array``,
``column_to_even_array``, ``even_to_column_array``, ``even_to_ideal_array``
and ``ideal_to_column_array`` are the dictionary on (N, 4) columns and
(N, 16) coefficients.  ``hopf_map_array`` is the quaternion route and
``fiber_action_array`` its right action; ``hopf_from_components_array`` is
the component route; ``norm_identity_residual_array`` measures either route
against the norm identity.  ``hopf_report_array`` builds the route report of
each row of a block in either representation.

Each operation has one arithmetic body, its kernel.  The one-column functions
are one-row calls of it: ``column_to_quaternions``, ``quaternions_to_column``,
``column_to_even``, ``even_to_column``, ``even_to_ideal`` and
``ideal_to_column`` of the dictionary kernels, ``hopf_map_unnormalized`` of
``hopf_map_array``, ``hopf_from_components`` of the component route, and
``hopf_routes_report`` and ``instanton_obstruction`` of ``hopf_report_array``.
Each keeps its own representation check and error text.
``even_to_quaternions`` has no kernel and reads the even coefficients
directly: through ``even_to_column`` the product ``1j * c`` would change the
sign of some zero coefficients.

Every kernel row equals the per-column ``Multivector``, ``Quaternion`` and
complex-scalar arithmetic it replaced bit for bit, by the rules of
``spinorlab.bilinears``: Python's ``x ** 2`` is ``np.float_power``, the norm of
a real row is ``np.sqrt(np.vecdot(x, x))`` and of a complex row
``bilinears._norms``, the scalar ``abs`` of a complex128 is
``bilinears._moduli``, and a matrix applied to each row is a stacked matmul
(``x[:, None, :] @ m`` or ``m @ x[:, :, None]``), as in
``GammaRep.matrix_array``.  The complex product of two arrays runs a SIMD
loop that rounds differently from the scalar product, so the component route
multiplies real and imaginary parts out, as the scalar product does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import (
    BLADE_GRADES,
    BLADE_INDEX,
    DIM,
    E0,
    PRODUCT_SIGN,
    Multivector,
    Quaternion,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    hamilton_product,
    product_array,
)
from .bilinears import SpinorC4, _components, _moduli, _norms, covariant_array
from .gamma import SIMILARITY, gamma_rep

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


_ONE = Multivector.scalar(1.0 + 0.0j)
_IDEAL_PROJECTOR = (_ONE + E0) * (_ONE + Multivector.blade(1, 2) * 1j) * 0.25


def ideal_projector() -> Multivector:
    """The primitive idempotent f = (1 + e0)(1 + i e12)/4 (complex), as a fresh copy."""
    return Multivector(_IDEAL_PROJECTOR.coeffs)


def _standard_row(psi: SpinorC4, dictionary: str) -> np.ndarray:
    """The components of a standard-representation column as a one-row block."""
    if psi.rep != "standard":
        raise ValueError(f"the {dictionary} dictionary is tied to the standard representation")
    return psi.components[None]


def _wxyz(q: Quaternion) -> tuple:
    """The (w, x, y, z) floats of a quaternion: one quaternion for the array kernels."""
    return q.w, q.x, q.y, q.z


def even_to_ideal(psi_even: Multivector, tol: float = 1e-10) -> Multivector:
    """Right-multiply an even element by the idempotent f (complexifies).

    One row of ``even_to_ideal_array``.
    """
    return Multivector(even_to_ideal_array(psi_even.coeffs[None], tol)[0])


def ideal_to_column(xi: Multivector, tol: float = 1e-10) -> SpinorC4:
    """Read the column of an ideal element off its standard-rep matrix.

    One row of ``ideal_to_column_array``.
    """
    return SpinorC4(ideal_to_column_array(xi.coeffs[None], tol)[0], "standard")


def even_to_column(psi_even: Multivector, tol: float = 1e-10) -> SpinorC4:
    """Column components of an even operator spinor: one row of ``even_to_column_array``."""
    return SpinorC4(even_to_column_array(psi_even.coeffs[None], tol)[0], "standard")


def column_to_even(psi: SpinorC4) -> Multivector:
    """Even operator spinor of a standard-representation column: one row of the array kernel."""
    return Multivector(column_to_even_array(_standard_row(psi, "even"))[0])


def column_to_quaternions(psi: SpinorC4) -> QuaternionPair:
    """Quaternion pair of a standard-representation column: one row of the array kernel."""
    q1, q2 = column_to_quaternions_array(_standard_row(psi, "quaternion"))
    return QuaternionPair(Quaternion(*(c[0] for c in q1)), Quaternion(*(c[0] for c in q2)))


def quaternions_to_column(pair: QuaternionPair) -> SpinorC4:
    """Inverse of :func:`column_to_quaternions`: one row of ``quaternions_to_column_array``."""
    return SpinorC4(quaternions_to_column_array(*(_wxyz(q) for q in pair)), "standard")


def even_to_quaternions(psi_even: Multivector, tol: float = 1e-10) -> QuaternionPair:
    """Quaternion pair straight from the even coefficients."""
    _require_even_array(psi_even.coeffs[None], tol)
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
    """Radius sigma = |q1|^2 + |q2|^2 and the (unnormalized) image point.

    One row of ``hopf_map_array``.
    """
    sigma, point = hopf_map_array(*(_wxyz(q) for q in pair))
    return float(sigma), HopfPoint(*point.tolist())


def hopf_from_components(psi: SpinorC4) -> tuple[float, HopfPoint]:
    """Component-level fibration formulas applied verbatim to the column.

    Returns (sigma, point) with sigma the plain squared norm of the column.
    These forms are the classical fibration written through the pairing
    q_a = p0 + p1 j, q_b = p2 + p3 j: with Q = conj(q_a) q_b the point is
    (|q_a|^2 - |q_b|^2, -2 Q.z, -2 Q.y, 2 Q.x, 2 Q.w).  The quaternion route
    uses a different pairing of the same column, so the two images share J0
    and the norm of the remaining block but differ inside that block by a
    spinor-dependent rotation; see :func:`hopf_routes_report`.  The one-row
    call of ``hopf_from_components_array``.
    """
    sigma, point = hopf_from_components_array(psi.components[None])
    return float(sigma[0]), HopfPoint(*point[0].tolist())


def column_fiber_action(psi: SpinorC4, u: Quaternion) -> SpinorC4:
    """The fiber action transported to column spinors through the dictionary."""
    return quaternions_to_column(column_to_quaternions(psi).right_multiplied(u))


def hopf_routes_report(psi: SpinorC4) -> dict:
    """Compare the quaternion-route, component-route, and direct bilinears.

    The quaternion and component routes each satisfy the norm identity
    J0^2 + J1^2 + J2^2 + J3^2 + omega^2 = sigma^2.  Relative to the direct
    bilinear evaluation, both routes swap the roles of sigma and J^0; the
    report states all three verbatim and their pairwise gaps.  The one-row
    call of ``hopf_report_array``, without its ``instanton`` entry.
    """
    report = hopf_report_array(psi.components[None], psi.rep)[0]
    del report["instanton"]
    return report


_NULL_COLUMN = "the zero column has no image point"


def instanton_obstruction(psi: SpinorC4) -> dict:
    """Report the nonvanishing first-four-coordinate norm of the image point.

    For any nonzero column the Euclidean norm of (J0..J3) from the component
    route is bounded below by sigma > 0 projected away from the omega axis;
    ELKO columns sit off the unit S^7 (sigma = 0 for their bilinear radius),
    which is reported, not asserted against.  The ``instanton`` entry of the
    one-row ``hopf_report_array``.
    """
    if not np.any(psi.components):
        raise ValueError(_NULL_COLUMN)
    return hopf_report_array(psi.components[None], psi.rep)[0]["instanton"]


# ---- array kernels ---------------------------------------------------------


def column_to_quaternions_array(components) -> tuple[tuple, tuple]:
    """The quaternion pairs (q1, q2) of an (N, 4) block of standard-representation columns."""
    v = _components(components)
    re, im = v.real.T, v.imag.T
    return (re[0], -im[1], re[1], -im[0]), (im[2], re[3], im[3], re[2])


def quaternions_to_column_array(q1, q2) -> np.ndarray:
    """Inverse of ``column_to_quaternions_array``: the (N, 4) columns.

    Quaternions of floats, one pair, give one (4,) column.
    """
    return np.stack(
        [q1[0] - 1j * q1[3], q1[2] - 1j * q1[1], q2[3] + 1j * q2[0], q2[1] + 1j * q2[2]], axis=-1
    )


def _norm_squared(q) -> np.ndarray:
    """``Quaternion.norm_squared`` of each element: w**2 + x**2 + y**2 + z**2."""
    w, x, y, z = (np.float_power(c, 2) for c in q)
    return w + x + y + z


_UNITS = [_wxyz(q) for q in (QUAT_I, QUAT_J, QUAT_K)]


def hopf_map_array(q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """The (N,) radii sigma and (N, 5) image points of quaternion pairs: the quaternion route.

    Row n is the image of pair n, (J0, J1, J2, J3, omega) with
    J0 = |q1|^2 - |q2|^2, J_k = 2 Re(q1* u_k q2) for u = i, j, k and
    omega = 2 Re(q1* q2).  Quaternions of floats, one pair, give a float
    sigma and a (5,) point.
    """
    n1, n2 = _norm_squared(q1), _norm_squared(q2)
    q1c = (q1[0], -q1[1], -q1[2], -q1[3])
    block = [2.0 * hamilton_product(hamilton_product(q1c, u), q2)[0] for u in _UNITS]
    omega = 2.0 * hamilton_product(q1c, q2)[0]
    return n1 + n2, np.stack([n1 - n2, *block, omega], axis=-1)


def norm_identity_residual_array(sigma, points) -> np.ndarray:
    """|J0^2 + J1^2 + J2^2 + J3^2 + omega^2 - sigma^2| for each radius and (N, 5) image point."""
    return np.abs(np.float_power(np.sqrt(np.vecdot(points, points)), 2) - np.float_power(sigma, 2))


def fiber_action_array(q1, q2, u) -> tuple[tuple, tuple]:
    """The fiber action on quaternion pairs: both multiplied on the right by the unit quaternion u."""
    return hamilton_product(q1, u), hamilton_product(q2, u)


def hopf_from_components_array(components) -> tuple[np.ndarray, np.ndarray]:
    """The (N,) squared norms and (N, 5) image points of the component route, row by row.

    ``hopf_from_components``' formulas on an (N, 4) block of standard columns.
    Each product p_j conj(p_k) is multiplied out in real arithmetic: its real
    part is a_j a_k + b_j b_k and its imaginary part b_j a_k - a_j b_k.
    """
    v = _components(components)
    a, b = v.real.T, v.imag.T
    re = lambda j, k: a[j] * a[k] + b[j] * b[k]
    im = lambda j, k: b[j] * a[k] - a[j] * b[k]
    sigma = np.vecdot(v, v).real
    m = np.float_power(_moduli(v), 2).T
    point = np.stack(
        [
            m[0] + m[1] - m[2] - m[3],
            2.0 * im(0, 3) + 2.0 * im(1, 2),
            2.0 * re(1, 2) - 2.0 * re(0, 3),
            2.0 * im(2, 0) + 2.0 * im(1, 3),
            2.0 * re(0, 2) + 2.0 * re(1, 3),
        ],
        axis=1,
    )
    return sigma, point


_EVEN_SLOTS = [0, _IDX_12, _IDX_13, _IDX_23, _IDX_03, _IDX_PS, _IDX_01, _IDX_02]


def column_to_even_array(components) -> np.ndarray:
    """The (N, 16) even operator spinors of an (N, 4) block of standard columns."""
    v = _components(components)
    a, b = v.real.T, v.imag.T
    c = np.zeros((len(v), DIM))
    c[:, _EVEN_SLOTS] = np.stack([a[0], -b[0], -a[1], -b[1], -a[2], b[2], -a[3], -b[3]], axis=1)
    return c


def _require_even_array(c: np.ndarray, tol: float) -> None:
    odd = _norms(np.where(_EVEN_MASK, 0, c))
    bad = np.flatnonzero(odd > tol * np.maximum(1.0, _norms(c)))
    if len(bad):
        raise ValueError(f"multivector has odd-grade support (norm {odd[bad[0]]:g})")


def even_to_column_array(coeffs, tol: float = 1e-10) -> np.ndarray:
    """The (N, 4) standard columns of an (N, 16) block of even operator spinors.

    Raises ValueError for the first row with odd-grade support.
    """
    c = np.asarray(coeffs)
    _require_even_array(c, tol)
    c = c.T
    return np.stack(
        [
            c[0] - 1j * c[_IDX_12],
            -c[_IDX_13] - 1j * c[_IDX_23],
            -c[_IDX_03] + 1j * c[_IDX_PS],
            -c[_IDX_01] - 1j * c[_IDX_02],
        ],
        axis=1,
    )


def even_to_ideal_array(coeffs, tol: float = 1e-10) -> np.ndarray:
    """Right-multiply each row of an (N, 16) block of even elements by the idempotent f.

    Through ``algebra.product_array``, so each row is the ``Multivector``
    product of that row and f bit for bit; raises ValueError for the first row
    with odd-grade support.
    """
    x = np.asarray(coeffs)
    _require_even_array(x, tol)
    return product_array(x, _IDEAL_PROJECTOR.coeffs[None], PRODUCT_SIGN)


def ideal_to_column_array(coeffs, tol: float = 1e-10) -> np.ndarray:
    """The (N, 4) columns of an (N, 16) block of minimal-left-ideal elements.

    Raises ValueError when a row is not in the ideal.
    """
    m = gamma_rep("standard").matrix_array(coeffs)
    rest = _norms(m[:, :, 1:].reshape(-1, 12))
    if np.any(rest > tol * np.maximum(1.0, _norms(m.reshape(-1, 16)))):
        raise ValueError("element is not in the minimal left ideal of f")
    return m[:, :, 0]


def hopf_report_array(components, rep: str = "chiral") -> list[dict]:
    """``hopf_routes_report`` of each row of an (N, 4) block, with ``instanton_obstruction``.

    Row n is the report of spinor n in representation ``rep``, and its
    ``instanton`` entry the obstruction report; an all-zero row gets the
    zeros of its routes rather than an error.  The change to the standard
    representation, the component route and the covariants run once for
    the block.
    """
    v = _components(components)
    if gamma_rep(rep).tag != "standard":  # SpinorC4.in_rep, row by row; an unknown tag raises
        v = (SIMILARITY @ v[:, :, None])[..., 0]
    sigma_q, point_q = hopf_map_array(*column_to_quaternions_array(v))
    sigma_c, point_c = hopf_from_components_array(v)
    cov = covariant_array(v, "standard")
    head = point_c[:, :4]
    columns = zip(
        sigma_q.tolist(), point_q.tolist(), sigma_c.tolist(), point_c.tolist(), cov.tolist(),
        norm_identity_residual_array(sigma_q, point_q).tolist(),
        norm_identity_residual_array(sigma_c, point_c).tolist(),
        np.max(np.abs(point_q - point_c), axis=1).tolist(),
        np.abs(sigma_q - cov[:, 1]).tolist(), np.abs(point_q[:, 0] - cov[:, 0]).tolist(),
        np.sqrt(np.vecdot(head, head)).tolist(), (np.abs(sigma_c - 1.0) <= 1e-9).tolist(),
    )
    return [
        {
            "quaternion_route": {"sigma": sq, "point": pq},
            "component_route": {"sigma": sc, "point": pc},
            "direct_bilinears": {"sigma": c[0], "J": c[1:5], "omega": c[15]},
            "norm_identity_residual_quaternion": rq,
            "norm_identity_residual_component": rc,
            "route_gap": gap,
            "sigma_swap_gap": {
                "quaternion_sigma_vs_direct_J0": swap_j0,
                "quaternion_J0_vs_direct_sigma": swap_sigma,
            },
            "instanton": {
                "J_norm": j_norm,
                "sigma_component_route": sc,
                "sigma_bilinear": c[0],
                "omega_bilinear": c[15],
                "on_unit_sphere": unit,
            },
        }
        for sq, pq, sc, pc, c, rq, rc, gap, swap_j0, swap_sigma, j_norm, unit in columns
    ]

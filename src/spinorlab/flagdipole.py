"""Flag-dipole spinors from direction elements, and their frame geometry.

A spatial unit 1-vector u (u^2 = -1, no time component) turns any invertible
even element Psi into the singular spinor Psi (1 + gamma_0 u)/2.  The class is
decided by u's third axis alone: u parallel to e3 gives a dipole (class 6),
u in the e1-e2 plane gives a flagpole (class 5), anything else a flag-dipole
(class 4).  For class 4 the covariants organize into a frame (J, s, h) with

    K = h J,   S_bold = J wedge s,   J . s = 0,   h^2 = 1 + s^2,

where h = <u e3>_0 is the Minkowski pairing with the third axis.  The complex
combination Z = J (1 + i s + i h e0123) squares to zero and is annihilated by
(1 + i s + i h e0123) from the left and (1 - i s - i h e0123) from the right.

The array kernels work on blocks of N rows: ``direction_array`` turns (N, 3)
components into (N, 16) unit directions, ``projection_spinor_array`` and
``class_limit_array`` work on directions, ``frame_array`` on covariants, and
``boomerang_array``, ``annihilator_residual_array`` and
``sigma_projector_matrix_array`` on frames (J, s, h).  Each operation has one
arithmetic body, its kernel: ``direction_element``, ``projection_spinor``,
``validate_direction``, ``frame_from_bilinears``, ``type4_boomerang``,
``annihilator_residuals``, ``sigma_projector_matrix`` and ``class_limit`` are
one-row calls of the kernels, with the same checks and errors, and so are the
frame invariants of ``synthetic_frame`` and ``FlagDipoleFrame.hs_residual``.
Products run through ``algebra.product_array`` and matrices through
``GammaRep.matrix_array``, so every row equals the ``Multivector``
computation bit for bit, by the rules of ``spinorlab.bilinears``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    BLADE_GRADES,
    BLADE_INDEX,
    DIM,
    E0,
    E3,
    LCONTRACT_SIGN,
    PRODUCT_SIGN,
    PSEUDOSCALAR,
    Multivector,
    lcontract,
    product_array,
)
from .bilinears import BilinearSet, SpinorC4, _norms, _square
from .gamma import gamma_rep
from .hopf import _standard_row, even_to_column_array

_IDX_VEC = [BLADE_INDEX[(i,)] for i in range(4)]
# coefficient rows: the scalars 1 and 1 + 0i, gamma_0 and e0123
_ONE = Multivector.scalar(1.0).coeffs
_ONE_C = Multivector.scalar(1.0 + 0.0j).coeffs
_E0 = E0.coeffs[None]
# e_0 of the frame's closed form, apart from the projection's _E0
_TIME_AXIS = E0.coeffs[None]
_PS = PSEUDOSCALAR.coeffs


def direction_array(components) -> np.ndarray:
    """The (N, 16) spatial unit 1-vectors of an (N, 3) block of direction components.

    Each row is first scaled by the power of two that brings its largest
    |component| into [0.5, 1), then divided by its Euclidean norm.  The
    scaling is exact, so a row whose squares are normal doubles gets the bits
    of the unscaled division, and any finite nonzero row gives a unit vector:
    the squares can no longer over- or underflow.  Raises ValueError if the
    block is not (N, 3) or a row is zero.
    """
    comp = np.asarray(components, dtype=np.float64)
    if comp.ndim != 2 or comp.shape[1] != 3:
        raise ValueError("a spatial direction needs 3 components")
    comp = np.ldexp(comp, -np.frexp(np.abs(comp).max(axis=1, keepdims=True))[1])
    norm = _norms(comp)
    if np.any(norm == 0.0):
        raise ValueError("the zero vector is not a direction")
    u = np.zeros((len(comp), DIM))
    u[:, _IDX_VEC[1:]] = comp / norm[:, None]
    return u


def direction_element(components3) -> Multivector:
    """Spatial unit 1-vector from 3 components (normalized if needed).

    One row of ``direction_array``.
    """
    return Multivector(direction_array([components3])[0])


def _check_directions(u: np.ndarray, tol: float) -> None:
    """``validate_direction`` on each (N, 16) row; raises for the first faulty row."""
    if np.iscomplexobj(u):
        raise ValueError("direction elements are real multivectors")
    off = np.where(BLADE_GRADES == 1, 0, u)
    square = product_array(u, u, PRODUCT_SIGN)[:, 0]
    faults = np.stack([
        _norms(off) > tol,
        np.abs(u[:, _IDX_VEC[0]]) > tol,
        np.abs(square + 1.0) > tol,
    ])
    rows = np.flatnonzero(faults.any(axis=0))
    if len(rows):
        row = rows[0]
        if faults[0, row]:
            raise ValueError("direction element must be a pure 1-vector")
        if faults[1, row]:
            raise ValueError("direction element must have no time component")
        raise ValueError(f"direction element must square to -1, got {square[row]:g}")


def validate_direction(u: Multivector, tol: float = 1e-10) -> None:
    """Check u is a real grade-1 spatial unit vector (u^2 = -1)."""
    _check_directions(u.coeffs[None], tol)


def elko_mixture_direction(angle: float) -> Multivector:
    """The one-parameter family e1 cos(angle) + (i3 e3) sin(angle).

    The unit spatial bivector i3 = -e2 e3 rotates e3 into e2, so the whole
    family lies in the e1-e2 plane and every member produces class 5.
    """
    i3 = -Multivector.blade(2, 3)
    return Multivector.blade(1) * float(np.cos(angle)) + (i3 * E3) * float(np.sin(angle))


def direction_class(u: Multivector, tol: float = 1e-10) -> int:
    """Expected Lounesto class for the direction: 6, 5, or 4 by the e3 axis."""
    validate_direction(u, tol)
    u3 = abs(float(u.coeffs[_IDX_VEC[3]]))
    if abs(u3 - 1.0) <= tol:
        return 6
    if u3 <= tol:
        return 5
    return 4


def projection_spinor_array(psi_even, u, tol: float = 1e-10) -> np.ndarray:
    """The (N, 4) standard columns of Psi (1 + gamma_0 u)/2 for (N, 16) even elements and directions.

    Either block may be one row, broadcast; raises as ``validate_direction``
    and ``even_to_column`` do, for the first faulty row.
    """
    u = np.asarray(u)
    _check_directions(u, tol)
    half = (_ONE + product_array(_E0, u, PRODUCT_SIGN)) * 0.5
    return even_to_column_array(product_array(psi_even, half, PRODUCT_SIGN), tol)


def projection_spinor(psi_even: Multivector, u: Multivector, tol: float = 1e-10) -> SpinorC4:
    """Column spinor of Psi (1 + gamma_0 u)/2 in the standard representation."""
    return SpinorC4(projection_spinor_array(psi_even.coeffs[None], u.coeffs[None], tol)[0], "standard")


def doran_h(u: Multivector) -> float:
    """The axial-to-current ratio of the direction: the pairing <u e3>_0."""
    return float(lcontract(u, E3).scalar_part().real)


@dataclass(frozen=True)
class FlagDipoleFrame:
    """Frame (J, s, h): null current, flag direction, axial ratio."""

    J: Multivector
    s: Multivector
    h: float
    consistent: bool = True

    def hs_residual(self) -> float:
        """Residual of h^2 = 1 + s^2 (s^2 the Minkowski square of s)."""
        return float(_hs_residuals(self.s.coeffs[None], [self.h])[0][0])


def _frame_invariants(J, s) -> tuple:
    """|J^2|, |J . s|, |J| and |s| of each row of (N, 16) J and s, as (N,) arrays."""
    null = np.abs(product_array(J, J, PRODUCT_SIGN)[:, 0].real)
    ortho = np.abs(product_array(J, s, LCONTRACT_SIGN)[:, 0].real)
    return null, ortho, _norms(J), _norms(s)


def _hs_residuals(s, h) -> tuple:
    """|h^2 - 1 - s^2| and h^2 of each row of (N, 16) s and (N,) h."""
    h2 = _square(h)
    return np.abs(h2 - 1.0 - product_array(s, s, PRODUCT_SIGN)[:, 0].real), h2


def synthetic_frame(J: Multivector, s: Multivector, h: float, tol: float = 1e-9) -> FlagDipoleFrame:
    """Build a frame from raw parts, validating nullity and orthogonality.

    ``h`` is accepted as given; frames violating h^2 = 1 + s^2 are flagged
    via ``consistent=False`` rather than rejected.
    """
    jsq, ortho, jnorm, snorm = (float(x[0]) for x in _frame_invariants(J.coeffs[None], s.coeffs[None]))
    if jsq > tol * max(1.0, jnorm**2):
        raise ValueError(f"J must be null, got J^2 = {jsq:g}")
    if ortho > tol * max(1.0, jnorm * snorm):
        raise ValueError(f"s must be orthogonal to J, got J.s = {ortho:g}")
    consistent = float(_hs_residuals(s.coeffs[None], [float(h)])[0][0]) <= tol * max(1.0, h**2)
    return FlagDipoleFrame(J=J, s=s, h=float(h), consistent=consistent)


def frame_array(covariants, tol: float = 1e-9) -> tuple:
    """The frames (J, s, h) of an (N, 16) block of class-4 covariants, and their consistency.

    Returns J and s as (N, 16) vector coefficients, h as (N,) and an (N,)
    mask, true where h^2 = 1 + s^2 holds to ``tol * max(1, h^2)``.  h is the
    component ratio K/J read at J's dominant entry.  s is closed form: for null
    J, e0 _| S_bold = (e0 . J) s - (e0 . s) J, so dividing by e0 . J = J^0 gives
    a member of the null gauge family s -> s + c J, and subtracting its
    Euclidean projection on J's coefficients leaves the minimum-norm member,
    the least-squares solution of S_bold = J wedge s with J . s = 0.  Raises
    ValueError where the divisor J^0 is within ``tol`` of zero; J^0 is J's
    dominant entry for null J, so there J vanishes.
    """
    c = np.asarray(covariants, dtype=float)
    if np.any(np.abs(c[:, 1]) <= tol):
        raise ValueError("current J vanishes; not a flag-dipole bilinear set")
    n = np.arange(len(c))
    lead = np.argmax(np.abs(c[:, 1:5]), axis=1)
    h = c[n, 11 + lead] / c[n, 1 + lead]

    J = np.zeros((len(c), DIM))
    J[:, 1:5] = c[:, 1:5]
    s_bold = np.zeros((len(c), DIM))
    s_bold[:, 5:11] = 2.0 * c[:, 5:11]
    s = product_array(_TIME_AXIS, s_bold, LCONTRACT_SIGN) / c[:, 1:2]
    s -= (np.vecdot(s, J) / np.vecdot(J, J))[:, None] * J

    hs, h2 = _hs_residuals(s, h)
    return J, s, h, hs <= tol * np.maximum(1.0, h2)


def frame_from_bilinears(b: BilinearSet, tol: float = 1e-9) -> FlagDipoleFrame:
    """Extract (J, s, h) from a class-4 bilinear set: ``frame_array`` of one row."""
    J, s, h, consistent = frame_array(b.as_array()[None], tol)
    return FlagDipoleFrame(J=Multivector(J[0]), s=Multivector(s[0]), h=float(h[0]),
                           consistent=bool(consistent[0]))


def _tail(s: np.ndarray, h: np.ndarray, sign_s: int, sign_h: int) -> np.ndarray:
    """The (N, 16) rows of 1 +/- i s +/- i h e0123 (by the signs), summed left to right."""
    si, ps = s * 1j, _PS * (1j * h)[:, None]
    head = _ONE_C + si if sign_s > 0 else _ONE_C - si
    return head + ps if sign_h > 0 else head - ps


def boomerang_array(J, s, h, tol: float = 1e-9) -> np.ndarray:
    """The (N, 16) complex Z = J (1 + i s + i h e0123) of a block of class-4 frames.

    Raises ValueError if a frame's J is not null, or s not orthogonal to J.
    """
    J, s, h = np.asarray(J), np.asarray(s), np.asarray(h)
    null, ortho, jnorm, snorm = _frame_invariants(J, s)
    if np.any(null > tol * np.maximum(1.0, _square(jnorm))):
        raise ValueError("frame violates the null-current invariant")
    if np.any(ortho > tol * np.maximum(1.0, jnorm * snorm)):
        raise ValueError("frame violates J . s = 0")
    return product_array(J, _tail(s, h, 1, 1), PRODUCT_SIGN)


def type4_boomerang(frame: FlagDipoleFrame, tol: float = 1e-9) -> Multivector:
    """The complex aggregate Z = J (1 + i s + i h e0123) of a class-4 frame."""
    return Multivector(boomerang_array(frame.J.coeffs[None], frame.s.coeffs[None], [frame.h], tol)[0])


_ANNIHILATOR_KEYS = ("z_squared", "left", "right", "opposite_sign_left")


def annihilator_residual_array(J, s, h, z=None) -> np.ndarray:
    """The four annihilator residuals of each frame of a block, as (N, 4).

    Columns z_squared, left, right and opposite_sign_left, as ``annihilator_residuals``; ``z``
    defaults to ``boomerang_array`` of the frames, with its checks.
    """
    s, h = np.asarray(s), np.asarray(h)
    if z is None:
        z = boomerang_array(J, s, h)
    znorm = np.maximum(1e-300, _norms(z))
    plus, minus, flipped = _tail(s, h, 1, 1), _tail(s, h, -1, -1), _tail(s, h, 1, -1)
    return np.stack([
        _norms(product_array(z, z, PRODUCT_SIGN)) / _square(znorm),
        _norms(product_array(plus, z, PRODUCT_SIGN)) / znorm,
        _norms(product_array(z, minus, PRODUCT_SIGN)) / znorm,
        _norms(product_array(flipped, z, PRODUCT_SIGN)) / znorm,
    ], axis=1)


def annihilator_residuals(frame: FlagDipoleFrame, z: Multivector | None = None) -> dict:
    """Relative residuals of the annihilation identities of Z.

    ``left`` uses (1 + i s + i h e0123) Z, ``right`` uses Z (1 - i s - i h e0123);
    both vanish for an hs-consistent frame.  ``opposite_sign_left`` evaluates
    the same left product with the h term negated, which does NOT vanish for
    h != 0 and is reported as a diagnostic of the sign convention.  The
    one-row call of ``annihilator_residual_array``.
    """
    row = annihilator_residual_array(
        frame.J.coeffs[None], frame.s.coeffs[None], [frame.h], None if z is None else z.coeffs[None]
    )[0]
    return dict(zip(_ANNIHILATOR_KEYS, row.tolist()))


def sigma_projector_matrix_array(s, h, sign: int) -> np.ndarray:
    """The (N, 4, 4) half-projector matrices (1 -/+ i (s + h e0123)) / 2 of (N, 16) s and (N,) h.

    The operator term s + h e0123 has a purely real diagonal, so halving is
    exact and the two signs sum to the identity matrix bit for bit.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h = np.asarray(h, dtype=float)
    rep = gamma_rep("standard")
    op = rep.matrix_array(s) + h[:, None, None] * rep.pseudoscalar
    return 0.5 * (np.eye(4, dtype=np.complex128) - sign * 1j * op)


def sigma_projector_matrix(s: Multivector, h: float, sign: int) -> np.ndarray:
    """The 4x4 half-projector matrix (1 -/+ i (s + h e0123)) / 2: one row of the array kernel."""
    return sigma_projector_matrix_array(s.coeffs[None], [h], sign)[0]


def sigma_projector(psi: SpinorC4, s: Multivector, h: float, sign: int) -> SpinorC4:
    """Apply the half-projector (1 -/+ i (s + h e0123)) / 2 to a column spinor.

    This is the column form of Psi -> (Psi +/- (s + h e0123) Psi gamma_1 gamma_2)/2,
    using that right multiplication by gamma_1 gamma_2 acts as -i on the ideal.
    The matrices of the two signs sum to the identity exactly; each member is
    idempotent precisely when h^2 = 1 + s^2 (Minkowski square).
    """
    row = _standard_row(psi, "projector")
    return SpinorC4(sigma_projector_matrix(s, h, sign) @ row[0], "standard")


def projector_idempotency_residual(s: Multivector, h: float) -> float:
    """Frobenius residual of the projector squaring to itself."""
    half = sigma_projector_matrix(s, h, +1)
    return float(np.linalg.norm(half @ half - half))


def class_limit_array(u, which: str, ts=(1.0, 0.1, 0.01, 0.0), psi_even=None) -> tuple:
    """Degenerate a block of (N, 16) class-4 directions along a parametrized path.

    ``which = "h->0"`` scales the e3 component to zero (flagpole limit,
    class 5 at t=0); ``which = "s->0"`` scales the in-plane part to zero
    (dipole limit, class 6 at t=0).  At t=1 the input direction is
    reproduced exactly.  Returns the (T, N, 16) directions and the (T, N, 4)
    standard columns of ``psi_even`` (default 1, else (N, 16) or one row)
    projected by them, one slab per t.
    """
    u = np.asarray(u)
    _check_directions(u, 1e-10)
    if psi_even is None:
        psi_even = _ONE[None]
    u1, u2, u3 = (u[:, _IDX_VEC[k]] for k in (1, 2, 3))
    plane = np.hypot(u1, u2)
    if which == "h->0":
        if np.any(plane == 0.0):
            raise ValueError("direction is purely axial; no h->0 path from it")
    elif which == "s->0":
        if np.any(u3 == 0.0):
            raise ValueError("direction is purely in-plane; no s->0 path from it")
    else:
        raise ValueError("which must be 'h->0' or 's->0'")

    directions, columns = [], []
    for t in ts:
        if which == "h->0":
            axial = t * u3
            scale = np.sqrt(np.maximum(0.0, 1.0 - _square(axial))) / plane
            comp = np.stack([u1 * scale, u2 * scale, axial], axis=1)
        else:
            in_plane = t * plane
            axial = np.sign(u3) * np.sqrt(np.maximum(0.0, 1.0 - _square(in_plane)))
            comp = np.stack([u1 * t, u2 * t, axial], axis=1)
            comp[plane == 0.0, :2] = 0.0
        directions.append(direction_array(comp))
        columns.append(projection_spinor_array(psi_even, directions[-1]))
    return np.stack(directions), np.stack(columns)


def class_limit(u: Multivector, which: str, ts=(1.0, 0.1, 0.01, 0.0), psi_even: Multivector | None = None):
    """Degenerate a class-4 direction along a parametrized path: ``class_limit_array`` of one row.

    Returns a list of (t, direction, spinor) triples.
    """
    directions, columns = class_limit_array(
        u.coeffs[None], which, ts, None if psi_even is None else psi_even.coeffs[None]
    )
    return [
        (float(t), Multivector(d[0]), SpinorC4(col[0], "standard"))
        for t, d, col in zip(ts, directions, columns)
    ]

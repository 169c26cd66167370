"""Dirac spinors and their sixteen real bilinear covariants.

Covariant n is psibar G_n psi, with the sixteen operators written once, in
``BilinearSet.as_array`` order (sigma, J^mu, S^{mu nu}, K^mu, omega):

    G_n = 1,  e^mu,  (i/2) e^mu e^nu for mu < nu,  i e0123 e^mu,  -e0123

Components carry upper spacetime indices; S keeps one value per pair mu < nu,
ordered 01, 02, 03, 12, 13, 23.  At import the sixteen G_n and their inverses
become (16, 16) complex coefficient arrays, built on the blade product table
without a ``Multivector``, and each representation's Hermitian forms gamma0 G_n
and generalized Fierz operators are built from them.  Fierz completeness gives
the aggregate

    Z = sum_n (psibar G_n psi) G_n^-1 = sigma + J + i S_bold + i K e0123 + omega e0123

with S_bold twice the stored S (both index orders).  Z reproduces 4 psi psibar
as a matrix; the Fierz checks, the boomerang test and reconstruction use it.

The array kernels work on blocks of N spinors in one representation:
``covariant_array``, ``fierz_array`` and ``aggregate_residual_array`` on (N, 4)
components and their (N, 16) covariants; ``aggregate_array``,
``generalized_fierz_array`` and ``reconstruct_array`` on covariants, (N, 16)
Z coefficients and (N, 4) probes.  ``bilinears``, ``fierz_residuals``,
``aggregate_matrix_residual``, ``aggregate``, ``generalized_fierz_residuals``
and ``reconstruct`` are their one-row calls, bit for bit.  This module loads
``spinorlab.algebra`` only in the functions that make a ``Multivector``
(``aggregate`` and three ``BilinearSet`` methods), so the kernels run without
it.  Every kernel of the package matches the scalar arithmetic it replaced bit
for bit by three rounding rules, each with one body here: a square rounds as
Python's ``x ** 2`` (``_square``), a row norm sums as ``np.linalg.norm``
(``_norms``; on a real row its imaginary pass adds exactly +0.0), and the
modulus of a complex128 rounds as the scalar ``abs`` (``_moduli``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blades import DIM, GRADE_2_PAIRS, METRIC_SIGNS, PRODUCT_INDEX, PRODUCT_SIGN, _product
from .gamma import REP_TAGS, SIMILARITY, gamma_rep

if TYPE_CHECKING:
    from .algebra import Multivector


class DegenerateProbeError(ValueError):
    """Reconstruction probe annihilated by the aggregate (or phase-degenerate)."""


@dataclass(frozen=True)
class SpinorC4:
    """A 4-component complex spinor tagged with its representation."""

    components: np.ndarray
    rep: str = "chiral"

    def __post_init__(self) -> None:
        arr = np.asarray(self.components, dtype=np.complex128)
        if arr.shape != (4,):
            raise ValueError("a spinor needs exactly 4 complex components")
        gamma_rep(self.rep)  # an unknown tag raises gamma_rep's ValueError
        object.__setattr__(self, "components", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def in_rep(self, rep: str) -> "SpinorC4":
        """Convert between the chiral and standard representations."""
        if rep == self.rep:
            return self
        # the similarity matrix is involutive, so one formula serves both ways
        return SpinorC4(SIMILARITY @ self.components, rep)

    def scaled(self, factor: complex) -> "SpinorC4":
        return SpinorC4(self.components * factor, self.rep)


@dataclass(frozen=True)
class BilinearSet:
    """The sixteen real bilinear components of one spinor."""

    sigma: float
    J: np.ndarray
    S: np.ndarray
    K: np.ndarray
    omega: float
    rep: str = "chiral"

    def current_vector(self) -> Multivector:
        from .algebra import Multivector

        return Multivector.vector(self.J)

    def axial_vector(self) -> Multivector:
        from .algebra import Multivector

        return Multivector.vector(self.K)

    def spin_bivector(self) -> Multivector:
        """Bivector with both index orders summed: coefficients 2 S^{mu nu}."""
        from .algebra import Multivector

        c = np.zeros(DIM)
        c[5:11] = 2.0 * self.S  # the grade-2 blades, in GRADE_2_PAIRS order
        return Multivector(c)

    def as_array(self) -> np.ndarray:
        out = np.empty(16)
        out[0], out[1:5], out[5:11], out[11:15], out[15] = self.sigma, self.J, self.S, self.K, self.omega
        return out


def _blade(n: int, coeff: float = 1.0) -> np.ndarray:
    """The float coefficients of coeff e_n, as ``Multivector.blade`` stores them."""
    c = np.zeros(DIM)
    c[n] = coeff
    return c


# The sixteen G_n and their inverses as (16, 16) complex coefficient arrays.  Each G_n is
# evaluated left to right with the numpy calls of the ``Multivector`` operators, in the
# dtype its ``Multivector`` would hold: e^mu = g^{mu mu} e_mu (the basis vectors carry
# lower indices), (0.5i e^mu) e^nu, (i e0123) e^mu and -e0123.  Each is a multiple of one
# blade, so G_n G_n is a scalar, and each row is divided by it in its own dtype before the
# rows are stacked (a complex -e0123 would hold -0j where the float one, cast, holds +0j).
def _operator_tables() -> tuple[np.ndarray, np.ndarray]:
    upper = [_blade(1 + mu, float(METRIC_SIGNS[mu])) for mu in range(4)]
    pseudoscalar = _blade(DIM - 1)
    rows = (
        [_blade(0)]
        + upper
        + [_product(upper[mu] * 0.5j, upper[nu], PRODUCT_SIGN) for mu, nu in GRADE_2_PAIRS]
        + [_product(pseudoscalar * 1j, e, PRODUCT_SIGN) for e in upper]
        + [-pseudoscalar]
    )
    inverses = [g / _product(g, g, PRODUCT_SIGN)[0] for g in rows]
    return np.array(rows, dtype=np.complex128), np.array(inverses, dtype=np.complex128)


_OPERATORS, _INVERSES = _operator_tables()
# the families sigma, J, S, K, omega, and the factor f_n of each Fierz operator f_n G_n
_FAMILY_STARTS = [0, 1, 5, 11, 15]
_FACTORS = np.repeat([1.0, 1.0, 2.0, 1.0, -1.0], [1, 4, 6, 4, 1])


def _rep_matrices(tag: str) -> tuple[np.ndarray, np.ndarray]:
    """The sixteen Hermitian forms gamma0 G_n and Fierz operators f_n G_n of one rep, stacked."""
    rep = gamma_rep(tag)
    ops = rep.matrix_array(_OPERATORS)
    return rep.lower[0] @ ops, _FACTORS[:, None, None] * ops


_MATRICES = {tag: _rep_matrices(tag) for tag in REP_TAGS}
# the sixteen Fierz operators of each rep side by side, as one 4 x 64 matrix
_FIERZ_ROW = {tag: ops.transpose(1, 0, 2).reshape(4, 64) for tag, (_, ops) in _MATRICES.items()}
# e0123 e_ab = s e_cd, with cd the pair complementary to ab: slot and sign from the product table
_DUAL = PRODUCT_INDEX[-1, 5:11] - 5
_DUAL_SIGN = PRODUCT_SIGN[-1, 5:11]
_PAIRS = np.array(GRADE_2_PAIRS).T


def _components(v) -> np.ndarray:
    """``v`` as an (N, 4) complex128 block of spinor components; ValueError for any other shape."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) component array, got shape {v.shape}")
    return v


def covariant_array(components, rep: str = "chiral") -> np.ndarray:
    """The sixteen covariants of each row of an (N, 4) component array, as (N, 16).

    Row n holds the covariants of spinor n in ``BilinearSet.as_array`` order.
    Each form equals its conjugate transpose bit for bit (the test suite checks
    it for both representations), so the imaginary part of psi^dagger F psi
    is rounding only, and it is dropped.
    """
    v = _components(components)
    forms = _MATRICES[gamma_rep(rep).tag][0]  # an unknown tag raises gamma_rep's ValueError
    # stacked matmul and vecdot run the BLAS kernels of op @ v and np.vdot(v, .),
    # so each value is bit for bit the one-form-at-a-time result (einsum is not)
    z = np.vecdot(v[:, None, :], (forms @ v[:, None, :, None])[..., 0])
    # unit-stride rows, so row norms run the same BLAS dot as np.linalg.norm on a copy
    return np.ascontiguousarray(z.real)


def bilinears(psi: SpinorC4) -> BilinearSet:
    """Compute all sixteen bilinear components of ``psi`` (``covariant_array`` for one row)."""
    values = covariant_array(psi.components[None], psi.rep)[0]
    return BilinearSet(
        sigma=float(values[0]),
        J=values[1:5],
        S=values[5:11],
        K=values[11:15],
        omega=float(values[15]),
        rep=psi.rep,
    )


def minkowski_square(v: Multivector) -> float:
    """Scalar part of v*v for a 1-vector: v0^2 - v1^2 - v2^2 - v3^2."""
    return float((v * v).scalar_part().real)


def _minkowski(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x0 y0 - x1 y1 - x2 y2 - x3 y3, summed in the product table's order."""
    return ((x[:, 0] * y[:, 0] - x[:, 1] * y[:, 1]) - x[:, 2] * y[:, 2]) - x[:, 3] * y[:, 3]


def fierz_array(covariants) -> np.ndarray:
    """Absolute residuals of the four quadratic covariant identities, as (N, 4).

    Order: J^2 - omega^2 - sigma^2;  K^2 + J^2;  J . K;
           J ^ K + (omega + sigma e0123) S_bold.
    Closed forms in sigma, J, S, K and omega that round like the Multivector
    products they replace: sums in the product table's order, scalar squares
    through pow (as Python's ``**``), and the last norm over the sixteen blade
    slots, the bivector in slots 5-10.
    """
    c = np.asarray(covariants, dtype=float)
    sigma, J, S, K, omega = c[:, 0], c[:, 1:5], c[:, 5:11], c[:, 11:15], c[:, 15]
    jj, jk = _minkowski(J, J), _minkowski(J, K)
    r1 = np.abs(jj - _square(omega) - _square(sigma))
    r2 = np.abs(_minkowski(K, K) + jj)
    r3 = np.sqrt(jk * jk)
    a, b = _PAIRS
    s_bold = 2.0 * S
    spin = omega[:, None] * s_bold
    spin[:, _DUAL] += sigma[:, None] * s_bold * _DUAL_SIGN
    lhs = np.zeros((len(c), DIM))
    lhs[:, 5:11] = (J[:, a] * K[:, b] - J[:, b] * K[:, a]) + spin
    r4 = _norms(lhs)
    return np.stack([r1, r2, r3, r4], axis=1)


def fierz_residuals(b: BilinearSet) -> np.ndarray:
    """The four ``fierz_array`` residuals of one bilinear set."""
    return fierz_array(b.as_array()[None])[0]


def aggregate_array(covariants) -> np.ndarray:
    """The (N, 16) complex blade coefficients of Z for each row of an (N, 16) covariant array."""
    return (np.asarray(covariants, dtype=float)[:, None, :] @ _INVERSES)[:, 0]


def aggregate(b: BilinearSet) -> Multivector:
    """The complex multivector Z = sum_n (psibar G_n psi) G_n^-1 of the bilinear set."""
    from .algebra import Multivector

    return Multivector(aggregate_array(b.as_array()[None])[0])


def dirac_adjoint_mv(z: Multivector) -> Multivector:
    """Image of Z under the matrix adjoint g0 Z^dagger g0, computed blade-wise."""
    return z.conjugate().reverse()


def is_boomerang(z: Multivector, tol: float = 1e-10) -> bool:
    """True when Z equals its Dirac adjoint, i.e. all covariant parts are real."""
    diff = (dirac_adjoint_mv(z) - z).norm()
    return diff <= tol * max(1.0, z.norm())


def _square(x):
    """x ** 2 entrywise as Python's ``**`` rounds it (libm pow; ``x * x`` and ``np.square`` do not)."""
    return np.float_power(x, 2)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a real or complex array, summed as ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _moduli(x: np.ndarray) -> np.ndarray:
    """|x| entrywise as the scalar ``abs`` of a complex128 rounds it (libm hypot, not ``np.abs``)."""
    return np.hypot(x.real, x.imag)


def aggregate_residual_array(components, covariants, rep: str = "chiral") -> np.ndarray:
    """Frobenius distance between each row's aggregate Z and 4 psi psibar, as (N,).

    ``components`` is (N, 4) in representation ``rep`` and ``covariants`` the
    matching (N, 16) array; Z is built by stacked vector-matrix products.
    """
    v = np.asarray(components, dtype=np.complex128)
    psibar = v.conj()[:, None, :] @ gamma_rep(rep).lower[0]
    diff = gamma_rep(rep).matrix_array(aggregate_array(covariants)) - 4.0 * (v[:, :, None] * psibar)
    return _norms(diff.reshape(-1, 16))


def aggregate_matrix_residual(psi: SpinorC4, b: BilinearSet | None = None) -> float:
    """Frobenius distance between the Z of ``psi`` and 4 psi psibar."""
    if b is None:
        b = bilinears(psi)
    return float(aggregate_residual_array(psi.components[None], b.as_array()[None], psi.rep)[0])


def generalized_fierz_array(z, covariants, rep: str = "chiral") -> np.ndarray:
    """Residuals of Z M Z = 4 c(M) Z over the five covariant operator families, as (N, 5).

    ``z`` is the (N, 16) array of Z coefficients and ``covariants`` the
    matching (N, 16) covariants.  For M running over 1, gamma^mu,
    i gamma^mu gamma^nu, i e0123 gamma^mu and e0123, the coefficient c(M) is
    sigma, J^mu, 2 S^{mu nu}, K^mu and -omega.  Row n holds the five
    worst-case Frobenius residuals of spinor n in that order.  Z M Z takes two
    stacked products per row: Z times the sixteen operators side by side
    (4 x 64), its blocks stacked (64 x 4), times Z.  Each entry is the same
    length-4 sum as one operator at a time, with the same bits.
    """
    zm = gamma_rep(rep).matrix_array(z)
    n = len(zm)
    left = (zm @ _FIERZ_ROW[rep]).reshape(n, 4, 16, 4).transpose(0, 2, 1, 3).reshape(n, 64, 4)
    residuals = (left @ zm).reshape(n, 16, 4, 4)
    del left  # one block fewer alive while the c(M) Z terms are subtracted
    residuals -= (4.0 * (_FACTORS * np.asarray(covariants, dtype=float)))[:, :, None, None] * zm[:, None]
    return np.maximum.reduceat(_norms(residuals.reshape(-1, 16, 16)), _FAMILY_STARTS, axis=1)


def generalized_fierz_residuals(z: Multivector, b: BilinearSet, rep: str = "chiral") -> np.ndarray:
    """The five ``generalized_fierz_array`` residuals of one aggregate and its bilinear set."""
    return generalized_fierz_array(z.coeffs[None], b.as_array()[None], rep)[0]


def reconstruct_array(z, probes, rep: str = "chiral", tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Recover spinors from an (N, 16) block of Z coefficients with (N, 4) probe spinors.

    Returns the (N, 4) recovered components and an (N,) mask, false where the
    probe is (numerically) annihilated by Z.  Each recovered row is the unique
    spinor with that aggregate whose first above-tolerance component is real
    and positive; masked rows hold no meaningful value.
    """
    g = gamma_rep(rep)
    zm = g.matrix_array(z)
    xi = np.asarray(probes, dtype=np.complex128)
    w = (zm @ xi[:, :, None])[..., 0]
    n2 = np.vecdot(xi, (g.lower[0] @ w[:, :, None])[..., 0])
    bound = tol * np.maximum(1.0, _norms(zm.reshape(-1, 16)) * np.vecdot(xi, xi).real)
    ok = ~((n2.real <= bound) | (np.abs(n2.imag) > bound))
    with np.errstate(invalid="ignore", divide="ignore"):  # the masked rows
        psi = w / (2.0 * np.sqrt(np.where(ok, n2.real, 1.0)))[:, None]
        # canonical phase: rotate the first significant component to the positive axis
        mags = np.abs(psi)
        lead = np.argmax(mags > tol * np.maximum(1.0, mags.max(axis=1))[:, None], axis=1)
        top = psi[np.arange(len(psi)), lead]
        phase = top / _moduli(top)
    return psi * phase.conj()[:, None], ok


def reconstruct(z: Multivector, probe: SpinorC4, tol: float = 1e-10) -> SpinorC4:
    """Recover a spinor from its aggregate Z using an arbitrary probe spinor.

    The one-row call of ``reconstruct_array``.  Raises DegenerateProbeError
    when the probe is (numerically) annihilated by Z.
    """
    psi, ok = reconstruct_array(z.coeffs[None], probe.components[None], probe.rep, tol)
    if not ok[0]:
        raise DegenerateProbeError("probe is annihilated by Z; pick another probe")
    return SpinorC4(psi[0], probe.rep)


def pq_operators(b: BilinearSet) -> tuple[Multivector, Multivector]:
    """The real multivectors P = sigma + J + e0123 omega and Q = S_bold + K e0123, Z = P + i Q."""
    z = aggregate(b)
    return z.real, z.imag

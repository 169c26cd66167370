"""Dirac spinors and their sixteen real bilinear covariants.

Covariant n is psibar G_n psi, with the sixteen operators written once, in
``BilinearSet.as_array`` order (sigma, J^mu, S^{mu nu}, K^mu, omega):

    G_n = 1,  e^mu,  (i/2) e^mu e^nu for mu < nu,  i e0123 e^mu,  -e0123

Components carry upper spacetime indices; S keeps one value per pair mu < nu,
ordered 01, 02, 03, 12, 13, 23.  Each representation's Hermitian forms
gamma0 G_n and generalized Fierz operators are built from the list at import,
and Fierz completeness gives the aggregate

    Z = sum_n (psibar G_n psi) G_n^-1 = sigma + J + i S_bold + i K e0123 + omega e0123

with S_bold twice the stored S (both index orders).  Z reproduces 4 psi psibar
as a matrix; the Fierz checks, the boomerang test and reconstruction use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DIM,
    GRADE_2_PAIRS,
    METRIC_SIGNS,
    PSEUDOSCALAR,
    Multivector,
    lcontract,
    wedge,
)
from .gamma import SIMILARITY, gamma_rep

REP_TAGS = ("chiral", "standard")


class GammaDictionaryError(RuntimeError):
    """A bilinear came out non-real: the gamma set violates its contract."""


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
        if self.rep not in REP_TAGS:
            raise ValueError(f"unknown representation tag {self.rep!r}")
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
        return Multivector.vector(self.J)

    def axial_vector(self) -> Multivector:
        return Multivector.vector(self.K)

    def spin_bivector(self) -> Multivector:
        """Bivector with both index orders summed: coefficients 2 S^{mu nu}."""
        c = np.zeros(DIM)
        c[5:11] = 2.0 * self.S  # the grade-2 blades, in GRADE_2_PAIRS order
        return Multivector(c)

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.sigma], self.J, self.S, self.K, [self.omega]))


# e^mu = g^{mu mu} e_mu: the algebra's basis vectors carry lower indices
_UPPER = [Multivector.blade(mu, coeff=float(METRIC_SIGNS[mu])) for mu in range(4)]
_OPERATORS = (
    [Multivector.scalar(1.0)]
    + _UPPER
    + [0.5j * _UPPER[mu] * _UPPER[nu] for mu, nu in GRADE_2_PAIRS]
    + [1j * PSEUDOSCALAR * e for e in _UPPER]
    + [-PSEUDOSCALAR]
)
# each G_n is a multiple of one blade, so G_n G_n is a scalar
_INVERSES = np.array([(g / (g * g).scalar_part()).coeffs for g in _OPERATORS])
# the families sigma, J, S, K, omega, and the factor f_n of each Fierz operator f_n G_n
_FAMILIES = (slice(0, 1), slice(1, 5), slice(5, 11), slice(11, 15), slice(15, 16))
_FACTORS = np.repeat([1.0, 1.0, 2.0, 1.0, -1.0], [1, 4, 6, 4, 1])


def _rep_matrices(tag: str) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The sixteen Hermitian forms gamma0 G_n and Fierz operators f_n G_n of one rep."""
    rep = gamma_rep(tag)
    ops = np.array([rep.mv_to_matrix(g) for g in _OPERATORS])
    return list(rep.lower[0] @ ops), list(_FACTORS[:, None, None] * ops)


_MATRICES = {tag: _rep_matrices(tag) for tag in REP_TAGS}


def bilinears(psi: SpinorC4, tol: float = 1e-10) -> BilinearSet:
    """Compute all sixteen bilinear components of ``psi``.

    Raises GammaDictionaryError if any quadratic form returns an imaginary
    residue above ``tol`` times the spinor's squared scale; the operator
    matrices are Hermitian, so that can only happen on an internal fault.
    """
    v = psi.components
    scale = max(1.0, float(np.vdot(v, v).real))
    values = np.empty(16)
    for n, op in enumerate(_MATRICES[psi.rep][0]):
        z = complex(np.vdot(v, op @ v))
        if abs(z.imag) > tol * scale:
            raise GammaDictionaryError(
                f"bilinear {n} has imaginary residue {z.imag:g}; gamma dictionary broken"
            )
        values[n] = z.real
    return BilinearSet(
        sigma=float(values[0]),
        J=values[1:5].copy(),
        S=values[5:11].copy(),
        K=values[11:15].copy(),
        omega=float(values[15]),
        rep=psi.rep,
    )


def minkowski_square(v: Multivector) -> float:
    """Scalar part of v*v for a 1-vector: v0^2 - v1^2 - v2^2 - v3^2."""
    return float((v * v).scalar_part().real)


def fierz_residuals(b: BilinearSet) -> np.ndarray:
    """Absolute residuals of the four quadratic covariant identities.

    Order: J^2 - omega^2 - sigma^2;  K^2 + J^2;  J . K;
           J ^ K + (omega + sigma e0123) S_bold.
    """
    jmv = b.current_vector()
    kmv = b.axial_vector()
    smv = b.spin_bivector()
    r1 = abs(minkowski_square(jmv) - b.omega**2 - b.sigma**2)
    r2 = abs(minkowski_square(kmv) + minkowski_square(jmv))
    r3 = lcontract(jmv, kmv).norm()
    lhs = wedge(jmv, kmv) + (Multivector.scalar(b.omega) + PSEUDOSCALAR * b.sigma) * smv
    r4 = lhs.norm()
    return np.array([r1, r2, r3, r4])


def aggregate(b: BilinearSet) -> Multivector:
    """The complex multivector Z = sum_n (psibar G_n psi) G_n^-1 of the bilinear set."""
    return Multivector(b.as_array() @ _INVERSES)


def dirac_adjoint_mv(z: Multivector) -> Multivector:
    """Image of Z under the matrix adjoint g0 Z^dagger g0, computed blade-wise."""
    return z.conjugate().reverse()


def is_boomerang(z: Multivector, tol: float = 1e-10) -> bool:
    """True when Z equals its Dirac adjoint, i.e. all covariant parts are real."""
    diff = (dirac_adjoint_mv(z) - z).norm()
    return diff <= tol * max(1.0, z.norm())


def aggregate_matrix_residual(psi: SpinorC4, b: BilinearSet | None = None) -> float:
    """Frobenius distance between the Z of ``psi`` and 4 psi psibar."""
    if b is None:
        b = bilinears(psi)
    rep = gamma_rep(psi.rep)
    zm = rep.mv_to_matrix(aggregate(b))
    v = psi.components
    target = 4.0 * np.outer(v, v.conj() @ rep.lower[0])
    return float(np.linalg.norm(zm - target))


def generalized_fierz_residuals(z: Multivector, b: BilinearSet, rep: str = "chiral") -> np.ndarray:
    """Residuals of Z M Z = 4 c(M) Z over the five covariant operator families.

    For M running over 1, gamma^mu, i gamma^mu gamma^nu, i e0123 gamma^mu and
    e0123, the coefficient c(M) is sigma, J^mu, 2 S^{mu nu}, K^mu and -omega.
    Returns the five worst-case Frobenius residuals in that order.
    """
    zm = gamma_rep(rep).mv_to_matrix(z)
    coeffs = _FACTORS * b.as_array()
    ops = _MATRICES[rep][1]
    norms = [np.linalg.norm(zm @ m @ zm - 4.0 * c * zm) for m, c in zip(ops, coeffs)]
    return np.array([max(norms[s]) for s in _FAMILIES])


def reconstruct(z: Multivector, probe: SpinorC4, tol: float = 1e-10) -> SpinorC4:
    """Recover a spinor from its aggregate Z using an arbitrary probe spinor.

    Returns the unique spinor with aggregate Z whose first above-tolerance
    component is real and positive.  Raises DegenerateProbeError when the
    probe is (numerically) annihilated by Z.
    """
    rep = gamma_rep(probe.rep)
    zm = rep.mv_to_matrix(z)
    xi = probe.components
    w = zm @ xi
    n2 = complex(np.vdot(xi, rep.lower[0] @ w))
    scale = float(np.linalg.norm(zm)) * float(np.vdot(xi, xi).real)
    if n2.real <= tol * max(1.0, scale) or abs(n2.imag) > tol * max(1.0, scale):
        raise DegenerateProbeError(
            f"probe yields normalization {n2:g}; pick a probe not annihilated by Z"
        )
    psi = w / (2.0 * np.sqrt(n2.real))
    # canonical phase: rotate the first significant component to the positive axis
    mags = np.abs(psi)
    lead = int(np.argmax(mags > tol * max(1.0, mags.max())))
    phase = psi[lead] / abs(psi[lead])
    return SpinorC4(psi * phase.conjugate(), probe.rep)


def pq_operators(b: BilinearSet) -> tuple[Multivector, Multivector]:
    """The real multivectors P = sigma + J + e0123 omega and Q = S_bold + K e0123, Z = P + i Q."""
    z = aggregate(b)
    return z.real, z.imag

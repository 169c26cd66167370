"""Lounesto classification of spinors by the zero pattern of their covariants.

The six classes are decided by which of (sigma, omega, K, S) vanish; the
current J never vanishes for a physical spinor.  Classes 1-3 are the regular
(Dirac) sectors, classes 4-6 the singular ones: flag-dipole, flagpole
(Majorana/ELKO), and dipole (Weyl).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, PSEUDOSCALAR
from .bilinears import BilinearSet, minkowski_square, pq_operators


class NullSpinorError(ValueError):
    """Every covariant vanished: the input is the zero spinor."""


class BilinearInconsistencyError(ValueError):
    """The zero pattern (J nonzero, everything else zero) is not realizable."""


@dataclass(frozen=True)
class LounestoClass:
    """Classification verdict with its supporting witness pattern."""

    label: int
    regular: bool
    witness: dict
    marginal: bool
    marginal_fields: tuple

    def __int__(self) -> int:
        return self.label


_FIELDS = ("sigma", "omega", "K", "S")
# Lounesto's table: a regular class from which of (sigma, omega) are nonzero, and a
# singular class (sigma = omega = 0) from which of (K, S) are; K = S = 0 has no entry
_REGULAR_CLASS = {(True, True): 1, (True, False): 2, (False, True): 3}
_SINGULAR_CLASS = {(True, True): 4, (False, True): 5, (True, False): 6}


def magnitude_array(covariants) -> np.ndarray:
    """The decision rule's inputs for each (N, 16) covariant row, as (N, 6).

    Columns: |J^0|, |J|, |sigma|, |omega|, |K|, |S|, with Euclidean norms over
    the stored components (the BLAS dot of ``np.linalg.norm``, row by row).
    Each row is first scaled by the power of two that brings J^0 into
    [0.5, 1).  That scaling is exact, so every comparison against
    ``tol * J^0`` comes out as for the unscaled row, but the squares inside
    the norms stay normal doubles however small psi is.  A one-row block
    skips the block's reshaping: the same ``ldexp`` of the row, and ``np.dot``,
    the BLAS dot that ``vecdot`` runs on each row, so its bits are those of
    the block path.
    """
    c = np.asarray(covariants, dtype=float)
    # chosen by input size, about 5 us less per map-check record: ``mappability`` is the one
    # caller with a one-row block, and a map-check that runs whole blocks would remove it
    if len(c) == 1:
        row = np.ldexp(c[0], -math.frexp(c[0, 1])[1])
        j, k, s = row[1:5], row[11:15], row[5:11]
        return np.array([[abs(row[1]), math.sqrt(np.dot(j, j)), abs(row[0]), abs(row[15]),
                          math.sqrt(np.dot(k, k)), math.sqrt(np.dot(s, s))]])
    c = np.ldexp(c, -np.frexp(c[:, 1:2])[1])
    out = np.empty((len(c), 6))
    for col, k in ((0, 1), (2, 0), (3, 15)):
        np.abs(c[:, k], out=out[:, col])
    for col, part in ((1, c[:, 1:5]), (4, c[:, 11:15]), (5, c[:, 5:11])):
        np.sqrt(np.vecdot(part, part), out=out[:, col])
    return out


def lounesto_class(magnitudes, tol: float = 1e-10) -> LounestoClass:
    """Decide the class from one row of ``magnitude_array``.

    Zero tests compare against ``tol * J^0``, so the verdict does not change
    when psi is rescaled, as long as ``tol * J^0`` is a normal double; in the
    range the CLI accepts, 1.2e-77 <= |psi| <= 3.4e38, that holds for any
    tol above 1e-150.  J^0 = psi^dagger psi is positive for every
    nonzero psi, and only the zero spinor (J^0 = 0) leaves nothing above it.
    Quantities landing within a factor 10 of the threshold (either side) set
    the marginal flag.
    """
    j0, jnorm, *values = magnitudes
    threshold = tol * j0

    if jnorm <= threshold and all(v <= threshold for v in values):
        raise NullSpinorError("all bilinear covariants vanish; cannot classify the zero spinor")

    flags = [v > threshold for v in values]
    low, high = threshold / 10.0, threshold * 10.0
    marginal_fields = tuple([k for k, v in zip(_FIELDS, values) if low < v < high])

    sigma, omega, k, s = flags
    regular = sigma or omega
    label = _REGULAR_CLASS[sigma, omega] if regular else _SINGULAR_CLASS.get((k, s))
    if label is None:
        raise BilinearInconsistencyError(
            "sigma = omega = 0 with K = S = 0 but J != 0: no spinor produces this pattern"
        )

    return LounestoClass(
        label=label,
        regular=regular,
        witness=dict(zip(_FIELDS, flags)),
        marginal=bool(marginal_fields),
        marginal_fields=marginal_fields,
    )


def classify(b: BilinearSet, tol: float = 1e-10) -> LounestoClass:
    """Assign the Lounesto class of a bilinear set (``lounesto_class`` of its magnitudes)."""
    return lounesto_class(magnitude_array(b.as_array()[None])[0].tolist(), tol)


def verify_class_relations(b: BilinearSet, label: int) -> dict:
    """Residuals of the structural identities specific to one class.

    Always returned as absolute Frobenius/Euclidean residuals; which ones are
    exactly zero is part of each class's defining structure:

    * classes 4-6: J and K are null (``J_square``, ``K_square``);
    * class 2:     P/(2 sigma) idempotent, P = e0123 K Q / sigma, and the spin
                   projector (1 - i e0123 K / sigma)/2 commutes with P/(2 sigma);
    * class 3:     P^2 = 0 and P = Q K / omega (the product order matters:
                   K Q / omega equals -P);
    * class 1:     K Q = -(omega + sigma e0123) P, the general identity that
                   the class-2 and class-3 relations specialize.
    """
    p, q = pq_operators(b)
    jmv = b.current_vector()
    kmv = b.axial_vector()
    out: dict = {}

    if label in (4, 5, 6):
        out["J_square"] = abs(minkowski_square(jmv))
        out["K_square"] = abs(minkowski_square(kmv))
        return out

    if label == 2:
        e = p / (2.0 * b.sigma)
        out["idempotent"] = (e * e - e).norm()
        out["p_from_kq"] = (PSEUDOSCALAR * kmv * q / b.sigma - p).norm()
        spin_proj = (Multivector.scalar(1.0) - (PSEUDOSCALAR * kmv) * (1j / b.sigma)) / 2.0
        out["spin_projector_commutes"] = (e * spin_proj - spin_proj * e).norm()
    elif label == 3:
        out["p_squared"] = (p * p).norm()
        out["p_from_qk"] = (q * kmv / b.omega - p).norm()
    elif label == 1:
        inv = (Multivector.scalar(b.omega) - PSEUDOSCALAR * b.sigma) / (
            b.omega**2 + b.sigma**2
        )
        out["p_plus_inv_kq"] = (p + inv * (kmv * q)).norm()
    else:
        raise ValueError(f"label must be 1..6, got {label}")
    return out

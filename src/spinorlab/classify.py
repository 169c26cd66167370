"""Lounesto classification of spinors by the zero pattern of their covariants.

The six classes are decided by which of (sigma, omega, K, S) vanish; the
current J never vanishes for a physical spinor.  Classes 1-3 are the regular
(Dirac) sectors, classes 4-6 the singular ones: flag-dipole, flagpole
(Majorana/ELKO), and dipole (Weyl).  ``lounesto_rule`` decides it from one
16-entry table, for one spinor or a block; ``lounesto_class`` is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# Lounesto's table by the nonzero flags of (sigma, omega, K, S) as the bits 8, 4, 2 and 1:
# classes 1-3 where sigma or omega is nonzero, else 4-6 from K and S, and no class (0) for
# K = S = 0; object entries, so one row reads a Python int
_CLASS_TABLE = np.array([0, 5, 6, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1], dtype=object)
# a row of label 0 by its null flag: the zero spinor, or a pattern that no spinor produces
_REFUSALS = {
    True: (NullSpinorError, "null-spinor",
           "all bilinear covariants vanish; cannot classify the zero spinor"),
    False: (BilinearInconsistencyError, "inconsistency",
            "sigma = omega = 0 with K = S = 0 but J != 0: no spinor produces this pattern"),
}


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
    # chosen by input size, about 5 us less per map-check record: ``mappability`` and
    # ``classify()`` pass one row per call, and ``cli`` each range with one row of a
    # representation, such as the first row of its first chunk
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


def lounesto_rule(magnitudes, tol: float = 1e-10) -> tuple:
    """Lounesto's decision on the six ``magnitude_array`` columns: six floats or six (N,) arrays.

    Returns (label, flags, marginal, null): the label from ``_CLASS_TABLE``,
    the nonzero tests of (sigma, omega, K, S) against ``tol * J^0``, the same
    four within a factor 10 of it (either side), and, where the label is 0,
    whether J vanishes too (the zero spinor).  The verdict does not change
    when psi is rescaled while ``tol * J^0`` is a normal double: in the CLI's
    range, 1.2e-77 <= |psi| <= 3.4e38, for any tol above 1e-150 (J^0 =
    psi^dagger psi > 0 for nonzero psi).  Only Python operators, so six
    floats give Python ints and bools.
    """
    j0, jnorm, *values = magnitudes
    threshold = tol * j0
    low, high = threshold / 10.0, threshold * 10.0
    sigma, omega, k, s = flags = [v > threshold for v in values]
    label = _CLASS_TABLE[sigma * 8 + omega * 4 + k * 2 + s]
    marginal = [(low < v) & (v < high) for v in values]
    return label, flags, marginal, (label == 0) & (jnorm <= threshold)


def lounesto_class(magnitudes, tol: float = 1e-10) -> LounestoClass:
    """``lounesto_rule`` on one row of six floats, as a verdict; a row without a class raises."""
    label, flags, marginal, null = lounesto_rule(magnitudes, tol)
    if not label:
        error, _, message = _REFUSALS[null]
        raise error(message)
    fields = tuple([name for name, m in zip(_FIELDS, marginal) if m])
    return LounestoClass(label=label, regular=label < 4, witness=dict(zip(_FIELDS, flags)),
                         marginal=bool(fields), marginal_fields=fields)


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
    from .algebra import PSEUDOSCALAR, Multivector

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

"""The blade basis of Cl(1,3), metric diag(+,-,-,-), and its geometric product table.

Multivector coefficients are ordered over the canonical basis, grade-major and
lexicographically within each grade:

    1;  e0 e1 e2 e3;  e01 e02 e03 e12 e13 e23;  e012 e013 e023 e123;  e0123

The product table comes from the closed form of a blade product, and
``product_array`` multiplies blocks of coefficient rows under it.  This module
defines no class: ``gamma`` and ``bilinears`` build their tables from it
without ``spinorlab.algebra``, which re-exports these names as the same objects.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

METRIC_SIGNS = (1, -1, -1, -1)

BLADES: tuple[tuple[int, ...], ...] = tuple(
    idx for k in range(5) for idx in itertools.combinations(range(4), k)
)
BLADE_INDEX: dict[tuple[int, ...], int] = {idx: n for n, idx in enumerate(BLADES)}
BLADE_GRADES = np.array([len(idx) for idx in BLADES])
BLADE_NAMES = tuple(
    "1" if not idx else "e" + "".join(str(i) for i in idx) for idx in BLADES
)
DIM = len(BLADES)

GRADE_2_PAIRS = tuple(idx for idx in BLADES if len(idx) == 2)


def _sign(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Sign of e_a e_b: one flip per pair i in a, j in b with i > j, and g_ii per shared index i."""
    return (-1) ** sum(i > j for i in a for j in b) * math.prod(METRIC_SIGNS[i] for i in set(a) & set(b))


# e_a e_b = sign * e_c, with c the indices in exactly one of a and b
PRODUCT_INDEX = np.array([[BLADE_INDEX[tuple(sorted(set(a) ^ set(b)))] for b in BLADES] for a in BLADES])
PRODUCT_SIGN = np.array([[_sign(a, b) for b in BLADES] for a in BLADES], dtype=float)


# slot k of row i of the product table takes term (i, _PRODUCT_SOURCE[i, k]): the
# inverse of each row's permutation, scattered rather than sorted (np.argsort's
# first call maps numpy's sort code, 0.36 MB of resident memory at import)
_PRODUCT_SOURCE = np.zeros_like(PRODUCT_INDEX)
np.put_along_axis(_PRODUCT_SOURCE, PRODUCT_INDEX, np.arange(DIM)[None, :], axis=1)
_ROWS = np.arange(DIM)[:, None]


def product_array(x, y, table: np.ndarray) -> np.ndarray:
    """Row-wise products of two (N, 16) float or complex coefficient blocks under a sign table.

    ``table`` is PRODUCT_SIGN, or ``algebra``'s WEDGE_SIGN or LCONTRACT_SIGN; a
    block of one row is broadcast against the other.  Each slot sums its terms
    over i in turn, starting from +0.0, so a row's bits do not depend on the
    block around it; the ``Multivector`` products are one-row calls.
    """
    terms = np.asarray(x)[:, :, None] * np.asarray(y)[:, None, :]
    terms *= table
    by_slot = terms[:, _ROWS, _PRODUCT_SOURCE]
    out = np.zeros((len(terms), DIM), dtype=terms.dtype)
    for i in range(DIM):
        out += by_slot[:, i]
    return out


def _product(x: np.ndarray, y: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One row of ``product_array``: the product of two coefficient vectors."""
    return product_array(x[None], y[None], table)[0]

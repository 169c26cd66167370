"""Gamma-matrix representations of Cl(1,3) and the blade-matrix dictionary.

Two standard 4x4 complex representations are provided:

* ``chiral``:   gamma^0 off-diagonal identity blocks, gamma^k = [[0,-s_k],[s_k,0]]
* ``standard``: gamma^0 = diag(1,1,-1,-1),            gamma^k = [[0,s_k],[-s_k,0]]

Each representation carries the full dictionary of 16 blade matrices (products
of lower-index gammas in canonical order), which maps multivectors to 4x4
matrices by an algebra isomorphism.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .blades import BLADES, DIM, METRIC_SIGNS

if TYPE_CHECKING:
    from .algebra import Multivector

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

_I2 = np.eye(2, dtype=np.complex128)
_Z2 = np.zeros((2, 2), dtype=np.complex128)


def _block(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]])


class GammaRep:
    """One gamma-matrix representation with its blade dictionary."""

    def __init__(self, tag: str, gamma_upper: np.ndarray) -> None:
        self.tag = tag
        self.upper = gamma_upper  # shape (4, 4, 4); index = spacetime index
        self.lower = np.array(METRIC_SIGNS)[:, None, None] * gamma_upper
        g = self.upper
        self.gamma5 = 1j * g[0] @ g[1] @ g[2] @ g[3]
        eye = np.eye(4, dtype=np.complex128)
        # e_idx = product of the lower gammas of idx, in canonical order; a list of views, as
        # fancy indexing at import maps some 0.1 MB more resident memory
        self.blades = np.array([reduce(np.matmul, [self.lower[i] for i in idx], eye) for idx in BLADES])
        self.pseudoscalar = self.blades[-1]

    def matrix_array(self, coeffs) -> np.ndarray:
        """The (N, 4, 4) matrices of an (N, 16) coefficient block, each row's bits independent of N."""
        z = np.asarray(coeffs, dtype=np.complex128)
        return (z[:, None, :] @ self.blades.reshape(DIM, 16)).reshape(-1, 4, 4)

    def mv_to_matrix(self, mv: Multivector) -> np.ndarray:
        """The 4x4 matrix of ``mv``: one row of ``matrix_array``."""
        return self.matrix_array(mv.coeffs[None])[0]


def _build(tag: str, g0: np.ndarray, flip: bool) -> GammaRep:
    """gamma^0 = g0 and gamma^k = [[0, -s_k], [s_k, 0]], or [[0, s_k], [-s_k, 0]] when ``flip``."""
    # -s flips the sign of every part of every entry, zeros included; -1 * s would not
    spatial = [_block(_Z2, s, -s, _Z2) if flip else _block(_Z2, -s, s, _Z2) for s in PAULI]
    return GammaRep(tag, np.array([g0, *spatial]))


REP_TAGS = ("chiral", "standard")
# both are built at import: ``bilinears`` needs both for its Hermitian forms anyway
_REPS = {
    "chiral": _build("chiral", _block(_Z2, _I2, _I2, _Z2), flip=False),
    "standard": _build("standard", np.diag([1, 1, -1, -1]).astype(np.complex128), flip=True),
}


def gamma_rep(tag: str) -> GammaRep:
    """Look up a representation by tag ('chiral' or 'standard')."""
    if tag not in REP_TAGS:
        raise ValueError(f"unknown representation tag {tag!r}; use 'chiral' or 'standard'")
    return _REPS[tag]


# Hermitian involution taking chiral matrices to standard ones and back:
# U gamma_chiral U = gamma_standard with U^2 = 1.
SIMILARITY = _block(_I2, _I2, _I2, -_I2) / np.sqrt(2.0)

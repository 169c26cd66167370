"""Real Clifford algebra of spacetime, Cl(1,3), with metric diag(+,-,-,-).

A ``Multivector`` holds 16 coefficients over the blade basis of
``spinorlab.blades``, whose names this module re-exports as the same objects.
Every operation (geometric product, wedge, left contraction, reversion) is
driven by the product table built there from the metric; the wedge and
contraction tables keep its grade-raising and grade-lowering terms.
Coefficients may be real or complex; complex coefficients give the
complexified algebra.  The package loads this module on first use of one of
its names, so the commands that make no ``Multivector`` or ``Quaternion``
never load it.
"""

from __future__ import annotations

import numbers

import numpy as np

# the blade tables, re-exported
from .blades import (
    _PRODUCT_SOURCE,
    _product,
    BLADE_GRADES,
    BLADE_INDEX,
    BLADE_NAMES,
    BLADES,
    DIM,
    GRADE_2_PAIRS,
    METRIC_SIGNS,
    PRODUCT_INDEX,
    PRODUCT_SIGN,
    product_array,
)

_GRADE_OUT = BLADE_GRADES[PRODUCT_INDEX]
_GA = BLADE_GRADES[:, None]
_GB = BLADE_GRADES[None, :]
# outer product keeps grade r+s terms; left contraction keeps grade s-r terms
WEDGE_SIGN = np.where(_GRADE_OUT == _GA + _GB, PRODUCT_SIGN, 0.0)
LCONTRACT_SIGN = np.where(_GRADE_OUT == _GB - _GA, PRODUCT_SIGN, 0.0)

REVERSE_SIGN = np.array([(-1) ** (k * (k - 1) // 2) for k in BLADE_GRADES])


class Multivector:
    """Element of Cl(1,3) (or its complexification), 16 basis coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs)
        if arr.shape != (DIM,):
            raise ValueError(f"expected {DIM} coefficients, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"coefficients must be numeric, got dtype {arr.dtype}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        self.coeffs = arr.astype(dtype)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Multivector":
        return cls(np.zeros(DIM))

    @classmethod
    def scalar(cls, value) -> "Multivector":
        c = np.zeros(DIM, dtype=np.complex128 if isinstance(value, complex) else np.float64)
        c[0] = value
        return cls(c)

    @classmethod
    def blade(cls, *indices: int, coeff=1.0) -> "Multivector":
        key = tuple(indices)
        if key not in BLADE_INDEX:
            raise ValueError(f"no basis blade with index tuple {key}")
        c = np.zeros(DIM, dtype=np.complex128 if isinstance(coeff, complex) else np.float64)
        c[BLADE_INDEX[key]] = coeff
        return cls(c)

    @classmethod
    def vector(cls, components) -> "Multivector":
        comp = np.asarray(components)
        if comp.shape != (4,):
            raise ValueError("a 1-vector needs 4 components")
        c = np.zeros(DIM, dtype=np.complex128 if np.iscomplexobj(comp) else np.float64)
        c[1:5] = comp
        return cls(c)

    # ---- basic queries -------------------------------------------------

    def __repr__(self) -> str:
        parts = [
            f"{self.coeffs[i]:+g}*{BLADE_NAMES[i]}"
            for i in range(DIM)
            if self.coeffs[i] != 0
        ]
        return "Multivector(" + (" ".join(parts) if parts else "0") + ")"

    @property
    def real(self) -> "Multivector":
        return Multivector(self.coeffs.real)

    @property
    def imag(self) -> "Multivector":
        return Multivector(self.coeffs.imag)

    def scalar_part(self):
        return self.coeffs[0]

    def grade(self, k: int) -> "Multivector":
        out = np.where(BLADE_GRADES == k, self.coeffs, 0)
        return Multivector(out)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def conjugate(self) -> "Multivector":
        return Multivector(self.coeffs.conj())

    def reverse(self) -> "Multivector":
        return Multivector(self.coeffs * REVERSE_SIGN)

    # ---- arithmetic ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Multivector) and bool(np.array_equal(self.coeffs, other.coeffs))

    def __add__(self, other) -> "Multivector":
        if isinstance(other, numbers.Number):
            other = Multivector.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other) -> "Multivector":
        if isinstance(other, numbers.Number):
            other = Multivector.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(self.coeffs - other.coeffs)

    def __rsub__(self, other) -> "Multivector":
        if isinstance(other, numbers.Number):
            return Multivector.scalar(other) - self
        return NotImplemented

    def __neg__(self) -> "Multivector":
        return Multivector(-self.coeffs)

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, numbers.Number):
            return Multivector(self.coeffs * other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(_product(self.coeffs, other.coeffs, PRODUCT_SIGN))

    # reached only when the left operand is not a Multivector, so only as a scalar product
    __rmul__ = __mul__

    def __truediv__(self, other) -> "Multivector":
        if isinstance(other, numbers.Number):
            return Multivector(self.coeffs / other)
        return NotImplemented


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return Multivector(_product(a.coeffs, b.coeffs, WEDGE_SIGN))


def lcontract(a: Multivector, b: Multivector) -> Multivector:
    """Left contraction a ⌟ b (lowers grade; a inside b)."""
    return Multivector(_product(a.coeffs, b.coeffs, LCONTRACT_SIGN))


def basis_vectors() -> tuple[Multivector, Multivector, Multivector, Multivector]:
    return tuple(Multivector.blade(i) for i in range(4))


E0, E1, E2, E3 = basis_vectors()
PSEUDOSCALAR = Multivector.blade(0, 1, 2, 3)


# ---- quaternions ----------------------------------------------------------
#
# The even subalgebra of the spatial rotations is spanned by 1 and the unit
# bivectors i = e23, j = e31 = -e13, k = e12, which multiply like Hamilton's
# quaternions (ij = k).


def hamilton_product(a, b) -> tuple:
    """Hamilton product of two quaternions given as (w, x, y, z), of floats or of arrays.

    Written once for ``Quaternion`` and for the elementwise products of blocks
    in ``spinorlab.hopf``, so both round alike.
    """
    return (
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


class Quaternion:
    """Hamilton quaternion w + x i + y j + z k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> None:
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quaternion)
            and (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)
        )

    def components(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_squared(self) -> float:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self, other
        return Quaternion(*hamilton_product((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z)))

    __rmul__ = __mul__  # a scalar on the left: a product with a real number commutes


QUAT_I = Quaternion(0, 1, 0, 0)
QUAT_J = Quaternion(0, 0, 1, 0)
QUAT_K = Quaternion(0, 0, 0, 1)

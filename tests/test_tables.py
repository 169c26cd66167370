"""Every Cl(1,3) structure table against the explicit loops it is built without, bit for bit.

Every array kernel and every CLI byte is computed from these tables, so each
must equal its oracle in dtype, shape and bytes: a zero of the other sign
counts as a difference.
"""

import numpy as np
import pytest

from oracles import loop_structure_tables
from spinorlab import SIMILARITY, algebra, gamma_rep
from spinorlab.bilinears import _INVERSES, _MATRICES, _OPERATORS

LIBRARY = {
    **{name: getattr(algebra, name)
       for name in ("PRODUCT_INDEX", "PRODUCT_SIGN", "WEDGE_SIGN", "LCONTRACT_SIGN", "_PRODUCT_SOURCE")},
    **{f"{tag}.{name}": getattr(gamma_rep(tag), name)
       for tag in ("chiral", "standard")
       for name in ("upper", "lower", "gamma5", "blades", "pseudoscalar")},
    **{f"_MATRICES.{tag}.{part}": _MATRICES[tag][n]
       for tag in ("chiral", "standard") for n, part in enumerate(("forms", "operators"))},
    "_OPERATORS": _OPERATORS,
    "_INVERSES": _INVERSES,
    "SIMILARITY": SIMILARITY,
}
ORACLE = loop_structure_tables()


def same(a, b) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_the_oracle_covers_every_table():
    assert sorted(ORACLE) == sorted(LIBRARY)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_each_structure_table_is_its_oracle_in_every_bit(name):
    assert same(LIBRARY[name], ORACLE[name])


def test_spatial_blocks_built_as_minus_one_times_the_block_differ():
    # -1 * s multiplies as complex numbers, so a zero entry's imaginary part keeps its + sign
    fault = loop_structure_tables(negate=lambda s: -1 * s)
    assert [name for name in LIBRARY if not same(LIBRARY[name], fault[name])]


def test_bilinear_operators_built_from_complex_blades_differ():
    # -e0123 negates the imaginary zeros of a complex blade too, so omega's operator row
    # holds -0j where the float blade, negated and then cast, holds +0j
    fault = loop_structure_tables(blade_dtype=complex)
    assert np.array_equal(fault["_OPERATORS"], _OPERATORS)  # equal as numbers
    assert [n for n in range(16) if not same(_OPERATORS[n], fault["_OPERATORS"][n])] == [15]

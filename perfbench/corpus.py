"""Seeded spinor corpus for the benchmark, built only from spinorlab's public API.

A corpus is a JSON-lines batch as a user would feed it to ``spinorlab
classify`` or ``spinorlab map-check``, plus the Lounesto class each record
must get.  The expected class comes from how the record was built, never from
running the classifier.  Every record is then rescaled, given a random global
phase and, half the time, moved to the other gamma representation; none of
these changes the class.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from spinorlab import (
    Multivector,
    SpinorC4,
    WeylC2,
    dirac_with_phase,
    direction_element,
    elko_boost,
    elko_rest,
    helicity_eigenspinor,
    majorana_from_weyl,
    projection_spinor,
    weyl_spinor,
)

ZERO_SHARE = 1 / 200  # stated share of zero spinors: 0.5% of a corpus

# The three constructed spinors of the mapping suite, one per regular class,
# as component arrays in the standard representation.
_WITNESSES = {
    1: np.array([2, 0, 1j, 0]),
    2: np.array([1, 0, 0, 0], dtype=complex),
    3: np.array([1j, 1j, 1, 1]),
}


def _weyl2(rng: np.random.Generator) -> WeylC2:
    return WeylC2(rng.standard_normal(2) + 1j * rng.standard_normal(2))


def _momentum(rng: np.random.Generator) -> np.ndarray:
    direction = rng.standard_normal(3)
    return direction / np.linalg.norm(direction) * rng.uniform(0.1, 2.0)


def _generic(rng):
    return SpinorC4(rng.standard_normal(4) + 1j * rng.standard_normal(4), "chiral")


def _dirac(delta):
    def build(rng):
        return dirac_with_phase(_weyl2(rng), _momentum(rng), rng.uniform(0.5, 2.0), delta)

    return build


def _witness(label):
    def build(rng):
        return SpinorC4(_WITNESSES[label], "standard")

    return build


def _flag_dipole(rng):
    # admissible class-4 directions keep clear of the class-5 and class-6 axes
    while True:
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        if 0.05 < abs(u[2]) < 0.95:
            return projection_spinor(Multivector.scalar(1.0), direction_element(u))


def _elko_rest(rng):
    return elko_rest(_weyl2(rng), ("self", "anti")[rng.integers(2)]).spinor


def _elko_boosted(rng):
    p = _momentum(rng)
    phi = helicity_eigenspinor(p, (1, -1)[rng.integers(2)])
    rest = elko_rest(phi, ("self", "anti")[rng.integers(2)])
    return elko_boost(rest, p, rng.uniform(0.5, 2.0)).spinor


def _majorana(rng):
    seed = weyl_spinor(_weyl2(rng), ("left", "right")[rng.integers(2)])
    return majorana_from_weyl(seed)[rng.integers(2)]


def _weyl(rng):
    return weyl_spinor(_weyl2(rng), ("left", "right")[rng.integers(2)])


def _zero(rng):
    return SpinorC4(np.zeros(4, dtype=complex), "chiral")


# builder kind -> (expected class, builder); None is the zero spinor's "class"
KINDS = {
    "generic": (1, _generic),
    "dirac-delta-0": (2, _dirac(0.0)),
    "dirac-delta-pi/2": (3, _dirac(np.pi / 2)),
    "witness-1": (1, _witness(1)),
    "witness-2": (2, _witness(2)),
    "witness-3": (3, _witness(3)),
    "flag-dipole": (4, _flag_dipole),
    "elko-rest": (5, _elko_rest),
    "elko-boosted": (5, _elko_boosted),
    "majorana": (5, _majorana),
    "weyl": (6, _weyl),
    "zero": (None, _zero),
}
BUILT_KINDS = [k for k in KINDS if k not in ("generic", "zero")]


@dataclass(frozen=True)
class Corpus:
    text: str  # JSON-lines, one spinor document per line
    expected: list  # expected class per record, None for a zero spinor
    kinds: list  # builder kind per record

    @property
    def mix(self) -> dict:
        """Records per builder kind."""
        return dict(sorted(Counter(self.kinds).items()))

    @property
    def class_mix(self) -> dict:
        """Records per expected class ("null" for zero spinors)."""
        counts = Counter("null" if c is None else str(c) for c in self.expected)
        return dict(sorted(counts.items()))


def kind_counts(size: int) -> dict:
    """Records per kind: a zero share, half the rest built, the other half generic."""
    zero = max(1, round(size * ZERO_SHARE))
    built = (size - zero) // 2
    counts = {"generic": size - zero - built, "zero": zero}
    for n, kind in enumerate(BUILT_KINDS):
        counts[kind] = built // len(BUILT_KINDS) + (n < built % len(BUILT_KINDS))
    return counts


def make_corpus(seed: int, size: int) -> Corpus:
    """The corpus for ``seed``: the same seed always gives the same bytes."""
    rng = np.random.default_rng(seed)
    kinds = [kind for kind, n in kind_counts(size).items() for _ in range(n)]
    kinds = [kinds[i] for i in rng.permutation(size)]
    lines = []
    for kind in kinds:
        psi = KINDS[kind][1](rng)
        psi = psi.scaled(10.0 ** rng.uniform(-1.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        if rng.integers(2):
            psi = psi.in_rep("standard" if psi.rep == "chiral" else "chiral")
        pairs = [[float(c.real), float(c.imag)] for c in psi.components]
        lines.append(json.dumps({"components": pairs, "rep": psi.rep}))
    return Corpus(
        text="\n".join(lines) + "\n",
        expected=[KINDS[kind][0] for kind in kinds],
        kinds=kinds,
    )

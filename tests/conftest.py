"""Shared helpers for the test suite."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from spinorlab import (
    Multivector,
    SpinorC4,
    WeylC2,
    dirac_with_phase,
    direction_element,
    elko_rest,
    projection_spinor,
    weyl_spinor,
)
from spinorlab.gamma import gamma_rep


def random_spinor(rng, rep="chiral", scale=1.0):
    comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return SpinorC4(scale * comp, rep)


def random_unit_spinor(rng, rep="standard"):
    comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return SpinorC4(comp / np.linalg.norm(comp), rep)


def random_multivector(rng, complex_coeffs=False, scale=1.0):
    c = rng.standard_normal(16)
    if complex_coeffs:
        c = c + 1j * rng.standard_normal(16)
    return Multivector(scale * c)


def random_even(rng):
    """Random real element of the even subalgebra (an operator spinor)."""
    from spinorlab.algebra import BLADE_GRADES

    c = rng.standard_normal(16) * (BLADE_GRADES % 2 == 0)
    return Multivector(c)


def phase_align(candidate, reference):
    """Rotate ``candidate`` by the global phase that best matches ``reference``."""
    inner = np.vdot(candidate, reference)
    if abs(inner) == 0.0:
        return candidate
    return candidate * (inner / abs(inner))


def class_spinor(rng, label):
    """A spinor of Lounesto class ``label`` from the library's builders, random parameters."""
    phi = WeylC2(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    if label in (1, 2, 3):
        delta = {1: rng.uniform(0.2, 1.3), 2: 0.0, 3: np.pi / 2}[label]
        return dirac_with_phase(phi, rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0), delta)
    if label == 4:
        while True:  # admissible directions keep clear of the class-5 and class-6 axes
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            if 0.05 < abs(u[2]) < 0.95:
                return projection_spinor(Multivector.scalar(1.0), direction_element(u))
    if label == 5:
        return elko_rest(phi, ("self", "anti")[rng.integers(2)]).spinor
    return weyl_spinor(phi, ("left", "right")[rng.integers(2)])


# the generator planes (mu, nu) of spin_matrix: three boosts, then three rotations
LORENTZ_PLANES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def spin_matrix(rep, generators):
    """A proper orthochronous Lorentz spin matrix, a product of closed-form exponentials.

    (g^0 g^i)^2 = 1 gives the boost cosh(eta/2) + sinh(eta/2) g^0 g^i, |eta| <= 2;
    (g^i g^j)^2 = -1 gives the rotation cos(theta/2) + sin(theta/2) g^i g^j.
    """
    g = gamma_rep(rep).upper
    spin = np.eye(4, dtype=complex)
    for (mu, nu), amount in generators:
        if mu == 0:
            half = amount  # eta / 2
            factor = np.cosh(half) * np.eye(4) + np.sinh(half) * (g[0] @ g[nu])
        else:
            half = amount * np.pi / 2  # theta / 2
            factor = np.cos(half) * np.eye(4) + np.sin(half) * (g[mu] @ g[nu])
        spin = factor @ spin
    return spin


def mixed_spinors(rng, count):
    """``count`` (label, spinor) pairs cycling through classes 1-6.

    Each spinor is rescaled by 0.1-10, given a random global phase and, half
    the time, moved to the other representation.
    """
    out = []
    for k in range(count):
        label = k % 6 + 1
        factor = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        psi = class_spinor(rng, label).scaled(factor)
        if rng.integers(2):
            psi = psi.in_rep("standard" if psi.rep == "chiral" else "chiral")
        out.append((label, psi))
    return out


def map_check_decades(seed=97):
    """Scaled copies, 1e-60 to 1e38, of one unit spinor per class and the three mapping
    witnesses, the representation switching with each decade and each zero part signed at random."""
    rng = np.random.default_rng(seed)
    bases = [psi for _, psi in mixed_spinors(rng, 6)]
    bases += [SpinorC4(c, "standard") for c in ([2, 0, 1j, 0], [1, 0, 0, 0], [1j, 1j, 1, 1])]
    spinors = []
    for k in range(-60, 39):
        for psi in bases:
            if k % 2:
                psi = psi.in_rep("standard" if psi.rep == "chiral" else "chiral")
            c = psi.components / np.linalg.norm(psi.components) * 10.0**k
            for part in (c.real, c.imag):
                zeros = part == 0.0
                part[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
            spinors.append(SpinorC4(c, psi.rep))
    return spinors


def benchmark_corpus(seed):
    """The records of ``perfbench/corpus.py``'s corpus for ``seed``: 2,000, ten of them zero."""
    if "benchmark_corpus" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("benchmark_corpus", path)
        # registered before it runs: its dataclass looks its module up there
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    text = sys.modules["benchmark_corpus"].make_corpus(seed, 2000).text
    return [json.loads(line) for line in text.splitlines()]

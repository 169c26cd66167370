"""Constructors for singular spinors: ELKO, Majorana, Weyl, and Dirac seeds.

An ELKO stacks a 2-spinor phi with its charge-flipped partner sigma_2 phi*
(upper block), so the two Weyl halves carry opposite helicity whenever phi is
a helicity eigenspinor.  Self- and anti-self-conjugate variants differ by the
sign on the lower block and are eigenvectors of the charge conjugation with
eigenvalue +1 and -1.  All constructors emit chiral-representation spinors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bilinears import SpinorC4, bilinears
from .classify import classify
from .gamma import PAULI, gamma_rep

_SIGMA2 = PAULI[1]

PAIR_LABELS = ("-+", "+-")
CONJUGACY_LABELS = ("self", "anti")


@dataclass(frozen=True)
class WeylC2:
    """A 2-component spinor, optionally tagged as a helicity eigenstate."""

    components: np.ndarray
    helicity: int | None = None
    axis: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.components, dtype=np.complex128)
        if arr.shape != (2,):
            raise ValueError("a Weyl spinor needs exactly 2 complex components")
        object.__setattr__(self, "components", arr)
        if self.helicity not in (None, 1, -1):
            raise ValueError("helicity must be +1, -1 or None")
        if self.axis is not None:
            object.__setattr__(self, "axis", np.asarray(self.axis, dtype=np.float64))


def helicity_eigenspinor(p_hat, sign: int) -> WeylC2:
    """Eigenspinor of sigma . p_hat with eigenvalue ``sign`` (+1 or -1)."""
    direction = np.asarray(p_hat, dtype=np.float64)
    if direction.shape != (3,):
        raise ValueError("p_hat needs 3 components")
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("cannot build a helicity eigenspinor for the zero direction")
    if sign not in (1, -1):
        raise ValueError("helicity sign must be +1 or -1")
    direction = direction / norm
    theta = float(np.arccos(np.clip(direction[2], -1.0, 1.0)))
    phi = float(np.arctan2(direction[1], direction[0]))
    half = theta / 2.0
    upper, lower = (np.cos(half), np.sin(half)) if sign == 1 else (-np.sin(half), np.cos(half))
    comp = np.array([upper * np.exp(-0.5j * phi), lower * np.exp(0.5j * phi)])
    return WeylC2(comp, helicity=sign, axis=direction)


@dataclass(frozen=True)
class ElkoSpinor:
    """An ELKO with its conjugacy, helicity-pair label, and kinematic state."""

    base: SpinorC4
    conjugacy: str
    pair: str | None
    axis: np.ndarray
    phi: WeylC2
    momentum: np.ndarray | None = None
    mass: float | None = None

    def __post_init__(self) -> None:
        if self.conjugacy not in CONJUGACY_LABELS:
            raise ValueError(f"conjugacy must be one of {CONJUGACY_LABELS}")
        if self.pair is not None and self.pair not in PAIR_LABELS:
            raise ValueError(f"helicity pair must be one of {PAIR_LABELS}")
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=np.float64))
        if self.momentum is not None:
            object.__setattr__(self, "momentum", np.asarray(self.momentum, dtype=np.float64))

    @property
    def spinor(self) -> SpinorC4:
        return self.base

    @property
    def components(self) -> np.ndarray:
        return self.base.components


def elko_rest(phi: WeylC2, conjugacy: str = "self") -> ElkoSpinor:
    """Rest-frame ELKO built on ``phi``: (sigma_2 phi*, +/- phi) stacked."""
    if conjugacy not in CONJUGACY_LABELS:
        raise ValueError(f"conjugacy must be one of {CONJUGACY_LABELS}")
    v = phi.components
    if not np.any(v):
        raise ValueError("cannot build an ELKO on the zero 2-spinor")
    upper = _SIGMA2 @ v.conj()
    lower = v if conjugacy == "self" else -v
    base = SpinorC4(np.concatenate([upper, lower]), "chiral")
    if phi.helicity is None:
        pair = None
    else:
        # the flipped upper block carries the opposite helicity of phi
        pair = "-+" if phi.helicity == 1 else "+-"
    axis = phi.axis if phi.axis is not None else np.array([0.0, 0.0, 1.0])
    return ElkoSpinor(base=base, conjugacy=conjugacy, pair=pair, axis=axis, phi=phi)


def elko_quartet(p_hat=(0.0, 0.0, 1.0)) -> tuple[ElkoSpinor, ...]:
    """All four rest ELKOs (self/anti x both helicity pairs) along one axis."""
    plus = helicity_eigenspinor(p_hat, +1)
    minus = helicity_eigenspinor(p_hat, -1)
    return (
        elko_rest(plus, "self"),
        elko_rest(minus, "self"),
        elko_rest(plus, "anti"),
        elko_rest(minus, "anti"),
    )


def elko_boost(lam: ElkoSpinor, p, m: float) -> ElkoSpinor:
    """Boost a rest ELKO to momentum ``p``; reduces to a scalar factor.

    Because the two Weyl blocks carry opposite helicity along p_hat, the full
    spinor boost multiplies both blocks by the same scalar
    sqrt((E+m)/2m) (1 -/+ |p|/(E+m)), the sign tied to the pair label.
    """
    if m <= 0.0:
        raise ValueError("mass must be positive")
    if lam.momentum is not None:
        raise ValueError("input must be a rest-frame ELKO")
    momentum = np.asarray(p, dtype=np.float64)
    if momentum.shape != (3,):
        raise ValueError("momentum needs 3 components")
    pnorm = float(np.linalg.norm(momentum))
    if pnorm == 0.0:
        return replace(lam, momentum=momentum, mass=float(m))
    if lam.pair is None:
        raise ValueError("boost needs an ELKO built on a helicity eigenspinor")
    if np.linalg.norm(momentum / pnorm - lam.axis) > 1e-9:
        raise ValueError("ELKO helicity axis does not match the boost direction")
    energy = float(np.hypot(m, pnorm))
    sign = 1.0 if lam.pair == "-+" else -1.0
    factor = np.sqrt((energy + m) / (2.0 * m)) * (1.0 - sign * pnorm / (energy + m))
    return replace(
        lam, base=lam.base.scaled(factor), momentum=momentum, mass=float(m)
    )


def charge_conjugation(psi: SpinorC4) -> SpinorC4:
    """Antilinear charge conjugation C psi = -gamma^2 psi* (chiral rep only)."""
    if psi.rep != "chiral":
        raise ValueError("charge conjugation is implemented in the chiral representation")
    g2 = gamma_rep("chiral").upper[2]
    return SpinorC4(-g2 @ psi.components.conj(), "chiral")


def elko_dual(lam: ElkoSpinor) -> np.ndarray:
    """Dual row vector of an ELKO: +/- i (partner spinor)^dagger gamma^0.

    The partner is the ELKO of the same conjugacy and kinematics with the
    opposite helicity pair; the sign is + for the (-,+) pair and - for (+,-).
    Pair ``elko_dual(a) @ b.components`` to evaluate the invariant pairing.
    """
    if lam.pair is None:
        raise ValueError("dual needs an ELKO built on a helicity eigenspinor")
    partner_phi = helicity_eigenspinor(lam.axis, +1 if lam.pair == "+-" else -1)
    partner = elko_rest(partner_phi, lam.conjugacy)
    if lam.momentum is not None:
        partner = elko_boost(partner, lam.momentum, lam.mass)
    sign = 1.0 if lam.pair == "-+" else -1.0
    g0 = gamma_rep("chiral").upper[0]
    return sign * 1j * (partner.components.conj() @ g0)


def weyl_spinor(phi: WeylC2, chirality: str = "left") -> SpinorC4:
    """Single-handed (class 6) spinor: phi in one chiral block, zero in the other."""
    v = phi.components
    if not np.any(v):
        raise ValueError("cannot build a Weyl spinor on the zero 2-spinor")
    zero = np.zeros(2, dtype=np.complex128)
    if chirality == "left":
        comp = np.concatenate([zero, v])
    elif chirality == "right":
        comp = np.concatenate([v, zero])
    else:
        raise ValueError("chirality must be 'left' or 'right'")
    return SpinorC4(comp, "chiral")


def dirac_from_left(phi_l: WeylC2, p, m: float, epsilon: int = 1) -> SpinorC4:
    """Dirac spinor with lower block phi_L and upper block epsilon (E + sigma.p)/m phi_L.

    The boost kernel is Hermitian, which forces omega = 0: the result is
    class 2 (class 1 requires a non-Hermitian right-left relation).
    """
    if m <= 0.0:
        raise ValueError("mass must be positive")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    momentum = np.asarray(p, dtype=np.float64)
    if momentum.shape != (3,):
        raise ValueError("momentum needs 3 components")
    if not np.any(phi_l.components):
        raise ValueError("cannot build a Dirac spinor on the zero 2-spinor")
    energy = float(np.hypot(m, np.linalg.norm(momentum)))
    kernel = energy * np.eye(2, dtype=np.complex128)
    for k in range(3):
        kernel += momentum[k] * PAULI[k]
    upper = epsilon * (kernel / m) @ phi_l.components
    return SpinorC4(np.concatenate([upper, phi_l.components]), "chiral")


def dirac_with_phase(phi_l: WeylC2, p, m: float, delta: float) -> SpinorC4:
    """Dirac spinor whose right block is e^{i delta} (E + sigma.p)/m phi_L.

    delta = 0 gives class 2, delta = pi/2 gives class 3, and a generic phase
    gives class 1.
    """
    base = dirac_from_left(phi_l, p, m, epsilon=1)
    comp = base.components.copy()
    comp[:2] *= np.exp(1j * delta)
    return SpinorC4(comp, "chiral")


def majorana_from_weyl(xi: SpinorC4) -> tuple[SpinorC4, SpinorC4]:
    """Split a spinor into its charge-conjugation eigenparts (xi +/- C xi)/2.

    Both outputs are flagpole (class 5) spinors when nonzero.  Warns when the
    input is not class 6, since the construction is meant for Weyl seeds.
    """
    try:
        label = classify(bilinears(xi)).label
    except ValueError:
        label = None
    if label != 6:
        warnings.warn(
            f"majorana_from_weyl expects a class-6 input (got {label})", stacklevel=2
        )
    conj = charge_conjugation(xi)
    plus = SpinorC4((xi.components + conj.components) / 2.0, "chiral")
    minus = SpinorC4((xi.components - conj.components) / 2.0, "chiral")
    return plus, minus


def penrose_pole(psi: SpinorC4):
    """Null pole vector of a spinor: half the grade-1 part of its aggregate."""
    b = bilinears(psi)
    return b.current_vector() / 2.0


def penrose_flag(psi: SpinorC4):
    """Flag bivector of a spinor: half the (both-orders) spin bivector."""
    b = bilinears(psi)
    return b.spin_bivector() / 2.0

"""Conditions for a regular Dirac spinor to be mappable onto an ELKO.

The conditions are bilinear constraints on the four components psi_r.  Every
residual is computed twice: once with complex arithmetic (Re/Im of the
complex product psi_i* psi_j) and once with explicitly real arithmetic on the
split components psi_r = a_r + i b_r; the two routes must agree to rounding,
which is itself a contract of this module.  ``condition_routes`` writes both routes once, over
real and imaginary parts given as floats (``elko_map_conditions``) or as
arrays over a block of spinors (``verify mapping``).

A shared block of four constraints applies to all classes; one extra
constraint each selects class 2 and class 3, and class 1 requires both.  The
shared block's last line and the class-3 extra differ by the single term
2 Im(psi_3* psi_4); that gap is surfaced in the report rather than resolved.

Note the shared block forces the chiral-representation sigma to vanish, so
spinors satisfying it in classes 1 or 2 exist only with standard
(Dirac-basis) components; the formulas themselves act on the raw component
4-tuple and are representation-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinears import SpinorC4, bilinears
from .classify import classify

SHARED_CONDITION_COUNT = 4


class SingularSpinorError(ValueError):
    """Mappability is defined for regular spinors (classes 1-3) only."""


def condition_routes(a, b) -> tuple[list, list]:
    """Every condition's signed residual by both arithmetic routes.

    ``a`` and ``b`` are the real and imaginary parts of psi_1..psi_4, each
    four floats or four (N,) arrays.  The complex route forms Re and Im of
    psi_i* psi_j as the complex product of conj(psi_i) and psi_j, written out
    in real arithmetic as the scalar complex product computes it; the
    component route uses a_i a_j + b_i b_j and a_i b_j - b_i a_j.  Each route
    returns [shared_1..shared_4, extra_class2, extra_class3]; the complex
    route appends the line-3 gap term 2 Im(psi_3* psi_4).
    """
    re = lambda i, j: a[i] * a[j] - (-b[i]) * b[j]
    im = lambda i, j: a[i] * b[j] + (-b[i]) * a[j]
    gap = 2.0 * im(2, 3)
    complex_route = [
        re(0, 2),
        re(1, 3),
        re(1, 2) + re(0, 3),
        im(0, 3) - im(1, 2) - gap - 2.0 * im(0, 1),
        re(0, 3) + im(1, 2),
        im(0, 3) - im(1, 2) - 2.0 * im(0, 1),
        gap,
    ]
    re = lambda i, j: a[i] * a[j] + b[i] * b[j]
    im = lambda i, j: a[i] * b[j] - b[i] * a[j]
    component_route = [
        re(0, 2),
        re(1, 3),
        re(1, 2) + re(0, 3),
        im(0, 3) - im(1, 2) - 2.0 * im(2, 3) - 2.0 * im(0, 1),
        re(0, 3) + im(1, 2),
        im(0, 3) - im(1, 2) - 2.0 * im(0, 1),
    ]
    return complex_route, component_route


@dataclass(frozen=True)
class ConditionReport:
    """All mapping-condition residuals for one spinor, both arithmetic routes."""

    shared: np.ndarray
    extra_class2: float
    extra_class3: float
    shared_components: np.ndarray
    extra_class2_components: float
    extra_class3_components: float
    line3_vs_class3_gap: float
    scale: float

    def route_disagreement(self) -> float:
        """Largest gap between the complex and component arithmetic routes."""
        gaps = [
            float(abs(self.shared - self.shared_components).max()),
            abs(self.extra_class2 - self.extra_class2_components),
            abs(self.extra_class3 - self.extra_class3_components),
        ]
        return max(gaps)

    def satisfied(self, label: int, tol: float = 1e-10) -> bool:
        """Whether the condition set selecting ``label`` holds at tolerance.

        The residuals are quadratic in psi, so they are compared against
        ``tol * |psi|^2`` and the verdict does not change when psi is rescaled.
        """
        threshold = tol * self.scale
        shared_ok = bool(self.shared.max() <= threshold)
        if label == 2:
            return shared_ok and self.extra_class2 <= threshold
        if label == 3:
            return shared_ok and self.extra_class3 <= threshold
        if label == 1:
            return (
                shared_ok
                and self.extra_class2 <= threshold
                and self.extra_class3 <= threshold
            )
        raise ValueError("mappability is defined for labels 1, 2 and 3")


def elko_map_conditions(psi: SpinorC4) -> ConditionReport:
    """Evaluate every mapping condition on the raw components of ``psi``."""
    c = psi.components
    (*shared, extra2, extra3, gap), (*shared_comp, extra2_comp, extra3_comp) = condition_routes(
        c.real.tolist(), c.imag.tolist()
    )
    return ConditionReport(
        shared=np.abs(shared),
        extra_class2=abs(extra2),
        extra_class3=abs(extra3),
        shared_components=np.abs(shared_comp),
        extra_class2_components=abs(extra2_comp),
        extra_class3_components=abs(extra3_comp),
        line3_vs_class3_gap=abs(gap),
        scale=float(np.vdot(c, c).real),
    )


def mappability(psi: SpinorC4, tol: float = 1e-10) -> dict:
    """Per-class mappability verdicts for a regular spinor.

    Returns ``{"class": label, 1: bool, 2: bool, 3: bool}``.  Raises
    SingularSpinorError when the spinor is singular (classes 4-6), where the
    conditions do not apply.
    """
    label = classify(bilinears(psi), tol=tol).label
    if label not in (1, 2, 3):
        raise SingularSpinorError(
            f"spinor is class {label}; mapping conditions apply to classes 1-3"
        )
    report = elko_map_conditions(psi)
    return {
        "class": label,
        1: report.satisfied(1, tol),
        2: report.satisfied(2, tol),
        3: report.satisfied(3, tol),
    }

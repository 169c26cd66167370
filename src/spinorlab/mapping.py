"""Conditions for a regular Dirac spinor to be mappable onto an ELKO.

The conditions are bilinear constraints on the four components psi_r.  Every
residual is computed twice: once with complex arithmetic (Re/Im of the
complex product psi_i* psi_j) and once with explicitly real arithmetic on the
split components psi_r = a_r + i b_r.  The two routes run the same IEEE
operations, because x - (-u) v is exactly x + u v, so they agree bit for bit:
``ConditionReport.route_disagreement`` and the ``route_agreement`` check of
``verify mapping`` guard the formulas (a transcription fault in one route),
not the rounding.  ``condition_routes``
writes both routes once, over real and imaginary parts given as floats
(``elko_map_conditions``) or as arrays over a block of spinors
(``verify mapping``).

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

import math
from dataclasses import dataclass

import numpy as np

# ``bilinears`` is not called here; perfbench's tracer checks that it wraps this binding
from .bilinears import SpinorC4, _dots, bilinears, covariant_array
from .classify import _REFUSALS, lounesto_rule, magnitude_array


class SingularSpinorError(ValueError):
    """Mappability is defined for regular spinors (classes 1-3) only."""


# the extra conditions each regular class adds to the shared block
_EXTRAS = {1: ("extra_class2", "extra_class3"), 2: ("extra_class2",), 3: ("extra_class3",)}


def _refusal(label: int, null: bool) -> ValueError:
    """Why a row of a ``lounesto_rule`` label outside 1-3 has no mappability verdict.

    Label 0 gets its ``classify._REFUSALS`` error (the zero spinor when
    ``null``, else the unrealizable K = S = 0 pattern); labels 4-6 get a
    SingularSpinorError.  ``mappability`` raises it; ``map-check`` writes its
    message as the row's note.
    """
    if not label:
        error, _, message = _REFUSALS[null]
        return error(message)
    return SingularSpinorError(f"spinor is class {label}; mapping conditions apply to classes 1-3")


def condition_routes(a, b) -> tuple[list, list]:
    """Every condition's signed residual by both arithmetic routes.

    ``a`` and ``b`` are the real and imaginary parts of psi_1..psi_4, each
    four floats or four (N,) arrays.  The complex route forms Re and Im of
    psi_i* psi_j as the complex product of conj(psi_i) and psi_j, written out
    in real arithmetic as the scalar complex product computes it; the
    component route uses a_i a_j + b_i b_j and a_i b_j - b_i a_j.  Each route
    forms each of its eight distinct terms once, and shares no term with the
    other route.  Each route returns [shared_1..shared_4, extra_class2,
    extra_class3]; the complex route appends the line-3 gap term
    2 Im(psi_3* psi_4).
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    # complex route: conj(psi_i) psi_j = (x - iu)(y + iv) as x y - (-u) v and x v + (-u) y
    n0, n1, n2 = -b0, -b1, -b2
    re02, re03 = a0 * a2 - n0 * b2, a0 * a3 - n0 * b3
    re12, re13 = a1 * a2 - n1 * b2, a1 * a3 - n1 * b3
    im01, im03 = a0 * b1 + n0 * a1, a0 * b3 + n0 * a3
    im12, im23 = a1 * b2 + n1 * a2, a2 * b3 + n2 * a3
    # the line-3 gap term, and the terms that shared line 4 and extra_class3 have in common
    gap, im_diff, twice_im01 = 2.0 * im23, im03 - im12, 2.0 * im01
    complex_route = [
        re02,
        re13,
        re12 + re03,
        im_diff - gap - twice_im01,
        re03 + im12,
        im_diff - twice_im01,
        gap,
    ]
    # component route: a_i a_j + b_i b_j and a_i b_j - b_i a_j
    re02, re03 = a0 * a2 + b0 * b2, a0 * a3 + b0 * b3
    re12, re13 = a1 * a2 + b1 * b2, a1 * a3 + b1 * b3
    im01, im03 = a0 * b1 - b0 * a1, a0 * b3 - b0 * a3
    im12, im23 = a1 * b2 - b1 * a2, a2 * b3 - b2 * a3
    im_diff, twice_im01 = im03 - im12, 2.0 * im01
    component_route = [
        re02,
        re13,
        re12 + re03,
        im_diff - 2.0 * im23 - twice_im01,
        re03 + im12,
        im_diff - twice_im01,
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
        """Largest gap between the complex and component arithmetic routes.

        The routes run the same IEEE operations, so on finite residuals this
        is 0.0 unless one route's formula is wrong: it guards the formulas,
        not the rounding.
        """
        pairs = zip(self.shared.tolist(), self.shared_components.tolist())
        gaps = [abs(x - y) for x, y in pairs]
        gaps += (abs(self.extra_class2 - self.extra_class2_components),
                 abs(self.extra_class3 - self.extra_class3_components))
        # a NaN gap is the largest, as in np.max
        return math.nan if any(map(math.isnan, gaps)) else max(gaps)

    def _verdicts(self, tol: float) -> dict:
        """Whether the condition set selecting each regular label holds at tolerance.

        Returns ``{1: bool, 2: bool, 3: bool}``.  The residuals are quadratic
        in psi, so they are compared against ``tol * |psi|^2`` and the verdicts
        do not change when psi is rescaled.  A NaN residual holds at no
        tolerance.
        """
        threshold = tol * self.scale
        shared = all([x <= threshold for x in self.shared.tolist()])
        holds = {"extra_class2": self.extra_class2 <= threshold,
                 "extra_class3": self.extra_class3 <= threshold}
        return {label: shared and all([holds[e] for e in extras]) for label, extras in _EXTRAS.items()}

    def satisfied(self, label: int, tol: float = 1e-10) -> bool:
        """Whether the condition set selecting ``label`` holds at tolerance (one of ``_verdicts``)."""
        if label not in _EXTRAS:
            raise ValueError("mappability is defined for labels 1, 2 and 3")
        return self._verdicts(tol)[label]


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
        scale=float(_dots(c, c).real),
    )


def mappability(psi: SpinorC4, tol: float = 1e-10) -> dict:
    """Per-class mappability verdicts for a regular spinor.

    Returns ``{"class": label, 1: bool, 2: bool, 3: bool}``.  A spinor
    without a regular class raises its ``_refusal``: SingularSpinorError for
    classes 4-6, NullSpinorError or BilinearInconsistencyError for no class.
    ``map-check`` calls it only on rows its block labels 1-3, and writes the
    refusal's message for the rest.
    """
    # the classify kernels on one row: the values and decision rule of classify(bilinears(psi))
    magnitudes = magnitude_array(covariant_array(psi.components[None], psi.rep))[0]
    label, _, _, null = lounesto_rule(magnitudes.tolist(), tol)
    if label not in _EXTRAS:
        raise _refusal(label, null)
    return {"class": label, **elko_map_conditions(psi)._verdicts(tol)}

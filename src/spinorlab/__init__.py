"""Real Clifford algebra of spacetime, spinor bilinears, and the Lounesto classes.

The package builds Cl(1,3) over the reals, evaluates the sixteen real bilinear
densities of a Dirac column spinor in either the chiral or the standard gamma
representation, sorts spinors into the six Lounesto classes, constructs ELKO,
Majorana, Weyl, and flag-dipole families, checks the mapping conditions that
relate regular spinors to ELKOs, and exposes the quaternionic Hopf fibration
hiding inside the even subalgebra.
"""

from importlib import import_module as _import_module

from .bilinears import (
    BilinearSet,
    DegenerateProbeError,
    SpinorC4,
    aggregate,
    aggregate_matrix_residual,
    bilinears,
    dirac_adjoint_mv,
    fierz_residuals,
    generalized_fierz_residuals,
    is_boomerang,
    minkowski_square,
    pq_operators,
    reconstruct,
)
from .classify import (
    BilinearInconsistencyError,
    LounestoClass,
    NullSpinorError,
    classify,
    verify_class_relations,
)
from .gamma import (
    SIMILARITY,
    GammaRep,
    gamma_rep,
)
from .mapping import (
    ConditionReport,
    SingularSpinorError,
    elko_map_conditions,
    mappability,
)

__version__ = "0.1.0"

# exported names served on first use, each from its submodule, so that
# ``import spinorlab`` loads none of ``algebra``, ``elko``, ``flagdipole`` and
# ``hopf``: ``classify``, ``map-check``, ``verify fierz`` and ``verify mapping`` run
# without all four, ``hopf`` and ``verify hopf`` load ``hopf`` and ``algebra``, and
# ``verify projectors`` and ``make flagdipole`` ``flagdipole`` as well.  The module
# ``algebra`` is served too, as the package held it when it loaded every module; the
# blade tables it re-exports come from ``blades``, which loads with the package.  The
# rest stay eager, as every subcommand loads them (and the functions ``bilinears``
# and ``classify`` must shadow their submodules from the start)
_LAZY = {
    "algebra": "algebra",
    **dict.fromkeys(("BLADE_NAMES", "GRADE_2_PAIRS", "METRIC_SIGNS"), "blades"),
    **dict.fromkeys((
        "E0", "E1", "E2", "E3", "PSEUDOSCALAR", "QUAT_I", "QUAT_J", "QUAT_K", "Multivector",
        "Quaternion", "basis_vectors", "lcontract", "wedge",
    ), "algebra"),
    **dict.fromkeys((
        "ElkoSpinor", "WeylC2", "charge_conjugation", "dirac_from_left", "dirac_with_phase",
        "elko_boost", "elko_dual", "elko_quartet", "elko_rest", "helicity_eigenspinor",
        "majorana_from_weyl", "penrose_flag", "penrose_pole", "weyl_spinor",
    ), "elko"),
    **dict.fromkeys((
        "FlagDipoleFrame", "annihilator_residuals", "class_limit", "direction_class",
        "direction_element", "doran_h", "elko_mixture_direction", "frame_from_bilinears",
        "projection_spinor", "projector_idempotency_residual", "sigma_projector",
        "sigma_projector_matrix", "synthetic_frame", "type4_boomerang", "validate_direction",
    ), "flagdipole"),
    **dict.fromkeys((
        "HopfPoint", "QuaternionPair", "column_fiber_action", "column_to_even",
        "column_to_quaternions", "even_to_column", "even_to_ideal", "even_to_quaternions",
        "hopf_from_components", "hopf_map", "hopf_map_unnormalized", "hopf_routes_report",
        "ideal_projector", "ideal_to_column", "instanton_obstruction", "quaternions_to_column",
    ), "hopf"),
}
# what ``from spinorlab import *`` gave when every module loaded with the package,
# which had no ``blades`` module
__all__ = [name for name in globals() if not name.startswith("_") and name != "blades"]
__all__ += [*_LAZY, "elko", "flagdipole", "hopf"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = _import_module(f".{module}", __name__)
    value = submodule if name == module else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

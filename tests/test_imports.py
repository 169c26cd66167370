"""Which modules each subcommand and ``import spinorlab`` load: spinorlab's, ``csv`` and ``cmath``.

The multivector algebra, ``spinorlab.algebra``, loads only where a command makes
a ``Multivector`` or ``Quaternion``: ``hopf``, ``verify hopf``, ``verify
projectors`` and ``make flagdipole``.

Each check runs a fresh interpreter, since this test process has loaded every
module already.  ``-X importtime`` lists on stderr each module a run imports.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinorlab

SRC = Path(spinorlab.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))
ON_USE = {"spinorlab.algebra", "spinorlab.elko", "spinorlab.flagdipole", "spinorlab.hopf",
          "spinorlab.make", "spinorlab.verify"}
RECORD = '{"components": [[1, 0], [0, 0], [0, 1], [0, 0]]}\n'


def imported(args, stdin=""):
    """The modules that ``python -X importtime *args`` imports, and its exit code."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          input=stdin, capture_output=True, text=True, env=ENV, timeout=120)
    names = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return names, done.returncode


def loaded_by(*argv, stdin=""):
    """The modules that ``python -m spinorlab.cli *argv`` imports, and its exit code."""
    return imported(["-m", "spinorlab.cli", *argv], stdin)


@functools.cache
def make_and_csv():
    """What only ``make`` and CSV input load, less what ``python -c pass`` loads on this host.

    A site ``.pth`` file may load any module at start-up.
    """
    bare, code = imported(["-c", "pass"])
    assert code == 0
    return {"spinorlab.make", "csv", "cmath"} - bare


@pytest.mark.parametrize("command", ["classify", "map-check"])
def test_classify_and_map_check_load_none_of_the_on_use_modules(command):
    modules, code = loaded_by(command, "-", stdin=RECORD)
    assert code == 0
    assert {"spinorlab.classify", "spinorlab.mapping"} <= modules
    assert not modules & ON_USE
    assert not modules & make_and_csv()


def test_the_cli_module_and_its_parser_load_none_of_the_on_use_modules():
    modules, code = imported(["-c", "import spinorlab.cli as c; c.build_parser()"])
    assert code == 0
    assert {"spinorlab.cli", "spinorlab.blades", "spinorlab.gamma"} <= modules
    assert not modules & ON_USE


def test_csv_input_loads_csv_and_nothing_else_of_make():
    modules, code = loaded_by("classify", "-", stdin="1,0,0,0,0,1,0,0\n")
    assert code == 0
    assert modules & make_and_csv() == {"csv"} & make_and_csv()


def test_hopf_loads_hopf_and_the_algebra_but_not_elko_or_verify():
    modules, code = loaded_by("hopf", "-", stdin=RECORD)
    assert code == 0
    assert {"spinorlab.hopf", "spinorlab.algebra"} <= modules
    assert not modules & {"spinorlab.elko", "spinorlab.verify"}
    assert not modules & make_and_csv()


def test_make_loads_the_builders_and_not_verify():
    modules, code = loaded_by("make", "elko")
    assert code == 0
    assert {"spinorlab.elko", "spinorlab.make"} <= modules
    assert "spinorlab.cli" not in modules  # the running copy is __main__; a second would rerun it
    assert not modules & {"spinorlab.algebra", "spinorlab.flagdipole", "spinorlab.hopf",
                          "spinorlab.verify"}
    modules, code = loaded_by("make", "flagdipole", "--u", "0.3,0.4,0.866025403784")
    assert code == 0
    assert {"spinorlab.algebra", "spinorlab.flagdipole", "spinorlab.hopf"} <= modules
    assert "spinorlab.verify" not in modules


@pytest.mark.parametrize("suite", ["fierz", "hopf", "projectors", "mapping"])
def test_a_verify_suite_run_as_main_never_imports_the_cli_module(suite):
    modules, code = loaded_by("verify", suite, "--samples", "10")
    assert code == 0
    assert "spinorlab.verify" in modules
    assert "spinorlab.cli" not in modules  # the running copy is __main__; a second would rerun it


# the on-use modules each verify suite loads: the suites, and the kernels it runs
SUITE_MODULES = {
    "fierz": {"spinorlab.verify"},
    "mapping": {"spinorlab.verify"},
    "hopf": {"spinorlab.verify", "spinorlab.hopf", "spinorlab.algebra"},
    "projectors": {"spinorlab.verify", "spinorlab.flagdipole", "spinorlab.hopf", "spinorlab.algebra"},
}


# a seeded suite needs no numpy generator, nor the OpenSSL entropy behind numpy.random's seeding
NEVER_BY_VERIFY = {"numpy.random", "secrets", "hmac", "_hashlib"}


@pytest.mark.parametrize("suite", list(SUITE_MODULES))
def test_each_verify_suite_loads_only_its_own_kernels(suite):
    modules, code = loaded_by("verify", suite, "--samples", "10")
    assert code == 0
    assert modules & ON_USE == SUITE_MODULES[suite]
    assert not modules & NEVER_BY_VERIFY
    assert not modules & make_and_csv()


PACKAGE_PROBE = """
import importlib, json, sys
import spinorlab
fresh = sorted(m for m in sys.modules if m.startswith("spinorlab"))
fresh_dir = dir(spinorlab)
from spinorlab import bilinears, classify
shadowed = [callable(bilinears), callable(classify)]

def source(name, module):
    found = importlib.import_module(f"spinorlab.{module}")
    return found if name == module else getattr(found, name)

mismatched = [name for name, module in spinorlab._LAZY.items()
              if getattr(spinorlab, name) is not source(name, module)]
try:
    spinorlab.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
from spinorlab import elko
star = {}
exec("from spinorlab import *", star)
print(json.dumps({"fresh": fresh, "fresh_dir": fresh_dir, "all": spinorlab.__all__,
                  "shadowed": shadowed, "mismatched": mismatched, "missing": missing,
                  "elko": elko.__name__, "listed": sorted(set(spinorlab._LAZY) - set(dir(spinorlab))),
                  "unstarred": sorted({*spinorlab._LAZY, "elko", "flagdipole", "hopf"} - set(star))}))
"""

# ``spinorlab.__all__`` when every module loaded with the package, which is what it stays
EXPORTED = {
    "BLADE_NAMES", "BilinearInconsistencyError", "BilinearSet", "ConditionReport",
    "DegenerateProbeError", "E0", "E1", "E2", "E3", "ElkoSpinor", "FlagDipoleFrame",
    "GRADE_2_PAIRS", "GammaRep", "HopfPoint", "LounestoClass", "METRIC_SIGNS", "Multivector",
    "NullSpinorError", "PSEUDOSCALAR", "QUAT_I", "QUAT_J", "QUAT_K", "Quaternion",
    "QuaternionPair", "SIMILARITY", "SingularSpinorError", "SpinorC4", "WeylC2", "aggregate",
    "aggregate_matrix_residual", "algebra", "annihilator_residuals", "basis_vectors", "bilinears",
    "charge_conjugation", "class_limit", "classify", "column_fiber_action", "column_to_even",
    "column_to_quaternions", "dirac_adjoint_mv", "dirac_from_left", "dirac_with_phase",
    "direction_class", "direction_element", "doran_h", "elko", "elko_boost", "elko_dual",
    "elko_map_conditions", "elko_mixture_direction", "elko_quartet", "elko_rest", "even_to_column",
    "even_to_ideal", "even_to_quaternions", "fierz_residuals", "flagdipole", "frame_from_bilinears",
    "gamma", "gamma_rep", "generalized_fierz_residuals", "helicity_eigenspinor", "hopf",
    "hopf_from_components", "hopf_map", "hopf_map_unnormalized", "hopf_routes_report",
    "ideal_projector", "ideal_to_column", "instanton_obstruction", "is_boomerang", "lcontract",
    "majorana_from_weyl", "mappability", "mapping", "minkowski_square", "penrose_flag",
    "penrose_pole", "pq_operators", "projection_spinor", "projector_idempotency_residual",
    "quaternions_to_column", "reconstruct", "sigma_projector", "sigma_projector_matrix",
    "synthetic_frame", "type4_boomerang", "validate_direction", "verify_class_relations", "wedge",
    "weyl_spinor",
}
# what ``dir(spinorlab)`` lists besides those names after ``import spinorlab``, where the
# three on-use submodules are not loaded; ``blades`` is the one submodule new to the list
MODULE_NAMES = {
    "_LAZY", "__all__", "__builtins__", "__cached__", "__dir__", "__doc__", "__file__",
    "__getattr__", "__loader__", "__name__", "__package__", "__path__", "__spec__", "__version__",
    "_import_module", "blades",
}


def test_the_package_serves_each_lazy_name_from_its_submodule():
    done = subprocess.run([sys.executable, "-c", PACKAGE_PROBE], capture_output=True, text=True,
                          env=ENV, timeout=120, check=True)
    got = json.loads(done.stdout)
    assert not {"spinorlab.algebra", "spinorlab.elko", "spinorlab.flagdipole",
                "spinorlab.hopf"} & set(got["fresh"])
    assert got["shadowed"] == [True, True]  # the functions, not their submodules
    assert got["mismatched"] == []
    assert got["missing"] == "module 'spinorlab' has no attribute 'no_such_name'"
    assert got["elko"] == "spinorlab.elko"
    assert got["listed"] == []
    assert got["unstarred"] == []
    assert len(got["all"]) == len(EXPORTED) == 92 and set(got["all"]) == EXPORTED
    assert got["fresh_dir"] == sorted(EXPORTED - {"elko", "flagdipole", "hopf"} | MODULE_NAMES)


def test_the_algebra_reexports_the_blade_tables_as_the_same_objects():
    from spinorlab import algebra, blades

    names = ("METRIC_SIGNS", "BLADES", "BLADE_INDEX", "BLADE_GRADES", "BLADE_NAMES", "DIM",
             "GRADE_2_PAIRS", "PRODUCT_INDEX", "PRODUCT_SIGN", "_PRODUCT_SOURCE", "product_array")
    assert [name for name in names if getattr(algebra, name) is not getattr(blades, name)] == []

"""Which modules each subcommand and ``import spinorlab`` load: spinorlab's, ``csv`` and ``cmath``.

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
ON_USE = {"spinorlab.elko", "spinorlab.flagdipole", "spinorlab.hopf", "spinorlab.make",
          "spinorlab.verify"}
RECORD = '{"components": [[1, 0], [0, 0], [0, 1], [0, 0]]}\n'


def loaded_by(*argv, stdin=""):
    """The modules that ``python -m spinorlab.cli *argv`` imports, and its exit code."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "spinorlab.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=ENV, timeout=120)
    names = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return names, done.returncode


@functools.cache
def make_and_csv():
    """What only ``make`` and CSV input load, less what ``python -c pass`` loads on this host.

    A site ``.pth`` file may load any module at start-up.
    """
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"], capture_output=True,
                          text=True, env=ENV, timeout=120, check=True)
    bare = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}
    return {"spinorlab.make", "csv", "cmath"} - bare


@pytest.mark.parametrize("command", ["classify", "map-check"])
def test_classify_and_map_check_load_none_of_the_on_use_modules(command):
    modules, code = loaded_by(command, "-", stdin=RECORD)
    assert code == 0
    assert {"spinorlab.classify", "spinorlab.mapping"} <= modules
    assert not modules & ON_USE
    assert not modules & make_and_csv()


def test_csv_input_loads_csv_and_nothing_else_of_make():
    modules, code = loaded_by("classify", "-", stdin="1,0,0,0,0,1,0,0\n")
    assert code == 0
    assert modules & make_and_csv() == {"csv"} & make_and_csv()


def test_hopf_loads_hopf_but_not_elko_or_verify():
    modules, code = loaded_by("hopf", "-", stdin=RECORD)
    assert code == 0
    assert "spinorlab.hopf" in modules
    assert not modules & {"spinorlab.elko", "spinorlab.verify"}
    assert not modules & make_and_csv()


def test_make_loads_the_builders_and_not_verify():
    modules, code = loaded_by("make", "elko")
    assert code == 0
    assert {"spinorlab.elko", "spinorlab.make"} <= modules
    assert "spinorlab.cli" not in modules  # the running copy is __main__; a second would rerun it
    assert not modules & {"spinorlab.flagdipole", "spinorlab.hopf", "spinorlab.verify"}
    modules, code = loaded_by("make", "flagdipole", "--u", "0.3,0.4,0.866025403784")
    assert code == 0
    assert {"spinorlab.flagdipole", "spinorlab.hopf"} <= modules
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
    "hopf": {"spinorlab.verify", "spinorlab.hopf"},
    "projectors": {"spinorlab.verify", "spinorlab.flagdipole", "spinorlab.hopf"},
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
from spinorlab import bilinears, classify
shadowed = [callable(bilinears), callable(classify)]
mismatched = [name for name, module in spinorlab._LAZY.items()
              if getattr(spinorlab, name) is not getattr(importlib.import_module(f"spinorlab.{module}"), name)]
try:
    spinorlab.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
from spinorlab import elko
star = {}
exec("from spinorlab import *", star)
print(json.dumps({"fresh": fresh, "shadowed": shadowed, "mismatched": mismatched, "missing": missing,
                  "elko": elko.__name__, "listed": sorted(set(spinorlab._LAZY) - set(dir(spinorlab))),
                  "unstarred": sorted({*spinorlab._LAZY, "elko", "flagdipole", "hopf"} - set(star))}))
"""


def test_the_package_serves_each_lazy_name_from_its_submodule():
    done = subprocess.run([sys.executable, "-c", PACKAGE_PROBE], capture_output=True, text=True,
                          env=ENV, timeout=120, check=True)
    got = json.loads(done.stdout)
    assert not {"spinorlab.elko", "spinorlab.flagdipole", "spinorlab.hopf"} & set(got["fresh"])
    assert got["shadowed"] == [True, True]  # the functions, not their submodules
    assert got["mismatched"] == []
    assert got["missing"] == "module 'spinorlab' has no attribute 'no_such_name'"
    assert got["elko"] == "spinorlab.elko"
    assert got["listed"] == []
    assert got["unstarred"] == []


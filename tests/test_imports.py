"""Import hygiene of the package: no unused imports, and a light start-up.

No linter ships with the test dependencies, so this walks the syntax tree:
a name bound by an import statement has to appear somewhere in the module
as a plain name (an attribute access `np.exp` counts as a use of `np`).
`__init__.py` re-exports by importing and is exempt.

Importing scipy.optimize, .integrate, .interpolate or .constants costs more
than a closed-model command itself, so at import time the package may load
only the bare `scipy` package and scipy.special's modules; the
adaptive-quadrature fallbacks import scipy.integrate inside the function
that needs it. The scipy.special package itself (its `__init__` loads
scipy's array-API layer) is not loaded either: `sramyield._ufuncs` imports
only its compiled `_ufuncs` module, and subprocess checks below pin that
`ndtr` and `ndtri` are the package's own ufuncs in either import order, and
after a fallback loads the package mid-run. No module imports
scipy.optimize, at any level: `fit`, the ODE oracles and the closed-model
commands run without it, and `fit` without scipy.linalg too.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sramyield
from sramyield import yieldmodel
from sramyield.yieldmodel import OffsetVoltageDist

MODULES = sorted(p for p in Path(sramyield.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
SRC = Path(sramyield.__file__).parent.parent


def fresh(script, *args, flags=()):
    """The last line a fresh interpreter prints running `script`, which must
    exit 0."""
    proc = subprocess.run([sys.executable, *flags, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(SRC), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = "import os.path\nfrom math import pi, tau as t\nprint(os, t)\n"
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def heavy_scipy_imports(source):
    """scipy modules other than the bare package and scipy.special's that the
    module imports outside function bodies, that is, when it is itself
    imported."""
    found, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{a.name}" for a in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return sorted(name for name in found if name.partition(".")[0] == "scipy"
                  and name != "scipy" and not f"{name}.".startswith("scipy.special."))


def test_checker_flags_a_heavy_scipy_import():
    source = ("import scipy, scipy.optimize, scipy.special\nfrom scipy.special import ndtr\n"
              "from scipy import integrate, special\nimport scipy._lib\n"
              "def f():\n    from scipy.optimize import brentq\n")
    assert heavy_scipy_imports(source) == ["scipy._lib", "scipy.integrate", "scipy.optimize"]


@pytest.mark.parametrize("path", sorted(Path(sramyield.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_scipy_is_special_only(path):
    assert heavy_scipy_imports(path.read_text()) == []


def scipy_optimize_imports(source):
    """Every import of scipy.optimize in the module, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return sorted({name for name in found
                   if name == "scipy.optimize" or name.startswith("scipy.optimize.")})


def test_checker_flags_scipy_optimize_at_any_level():
    source = ("import scipy.special\nfrom scipy import integrate\n"
              "def f():\n    import scipy.optimize._optimize\n"
              "class C:\n    def g(self):\n        from scipy import optimize\n")
    assert scipy_optimize_imports(source) == ["scipy.optimize", "scipy.optimize._optimize"]


@pytest.mark.parametrize("path", sorted(Path(sramyield.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_fitting_imports_scipy_optimize(path):
    # named for the fit's former exemption: now no module, fitting.py included
    assert scipy_optimize_imports(path.read_text()) == []


CLOSED_COMMANDS = """
import sys
from sramyield.cli import main

out = sys.argv[1]
for argv in (
    ["characterize", "--mode", "access", "--n", "100"],
    ["yield", "--characterization", out + "/characterization.json", "--target", "1e-3"],
    ["sweep", "--axis", "vwl", "--mode", "access", "--values", "0.6,0.55", "--char-n", "100"],
    ["sweep", "--axis", "vdd", "--mode", "write", "--values", "0.7,0.6", "--char-n", "200"],
    ["compare", "--mode", "write", "--constraints", "2e-11", "--n", "2000", "--char-n", "200"],
):
    assert main(["--out-dir", out, *argv]) == 0, argv
heavy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.constants",
         "scipy._lib._array_api", "scipy.special._basic")
print([name for name in heavy if name in sys.modules])
"""


def test_closed_model_commands_load_only_scipy_special(tmp_path):
    assert fresh(CLOSED_COMMANDS, tmp_path) == "[]"


ODE_COMMANDS = """
import sys
from sramyield.cli import main

out = sys.argv[1]
for argv in (
    ["mc", "--oracle", "ode", "--mode", "write", "--n", "200", "--t-write", "2e-11"],
    ["compare", "--oracle", "ode", "--mode", "write", "--constraints", "2e-11", "--n", "200",
     "--char-n", "200"],
    ["compare", "--oracle", "ode", "--mode", "access", "--constraints", "1.2e-10",
     "--n", "200", "--char-n", "200"],
):
    assert main(["--out-dir", out, *argv]) == 0, argv
heavy = ("scipy.optimize", "scipy.interpolate", "scipy.constants", "scipy._lib._array_api",
         "scipy.special._basic")
print([name for name in heavy if name in sys.modules])
"""


def test_ode_commands_do_not_load_scipy_optimize(tmp_path):
    assert fresh(ODE_COMMANDS, tmp_path) == "[]"


FIT_COMMANDS = """
import sys
from sramyield.cli import main

out, iv = sys.argv[1:]
for argv in (["fit", "--iv", iv], ["fit", "--iv", iv, "--fit-n"],
             ["fit", "--iv", iv, "--emit-iv", "iv_fit.csv"]):
    assert main(["--out-dir", out, *argv]) == 0, argv
heavy = ("scipy.optimize", "scipy.linalg", "scipy._lib._array_api", "scipy.special._basic")
print([name for name in heavy if name in sys.modules])
"""


def test_fit_loads_neither_scipy_optimize_nor_linalg(tmp_path):
    iv = Path(sramyield.__file__).parent / "data" / "nch_svt_iv.csv"
    assert fresh(FIT_COMMANDS, tmp_path, iv) == "[]"
    assert (tmp_path / "iv_fit.csv").exists()


LIGHT_START = """
import sys
import sramyield.cli
from sramyield import artifacts

print([name for name in ("fractions", "decimal") if name in sys.modules],
      artifacts._text_tables.cache_info().currsize)
"""


def test_start_up_loads_no_exact_arithmetic_and_builds_no_text_tables():
    assert fresh(LIGHT_START) == "[] 0"


# pytest's own process has loaded the whole scipy.special package (the
# IntegrationWarning filter in pyproject.toml imports scipy.integrate), so
# the loader's stub path runs only in fresh processes like these.
UFUNCS_ONLY = """
import sys
import scipy
import sramyield.cli

print([name for name in ("scipy.special", "scipy._lib._array_api", "scipy.special._basic")
       if name in sys.modules], "special" in vars(scipy), "scipy.special._ufuncs" in sys.modules)
"""


def test_start_up_loads_the_ufuncs_not_the_scipy_special_package():
    assert fresh(UFUNCS_ONLY) == "[] False True"


SAME_UFUNCS = """
import sys
from sramyield import mc, yieldmodel
import scipy.special

print(mc.ndtri is scipy.special.ndtri, yieldmodel.ndtr is scipy.special.ndtr,
      yieldmodel.ndtri is scipy.special.ndtri, sys.modules["scipy.special"] is scipy.special,
      hasattr(scipy.special, "gamma"))
"""


@pytest.mark.parametrize("first", ["loader", "scipy.special"])
def test_ufuncs_are_scipy_specials_in_either_import_order(first):
    script = SAME_UFUNCS
    if first == "scipy.special":
        script = "import scipy.special\n" + script
    assert fresh(script) == "True True True True True"


QUAD_AFTER_LOADER = """
import sys
import sramyield.cli
from sramyield import mc, yieldmodel
from sramyield.yieldmodel import DeltaVDistribution, OffsetVoltageDist

assert "scipy.special" not in sys.modules and "scipy.integrate" not in sys.modules
offset = OffsetVoltageDist(mu_vos=0.05, sigma_vos=0.005)
got = yieldmodel.access_fail_prob_ber(DeltaVDistribution(mu_delta=0.2, sigma_delta=1e-4), offset)
special = sys.modules["scipy.special"]
print("scipy.integrate" in sys.modules, mc.ndtri is special.ndtri,
      yieldmodel.ndtr is special.ndtr, hasattr(special, "gamma"), repr(got))
"""


def test_quad_fallback_after_the_loader():
    # the steep pair of test_steep_pair_falls_back_to_quad: its fallback
    # imports scipy.integrate, and with it the whole scipy.special, mid-run
    offset = OffsetVoltageDist(mu_vos=0.05, sigma_vos=0.005)
    *flags, got = fresh(QUAD_AFTER_LOADER, flags=["-W", "error::RuntimeWarning"]).split()
    assert flags == ["True"] * 4
    assert float(got) == yieldmodel._ber_quad(0.2, 1e-4, offset)

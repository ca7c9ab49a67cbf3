"""Import hygiene of the package: no unused imports, and a light start-up.

No linter ships with the test dependencies, so this walks the syntax tree:
a name bound by an import statement has to appear somewhere in the module
as a plain name (an attribute access `np.exp` counts as a use of `np`).
`__init__.py` re-exports by importing and is exempt.

Importing scipy.optimize, .integrate, .interpolate or .constants costs more
than a closed-model command itself, so the package imports only the bare
`scipy` package and scipy.special's compiled `_ufuncs` module, at any level:
nothing at start-up and nothing mid-run, in a function body. The
scipy.special package itself (its `__init__` loads scipy's array-API layer)
is not loaded either: `sramyield._ufuncs` imports only that module, and
subprocess checks below pin that `ndtr` and `ndtri` are the package's own
ufuncs in either import order. Every integral runs on the package's own
fixed Gauss-Legendre rules: `fit`, the ODE oracles, the closed-model
commands and the inputs that take the deeper rules (steep BER pairs,
low-vdd write cells, write lanes near r_crit) load neither scipy.integrate
nor scipy.optimize, and `fit` not scipy.linalg either.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

import sramyield
from sramyield import transients
from sramyield.devices import gate_polynomial, thermal_voltage
from sramyield.transients import load_default_cell

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


LIGHT_SCIPY = ("scipy", "scipy.special._ufuncs")


def scipy_imports(source):
    """(name, lazy) of every scipy module the module imports, at any level,
    other than LIGHT_SCIPY; `lazy` marks an import inside a function body,
    which runs mid-command."""
    found, todo = [], [(ast.parse(source), False)]
    while todo:
        node, lazy = todo.pop()
        if isinstance(node, ast.Import):
            found += [(a.name, lazy) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(f"{node.module}.{a.name}", lazy) for a in node.names]
        lazy = lazy or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        todo.extend((child, lazy) for child in ast.iter_child_nodes(node))
    return sorted({(name, lazy) for name, lazy in found
                   if name.partition(".")[0] == "scipy" and name not in LIGHT_SCIPY})


def test_checker_flags_a_heavy_scipy_import():
    source = ("import scipy, scipy.optimize, scipy.special\n"
              "from scipy.special import ndtr, _ufuncs\n"
              "from scipy import integrate\nimport scipy._lib\n")
    assert scipy_imports(source) == [(name, False) for name in (
        "scipy._lib", "scipy.integrate", "scipy.optimize", "scipy.special",
        "scipy.special.ndtr")]


def test_checker_flags_scipy_optimize_at_any_level():
    source = ("from scipy.special import _ufuncs\n"
              "def f():\n    import scipy.optimize._optimize\n"
              "class C:\n    def g(self):\n        from scipy import integrate, optimize\n")
    assert scipy_imports(source) == [("scipy.integrate", True), ("scipy.optimize", True),
                                     ("scipy.optimize._optimize", True)]


@pytest.mark.parametrize("path", sorted(Path(sramyield.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_scipy_is_special_only(path):
    assert [name for name, lazy in scipy_imports(path.read_text()) if not lazy] == []


@pytest.mark.parametrize("path", sorted(Path(sramyield.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_fitting_imports_scipy_optimize(path):
    # named for the fit's former exemption: now no module imports any scipy
    # module in a function body, scipy.optimize and scipy.integrate included
    assert [name for name, lazy in scipy_imports(path.read_text()) if lazy] == []


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
heavy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.constants",
         "scipy._lib._array_api", "scipy.special._basic")
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


DEEPER_RULES = """
import json
import sys
from sramyield import transients, yieldmodel
from sramyield.cli import main
from sramyield.transients import load_default_cell, write_time_ode

calls = []
for module, name in ((yieldmodel, "_ber_steep"), (transients, "_deep_write_integrals")):
    real = getattr(module, name)
    setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
out, vth_p = sys.argv[1], float(sys.argv[2])
with open(out + "/steep.json", "w") as fh:  # sigma_delta 1e-5 at the bundled offset
    json.dump({"schema": 1, "kind": "access_characterization",
               "rows": [{"t_read": 1e-10, "mu_delta": 0.15, "sigma_delta": 1e-5},
                        {"t_read": 2e-10, "mu_delta": 0.16, "sigma_delta": 1e-5}]}, fh)
took = []
for argv in (
    ["yield", "--characterization", out + "/steep.json", "--constraints", "1e-10"],
    ["sweep", "--axis", "vdd", "--mode", "write", "--values", "0.7,1e-3", "--char-n", "200"],
):
    assert main(["--out-dir", out, *argv]) == 0, argv
    took.append(sorted(set(calls)))
    calls.clear()
assert 0.0 < write_time_ode(load_default_cell(), 0.38, vth_p, 1.0) < 1.0
took.append(calls)
print(took, [name for name in ("scipy.integrate", "scipy.optimize") if name in sys.modules])
"""


def test_deeper_rules_load_neither_scipy_integrate_nor_optimize(tmp_path):
    # a steep BER pair, a write cell at vdd = 1e-3 and a write lane at
    # 1 - 1e-10 of r_crit each take a deeper fixed rule, in this process
    cell = load_default_cell()
    vt = thermal_voltage(cell.temperature_c)
    r_crit, _ = transients._critical_ratio(cell)
    target = gate_polynomial(cell.nmos, cell.vwl, vt, 0.38) + math.log((1 - 1e-10) * r_crit)
    vth_p = brentq(lambda v: gate_polynomial(cell.pmos, cell.vddc, vt, v) - target, 0.0, 1.0,
                   xtol=1e-15, rtol=1e-15)
    got = fresh(DEEPER_RULES, tmp_path, repr(vth_p), flags=["-W", "error::RuntimeWarning"])
    assert got == ("[['_ber_steep'], ['_deep_write_integrals'], ['_deep_write_integrals']] "
                   "[]")

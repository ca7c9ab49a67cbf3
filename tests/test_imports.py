"""Import hygiene of the package: no unused imports, and a light start-up.

No linter ships with the test dependencies, so this walks the syntax tree:
a name bound by an import statement has to appear somewhere in the module
as a plain name (an attribute access `np.exp` counts as a use of `np`).
`__init__.py` re-exports by importing and is exempt.

Importing scipy.optimize, .integrate, .interpolate or .constants costs more
than a closed-model command itself, so at import time the package may load
only scipy.special; the adaptive-quadrature fallbacks import scipy.integrate
inside the function that needs it. No module imports scipy.optimize, at any
level: `fit`, the ODE oracles and the closed-model commands run without it,
and `fit` without scipy.linalg too.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sramyield

MODULES = sorted(p for p in Path(sramyield.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
    """scipy modules other than scipy.special that the module imports outside
    function bodies, that is, when it is itself imported."""
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
                  and not f"{name}.".startswith("scipy.special."))


def test_checker_flags_a_heavy_scipy_import():
    source = ("import scipy.optimize, scipy.special\nfrom scipy.special import ndtr\n"
              "from scipy import integrate\n"
              "def f():\n    from scipy.optimize import brentq\n")
    assert heavy_scipy_imports(source) == ["scipy.integrate", "scipy.optimize"]


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
heavy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.constants")
print([name for name in heavy if name in sys.modules])
"""


def test_closed_model_commands_load_only_scipy_special(tmp_path):
    src = str(Path(sramyield.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", CLOSED_COMMANDS, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": src, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
heavy = ("scipy.optimize", "scipy.interpolate", "scipy.constants")
print([name for name in heavy if name in sys.modules])
"""


def test_ode_commands_do_not_load_scipy_optimize(tmp_path):
    src = str(Path(sramyield.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", ODE_COMMANDS, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": src, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


FIT_COMMANDS = """
import sys
from sramyield.cli import main

out, iv = sys.argv[1:]
for argv in (["fit", "--iv", iv], ["fit", "--iv", iv, "--fit-n"],
             ["fit", "--iv", iv, "--emit-iv", "iv_fit.csv"]):
    assert main(["--out-dir", out, *argv]) == 0, argv
print([name for name in ("scipy.optimize", "scipy.linalg") if name in sys.modules])
"""


def test_fit_loads_neither_scipy_optimize_nor_linalg(tmp_path):
    src = Path(sramyield.__file__).parent
    proc = subprocess.run([sys.executable, "-c", FIT_COMMANDS, str(tmp_path),
                           str(src / "data" / "nch_svt_iv.csv")],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(src.parent), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "iv_fit.csv").exists()


LIGHT_START = """
import sys
import sramyield.cli
from sramyield import artifacts

print([name for name in ("fractions", "decimal") if name in sys.modules],
      artifacts._text_tables.cache_info().currsize)
"""


def test_start_up_loads_no_exact_arithmetic_and_builds_no_text_tables():
    src = str(Path(sramyield.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", LIGHT_START], capture_output=True, text=True,
                          timeout=300, env={"PYTHONPATH": src, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0"

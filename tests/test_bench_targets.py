"""The traced benchmark run wraps sramyield functions by name, from outside.

`bench/spans.py` lists them in TARGETS as (module, attribute) pairs and
rebinds them at run time; a name that a refactor moves or renames breaks
the traced run, which lies outside this suite. Here every pair must resolve.
"""

import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def spans_targets():
    """TARGETS of bench/spans.py, executed from its source: nothing is written
    next to it."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = [(module, attr) for module, attr, *_ in spans_targets()]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves(module, attr):
    mod = importlib.import_module(f"sramyield.{module}")
    if "." in attr:  # wrapped on the class, so it must be the class's own
        cls_name, method = attr.split(".")
        assert method in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))


def test_export_rows_are_counted_from_vth_n():
    # spans counts exported rows as len() of the second argument
    from sramyield.mc import export_samples

    assert list(inspect.signature(export_samples).parameters)[1] == "vth_n"

"""Artifact boundary: every JSON and CSV file the workbench reads or writes.

Input artifacts (device, cell, variation, distribution JSON) are read with
`read_json` and built under `parsing`, which turns malformed content into
ParseError (CLI exit 2) while the constructors' own domain checks pass
through unchanged. Outputs go through `write_json` and `write_csv`, so every
CSV starts with the same manifest line.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from importlib import resources

from .errors import ParseError, WorkbenchError

MANIFEST_LINE = "# manifest: manifest.json\n"


@contextmanager
def parsing(what):
    """Map a missing key or a wrong type while building `what` to ParseError."""
    try:
        yield
    except WorkbenchError:
        raise  # DomainError and ParseError are ValueErrors with their own exit codes
    except KeyError as missing:
        raise ParseError(f"{what} is missing key {missing}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from None


def read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def bundled_json(name):
    """A JSON file of the package's bundled data."""
    return json.loads(resources.files("sramyield.data").joinpath(name).read_text())


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, lines):
    """Manifest line, header, then `lines`, each already ending in a newline."""
    try:
        with open(path, "w") as fh:
            fh.write(MANIFEST_LINE)
            fh.write(header + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc

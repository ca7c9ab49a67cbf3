"""Artifact boundary: every JSON and CSV file the workbench reads or writes.

The JSON records (device, cell, variation, offset and distribution files,
and the fit report) derive from `Record`, which holds their whole format:
each field is written under its key and read back by its annotation, a
number as a JSON number and never as a bool or a string, and a missing
optional key takes the dataclass default. `json_value` is that per-value
check, for the one record whose layout is written by hand (the
characterization table's rows). Input files are read with `read_json` and
built under `parsing`, which turns malformed content into ParseError (CLI
exit 2) while the constructors' own domain checks pass through unchanged.
Outputs go through `write_json` and `csv_file` (or `write_csv`, its one-call
form), so every CSV starts with the same manifest line, and each writer
hashes its bytes with SHA-256 as it writes them, so a file need not be read
back for its digest. `csv_rows` renders numeric columns as CSV text in bulk,
each float as its `repr`, and `csv_text` feeds it a table in chunks of rows.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import typing
from contextlib import contextmanager, suppress
from importlib import resources

import numpy as np

from .errors import ParseError, WorkbenchError

MANIFEST_LINE = "# manifest: manifest.json\n"
# rows per csv_text chunk: the stacked float temporaries of a samples export
# (3 columns x 2048 rows x 8 bytes) stay below glibc's 128 KiB mmap
# threshold; 4096 rows read 2.7 MB more peak RSS on the verify-closed
# benchmark on a 2-core Xeon and 1024 no less, and a whole column's text
# would cost 100s of MB
_EXPORT_ROWS = 2048


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


_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               str: (str, "a string"), bool: (bool, "true or false")}


def json_value(value, kind, what):
    """`value` of a JSON artifact as a `kind` (float, int, str or bool), or
    TypeError naming `what`. A float takes a JSON number, int or float, and
    an int a JSON integer; a bool is neither, though Python's bool is an int."""
    return _value_reader(kind, what)(value)


@functools.cache
def _value_reader(kind, what):
    """json_value(., kind, what) as a one-argument function."""
    types, name = _JSON_TYPES[kind]
    is_bool, to_float = kind is bool, kind is float

    def read(value):
        if type(value) is kind:
            return value
        if not isinstance(value, types) or isinstance(value, bool) != is_bool:
            raise TypeError(f"{what} must be {name}, got {value!r}")
        return float(value) if to_float else value

    return read


class Record:
    """Base of the JSON record dataclasses: their one writer and one reader.

    `to_dict` writes the class's constant tags `_JSON` (schema, kind), then
    every field under its key, the field name unless `metadata["key"]` gives
    another, and a nested record as an object. `from_dict` reads every field
    by its annotation under `parsing(_WHAT)`: float, int, str and bool through
    `json_value`, `X | None` also from null, and a Record recursively. A
    missing key takes the dataclass default; a key without one is missing.
    """

    _JSON = {}
    _WHAT = "JSON"

    def to_dict(self):
        out = dict(self._JSON)
        for key, name, _, _ in _fields(type(self)):
            value = getattr(self, name)
            out[key] = value.to_dict() if isinstance(value, Record) else value
        return out

    @classmethod
    def from_dict(cls, obj):
        fields = _fields(cls)
        with parsing(cls._WHAT):
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            kwargs = {}
            for key, name, read, required in fields:
                if key in obj:
                    kwargs[name] = read(obj[key])
                elif required:
                    raise KeyError(key)
            return cls(**kwargs)


@functools.cache
def _fields(cls):
    """(key, name, read, required) of each field of a Record class, resolved
    once per class (the annotations are strings until then): `read` turns the
    key's JSON value into the field's value."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        key, kind = f.metadata.get("key", f.name), hints[f.name]
        args = typing.get_args(kind)
        nullable = type(None) in args
        if nullable:
            (kind,) = (a for a in args if a is not type(None))
        read = kind.from_dict if issubclass(kind, Record) else _value_reader(kind, key)
        if nullable:
            read = functools.partial(_or_none, read)
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        out.append((key, f.name, read, required))
    return tuple(out)


def _or_none(read, value):
    return None if value is None else read(value)


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
    """Write `obj` as indented JSON and return the SHA-256 hex digest of the
    bytes written."""
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _cannot_write(path, exc):
    return ParseError(f"cannot write {path}: {exc}")


@contextmanager
def csv_file(path, header, digest=None):
    """Open `path` for a CSV, write the manifest line and `header`, and yield
    write(text) for the rest, text (bytes or str) ending in a newline. Every
    byte written is fed to `digest`, a hashlib object, if one is given.

    Only an OSError of opening, writing or closing the file becomes
    ParseError; whatever the body raises keeps its type. If anything fails,
    the partial file is removed (if it is a regular file, not a device such
    as /dev/null) before the error propagates.
    """
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc

    def write(text):
        data = text.encode() if isinstance(text, str) else text
        try:
            fh.write(data)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
        if digest is not None:
            digest.update(data)

    try:
        write(MANIFEST_LINE + header + "\n")
        yield write
        try:
            fh.close()
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
    except BaseException:
        with suppress(OSError):
            fh.close()
        if os.path.isfile(path):
            with suppress(OSError):
                os.remove(path)
        raise


def write_csv(path, header, lines):
    """Manifest line, header, then `lines`, each already ending in a newline;
    returns the SHA-256 hex digest of the bytes written."""
    digest = hashlib.sha256()
    with csv_file(path, header, digest) as write:
        for line in lines:
            write(line)
    return digest.hexdigest()


# -- CSV text of numeric columns -----------------------------------------------------
#
# repr(x) of a double is the shortest decimal string that reads back as x, and
# the one closest to x if several are as short. It has at most 17 significant
# digits. A 15-digit string that reads back is unique, since 15-digit decimals
# lie farther apart than the two half-gaps around a double. So repr's digits
# are the 15-digit rounding of x if that reads back, else the 16-digit
# rounding if that reads back, else the 17-digit rounding (the "shortest, then
# closest" rule of Gay's dtoa and of Ryu; Adams, PLDI 2018). All three come
# from one double-double product p = |x| * 10**(16 - e), e = floor(log10 |x|),
# good to about 1e-14 in units of its last digit. repr itself formats the
# values this cannot decide: zero, subnormals, inf, nan and |x| outside
# [1e-280, 1e280] (so that Dekker's splits cannot overflow); a value within
# _TOL of a rounding tie or of a read-back boundary; and a power of two (whose
# lower half-gap is halved) unless its 15 digits are exact.
#
# A cell is a run of little-endian uint64 words whose bytes are the cell's
# text in order, interleaved with NUL bytes. A chunk of rows is its cells side
# by side, and dropping every NUL byte leaves the CSV text. A float cell is 32
# bytes: the integer digits from byte 7, the dot, the fraction digits up to
# byte 24 and the exponent at 25-29, with the separator, the sign and any
# "0.000" just before the first digit (ending at byte 6, or at byte 7 where
# "0.000" holds the dot). Dropping the NUL bytes costs about one copy per run
# of text, so a cell keeps its text in as few runs as it can.

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_TOL = 1e-6  # margin around a tie or a read-back boundary, in units of p's last digit
_E_MAX = 280  # |x| in [10**-_E_MAX, 10**_E_MAX] is formatted here, the rest by repr
_E_LO = -_E_MAX - 2  # decimal exponents the tables cover, with slack for the fix-ups
_E_HI = _E_MAX + 2
_DIGIT0 = 7  # byte of a float cell that holds the leading digit
_WORD = np.dtype("<u8")


def _words(chunks, size=8):
    """Words of byte strings, each NUL-padded to `size` bytes."""
    return np.frombuffer(b"".join(c.ljust(size, b"\0") for c in chunks), dtype=_WORD)


def _word_columns(chunks):
    """Word 0, 1, 2 and 3 of 32-byte strings, as four arrays."""
    w = _words(chunks, 32).reshape(-1, 4)
    return tuple(np.ascontiguousarray(w[:, j]) for j in range(4))


def _span(a, b, fill=b"\xff"):
    """`fill` at bytes [a, b), NUL before."""
    return b"\0" * a + fill * (b - a)


@functools.cache
def _text_tables():
    """Built on the first call of csv_rows, not at import."""
    t = {}
    ks = range(16 - _E_HI, 17 - _E_LO)
    hi, lo = [], []
    for k in ks:  # 10**k = hi + lo, from exact integers (int / int rounds correctly)
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    t["pow_hi"], t["pow_lo"], t["pow_k0"] = np.array(hi), np.array(lo), ks[0]
    s = _SPLIT * t["pow_hi"]  # Dekker's split of each hi, for _scaled
    t["pow_hi_big"] = s - (s - t["pow_hi"])
    t["pow_hi_small"] = t["pow_hi"] - t["pow_hi_big"]
    quads = [b"%04d" % i for i in range(10000)]  # 4-digit ASCII groups
    t["quad_lo"] = _words(quads)  # at bytes 0-3 of a word
    t["quad_hi"] = _words(b"\0\0\0\0" + q for q in quads)  # at bytes 4-7
    t["quad_zeros"] = np.array([len(q) - len(q.rstrip(b"0")) for q in quads])
    # repr's layout by decimal exponent e: fixed for -4 <= e < 16, else d.ddde+XX
    es = range(_E_LO, _E_HI + 1)
    fixed = [-4 <= e < 16 for e in es]
    t["whole"] = np.array([max(e + 1, 0) if f else 1 for e, f in zip(es, fixed)])
    t["min_end"] = np.array([e + 2 if f and e >= 0 else 0 for e, f in zip(es, fixed)])
    lead = [b"0." + b"0" * (-e - 1) if f and e < 0 else b"" for e, f in zip(es, fixed)]
    t["prefix"] = _words((sep + sign + z).rjust(_DIGIT0 + bool(z), b"\0")
                         for z in lead for sep in (b"", b",") for sign in (b"", b"-"))
    t["exponent"] = _words(b"\0" if f else b"\0e%+03d" % e for e, f in zip(es, fixed))
    # with digit i at byte 7 + i: digits [0, whole) of the integer part, and
    # (shifted one byte on) the dot and digits [whole, end) of the fraction
    t["int_mask"] = _word_columns(_span(_DIGIT0, _DIGIT0 + w) for w in range(18))
    pairs = [(w, end) for w in range(18) for end in range(18)]
    t["frac_mask"] = _word_columns(_span(_DIGIT0 + 1 + w, _DIGIT0 + 1 + max(w, end))
                                   for w, end in pairs)
    t["dot"] = _word_columns(_span(_DIGIT0 + w, _DIGIT0 + w + 1, b".") if 0 < w < end else b""
                             for w, end in pairs)
    t["int_keep"] = _word_columns(_span(first, 24) for first in range(25))
    t["pow10"] = 10 ** np.arange(1, 19, dtype=np.int64)
    t["comma"], t["newline"] = _words([b",", b"\n"])
    t["bool"] = _words([b"\x000", b"\x001"])
    t["bool_end"] = _words([b"\x000\n", b"\x001\n"])  # a bool that ends its row
    return t


def _scaled(ax, e, t):
    """(F, f, hi): p = ax * 10**(16 - e) = F + f, F an integer and 0 <= f < 1,
    from the double-double product ax * (hi + lo)."""
    k = 16 - e - t["pow_k0"]
    hi, lo = t["pow_hi"][k], t["pow_lo"][k]
    hi_big, hi_small = t["pow_hi_big"][k], t["pow_hi_small"][k]
    p = ax * hi
    s = _SPLIT * ax
    a_big = s - (s - ax)
    a_small = ax - a_big
    err = ((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big) + a_small * hi_small
    rest = err + ax * lo
    whole = np.floor(rest)
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole, hi


def _shortest_digits(ax, t):
    """(d, e, undecided): repr's digits of each |x|, as the 17-digit integer d
    (padded with trailing zeros), and its decimal exponent e. Where
    `undecided`, d and e are meaningless and repr must be asked."""
    undecided = ~((ax >= 10.0**-_E_MAX) & (ax <= 10.0**_E_MAX))
    if undecided.any():
        ax = np.where(undecided, 1.0, ax)
    e = np.floor(np.log10(ax)).astype(np.int64)
    F, f, hi = _scaled(ax, e, t)
    off = (F >= 10**17).astype(np.int64) - (F < 10**16)  # log10 was off by one
    if off.any():
        i = np.flatnonzero(off)
        e[i] += off[i]
        F[i], f[i], hi[i] = _scaled(ax[i], e[i], t)
    bits = ax.view(np.uint64)
    ulp = ((bits & np.uint64(0x7FF0000000000000)) - np.uint64(52 << 52)).view(np.float64)
    half_gap = 0.5 * ulp * hi  # in units of p's last digit; above 0.55, so 17 digits read back
    q10, q100 = F // 10, F // 100
    r10 = (F - 10 * q10) + f  # p mod 10
    r100 = (F - 100 * q100) + f  # p mod 100
    miss16 = np.minimum(r10, 10.0 - r10) - half_gap  # < 0: the 16-digit rounding reads back
    miss15 = np.minimum(r100, 100.0 - r100) - half_gap
    ok16, ok15 = miss16 < 0.0, miss15 < 0.0
    margin = _TOL * half_gap
    # (a 15-digit tie is never taken: it lies 50 units off, the half-gap is below 11.1)
    undecided |= ((np.abs(miss15) < margin) | (np.abs(miss16) < margin)
                  | (ok16 & (np.abs(r10 - 5.0) < _TOL)) | (np.abs(f - 0.5) < _TOL))
    pow2 = (bits & np.uint64((1 << 52) - 1)) == 0
    if pow2.any():
        undecided |= pow2 & (r100 >= _TOL)  # decided only where 15 digits are exact
    d = F + (f > 0.5)
    np.copyto(d, (q10 + (r10 > 5.0)) * 10, where=ok16)
    np.copyto(d, (q100 + (r100 > 50.0)) * 100, where=ok15)
    carry = d == 10**17  # 9.99...95 rounded up to a new leading digit
    d[carry] = 10**16
    e += carry
    return d, e, undecided


def _float_cells(x, bare=0):
    """(len(x), 4) words holding repr(x[i]), after a ',' for i >= bare."""
    t = _text_tables()
    d, e, undecided = _shortest_digits(np.abs(x), t)
    lead = d // 10**16
    rest = d - lead * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g1, g3 = hi8 // 10**4, lo8 // 10**4
    g2, g4 = hi8 - g1 * 10**4, lo8 - g3 * 10**4
    z = t["quad_zeros"]
    zeros = z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1]))
    lo, hi = t["quad_lo"], t["quad_hi"]
    text = (hi[lead], lo[g1] | hi[g2], lo[g3] | hi[g4])  # digit i at byte 7 + i
    byte, last = np.uint64(8), np.uint64(56)
    shifted = (None, (text[1] << byte) | (text[0] >> last),  # digit i at byte 8 + i
               (text[2] << byte) | (text[1] >> last), text[2] >> last)
    ie = e - _E_LO
    whole = t["whole"][ie]
    frac = whole * 18 + np.maximum(17 - zeros, t["min_end"][ie])
    int_mask, frac_mask, dot = t["int_mask"], t["frac_mask"], t["dot"]
    out = np.empty((len(x), 4), dtype=_WORD)
    prefix = 4 * ie + (x < 0)
    prefix[bare:] += 2  # with the separator
    out[:, 0] = t["prefix"][prefix] | (text[0] & int_mask[0][whole])
    for j in (1, 2):
        out[:, j] = (text[j] & int_mask[j][whole]) | (shifted[j] & frac_mask[j][frac]) | dot[j][frac]
    out[:, 3] = (shifted[3] & frac_mask[3][frac]) | t["exponent"][ie]
    if undecided.any():
        raw = out.view(np.uint8)
        for i in np.flatnonzero(undecided).tolist():
            text_i = (b"\0" if i < bare else b",") + repr(float(x[i])).encode()
            raw[i] = 0
            raw[i, :len(text_i)] = np.frombuffer(text_i, dtype=np.uint8)
    return out


def _int_cells(v):
    """Words holding the decimal text of each non-negative v[i], right-aligned
    after a free byte, in as few words per row as the largest value needs."""
    if v.min() < 0:
        raise ValueError("csv_rows writes non-negative integers only")
    t = _text_tables()
    g, rest = [], v
    for _ in range(4):
        q = rest // 10**4
        g.append(rest - q * 10**4)
        rest = q
    lo, hi = t["quad_lo"], t["quad_hi"]
    text = (hi[rest], lo[g[3]] | hi[g[2]], lo[g[1]] | hi[g[0]])  # 20 digits at bytes 4-23
    first = 23 - np.searchsorted(t["pow10"], v, side="right")
    n_words = (24 - int(first.min())) // 8 + 1
    keep = t["int_keep"]
    return np.stack([text[j] & keep[j][first] for j in range(3 - n_words, 3)], axis=1)


def _row_words(columns):
    """Words per row that csv_rows may need for columns of these kinds: 4
    per float column, 3 per integer one (20 digits), 1 per bool or empty one
    and 1 for the newline."""
    kinds = [None if c is None else np.asarray(c).dtype.kind for c in columns]
    return 1 + sum(4 if k == "f" else 3 if k in ("i", "u") else 1 for k in kinds)


def csv_rows(columns, out=None):
    """CSV text of equal-length columns, one line per row, as bytes.

    A column is a float array (each value written as its repr), an integer or
    bool array (non-negative, written in decimal), or None (empty cells).
    The float columns are formatted in one pass over their stacked values.
    The rows are laid out in `out`, a word array of at least
    n * _row_words(columns) words for n rows, if one is given.
    """
    t = _text_tables()
    columns = [None if c is None else np.asarray(c) for c in columns]
    n = len(next(c for c in columns if c is not None))
    if n == 0:
        return b""
    kinds = [None if c is None else c.dtype.kind for c in columns]
    floats = [c for c, kind in zip(columns, kinds) if kind == "f"]
    if floats:  # a float cell holds its own separator, unless it is the row's first
        float_cells = _float_cells(np.concatenate(floats, dtype=np.float64),
                                   bare=n if kinds[0] == "f" else 0)
    cells, k = [], 0
    for j, (c, kind) in enumerate(zip(columns, kinds)):
        if c is None:
            cells.append(None)
        elif kind == "f":
            cells.append(float_cells[k * n:(k + 1) * n])
            k += 1
        elif kind == "b":
            table = t["bool_end"] if j == len(columns) - 1 else t["bool"]
            cells.append(table[c.view(np.uint8)][:, None])
        else:
            cells.append(_int_cells(c.astype(np.int64, copy=False)))
    widths = [1 if c is None else c.shape[1] for c in cells]
    newline = kinds[-1] != "b"  # a row's own word for "\n", unless its bool ends it
    size = n * (sum(widths) + newline)
    rows = (np.empty(size, dtype=_WORD) if out is None else out[:size]).reshape(n, -1)
    at = 0
    for j, (c, w, kind) in enumerate(zip(cells, widths, kinds)):
        rows[:, at:at + w] = 0 if c is None else c
        if j and kind != "f":
            rows[:, at] |= t["comma"]
        at += w
    if newline:
        rows[:, at] = t["newline"]
    raw = rows.view(np.uint8).reshape(-1)
    return raw[raw.view(bool)].tobytes()


def csv_text(n, columns_of):
    """CSV bytes of an n-row table, _EXPORT_ROWS rows at a time, for write_csv:
    columns_of(part) gives the csv_rows columns of the rows in slice `part`.
    Every chunk is laid out in one word buffer, allocated at the first."""
    out = None
    for s in range(0, n, _EXPORT_ROWS):
        columns = columns_of(slice(s, min(s + _EXPORT_ROWS, n)))
        if out is None:
            out = np.empty(min(n, _EXPORT_ROWS) * _row_words(columns), dtype=_WORD)
        yield csv_rows(columns, out)

"""CSV text of numeric columns: csv_rows writes exactly the bytes of repr.

The reference is Python itself: every float cell must equal `repr(float(x))`
byte for byte, every integer cell `str(int(v))`, whatever the value, its
neighbours in the column or the byte order of the machine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramyield import artifacts
from sramyield.artifacts import csv_file, csv_rows, csv_text, write_csv
from sramyield.errors import ParseError


def reference(columns):
    """The row format csv_rows replaces: "," between cells, repr of a float."""
    def cell(c, i):
        if c is None:
            return ""
        return repr(float(c[i])) if c.dtype.kind == "f" else str(int(c[i]))

    n = len(next(c for c in columns if c is not None))
    return "".join(",".join(cell(c, i) for c in columns) + "\n" for i in range(n)).encode()


def float_bytes(values):
    return csv_rows([np.asarray(values, dtype=np.float64)])


def repr_bytes(values):
    return "".join(repr(float(v)) + "\n" for v in values).encode()


POWERS_OF_TWO = [2.0**k for k in range(-1074, 1024)]
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
    1e-5, 1e-4, 9.999999999999999e-05, 0.0001, 1e15, 1e16, 9999999999999998.0,
    999999999999999.9, 1e22, 1e23, 0.1, 0.2, 0.3, 100.0, 123456789012345680.0, 0.5, 1.0, 1.5,
    # the ends of the range formatted without repr, and where Dekker's split would overflow
    1e-280, 1e280, 9.99999999999e279, 1.0000000001e280, 1e-281, 1e281, 1.3e301, 1e308,
]


@pytest.mark.parametrize("values", [EDGES, POWERS_OF_TWO, [-x for x in POWERS_OF_TWO]],
                         ids=["edges", "powers_of_two", "negative_powers_of_two"])
def test_fixed_values_match_repr(values):
    assert float_bytes(values) == repr_bytes(values)


def test_powers_of_ten_and_their_neighbours():
    tens = 10.0 ** np.arange(-323, 309)
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    values = np.concatenate([values, -values])
    assert float_bytes(values) == repr_bytes(values)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20180618)
    values = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    assert float_bytes(values) == repr_bytes(values)


def test_sample_like_values_match_repr():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.normal(0.38, 0.02, 50_000), rng.normal(0.0, 0.003, 50_000),
                             rng.lognormal(np.log(1.5e-11), 0.2, 50_000),
                             rng.integers(-10**6, 10**6, 20_000) / 64.0,
                             rng.integers(0, 2**53, 20_000).astype(np.float64)])
    assert float_bytes(values) == repr_bytes(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_float_matches_repr(values):
    assert float_bytes(values) == repr_bytes(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_matches_repr(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert float_bytes(values) == repr_bytes(values)


# values repr formats in place of the vectorized path
FALLBACKS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.2e-310, 1e300,
             -1e300]
FALLBACK_OR_ANY = st.one_of(st.sampled_from(FALLBACKS), st.floats())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63 - 1), FALLBACK_OR_ANY, FALLBACK_OR_ANY,
                          FALLBACK_OR_ANY, st.booleans()),
                min_size=1, max_size=30))
def test_mixed_rows_match_the_reference_writer(rows):
    # the float columns are formatted as one stacked array, and its repr
    # fallbacks are indexed into that array: a fallback written into the
    # wrong column or row shows only with several float columns
    index, a, b, c, flags = (np.array(col) for col in zip(*rows))
    columns = [index, a.astype(np.float64), None, b.astype(np.float64), flags, None,
               c.astype(np.float64)]
    assert csv_rows(columns) == reference(columns)


def test_fallbacks_stay_in_their_cell():
    n = 3 * len(FALLBACKS)
    floats = [np.full(n, 0.25), np.full(n, -1.5), np.full(n, 3e-7)]
    for i, v in enumerate(FALLBACKS):  # row 3i + j of column j
        for j in range(3):
            floats[j][3 * i + j] = v
    columns = [np.arange(n), floats[0], None, floats[1], np.arange(n) % 2 == 0, floats[2]]
    assert csv_rows(columns) == reference(columns)


def test_csv_text_chunks_share_one_buffer(monkeypatch):
    # the integer column needs 1 word in the first chunk and 3 in the last
    monkeypatch.setattr(artifacts, "_EXPORT_ROWS", 4)
    index = np.array([0, 5, 9, 10, 10**7, 10**15, 2**62, 2**63 - 1, 3, 1])
    x = np.linspace(-1.0, 1.0, len(index))
    x[[2, 7]] = [np.nan, -0.0]
    columns = [index, x, None, np.exp(x), index % 3 == 0]
    text = b"".join(csv_text(len(index), lambda part: [None if c is None else c[part]
                                                       for c in columns]))
    assert text == reference(columns)


def test_integer_cells():
    v = np.array([0, 7, 9, 10, 99, 1234567, 12345678, 99999999, 100000000, 2**63 - 1])
    assert csv_rows([v]) == reference([v])
    assert csv_rows([np.array([True, False])]) == b"1\n0\n"
    with pytest.raises(ValueError, match="non-negative"):
        csv_rows([np.array([3, -1])])


def test_separators_and_row_ends():
    # a float cell carries its own separator unless it starts the row, and a
    # bool that ends the row carries the newline
    x = np.array([0.25, -3.0, 1e-300, float("nan")])
    flags = np.array([True, False, True, False])
    for columns in ([x, x, flags], [flags, x, None, flags], [x, None, -x, flags, flags],
                    [flags], [x], [np.arange(4), flags, x]):
        assert csv_rows(columns) == reference(columns)


def test_empty_columns_and_rows():
    x = np.array([0.25, -3.0])
    assert csv_rows([None, x, None]) == b",0.25,\n,-3.0,\n"
    assert csv_rows([np.array([], dtype=float)]) == b""


def test_csv_file_writes_the_manifest_line_and_header(tmp_path):
    path = tmp_path / "t.csv"
    with csv_file(path, "a,b") as write:
        write("1,2\n")
    assert path.read_text() == "# manifest: manifest.json\na,b\n1,2\n"


def test_csv_file_maps_only_its_own_os_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot write"):
        with csv_file(tmp_path / "missing" / "t.csv", "a"):
            pytest.fail("the body ran without a file")

    def lines():
        yield "1\n"
        raise OSError("not the file's")

    path = tmp_path / "t.csv"
    with pytest.raises(OSError, match="not the file's") as exc:
        write_csv(path, "a", lines())
    assert not isinstance(exc.value, ParseError)
    assert not path.exists()  # no partial output

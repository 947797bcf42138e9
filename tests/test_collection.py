import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsleakscan as ts
from tsleakscan import collection
from tsleakscan.collection import REJECT, SPLIT_SKIP, _load_long_csv, _load_wide_csv, _long_csv_runs

from conftest import reference_layout, reference_wide_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLongCsv:
    def test_direct_transcription(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\nx,1,0.5\nx,2,0.7\ny,1,1.0\n")
        c = ts.load_collection(p, "long-csv")
        assert c.ids() == ["x", "y"]
        assert list(c.get("x").values) == [0.5, 0.7]
        assert list(c.get("y").values) == [1.0]

    def test_interleaved_rows_keep_first_appearance_order(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\nb,1,1\na,1,2\nb,2,3\n")
        c = ts.load_collection(p, "long-csv")
        assert c.ids() == ["b", "a"]
        assert list(c.get("b").values) == [1.0, 3.0]

    def test_non_contiguous_index_names_row(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\nx,1,0.5\nx,3,0.7\n")
        with pytest.raises(ts.FormatError, match=r"c.csv:3.*not contiguous"):
            ts.load_collection(p, "long-csv")

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "c.csv", "id,t,v\nx,1,0.5\n")
        with pytest.raises(ts.FormatError, match="expected header"):
            ts.load_collection(p, "long-csv")

    def test_unparsable_value_names_row(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\nx,1,oops\n")
        with pytest.raises(ts.FormatError, match=r"c.csv:2"):
            ts.load_collection(p, "long-csv")

    def test_missing_value_rejected_with_position(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\nx,1,0.5\nx,2,\n")
        with pytest.raises(ts.ValidationError, match=r"'x'.*position 2"):
            ts.load_collection(p, "long-csv")

    @pytest.mark.parametrize("text, message", [
        ("", r"c\.csv: empty file"),
        ("series_id,index,value\nx,1,0.5,9\n", r"c\.csv:2: expected 3 cells, got 4"),
        ("series_id,index,value\nx,1,0.5\n ,2,0.7\n", r"c\.csv:3: empty series_id"),
        ("series_id,index,value\nx,one,0.5\n", r"c\.csv:2: index 'one' is not an integer"),
    ], ids=["empty-file", "four-cells", "blank-id", "word-index"])
    def test_malformed_file_or_row_named(self, tmp_path, text, message):
        p = write(tmp_path / "c.csv", text)
        with pytest.raises(ts.FormatError, match=message):
            ts.load_collection(p, "long-csv")

    def test_blank_and_whitespace_rows_skipped(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\n\nx,1,0.5\n , ,\t\n \nx,2,0.7\n")
        c = ts.load_collection(p, "long-csv")
        assert c.ids() == ["x"]
        assert list(c.get("x").values) == [0.5, 0.7]

    def test_nan_literal_is_missing(self, tmp_path):
        p = write(tmp_path / "c.csv", "series_id,index,value\nx,1,0.5\nx,2,nan\n")
        with pytest.raises(ts.ValidationError):
            ts.load_collection(p, "long-csv")
        c = ts.load_collection(p, "long-csv", ts.MissingPolicy(SPLIT_SKIP))
        assert c.get("x").missing == (1,)
        assert np.isfinite(c.get("x").values).all()


class TestWideCsv:
    def test_trailing_blanks_are_padding(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,y\n0.5,1.0\n0.7,\n")
        c = ts.load_collection(p, "wide-csv")
        assert list(c.get("x").values) == [0.5, 0.7]
        assert list(c.get("y").values) == [1.0]

    def test_interior_blank_under_reject(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,y\n0.5,1.0\n,2.0\n0.7,3.0\n")
        with pytest.raises(ts.ValidationError, match="'x'"):
            ts.load_collection(p, "wide-csv")

    def test_interior_blank_under_split_skip(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,y\n0.5,1.0\n,2.0\n0.7,3.0\n")
        c = ts.load_collection(p, "wide-csv", ts.MissingPolicy(SPLIT_SKIP))
        assert c.get("x").missing == (1,)
        assert len(c.get("x")) == 3

    def test_duplicate_id_named(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,x\n1,2\n")
        with pytest.raises(ts.ValidationError, match="'x'"):
            ts.load_collection(p, "wide-csv")

    def test_all_empty_column_rejected(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,y\n1,\n2,\n")
        with pytest.raises(ts.ValidationError, match="'y'"):
            ts.load_collection(p, "wide-csv")

    def test_header_wider_than_every_row(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,y,z\n1,2\n3\n")
        with pytest.raises(ts.ValidationError, match="'z' has no observations"):
            ts.load_collection(p, "wide-csv")

    def test_unparsable_value_names_line(self, tmp_path):
        p = write(tmp_path / "c.csv", "x,y\n1,2\n3,abc\n4,\n5,1e5x\n")
        with pytest.raises(ts.FormatError, match=r"c\.csv:3: cannot parse 'abc'"):
            ts.load_collection(p, "wide-csv")

    def test_cells_read_as_the_long_csv_reads_them(self, tmp_path):
        cells = {"x": [" 1.5 ", "nan", "-0.0", "\t7\t", "inf", "2e-310", "-1e300"],
                 "y": ["3", " ", "1e999", "-inf", "NaN", "4_0"]}
        wide = write(tmp_path / "w.csv", "x,y\n" + "".join(
            ",".join(column[i] if i < len(column) else "" for column in cells.values()) + "\n"
            for i in range(7)))
        long = write(tmp_path / "l.csv", "series_id,index,value\n" + "".join(
            f"{sid},{i + 1},{v}\n" for sid, column in cells.items() for i, v in enumerate(column)))
        policy = ts.MissingPolicy(SPLIT_SKIP)
        a, b = ts.load_collection(wide, "wide-csv", policy), ts.load_collection(long, "long-csv", policy)
        assert a.get("y").missing == (1, 2, 3, 4)
        for s, t in zip(a, b):
            assert (s.id, s.values.tobytes(), s.missing) == (t.id, t.values.tobytes(), t.missing)


# numbers are listed more than once so that most grids parse
WIDE_CELLS = ["", " ", "\t", "nan", "NaN", "inf", "-inf", "1_0", "-0.0", "2e-310", "1e999",
              "1", "2", "-3.5", "4e2", "1", "2", "-3.5", "4e2", "abc", "1e5x"]


LONG_HEADER = "series_id,index,value\n"
# row pieces: the np.loadtxt path takes the first few of each list as the row loop reads them
LONG_IDS = ["a", "b", "c", "\ufeffa", "a#", "a\x1cb\x85c\u2028d", " a", "a ", "", '"a"', "a\x00"]
LONG_INDEX_CELLS = ["{}", "+{}", " {} ", "0{}", "{}.0", "1_{}", "\u0661", "{}e0", "-{}", ""]
LONG_VALUES = ["1", "-2.5", "1e308", "1e999", "nan", "-nan", "inf", " 3 ", "1" + "0" * 400, "7" * 5000,
               "", "0x1p3", "1_0", "\u0661", "one", "1e"]
LONG_ROWS = ["", " ", ",,", "a,1", "a,1,2,3"]


@st.composite
def long_csv_texts(draw):
    """The text of a long CSV: runs of rows of one id, their indices counting
    from 1, each piece drawn from the first few of its list above or, in
    ``dirt`` percent of draws, from all of it: a header not read as is, a
    repeated id, a bad or odd cell, a blank, whitespace-only, short or long
    row, a lone CR."""
    dirt = draw(st.sampled_from([0, 0, 5, 30]))

    def piece(options, clean):
        return draw(st.sampled_from(options if draw(st.integers(0, 99)) < dirt else options[:clean]))

    text = piece(["", "\ufeff"], 2) + piece([LONG_HEADER, "series_id,index,value\r\n", "series_id, index,value\n",
                                            "id,t,v\n"], 2)
    ids = draw(st.lists(st.sampled_from(LONG_IDS[:6]), max_size=4, unique=True))
    for sid in ids:
        sid = piece([sid, *ids, *LONG_IDS], 1)  # an id in two runs, or one the loaders do not take
        for i in range(1, draw(st.integers(min_value=1, max_value=6)) + 1):
            value = draw(st.floats(allow_nan=False).map(repr)) if draw(st.booleans()) else piece(LONG_VALUES, 10)
            row = piece([f"{sid},{piece(LONG_INDEX_CELLS, 4).format(i)},{value}", *LONG_ROWS], 1)
            text += row + piece(["\n", "\r\n", "\r"], 2)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def wide_grids(draw):
    """The text of a ragged wide CSV: rows shorter than, as long as or longer
    than the header, and blank lines (an empty row), a blank header included."""
    n = draw(st.integers(min_value=0, max_value=4))
    header = draw(st.lists(st.sampled_from(["a", "b", " c", "d", ""]), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(st.sampled_from(WIDE_CELLS), max_size=n + 1), max_size=8))
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def load_outcome(load, path, policy, errors=(ts.FormatError, ts.ValidationError)):
    """The ids, value bytes and missing positions a loader gives, or its error."""
    try:
        entries = load(path, policy)
    except errors as exc:
        return type(exc), str(exc)
    return [(s.id, s.values.tobytes(), s.missing) for s in entries]


class TestWideCsvAgainstReference:
    """The row-at-a-time loader against the reference that transposes cell strings."""

    POLICIES = (ts.MissingPolicy(REJECT), ts.MissingPolicy(SPLIT_SKIP))

    def check(self, path):
        for policy in self.POLICIES:
            want = load_outcome(reference_wide_csv, path, policy)
            assert load_outcome(_load_wide_csv, path, policy) == want, (path.read_text(), policy)

    @given(wide_grids())
    @settings(max_examples=300, deadline=None)
    def test_ragged_grids(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(write(Path(tmp) / "c.csv", text))

    @pytest.mark.parametrize("text, want", [
        # a nan cell is a missing value, the blanks after it padding
        ("x,y\n1,1\n2,2\nnan,3\n,4\n \t,5\n", [("x", 3, (2,)), ("y", 5, ())]),
        # the first column in header order names its bad cell, though a later
        # column's bad cell is on an earlier line
        ("x,y\n1,abc\n1e5x,2\n", "c.csv:3: cannot parse '1e5x' as a number"),
        # a row longer than the header is raised before a bad cell above it
        ("x,y\n1,abc\n1,2\n1,2,3\n", "c.csv:4: row has 3 cells, header has 2"),
        ("x,y\n", "series 'x' has no observations"),
        ("\n\n", []),
        ("\n1,2\n", "c.csv:2: row has 2 cells, header has 0"),
        ("", "c.csv: empty file"),
    ], ids=["nan-then-padding", "bad-cell-in-a-later-column", "long-row-after-a-bad-cell",
            "header-only", "blank-first-line", "blank-first-line-then-a-row", "empty-file"])
    def test_edge_cases(self, tmp_path, text, want):
        path = write(tmp_path / "c.csv", text)
        self.check(path)
        policy = ts.MissingPolicy(SPLIT_SKIP)
        if isinstance(want, str):
            with pytest.raises((ts.FormatError, ts.ValidationError)) as info:
                ts.load_collection(path, "wide-csv", policy)
            assert str(info.value).endswith(want)
        else:
            c = ts.load_collection(path, "wide-csv", policy)
            assert [(s.id, len(s), s.missing) for s in c] == want


def long_rows(*series, end="\n"):
    """The rows of the series (id, values) as ``write_collection`` lays them out."""
    return "".join(f"{sid},{i},{v!r}{end}" for sid, values in series
                   for i, v in enumerate(np.asarray(values, dtype=float).tolist(), 1))


class TestLongCsvFastPath:
    """The np.loadtxt path against the row loop alone: the same ids, value
    bytes and missing positions, or the same exception type and message,
    under both policies."""

    POLICIES = (ts.MissingPolicy(REJECT), ts.MissingPolicy(SPLIT_SKIP))

    def check(self, path, chunk):
        """Whether the np.loadtxt path took the file at chunks of ``chunk``
        characters, after checking its outcome against the row loop's."""
        with mock.patch("tsleakscan.collection._LONG_CHUNK", chunk):
            taken = _long_csv_runs(path) is not None
            fast = [load_outcome(_load_long_csv, path, policy, Exception) for policy in self.POLICIES]
        with mock.patch("tsleakscan.collection._long_csv_runs", lambda path: None):
            rows = [load_outcome(_load_long_csv, path, policy, Exception) for policy in self.POLICIES]
        assert fast == rows, (path.read_bytes()[:200], chunk)
        return taken

    STRADDLE = long_rows(*[(sid, np.linspace(-1, 1, 2500) * 10.0 ** k) for k, sid in enumerate("abc")])

    @pytest.mark.parametrize("text, taken", [
        ("\ufeff" + LONG_HEADER + "a,1,1\na,2,2\n", True),
        (LONG_HEADER.replace("\n", "\r\n") + long_rows(("a", [1.0, 2.0]), ("b", [3.0]), end="\r\n"), True),
        (LONG_HEADER + "a,1,1\ra,2,2\n", False),
        (LONG_HEADER + '"a",1,1\n', False),
        (LONG_HEADER + "a ,1,1\nb,1,2\n", False),
        (LONG_HEADER + ",1,1\n", False),
        (LONG_HEADER + "a,1,1\n\na,2,2\n\n", True),
        (LONG_HEADER + "a,1,1\n \t\na,2,2\n", False),
        (LONG_HEADER + "a,1\na,2,2,2\n", False),
        (LONG_HEADER + "a,1_0,1\n", False),
        (LONG_HEADER + "a,\u0661,1\n", False),
        (LONG_HEADER + "a,+1,1\na, 2 ,2\n", True),
        (LONG_HEADER + "a,1.0,1\n", False),
        (LONG_HEADER + "a,1,\n", False),
        (LONG_HEADER + "a,1,nan\na,2,-nan\na,3,inf\na,4,1\n", True),
        (LONG_HEADER + f"a,1,{'1' + '0' * 400}\na,2,{'7' * 5000}\na,3,1\n", True),
        (LONG_HEADER + "a,1,1\nb,1,2\na,1,3\n", False),
        (LONG_HEADER + "b,1,1\na,1,2\nb,2,3\n", False),
        (LONG_HEADER + "a,1,1\na,3,2\n", False),
        (LONG_HEADER + "a\x00,1,1\n", False),
        ("series_id, index,value\na,1,1\n", False),
        ("id,t,v\na,1,1\n", False),
        (LONG_HEADER, True),
        ("series_id,index,value", True),
        (LONG_HEADER + "a,1,1\na,2,2", True),
        (LONG_HEADER + STRADDLE, True),
    ], ids=["byte-order-mark", "crlf", "lone-cr", "quoted-id", "padded-id", "empty-id", "blank-rows",
            "whitespace-row", "short-and-long-rows", "underscore-index", "unicode-digit-index",
            "signed-and-padded-index", "float-index", "empty-value", "nan-and-inf", "huge-integers",
            "id-in-two-runs", "interleaved-ids", "gap-in-index", "nul-in-id", "padded-header",
            "other-header", "header-only", "header-without-newline",
            "no-trailing-newline", "runs-across-chunks"])
    def test_corpus(self, tmp_path, text, taken):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        assert self.check(path, collection._LONG_CHUNK) is taken
        for chunk in (1, 5, 64):  # chunk edges inside rows, cells and CRLF line ends
            self.check(path, chunk)

    def test_written_collection_taken(self, tmp_path):
        # write_collection ends its lines with CRLF; these runs cross many chunk edges
        path = tmp_path / "c.csv"
        ts.write_collection(_grid(n_series=5), path, "long-csv")
        assert path.read_bytes().startswith(b"series_id,index,value\r\n")
        assert self.check(path, collection._LONG_CHUNK)

    @given(long_csv_texts(), st.sampled_from([5, 64, 1 << 15]))
    @settings(max_examples=400, deadline=None)
    def test_generated_texts(self, text, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            path.write_bytes(text.encode("utf-8"))
            self.check(path, chunk)


def _grid(seed=7, n_series=40, length=3000):
    rng = np.random.default_rng(seed)
    return ts.from_dict({f"s{j:02d}": rng.normal(size=length) for j in range(n_series)})


class TestByteOrderMark:
    # Excel's "CSV UTF-8" export and R's fileEncoding = "UTF-8-BOM" start the
    # file with one; it is not part of the header's first cell
    @pytest.mark.parametrize("fmt, text", [
        ("long-csv", "series_id,index,value\na,1,1.5\na,2,\na,3,-2\nb,1,3\n"),
        ("wide-csv", "a,b\n1.5,3\n,\n-2,\n"),
    ])
    def test_loads_as_without_one(self, tmp_path, fmt, text):
        policy = ts.MissingPolicy(SPLIT_SKIP)
        plain = ts.load_collection(write(tmp_path / "plain.csv", text), fmt, policy)
        marked = ts.load_collection(write(tmp_path / "marked.csv", "\ufeff" + text), fmt, policy)
        assert (tmp_path / "marked.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert marked.ids() == plain.ids() == ["a", "b"]
        assert [(s.values.tobytes(), s.missing) for s in marked] == [(s.values.tobytes(), s.missing) for s in plain]


class TestLoaderMemory:
    # the traced peak of load_collection on this 40 x 3000 grid was 94 B per
    # cell for the wide CSV, whose rows stayed lists of cell strings until the
    # grid was transposed, and 40 B per value for the long CSV, which kept a
    # Python float per value; float64 buffers need less than half of each.
    # The JSON loader's was 55 B per value, the file's text and a Python float
    # per value at once; with each series made an array as soon as it is read
    # it is 45 B, the text's bytes and str while the file is read
    BUDGET = {"wide-csv": 94 // 2, "long-csv": 40 // 2, "json": 50}

    @pytest.mark.parametrize("fmt", sorted(BUDGET))
    def test_traced_peak_per_value(self, tmp_path, fmt):
        c = _grid()
        path = tmp_path / "c.data"
        ts.write_collection(c, path, fmt)
        tracemalloc.start()
        try:
            loaded = ts.load_collection(path, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_values = sum(len(s) for s in c)
        assert [s.values.tobytes() for s in loaded] == [s.values.tobytes() for s in c]
        assert peak / n_values < self.BUDGET[fmt]


class TestJson:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "c.json", '{"x": [0.5, 0.7], "y": [1.0]}')
        c = ts.load_collection(p, "json")
        assert c.ids() == ["x", "y"]

    def test_duplicate_keys_detected(self, tmp_path):
        p = write(tmp_path / "c.json", '{"x": [1, 2], "x": [3]}')
        with pytest.raises(ts.ValidationError, match="'x'"):
            ts.load_collection(p, "json")

    def test_null_is_missing(self, tmp_path):
        p = write(tmp_path / "c.json", '{"x": [1, null, 3]}')
        with pytest.raises(ts.ValidationError):
            ts.load_collection(p, "json")
        c = ts.load_collection(p, "json", ts.MissingPolicy(SPLIT_SKIP))
        assert c.get("x").missing == (1,)

    # float() reads both literals as inf; the second is also longer than the
    # 4300 digits Python converts to an int by default
    @pytest.mark.parametrize("huge", ["1" + "0" * 400, "7" * 5000], ids=["401-digits", "5000-digits"])
    def test_integer_too_large_for_a_float_is_missing(self, tmp_path, huge):
        files = {
            "long-csv": write(tmp_path / "long.csv", "series_id,index,value\n"
                              f"x,1,0.5\nx,2,{huge}\nx,3,0.7\ny,1,2\n"),
            "wide-csv": write(tmp_path / "wide.csv", f"x,y\n0.5,2\n{huge},\n0.7,\n"),
            "json": write(tmp_path / "c.json", f'{{"x": [0.5, {huge}, 0.7], "y": [2]}}'),
        }
        loaded = []
        for fmt, p in files.items():
            with pytest.raises(ts.ValidationError, match="position 2"):
                ts.load_collection(p, fmt)
            loaded.append(ts.load_collection(p, fmt, ts.MissingPolicy(SPLIT_SKIP)))
        for c in loaded:
            assert c.ids() == ["x", "y"]
            assert [list(s.values) for s in c] == [[0.5, 0.0, 0.7], [2.0]]
            assert [s.missing for s in c] == [(1,), ()]

    def test_invalid_json_is_format_error(self, tmp_path):
        p = write(tmp_path / "c.json", '{"x": [1, 2')
        with pytest.raises(ts.FormatError):
            ts.load_collection(p, "json")

    def test_non_numeric_element(self, tmp_path):
        p = write(tmp_path / "c.json", '{"x": [1, "two"]}')
        with pytest.raises(ts.FormatError, match="element 2"):
            ts.load_collection(p, "json")

    # a repeated key inside a series is not a repeated series id
    @pytest.mark.parametrize("item", ['{"x": 1, "x": 2}', '{"x": 1}', "[1]"])
    def test_object_or_array_element_is_not_a_number(self, tmp_path, item):
        p = write(tmp_path / "c.json", '{"a": [1.0, 2.0, ' + item + "]}")
        with pytest.raises(ts.FormatError, match="series 'a' element 3 is not a number"):
            ts.load_collection(p, "json")

    @pytest.mark.parametrize("text, message", [
        ("[[1.0, 2.0]]", "top-level JSON value must be an object"),
        ('{"a": 5}', "series 'a' is not an array"),
    ])
    def test_not_an_object_of_arrays(self, tmp_path, text, message):
        p = write(tmp_path / "c.json", text)
        with pytest.raises(ts.FormatError, match=message):
            ts.load_collection(p, "json")

    # the object is read a member at a time; any text that is not one object
    # gets json.load's own error, and a syntax error anywhere comes before the
    # first series that is not an array of numbers
    @pytest.mark.parametrize("text", ['{"a": [1, "two"], "b": [1, 2', '\ufeff{"a": [1.0]}', '{"a": [1.0]} []',
                                      '{"a": [1.0],\n}', '{1: [2.0]}', '{"a" [1.0]}', '{"a": [1.0] "b": [2.0]}'])
    def test_invalid_json_named_as_json_load_names_it(self, tmp_path, text):
        with pytest.raises(json.JSONDecodeError) as error:
            json.loads(text)
        p = write(tmp_path / "c.json", text)
        message = f"c.json: invalid JSON at line {error.value.lineno}: {error.value.msg}"
        with pytest.raises(ts.FormatError, match=re.escape(message)):
            ts.load_collection(p, "json")

    def test_members_read_between_any_json_whitespace(self, tmp_path):
        p = write(tmp_path / "c.json", ' \n{ "a"\t:\r[1.0, null, 3.0]\n,"b":[2.5] }\n ')
        c = ts.load_collection(p, "json", ts.MissingPolicy(SPLIT_SKIP))
        assert [(s.id, s.values.tolist(), s.missing) for s in c] == [("a", [1.0, 0.0, 3.0], (1,)), ("b", [2.5], ())]
        assert len(ts.load_collection(write(tmp_path / "e.json", " { } "), "json")) == 0

    def test_empty_array_has_no_observations(self, tmp_path):
        p = write(tmp_path / "c.json", '{"a": [1.0], "b": []}')
        with pytest.raises(ts.ValidationError, match="^series 'b' has no observations$"):
            ts.load_collection(p, "json")

    def test_empty_id_rejected(self, tmp_path):
        p = write(tmp_path / "c.json", '{"a": [1.0], " ": [2.0]}')
        with pytest.raises(ts.FormatError, match=r"c\.json: empty series id"):
            ts.load_collection(p, "json")

    def test_ids_read_as_the_csv_loaders_read_them(self, tmp_path):
        p = write(tmp_path / "c.json", '{" a ": [1.0, 2.0], "b\\t": [3.0]}')
        c = ts.load_collection(p, "json")
        assert c.ids() == ["a", "b"]
        for fmt in ("wide-csv", "long-csv"):
            ts.write_collection(c, tmp_path / fmt, fmt)
            back = ts.load_collection(tmp_path / fmt, fmt)
            assert [(s.id, s.values.tolist()) for s in back] == [("a", [1.0, 2.0]), ("b", [3.0])]


# observations 2, 4, 6 and 8 are missing, each format marking them its own ways
OBSERVED = [1.5, None, 2.0, None, -3.25, None, 4.0, None, 0.5]
MARKERS = {"long-csv": ["", "nan", "inf", "-inf"], "wide-csv": ["", "nan", "inf", "-inf"],
           "json": ["null", "NaN", "Infinity", "1" + "0" * 400]}


def write_marked(path, fmt, markers):
    marks = iter(markers)
    cells = [next(marks) if v is None else repr(v) for v in OBSERVED]
    if fmt == "long-csv":
        return write(path, "series_id,index,value\n" + "".join(f"x,{i},{v}\n" for i, v in enumerate(cells, 1)))
    if fmt == "wide-csv":
        return write(path, "x\n" + "".join(f"{v}\n" for v in cells))
    return write(path, '{"x": [' + ", ".join(cells) + "]}")


class TestOneMissingRule:
    @pytest.mark.parametrize("first", range(4))
    def test_formats_agree(self, tmp_path, first):
        want = np.array([0.0 if v is None else v for v in OBSERVED])
        for fmt, markers in MARKERS.items():
            markers = markers[first:] + markers[:first]  # each marker first in turn
            p = write_marked(tmp_path / f"{fmt}.txt", fmt, markers)
            s = ts.load_collection(p, fmt, ts.MissingPolicy(SPLIT_SKIP)).get("x")
            assert s.values.tobytes() == want.tobytes(), (fmt, markers)
            assert s.missing == (1, 3, 5, 7), (fmt, markers)
            with pytest.raises(ts.ValidationError, match=r"series 'x' has a missing value at position 2 "):
                ts.load_collection(p, fmt, ts.MissingPolicy(REJECT))


class TestRoundTrip:
    def test_long_csv_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(7)
        c = ts.from_dict({f"s{i}": rng.normal(size=int(rng.integers(1, 40))) for i in range(6)})
        p = tmp_path / "out.csv"
        ts.write_collection(c, p, "long-csv")
        back = ts.load_collection(p, "long-csv")
        assert back.ids() == c.ids()
        for a, b in zip(c, back):
            assert a.values.tobytes() == b.values.tobytes()

    def test_json_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(8)
        c = ts.from_dict({f"s{i}": rng.normal(size=10) * 10 ** int(rng.integers(-8, 9))
                          for i in range(5)})
        p = tmp_path / "out.json"
        ts.write_collection(c, p, "json")
        back = ts.load_collection(p, "json")
        for a, b in zip(c, back):
            assert a.values.tobytes() == b.values.tobytes()

    def test_wide_csv_round_trip_with_unequal_lengths(self, tmp_path):
        c = ts.from_dict({"x": [1.5, 2.5, 3.5], "y": [9.0]})
        p = tmp_path / "out.csv"
        ts.write_collection(c, p, "wide-csv")
        back = ts.load_collection(p, "wide-csv")
        assert [len(s) for s in back] == [3, 1]
        assert list(back.get("y").values) == [9.0]

    @pytest.mark.parametrize("fmt", ["long-csv", "json", "wide-csv"])
    def test_empty_collection_round_trip(self, tmp_path, fmt):
        p = tmp_path / f"empty.{fmt}"
        ts.write_collection(ts.SeriesCollection([]), p, fmt)
        assert len(ts.load_collection(p, fmt)) == 0

    def test_missing_positions_survive_round_trip(self, tmp_path):
        c = ts.SeriesCollection([ts.Series("x", np.array([1.0, 0.0, 3.0]), missing=(1,))])
        for fmt in ("long-csv", "json", "wide-csv"):
            p = tmp_path / f"m.{fmt}"
            ts.write_collection(c, p, fmt)
            back = ts.load_collection(p, fmt, ts.MissingPolicy(SPLIT_SKIP))
            assert back.get("x").missing == (1,)

    @pytest.mark.parametrize("fmt", ["long-csv", "json", "wide-csv"])
    def test_missing_values_anywhere_round_trip(self, tmp_path, fmt):
        # a trailing missing value must not read back as the wide CSV's padding
        c = ts.SeriesCollection([
            ts.Series("leading", np.array([0.0, 0.0, 2.5, -1.0]), missing=(0, 1)),
            ts.Series("interior", np.array([1.0, 0.0, 0.0, 4.0, 5.0]), missing=(1, 2)),
            ts.Series("trailing", np.array([1.0, 2.0, 0.0]), missing=(2,)),
            ts.Series("all-but-one", np.array([3.0, 0.0, 0.0, 0.0]), missing=(1, 2, 3)),
            ts.Series("only-missing", np.array([0.0]), missing=(0,)),
            ts.Series("longest", np.arange(7.0) / 3),
        ])
        p = tmp_path / f"m.{fmt}"
        ts.write_collection(c, p, fmt)
        back = ts.load_collection(p, fmt, ts.MissingPolicy(SPLIT_SKIP))
        assert [(s.id, s.values.tobytes(), s.missing) for s in back] == \
            [(s.id, s.values.tobytes(), s.missing) for s in c]

    @pytest.mark.parametrize("sid", [" a", "a ", ""])
    @pytest.mark.parametrize("fmt", ["long-csv", "json", "wide-csv"])
    def test_id_that_would_not_round_trip_is_rejected(self, tmp_path, fmt, sid):
        # every loader strips ids and rejects an empty one
        c = ts.from_dict({"b": [1.0, 2.0], sid: [3.0]})
        p = tmp_path / f"ids.{fmt}"
        with pytest.raises(ts.ValidationError, match=f"series id {sid!r}"):
            ts.write_collection(c, p, fmt)
        assert not p.exists()

    @pytest.mark.parametrize("fmt", ["long-csv", "json", "wide-csv"])
    def test_id_starting_with_a_byte_order_mark(self, tmp_path, fmt):
        # the CSV loaders skip one mark at the start of the file; the wide CSV's
        # first id comes right after it
        c = ts.from_dict({"\ufeffa": [1.0, 2.0], "b": [3.0], "\ufeff\ufeffc": [4.0]})
        p = tmp_path / f"bom.{fmt}"
        ts.write_collection(c, p, fmt)
        assert ts.load_collection(p, fmt).ids() == ["\ufeffa", "b", "\ufeff\ufeffc"]
        c = ts.from_dict({"\ufeff\ufeffa": [1.0], "b": [2.0]})
        ts.write_collection(c, p, fmt)
        assert ts.load_collection(p, fmt).ids() == ["\ufeff\ufeffa", "b"]

    def test_load_is_deterministic(self, tmp_path):
        p = tmp_path / "c.json"
        write(p, json.dumps({"a": [1.25, 2.5], "b": [3.75]}))
        c1 = ts.load_collection(p, "json")
        c2 = ts.load_collection(p, "json")
        assert c1.ids() == c2.ids()
        for a, b in zip(c1, c2):
            assert a.values.tobytes() == b.values.tobytes()


class TestLayout:
    """Every series' values laid end to end, as the scan and the match checks read them."""

    @staticmethod
    def collection():
        rng = np.random.default_rng(17)
        gap = np.cumsum(rng.normal(size=12))
        gap[[3, 4, 9]] = 0.0
        return ts.SeriesCollection([
            ts.Series("gap", gap, missing=(9, 3, 4)), ts.Series("constant", [2.5] * 7),
            ts.Series("short", [7.0, -1.0]), ts.Series("one", [9.0]),
            ts.Series("walk", np.cumsum(rng.normal(size=10)), missing=(0,)),
        ])

    def test_equals_reference(self):
        c = self.collection()
        flat, first, lengths, gaps = c._layout()
        assert (flat.dtype, gaps.dtype) == (np.float64, bool)
        assert (flat.tolist(), first.tolist(), lengths.tolist(), gaps.tolist()) == reference_layout(c)
        for s, at, n in zip(c, first, lengths):
            assert flat[at:at + n].tobytes() == s.values.tobytes()

    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_windows_free_of_gaps_lie_within_one_series(self, h):
        # "short" and "one" are shorter than h = 3 and 5: they hold no such window
        c = self.collection()
        flat, first, lengths, gaps = c._layout()
        for i in range(len(flat) - h + 1):
            if not gaps[i:i + h].any():
                j = int(np.searchsorted(first, i, side="right")) - 1
                assert first[j] <= i and i + h <= first[j] + lengths[j]
                assert flat[i:i + h].tolist() == c.entries[j].values[i - first[j]:][:h].tolist()

    def test_empty_collection(self):
        assert [len(part) for part in ts.SeriesCollection([])._layout()] == [0, 0, 0, 0]


class TestInvariants:
    def test_duplicate_id_from_dict(self):
        with pytest.raises(ts.ValidationError):
            ts.SeriesCollection([ts.Series("a", np.ones(3)), ts.Series("a", np.ones(3))])

    @pytest.mark.parametrize("fmt, text", [
        ("json", '{"x": [1, 2], "y": [3], "x": [4]}'),
        ("wide-csv", "x,y,x\n1,2,3\n"),
        ("wide-csv", "x,y, x\n1,2,3\n"),
    ])
    def test_repeated_id_named(self, tmp_path, fmt, text):
        p = write(tmp_path / "c.txt", text)
        with pytest.raises(ts.ValidationError, match="^duplicate series id 'x'$"):
            ts.load_collection(p, fmt)

    def test_empty_header_cell_rejected(self, tmp_path):
        p = write(tmp_path / "c.csv", "x, \n1,2\n")
        with pytest.raises(ts.FormatError, match=r"c\.csv: empty series id"):
            ts.load_collection(p, "wide-csv")

    # q's terminal segment reappears in d at 5-8; flat position 19 is d's 6th value
    @pytest.mark.parametrize("missing", [(19,), (2,), (-1,), (2.5, "x"), (True,), (1.0,)])
    def test_missing_position_outside_the_series_rejected(self, missing):
        q = [1.0, 5, 2, 8, 3, 9, 4]
        d = [0.0, 1, 5, 2, 8, 3, 9, 4, 7, 1, 2, 6, 3, 3]
        with pytest.raises(ts.ValidationError, match="series 'a' has a missing position not in 0..1"):
            ts.SeriesCollection([ts.Series("a", [1.0, 2.0], missing=missing), ts.Series("q", q),
                                 ts.Series("d", d)])

    def test_missing_positions_stored_sorted_and_unique(self):
        c = ts.SeriesCollection([ts.Series("a", np.zeros(4), missing=(3, np.int64(1), 3, 0))])
        assert c.get("a").missing == (0, 1, 3)
        assert all(type(p) is int for p in c.get("a").missing)

    # a non-str id was accepted: the JSON writer then failed after opening its
    # file, and the scan on a skip of it
    @pytest.mark.parametrize("sid", [5, np.int64(5), None, b"a", ("a",)])
    def test_id_not_a_string_rejected(self, sid):
        with pytest.raises(ts.ValidationError, match=f"^{re.escape(f'series id {sid!r} is not a string')}$"):
            ts.SeriesCollection([ts.Series("a", [1.0, 2.0]), ts.Series(sid, [1.0, 2.0, 3.0])])

    def test_numpy_str_id_accepted(self):
        c = ts.SeriesCollection([ts.Series(np.str_("a"), [1.0, 2.0])])
        assert c.ids() == ["a"]

    # 2-D values failed in the scan's layout, and a 0-d value raised a bare TypeError
    @pytest.mark.parametrize("values, ndim", [
        ([[1.0, 2.0], [3.0, 4.0]], 2), (np.ones((3, 1)), 2), (np.ones((1, 1, 4)), 3), (5.0, 0), (np.float64(5), 0),
    ])
    def test_values_not_one_dimensional_rejected(self, values, ndim):
        message = f"^series 'x' values are {ndim}-dimensional, not 1-dimensional$"
        with pytest.raises(ts.ValidationError, match=message):
            ts.SeriesCollection([ts.Series("a", [1.0, 2.0]), ts.Series("x", values)])

    def test_non_finite_rejected(self):
        with pytest.raises(ts.ValidationError):
            ts.from_dict({"a": [1.0, float("nan")]})

    def test_values_are_read_only(self):
        c = ts.from_dict({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            c.get("a").values[0] = 9.0

    def test_unknown_format(self, tmp_path):
        p = write(tmp_path / "c.txt", "x")
        with pytest.raises(ts.ValidationError, match="unknown format"):
            ts.load_collection(p, "tsv")

    def test_unknown_write_format_writes_nothing(self, tmp_path):
        with pytest.raises(ts.ValidationError, match="unknown format 'xml'"):
            ts.write_collection(ts.from_dict({"a": [1.0, 2.0]}), tmp_path / "c.xml", "xml")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_missing_policy(self):
        with pytest.raises(ts.ValidationError, match="unknown missing policy 'drop'"):
            ts.MissingPolicy("drop")

    def test_get_unknown_id(self):
        with pytest.raises(KeyError, match="no series named 'b'"):
            ts.from_dict({"a": [1.0, 2.0]}).get("b")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ts.ValidationError, match="not found"):
            ts.load_collection(tmp_path / "nope.csv", "long-csv")

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakpricer import (
    AttributeSpec,
    BinRule,
    ParseError,
    ProfileSchema,
    SampleSet,
    ValidationError,
    build_intersection_labels,
    discretize,
    empirical_joint,
    load_samples,
    load_schema,
    samples_to_csv,
)
from leakpricer.schema import (
    load_yaml_doc,
    read_csv_rows,
    read_json_lines,
    read_lines,
    write_text,
)

import oracles


def _continuous_schema(lower=0.0, upper=1.0) -> ProfileSchema:
    return ProfileSchema(
        attributes=(AttributeSpec.categorical("group", ["a", "b"]),),
        observable=AttributeSpec.continuous("score", lower, upper),
    )


# Random schemas and sample files, checked against the row-wise reader in
# tests/oracles.py. A column is (name, levels, lower, upper) as there.
LEVEL_POOL = ("a", "b", "c", "long level")
BOUNDS = ((0.0, 1.0), (-2.5, 3.0))
# str.strip() removes \x1c-\x1f, float() alone does not
PADDING = st.sampled_from(["", " ", "\t", "  ", "\x1c", " \x1f"])
ODD_VALUES = st.sampled_from([None, 10**400, "0.5", b"a", ("a",), ["a"]])


@st.composite
def sample_columns(draw) -> list:
    columns = []
    for j in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            pool = st.sampled_from(LEVEL_POOL)
            levels = tuple(draw(st.lists(pool, min_size=1, max_size=3, unique=True)))
            columns.append((f"c{j}", levels, None, None))
        else:
            columns.append((f"c{j}", None, *draw(st.sampled_from(BOUNDS))))
    return columns


def schema_of(columns) -> ProfileSchema:
    specs = [
        AttributeSpec.categorical(name, levels)
        if levels is not None
        else AttributeSpec.continuous(name, lower, upper)
        for name, levels, lower, upper in columns
    ]
    return ProfileSchema(attributes=tuple(specs[:-1]), observable=specs[-1])


def mostly(valid, odd):
    """Draws from ``valid`` four times in five, else from ``odd``."""
    return st.integers(0, 4).flatmap(lambda k: odd if k == 0 else valid)


def cell_text(column):
    _, levels, lower, upper = column
    if levels is not None:
        core = mostly(st.sampled_from(levels), st.sampled_from(["zz", "1", "", "A"]))
    else:
        edges = [repr(lower), repr(upper), "nan", "inf", "-inf", "x1", "", "1e999", "1_0"]
        core = mostly(st.floats(lower, upper).map(repr),
                      st.floats(lower - 1, upper + 1).map(repr) | st.sampled_from(edges))
    padded = st.tuples(PADDING, core, PADDING).map("".join)
    # a quoted cell, some holding a comma, a quote or a line break
    odd = st.tuples(padded, st.sampled_from(["", ",", '"', "\n", "\r\n", "\r"]), padded)
    quoted = odd.map(lambda parts: '"' + "".join(parts).replace('"', '""') + '"')
    return mostly(padded, quoted)


@st.composite
def sample_file(draw) -> tuple:
    """Columns plus the text of a sample file: the header in a random order,
    then data rows, some short a cell, some quoted cells, with blank,
    whitespace-only and comma-only lines and the header's text mixed in.
    One data line in two copies an earlier one, and each line ends in
    ``\\n``, ``\\r\\n`` or ``\\r``."""
    columns = draw(sample_columns())
    order = draw(st.permutations(range(len(columns))))
    lines = [",".join(draw(PADDING) + columns[k][0] for k in order)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if len(lines) > 1 and draw(st.booleans()):
            lines.append(draw(st.sampled_from(lines[1:])))
        elif kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == 1:
            lines.append("," * draw(st.integers(1, len(columns) + 1)))
        elif kind == 2:
            lines.append(lines[0])
        else:
            cells = [draw(cell_text(columns[k])) for k in order]
            lines.append(",".join(cells[:-1] if kind == 3 else cells))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    return columns, "".join(line + draw(endings) for line in lines)


@st.composite
def sample_rows(draw) -> tuple:
    """Columns plus rows for ``SampleSet(schema, rows)``, mostly valid, with
    ints, bools, non-finite floats, non-strings and rows of the wrong width."""
    columns = draw(sample_columns())
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = []
        for _, levels, lower, upper in columns:
            if levels is not None:
                odd = st.sampled_from(["zz", " a"]) | st.integers(-1, 2) | st.booleans() | ODD_VALUES
                row.append(draw(mostly(st.sampled_from(levels), odd)))
            else:
                valid = st.floats(lower, upper) | st.integers(int(lower), int(upper))
                row.append(draw(mostly(valid, st.floats() | st.booleans() | ODD_VALUES)))
        width = draw(mostly(st.just(len(row)), st.integers(0, len(row) + 1)))
        rows.append((row + ["a"])[:width])
    return columns, rows


def outcome(make) -> tuple:
    """``("rows", rows)``, or the kind of error raised and its message."""
    try:
        return "rows", make()
    except oracles.Rejected as exc:
        return exc.kind, str(exc)
    except ParseError as exc:
        return "parse", str(exc)
    except ValidationError as exc:
        return "validation", str(exc)
    except OverflowError as exc:
        return "overflow", str(exc)


#: tracemalloc bound, in MB, on reading and counting 50k rows of four
#: categorical columns: the columns and the lists they are built from take
#: about 3.2 MB; rows kept as tuples of strings would take about 15 MB
PEAK_BOUND_MB = 6.5


class TestAttributeSpec:
    def test_categorical_keeps_level_order(self):
        spec = AttributeSpec.categorical("sex", ["male", "female"])
        assert spec.levels == ("male", "female")
        assert not spec.is_continuous

    def test_categorical_needs_levels(self):
        with pytest.raises(ValidationError, match="at least one level"):
            AttributeSpec.categorical("sex", [])

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            AttributeSpec.categorical("sex", ["male", "male"])

    def test_continuous_needs_ordered_finite_bounds(self):
        with pytest.raises(ValidationError, match="below upper"):
            AttributeSpec.continuous("age", 5.0, 5.0)
        with pytest.raises(ValidationError, match="finite"):
            AttributeSpec.continuous("age", 0.0, float("inf"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown attribute kind"):
            AttributeSpec(name="x", kind="ordinal")


class TestProfileSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            ProfileSchema(
                attributes=(AttributeSpec.categorical("x", ["a"]),),
                observable=AttributeSpec.categorical("x", ["b"]),
            )

    def test_needs_protected_attribute(self):
        with pytest.raises(ValidationError, match="at least one protected"):
            ProfileSchema(attributes=(), observable=AttributeSpec.categorical("x", ["a"]))

    def test_label_separator_in_protected_name_rejected(self):
        # subset {a, b} and an attribute named a+b would share the report key a+b
        with pytest.raises(ValidationError, match="'a\\+b' contains '\\+'"):
            ProfileSchema(
                attributes=tuple(
                    AttributeSpec.categorical(n, ["0", "1"]) for n in ("a", "b", "a+b")
                ),
                observable=AttributeSpec.categorical("x", ["l", "r"]),
            )

    def test_label_separator_allowed_in_observable_name(self):
        schema = ProfileSchema(
            attributes=(AttributeSpec.categorical("a", ["0", "1"]),),
            observable=AttributeSpec.categorical("x+y", ["l", "r"]),
        )
        assert schema.observable.name == "x+y"

    def test_columns_order_protected_then_observable(self, intersect_schema):
        names = [spec.name for spec in intersect_schema.columns]
        assert names == ["sex", "disability", "timeofday"]


class TestIntersectionLabels:
    def test_lexicographic_in_schema_order(self, intersect_schema):
        assert build_intersection_labels(intersect_schema) == (
            "male+abled",
            "male+disabled",
            "female+abled",
            "female+disabled",
        )

    def test_count_is_product_of_level_counts(self):
        schema = ProfileSchema(
            attributes=(
                AttributeSpec.categorical("a", ["1", "2", "3"]),
                AttributeSpec.categorical("b", ["u", "v"]),
                AttributeSpec.categorical("c", ["p", "q"]),
            ),
            observable=AttributeSpec.categorical("x", ["l", "r"]),
        )
        assert len(build_intersection_labels(schema)) == 3 * 2 * 2

    def test_continuous_attribute_rejected(self):
        schema = ProfileSchema(
            attributes=(AttributeSpec.continuous("age", 0, 1),),
            observable=AttributeSpec.categorical("x", ["l"]),
        )
        with pytest.raises(ValidationError, match="continuous"):
            build_intersection_labels(schema)

    def test_levels_joining_into_one_label_rejected(self):
        schema = ProfileSchema(
            attributes=(
                AttributeSpec.categorical("p", ["a+b", "a"]),
                AttributeSpec.categorical("q", ["c", "b+c"]),
            ),
            observable=AttributeSpec.categorical("x", ["l"]),
        )
        with pytest.raises(ValidationError) as raised:
            build_intersection_labels(schema)
        assert str(raised.value) == (
            "intersection label 'a+b+c' is repeated: levels containing '+' "
            "are ambiguous once joined"
        )


class TestSampleSet:
    def test_undeclared_level_names_row_and_attribute(self):
        schema = _continuous_schema()
        with pytest.raises(ValidationError, match=r"row 1.*group.*'purple'"):
            SampleSet(schema, (("a", 0.5), ("purple", 0.5)))

    def test_out_of_bounds_value_names_row_and_attribute(self):
        schema = _continuous_schema()
        with pytest.raises(ValidationError, match=r"row 0.*score.*outside"):
            SampleSet(schema, (("a", 1.5),))

    def test_bounds_are_closed(self):
        schema = _continuous_schema()
        samples = SampleSet(schema, (("a", 0.0), ("b", 1.0)))
        assert samples.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one row"):
            SampleSet(_continuous_schema(), ())

    def test_column_extraction_preserves_order(self):
        schema = _continuous_schema()
        samples = SampleSet(schema, (("a", 0.1), ("b", 0.2), ("a", 0.3)))
        assert samples.column("score") == [0.1, 0.2, 0.3]
        assert samples.column("group") == ["a", "b", "a"]

    def test_stored_as_read_only_columns(self):
        samples = SampleSet(_continuous_schema(), (("b", 0.5), ("a", 1)))
        codes, scores = samples.data
        assert codes.dtype == np.intp and codes.tolist() == [1, 0]
        assert scores.dtype == np.float64 and scores.tolist() == [0.5, 1.0]
        assert not codes.flags.writeable and not scores.flags.writeable
        assert samples.rows == (("b", 0.5), ("a", 1.0))

    @settings(max_examples=300, deadline=None)
    @given(case=sample_rows())
    def test_direct_construction_matches_row_wise_oracle(self, case):
        columns, rows = case
        got = outcome(lambda: SampleSet(schema_of(columns), rows).rows)
        assert got == outcome(lambda: oracles.check_sample_rows(columns, rows))


class TestSchemaFile:
    def test_round_trip(self, tmp_path):
        doc = tmp_path / "schema.yaml"
        doc.write_text(
            "attributes:\n"
            "  - {name: sex, kind: categorical, levels: [male, female]}\n"
            "  - {name: age, kind: continuous, range: [0, 120]}\n"
            "observable: {name: clicks, kind: continuous, range: [0, 1000]}\n"
        )
        schema = load_schema(doc)
        assert [s.name for s in schema.columns] == ["sex", "age", "clicks"]
        assert schema.columns[1].upper == 120.0

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            load_schema(tmp_path / "nope.yaml")

    def test_bad_yaml_is_parse_error(self, tmp_path):
        doc = tmp_path / "schema.yaml"
        # PyYAML fails on the last one with RecursionError
        for text in ("attributes: [unclosed\n", "[" * 800 + "]" * 800):
            doc.write_text(text)
            with pytest.raises(ParseError, match="invalid document"):
                load_schema(doc)
        # an impossible date is text, so this is a wrong shape
        doc.write_text("attributes: 2001-13-01\n")
        with pytest.raises(ValidationError, match="'attributes' must be a non-empty list"):
            load_schema(doc)

    def test_unknown_key_rejected(self, tmp_path):
        doc = tmp_path / "schema.yaml"
        doc.write_text(
            "attributes: [{name: a, kind: categorical, levels: [x]}]\n"
            "observable: {name: b, kind: categorical, levels: [y]}\n"
            "extra: 1\n"
        )
        with pytest.raises(ValidationError, match="unknown schema key"):
            load_schema(doc)


# plain scalars that YAML 1.1 would type as a number, boolean, date or time
AMBIGUOUS_SPELLINGS = st.sampled_from([
    "0123", "0x10", "0o17", "0b101", "+12", "-0", "1e4", "10_000", "1_0.5", ".inf",
    "-.Inf", ".NaN", "yes", "no", "on", "off", "Yes", "OFF", "true", "False", "y",
    "2001-13-01", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "190:20:30", "=",
]) | st.builds("{:02d}:{:02d}".format, st.integers(0, 99), st.integers(0, 59))


def categorical_schema_doc(levels) -> str:
    return (
        "attributes:\n  - name: g\n    kind: categorical\n    levels:\n"
        + "".join(f"      - {level}\n" for level in levels)
        + "observable: {name: o, kind: categorical, levels: [a]}\n"
    )


class TestYamlReader:
    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(AMBIGUOUS_SPELLINGS, min_size=1, max_size=6, unique=True))
    def test_levels_load_as_written(self, levels):
        with tempfile.TemporaryDirectory() as tmp:
            doc = Path(tmp) / "schema.yaml"
            doc.write_text(categorical_schema_doc(levels))
            assert load_schema(doc).attributes[0].levels == tuple(levels)

    def test_a_level_spelled_null_is_refused(self, tmp_path):
        doc = tmp_path / "schema.yaml"
        doc.write_text(categorical_schema_doc(["a", "null"]))
        with pytest.raises(ValidationError) as raised:
            load_schema(doc)
        assert str(raised.value) == f"{doc}: g: levels must be text, got ['a', None]"
        doc.write_text(categorical_schema_doc(["a", "'null'"]))
        assert load_schema(doc).attributes[0].levels == ("a", "null")

    # errors of the attribute and schema types name the file, as the reader's own do
    @pytest.mark.parametrize("attributes, error", [
        ("[{name: g, kind: categorical, levels: [a, a]}]", "g: levels must be pairwise distinct"),
        ("[{name: o, kind: categorical, levels: [a]}]",
         "attribute names must be unique; duplicated: ['o']"),
        ("[{name: g+h, kind: categorical, levels: [a]}]",
         "protected attribute name 'g+h' contains '+', which joins attribute names into "
         "subset names"),
        ("[{name: g, kind: continuous, range: [2, 1]}]",
         "g: lower bound 2.0 must be below upper bound 1.0"),
        ("[{name: g, kind: categorical, levels: [a], lvls: [b]}]",
         "attribute 'g': unknown attribute key 'lvls'"),
        ("[{name: [g], kind: categorical, levels: [a]}]",
         "attribute name must be non-empty text, got ['g']"),
        ("[{kind: categorical, levels: [a]}]", "attribute name must be non-empty text, got None"),
        ("[{name: g}]", "attribute 'g' has unknown kind None"),
    ], ids=["repeated-level", "repeated-name", "joined-name", "bounds", "unknown-key",
            "name-not-text", "no-name", "no-kind"])
    def test_schema_errors_name_the_file(self, tmp_path, attributes, error):
        doc = tmp_path / "schema.yaml"
        doc.write_text(f"attributes: {attributes}\n"
                       "observable: {name: o, kind: categorical, levels: [a]}\n")
        with pytest.raises(ValidationError) as raised:
            load_schema(doc)
        assert str(raised.value) == f"{doc}: {error}"

    @pytest.mark.parametrize("text, value", [
        ("a: null\n", None), ("a: ~\n", None), ("a:\n", None), ("a: ''\n", ""),
        ("a: 'null'\n", "null"), ("a: NULL\n", None), ("a: nil\n", "nil"),
    ])
    def test_only_a_plain_null_is_none(self, tmp_path, text, value):
        doc = tmp_path / "doc.yaml"
        doc.write_text(text)
        assert load_yaml_doc(doc, "test", {"a"}) == {"a": value}


class TestSampleFile:
    def _schema_doc(self, tmp_path):
        doc = tmp_path / "schema.yaml"
        doc.write_text(
            "attributes:\n"
            "  - {name: group, kind: categorical, levels: [a, b]}\n"
            "observable: {name: score, kind: continuous, range: [0, 1]}\n"
        )
        return load_schema(doc)

    def test_header_binding_ignores_column_order(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("score,group\n0.25,a\n0.75,b\n")
        samples = load_samples(f, schema)
        assert samples.rows == (("a", 0.25), ("b", 0.75))

    def test_missing_column_rejected(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("group\na\n")
        with pytest.raises(ValidationError, match="missing column 'score'"):
            load_samples(f, schema)

    def test_unknown_column_rejected(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("group,score,shoe\na,0.5,9\n")
        with pytest.raises(ValidationError, match="unknown column 'shoe'"):
            load_samples(f, schema)

    def test_non_numeric_cell_is_parse_error(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("group,score\na,0.5\n\n\n\nb,tall\n")
        with pytest.raises(ParseError, match=":6: non-numeric value 'tall'"):
            load_samples(f, schema)

    def test_undeclared_level_is_validation_error(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("group,score\npurple,0.5\n")
        with pytest.raises(ValidationError, match="purple"):
            load_samples(f, schema)

    def test_empty_file_is_parse_error(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_samples(f, schema)

    def test_csv_round_trip(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        samples = SampleSet(schema, (("a", 0.25), ("b", 0.75)))
        f = tmp_path / "out.csv"
        f.write_text(samples_to_csv(samples))
        assert load_samples(f, schema).rows == samples.rows

    def test_loaded_equals_constructed(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text("score,group\n 0.25 ,\ta\n1,b\n")
        loaded = load_samples(f, schema)
        constructed = SampleSet(schema, (("a", 0.25), ("b", 1.0)))
        assert (loaded.schema, loaded.rows) == (constructed.schema, constructed.rows)

    def test_first_bad_value_in_row_order(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        # row 1 holds the first bad value, though the group column comes first
        f.write_text("group,score\na,0.5\na,nan\npurple,0.5\n")
        with pytest.raises(ValidationError) as raised:
            load_samples(f, schema)
        assert str(raised.value) == (
            f"{f}: row 1, attribute 'score': value must be finite, got nan"
        )

    @pytest.mark.parametrize("text, error, message", [
        ("group,score\na,0.5\nb,tall\na,0.5\nb,tall\n", ParseError,
         ":3: non-numeric value 'tall' for attribute 'score'"),
        ("group,score\na,0.5\npurple,0.5\na,0.5\npurple,0.5\n", ValidationError,
         ": row 1, attribute 'group': value 'purple' is not a declared level"),
        ("group,score\na,0.5\na,0.5\n\na,0.5,1\na,0.5,1\n", ParseError,
         ":5: expected 2 cells, got 3"),
    ])
    def test_repeated_bad_line_reported_at_its_first(self, tmp_path, text, error, message):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text(text)
        with pytest.raises(error) as raised:
            load_samples(f, schema)
        assert str(raised.value).startswith(f"{f}{message}")

    @pytest.mark.parametrize("size, error, message", [
        (131072, ValidationError, ": row 1, attribute 'group': value 'aaa"),
        (131073, ParseError, ":3: field larger than field limit (131072)"),
    ])
    def test_unquoted_cell_at_the_field_limit(self, tmp_path, size, error, message):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text(f"group,score\na,0.5\n{'a' * size},0.5\n")
        with pytest.raises(error) as raised:
            load_samples(f, schema)
        assert str(raised.value).startswith(f"{f}{message}")

    def test_line_ending_twins_load_as_one_row(self, tmp_path):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_bytes(b"group,score\r\nb,0.25\r\na,0.5\r\na,0.5\nb,0.25\rb,0.25\n")
        loaded = load_samples(f, schema)
        assert loaded.rows == (("b", 0.25), ("a", 0.5), ("a", 0.5), ("b", 0.25), ("b", 0.25))
        assert [values.tolist() for values in loaded.data] == [[1, 0, 0, 1, 1],
                                                              [0.25, 0.5, 0.5, 0.25, 0.25]]

    @pytest.mark.parametrize("header", ["group,score", '"group",score'])
    def test_leading_byte_order_mark_dropped(self, tmp_path, header):
        schema = self._schema_doc(tmp_path)
        f = tmp_path / "s.csv"
        f.write_text(f"\ufeff{header}\na,0.5\n", encoding="utf-8")
        assert load_samples(f, schema).rows == (("a", 0.5),)

    @settings(max_examples=300, deadline=None)
    @given(case=sample_file())
    def test_matches_row_wise_oracle(self, case):
        columns, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text, encoding="utf-8", newline="")
            got = outcome(lambda: load_samples(path, schema_of(columns)).rows)
            assert got == outcome(lambda: oracles.read_sample_rows(path, columns))

    def test_ingest_peak_memory_bounded(self, tmp_path):
        levels = [("male", "female"), ("abled", "disabled"),
                  ("a18_29", "a30_39", "a40_49"), tuple(f"h{h:02d}" for h in range(24))]
        names = ["sex", "disability", "age", "hour"]
        specs = [AttributeSpec.categorical(n, lv) for n, lv in zip(names, levels)]
        schema = ProfileSchema(attributes=tuple(specs[:-1]), observable=specs[-1])
        rng = np.random.default_rng(3)
        picks = [np.array(lv)[rng.integers(0, len(lv), 50_000)] for lv in levels]
        f = tmp_path / "s.csv"
        f.write_text("\n".join([",".join(names), *map(",".join, zip(*picks))]) + "\n")
        tracemalloc.start()
        try:
            table = empirical_joint(load_samples(f, schema))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.probabilities.sum() == pytest.approx(1.0)
        assert peak < PEAK_BOUND_MB * 2**20


class TestCsvRows:
    def test_blank_rows_skipped_line_numbers_physical(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x,u,v\n \t, ,\n,,\n\n  \n,,,,\na,,\n,, b\n")
        assert list(read_csv_rows(f, "t")) == [
            (1, ["x", "u", "v"]), (7, ["a", "", ""]), (8, ["", "", " b"]),
        ]


# One line of a JSON-lines file: a value, or something close to one, with
# text around it that JSON may or may not allow there. Nesting deep enough
# to fail is of one kind, so the error names the same container at any depth.
UTF8_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | UTF8_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(UTF8_TEXT, inner, max_size=3),
    max_leaves=8,
)
JSON_BODIES = st.one_of(
    st.dictionaries(UTF8_TEXT, JSON_VALUES, max_size=4).map(json.dumps),
    JSON_VALUES.map(lambda value: json.dumps(value, ensure_ascii=False)),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.integers(1, 3000).map(lambda depth: '{"a": ' * depth + "0" + "}" * depth),
    st.sampled_from(['{"a": 1} {"b": 2}', '{"a": 1}}', '{"a": NaN}', "{", '{"a" 1}', ""]),
    UTF8_TEXT,
)
JSON_AROUND = st.sampled_from(
    ["", " ", "\t", "\r", "\x0b", "\xa0", "\ufeff", "\x1c", " x", "}", "\u2028"]
)
JSON_LINES = st.tuples(JSON_AROUND, JSON_BODIES, JSON_AROUND, st.sampled_from(["\n", "\r\n", ""]))


def json_loads_lines(path):
    """What reading each line of ``path`` with json.loads gives: the records
    before the first bad line, and that line's error (None if there is none)."""
    records = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return records, f"{path}:{lineno}: invalid t line: {exc}"
        if not isinstance(record, dict):
            return records, f"{path}:{lineno}: t line must be a JSON object"
        records.append((lineno, record))
    return records, None


class TestJsonLines:
    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(JSON_LINES, min_size=1, max_size=3))
    def test_reads_what_json_loads_reads(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            path.write_text("".join("".join(parts) for parts in lines), encoding="utf-8",
                            newline="")
            records, error = [], None
            try:
                records.extend(read_json_lines(path, "t"))
            except ParseError as exc:
                error = str(exc)
            expected, expected_error = json_loads_lines(path)
        assert error == expected_error
        assert repr(records) == repr(expected)  # repr, so that a NaN equals itself


class TestWriteText:
    def test_replaces_the_target(self, tmp_path):
        f = tmp_path / "out.txt"
        f.write_text("old\n")
        write_text(f, "new\n")
        assert f.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_the_directory_as_it_was(self, tmp_path):
        f = tmp_path / "out.txt"
        f.write_text("old\n")
        (tmp_path / "sub").mkdir()
        # a lone surrogate fails while writing, a directory target when replacing
        for target, text in ((f, "\ud800"), (tmp_path / "sub", "new\n")):
            with pytest.raises(ParseError, match=f"^{target}: "):
                write_text(target, text)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sub"]
            assert f.read_text() == "old\n" and not any((tmp_path / "sub").iterdir())

    def test_missing_directory_names_the_path(self, tmp_path):
        target = tmp_path / "absent" / "x"
        with pytest.raises(ParseError) as raised:
            write_text(target, "x\n")
        assert str(raised.value) == f"{target}: No such file or directory"


class TestDiscretize:
    def test_equal_width_left_closed_right_open(self):
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, tuple(("a", v) for v in (0.0, 0.25, 0.49, 0.5, 0.99, 1.0)))
        binned = discretize(samples, {"score": BinRule.equal_width(4)})
        assert [r[1] for r in binned.rows] == ["bin0", "bin1", "bin1", "bin2", "bin3", "bin3"]
        assert binned.schema.observable.levels == ("bin0", "bin1", "bin2", "bin3")

    def test_upper_bound_lands_in_last_bin(self):
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, (("a", 1.0), ("a", 0.0)))
        binned = discretize(samples, {"score": BinRule.equal_width(2)})
        assert [r[1] for r in binned.rows] == ["bin1", "bin0"]

    def test_explicit_cuts(self):
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, (("a", 0.1), ("a", 0.4), ("a", 0.9), ("a", 0.33)))
        binned = discretize(samples, {"score": BinRule.explicit([0.33, 0.66])})
        # 0.33 sits on a cut: interval is left-closed, so it opens bin1
        assert [r[1] for r in binned.rows] == ["bin0", "bin1", "bin2", "bin1"]

    def test_explicit_cut_outside_bounds_rejected(self):
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, (("a", 0.5),))
        with pytest.raises(ValidationError, match="not strictly inside"):
            discretize(samples, {"score": BinRule.explicit([1.5])})

    def test_quantile_median_split_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.0, size=1000)
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, tuple(("a", float(v)) for v in values))
        binned = discretize(samples, {"score": BinRule.quantile(2)})
        got = [r[1] for r in binned.rows]
        assert got.count("bin0") == 500
        assert got.count("bin1") == 500
        # sort-based oracle: the 500 smallest values are exactly bin0
        order = sorted(range(1000), key=lambda i: values[i])
        expected = [""] * 1000
        for rank, i in enumerate(order):
            expected[i] = "bin0" if rank < 500 else "bin1"
        assert got == expected

    def test_quantile_ties_go_to_lower_bin(self):
        schema = _continuous_schema(0.0, 1.0)
        # median of these six values is exactly 0.5
        samples = SampleSet(
            schema, tuple(("a", v) for v in (0.1, 0.2, 0.5, 0.5, 0.8, 0.9))
        )
        binned = discretize(samples, {"score": BinRule.quantile(2)})
        assert [r[1] for r in binned.rows] == ["bin0", "bin0", "bin0", "bin0", "bin1", "bin1"]

    def test_quantile_more_bins_than_distinct_values_rejected(self):
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, (("a", 0.2), ("a", 0.2), ("a", 0.8)))
        with pytest.raises(ValidationError, match="exceeds 2 distinct"):
            discretize(samples, {"score": BinRule.quantile(3)})

    def test_missing_rule_rejected(self):
        schema = _continuous_schema()
        samples = SampleSet(schema, (("a", 0.5),))
        with pytest.raises(ValidationError, match="no binning rule"):
            discretize(samples, {})

    @pytest.mark.parametrize("name", ["typo", "group"])
    def test_rule_for_a_non_continuous_name_rejected(self, name):
        samples = SampleSet(_continuous_schema(), (("a", 0.5),))
        rules = {"score": BinRule.equal_width(2), name: BinRule.quantile(2)}
        with pytest.raises(ValidationError) as raised:
            discretize(samples, rules)
        assert str(raised.value) == (
            f"binning rule given for {name!r}, which is not a continuous attribute"
        )

    def test_rule_needs_two_bins(self):
        with pytest.raises(ValidationError, match="at least 2 bins"):
            BinRule.equal_width(1)

    def test_cuts_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            BinRule.explicit([0.5, 0.5])

    def test_categorical_columns_pass_through(self, intersect_schema):
        samples = SampleSet(
            intersect_schema,
            (("male", "abled", "morning"), ("female", "disabled", "evening")),
        )
        binned = discretize(samples, {})
        assert binned.rows == samples.rows

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=60,
        ),
        bins=st.integers(min_value=2, max_value=5),
    )
    def test_equal_width_preserves_count_and_order(self, values, bins):
        schema = _continuous_schema(0.0, 1.0)
        samples = SampleSet(schema, tuple(("a", v) for v in values))
        binned = discretize(samples, {"score": BinRule.equal_width(bins)})
        assert binned.n == samples.n
        # deterministic: same inputs, same assignment
        again = discretize(samples, {"score": BinRule.equal_width(bins)})
        assert binned.rows == again.rows
        labels = binned.schema.observable.levels
        assert labels == tuple(f"bin{i}" for i in range(bins))
        assert all(r[1] in labels for r in binned.rows)

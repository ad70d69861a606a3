"""Protected-profile schemas, sample ingestion, and discretization.

A schema declares an ordered list of protected attributes plus one
observable. Attributes are either categorical with a fixed level set or
continuous with finite closed bounds. Samples are stored one array per
column, level codes for a categorical column and floats for a
continuous one; each distinct line of a sample file is parsed once, each
column is indexed from those and checked as an array, reporting the
first bad value in row order, and row tuples are derived on request.
Discretization maps continuous attributes onto categorical bins so the
exact counting machinery applies downstream.

Binning conventions, fixed once here so results are reproducible:

* equal-width and explicit cuts produce intervals that are left-closed
  and right-open, except the last bin which is closed on both ends;
* the quantile rule assigns values equal to a cut point to the lower
  bin (ties go down);
* bins are labeled ``bin0``, ``bin1``, ... in increasing order.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ParseError, ValidationError


def _lazy(name: str):
    """The module ``name``, loaded on first attribute use, so a command that
    never uses it skips its import; one already imported is returned as is."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
yaml = _lazy("yaml")

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

EQUAL_WIDTH = "equal-width"
QUANTILE = "quantile"
EXPLICIT = "explicit"

#: Separator used when level combinations are joined into one label.
LABEL_SEP = "+"

#: The whitespace JSON allows around a value.
_JSON_SPACE = " \t\n\r"


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute: categorical with fixed levels, or bounded continuous."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()
    lower: float = math.nan
    upper: float = math.nan

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValidationError(f"attribute name must be non-empty text, got {self.name!r}")
        if self.kind == CATEGORICAL:
            levels = tuple(self.levels)
            object.__setattr__(self, "levels", levels)
            if not all(isinstance(level, str) for level in levels):
                raise ValidationError(f"{self.name}: levels must be text, got {list(levels)}")
            if not levels:
                raise ValidationError(
                    f"{self.name}: categorical attribute needs at least one level"
                )
            if len(set(levels)) != len(levels):
                raise ValidationError(f"{self.name}: levels must be pairwise distinct")
        elif self.kind == CONTINUOUS:
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise ValidationError(
                    f"{self.name}: continuous attribute needs finite bounds"
                )
            if not self.lower < self.upper:
                raise ValidationError(
                    f"{self.name}: lower bound {self.lower} must be below upper bound {self.upper}"
                )
        else:
            raise ValidationError(f"{self.name}: unknown attribute kind {self.kind!r}")

    @classmethod
    def categorical(cls, name: str, levels) -> "AttributeSpec":
        return cls(name=name, kind=CATEGORICAL, levels=tuple(levels))

    @classmethod
    def continuous(cls, name: str, lower: float, upper: float) -> "AttributeSpec":
        return cls(name=name, kind=CONTINUOUS, lower=float(lower), upper=float(upper))

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS


@dataclass(frozen=True)
class ProfileSchema:
    """The protected vector (ordered attributes) plus the observable datum."""

    attributes: tuple[AttributeSpec, ...]
    observable: AttributeSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise ValidationError("schema needs at least one protected attribute")
        names = [a.name for a in self.attributes] + [self.observable.name]
        duplicated = sorted({n for n in names if names.count(n) > 1})
        if duplicated:
            raise ValidationError(
                f"attribute names must be unique; duplicated: {duplicated}"
            )
        joined = [a.name for a in self.attributes if LABEL_SEP in a.name]
        if joined:
            raise ValidationError(
                f"protected attribute name {joined[0]!r} contains {LABEL_SEP!r}, "
                "which joins attribute names into subset names"
            )

    @property
    def columns(self) -> tuple[AttributeSpec, ...]:
        """All attributes in canonical order: protected first, observable last."""
        return self.attributes + (self.observable,)

    @property
    def continuous_columns(self) -> tuple[AttributeSpec, ...]:
        return tuple(spec for spec in self.columns if spec.is_continuous)


def build_intersection_labels(schema: ProfileSchema) -> tuple[str, ...]:
    """Joint labels for the full cross-product of protected levels.

    Labels are the per-attribute levels joined with ``+``, enumerated in
    lexicographic order of the schema's attribute order, so their count
    equals the product of the level counts. Levels that contain ``+`` can
    join into one label twice; that is rejected.
    """
    cont = [a.name for a in schema.attributes if a.is_continuous]
    if cont:
        raise ValidationError(
            f"intersection labels need categorical attributes; {cont[0]!r} is continuous"
        )
    pools = [a.levels for a in schema.attributes]
    labels = tuple(LABEL_SEP.join(combo) for combo in itertools.product(*pools))
    if len(set(labels)) != len(labels):
        repeated = next(label for label, n in Counter(labels).items() if n > 1)
        raise ValidationError(
            f"intersection label {repeated!r} is repeated: levels containing "
            f"{LABEL_SEP!r} are ambiguous once joined"
        )
    return labels


@dataclass(frozen=True)
class BinRule:
    """Discretization rule for one continuous attribute."""

    method: str
    bins: int = 0
    cuts: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.method in (EQUAL_WIDTH, QUANTILE):
            if self.bins < 2:
                raise ValidationError(
                    f"{self.method} rule needs at least 2 bins, got {self.bins}"
                )
        elif self.method == EXPLICIT:
            cuts = tuple(float(c) for c in self.cuts)
            object.__setattr__(self, "cuts", cuts)
            if not cuts:
                raise ValidationError("explicit rule needs at least one cut point")
            if any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise ValidationError("cut points must be strictly increasing")
        else:
            raise ValidationError(f"unknown binning method {self.method!r}")

    @classmethod
    def equal_width(cls, bins: int) -> "BinRule":
        return cls(method=EQUAL_WIDTH, bins=int(bins))

    @classmethod
    def quantile(cls, bins: int) -> "BinRule":
        return cls(method=QUANTILE, bins=int(bins))

    @classmethod
    def explicit(cls, cuts) -> "BinRule":
        return cls(method=EXPLICIT, cuts=tuple(float(c) for c in cuts))


@dataclass(frozen=True, init=False, eq=False)
class SampleSet:
    """Validated paired observations, stored one array per schema column.

    ``data`` follows :attr:`ProfileSchema.columns` order (protected
    attributes first, observable last): a categorical column holds
    ``np.intp`` indices into its levels, a continuous one ``float64``
    values, and the arrays are read-only. ``SampleSet(schema, rows)``
    checks one value per column per row; ``rows`` and :meth:`column`
    derive Python values from the arrays on each call. Row order is
    preserved throughout; reported row indices are zero-based data-row
    positions.
    """

    schema: ProfileSchema
    data: tuple[np.ndarray, ...]

    def __init__(self, schema: ProfileSchema, rows) -> None:
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValidationError("sample set must contain at least one row")
        specs = schema.columns
        for i, row in enumerate(rows):
            if len(row) != len(specs):
                raise ValidationError(f"row {i}: expected {len(specs)} values, got {len(row)}")
            for spec, value in zip(specs, row):
                _check_value(spec, value, f"row {i}")
        self._set(schema, [
            np.array(values, dtype=float) if spec.is_continuous
            else np.array([spec.levels.index(v) for v in values], dtype=np.intp)
            for spec, values in zip(specs, zip(*rows))
        ])

    @classmethod
    def _of(cls, schema: ProfileSchema, data) -> "SampleSet":
        """Wrap columns that are already valid for ``schema``."""
        samples = object.__new__(cls)
        samples._set(schema, data)
        return samples

    def _set(self, schema: ProfileSchema, data) -> None:
        for values in data:
            values.flags.writeable = False
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "data", tuple(data))

    @property
    def n(self) -> int:
        return len(self.data[0])

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*(self.column(spec.name) for spec in self.schema.columns)))

    def column(self, name: str) -> list:
        for spec, values in zip(self.schema.columns, self.data):
            if spec.name == name:
                if spec.is_continuous:
                    return values.tolist()
                return [spec.levels[code] for code in values.tolist()]
        raise ValidationError(f"sample set has no column named {name!r}")


def _check_value(spec: AttributeSpec, value, where: str) -> None:
    if spec.is_continuous:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f"{where}, attribute {spec.name!r}: expected a number, got {value!r}"
            )
        v = float(value)
        if not math.isfinite(v):
            raise ValidationError(
                f"{where}, attribute {spec.name!r}: value must be finite, got {value!r}"
            )
        # bounds are closed: both endpoints are legal values
        if not spec.lower <= v <= spec.upper:
            raise ValidationError(
                f"{where}, attribute {spec.name!r}: value {v} outside "
                f"bounds [{spec.lower}, {spec.upper}]"
            )
    else:
        if value not in spec.levels:
            raise ValidationError(
                f"{where}, attribute {spec.name!r}: value {value!r} is not "
                f"a declared level {list(spec.levels)}"
            )


def discretize(samples: SampleSet, rules: Mapping[str, BinRule]) -> SampleSet:
    """Replace every continuous attribute with the categorical bins of its rule.

    A rule for any other name is rejected. Deterministic: the same samples
    and rules always give the same binning, and both sample count and row
    order are preserved.
    """
    schema = samples.schema
    continuous = schema.continuous_columns
    stray = sorted(set(rules) - {spec.name for spec in continuous})
    if stray:
        raise ValidationError(
            f"binning rule given for {stray[0]!r}, which is not a continuous attribute"
        )
    missing = [spec.name for spec in continuous if spec.name not in rules]
    if missing:
        raise ValidationError(
            f"no binning rule for continuous attribute {missing[0]!r}"
        )
    specs, data = list(schema.columns), list(samples.data)
    for j, spec in enumerate(schema.columns):
        if spec.is_continuous:
            cuts, side = _resolve_cuts(spec, rules[spec.name], data[j])
            specs[j] = AttributeSpec.categorical(
                spec.name, tuple(f"bin{i}" for i in range(len(cuts) + 1))
            )
            data[j] = np.searchsorted(cuts, data[j], side=side)
    new_schema = ProfileSchema(attributes=tuple(specs[:-1]), observable=specs[-1])
    return SampleSet._of(new_schema, data)


def _resolve_cuts(
    spec: AttributeSpec, rule: BinRule, values: np.ndarray
) -> tuple[np.ndarray, str]:
    """Interior cut points plus the searchsorted side implementing the tie rule."""
    if rule.method == EQUAL_WIDTH:
        width = (spec.upper - spec.lower) / rule.bins
        cuts = np.array([spec.lower + i * width for i in range(1, rule.bins)])
        return cuts, "right"
    if rule.method == EXPLICIT:
        cuts = np.asarray(rule.cuts, dtype=float)
        outside = [c for c in rule.cuts if not spec.lower < c < spec.upper]
        if outside:
            raise ValidationError(
                f"{spec.name}: cut point {outside[0]} not strictly inside "
                f"bounds ({spec.lower}, {spec.upper})"
            )
        return cuts, "right"
    # quantile: ties at a cut point fall into the lower bin, hence side="left"
    distinct = np.unique(values).size
    if rule.bins > distinct:
        raise ValidationError(
            f"{spec.name}: quantile rule with {rule.bins} bins exceeds "
            f"{distinct} distinct values"
        )
    qs = [i / rule.bins for i in range(1, rule.bins)]
    cuts = np.quantile(values, qs)
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError(
            f"{spec.name}: quantile cut points are not distinct; "
            "reduce the bin count"
        )
    return cuts, "left"


# ---------------------------------------------------------------------------
# file formats


def load_schema(path) -> ProfileSchema:
    """Read a schema document (YAML, of which JSON is a subset).

    Expected shape::

        attributes:
          - name: sex
            kind: categorical
            levels: [male, female]
          - name: impairment
            kind: continuous
            range: [0.0, 1.0]
        observable:
          name: keystroke_interval
          kind: continuous
          range: [50.0, 400.0]
    """
    doc = load_yaml_doc(path, "schema", {"attributes", "observable"})
    raw_attrs = doc.get("attributes")
    if not isinstance(raw_attrs, list) or not raw_attrs:
        raise ValidationError(f"{path}: 'attributes' must be a non-empty list")
    if "observable" not in doc:
        raise ValidationError(f"{path}: schema must declare an 'observable'")
    try:
        specs = [_parse_attribute(entry) for entry in [*raw_attrs, doc["observable"]]]
        return ProfileSchema(attributes=tuple(specs[:-1]), observable=specs[-1])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_attribute(entry) -> AttributeSpec:
    if not isinstance(entry, dict):
        raise ValidationError(f"attribute entry must be a mapping, got {entry!r}")
    name, kind = entry.get("name"), entry.get("kind")
    check_keys(entry, {"name", "kind", "levels", "range"}, f"attribute {name!r}", "attribute")
    if kind == CATEGORICAL:
        levels = entry.get("levels")
        if not isinstance(levels, list) or not levels:
            raise ValidationError(
                f"categorical attribute {name!r} needs a non-empty 'levels' list"
            )
        return AttributeSpec.categorical(name, levels)
    if kind == CONTINUOUS:
        bounds = entry.get("range")
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValidationError(f"continuous attribute {name!r} needs 'range: [lower, upper]'")
        what = f"range of attribute {name!r}"
        return AttributeSpec.continuous(name, _number(bounds[0], what), _number(bounds[1], what))
    raise ValidationError(f"attribute {name!r} has unknown kind {kind!r}")


def _number(text, what: str) -> float:
    """``float()`` of a scalar's text; anything else is a ValidationError naming ``what``."""
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric, got {text!r}") from None


@contextlib.contextmanager
def _reading(path, **kwargs):
    """Open a file for reading, mapping errors on opening or while reading as
    :func:`read_lines` describes."""
    p = Path(path)
    try:
        with open(p, **kwargs) as fh:
            yield fh
    except FileNotFoundError:
        raise ParseError(f"{p}: no such file") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from None


def read_lines(path):
    """Yield the lines of a UTF-8 text file as they are read, endings kept and a
    leading byte order mark dropped; a missing file, bytes that are not UTF-8 or
    another OSError are a ParseError naming it."""
    # newline="" keeps line endings untranslated, as csv.reader needs
    with _reading(path, encoding="utf-8-sig", newline="") as fh:
        yield from fh


def read_chunks(path):
    """Yield the bytes of a file in 64 KiB chunks, as they are, with the errors
    of :func:`read_lines` on opening or reading."""
    with _reading(path, mode="rb") as fh:
        yield from iter(lambda: fh.read(1 << 16), b"")


def write_text(path, pieces) -> None:
    """Write UTF-8 text, an iterable of strings, through a new file beside
    ``path`` that then replaces it, so a failed write leaves neither a partial
    file nor the new one; the failure is a ParseError naming ``path``."""
    import os

    p = Path(path)
    tmp = p.parent / f".{p.name}.{os.urandom(6).hex()}.tmp"
    try:
        # "x" creates a new file with the umask's permissions and follows no link
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.writelines(pieces)
        tmp.replace(p)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, (OSError, UnicodeEncodeError)):
            raise ParseError(f"{p}: {getattr(exc, 'strerror', None) or exc}") from None
        raise


def read_csv_rows(path, what: str, ids: list | None = None):
    """Yield ``(line number, cells)`` for each non-blank record of a delimited
    file, header first. Line numbers are physical (blank lines count), a record's
    being that of its last line. Each record has the header's cell count; no
    records is an ``empty <what> file``.
    With a list ``ids``, a data line seen before is not parsed or yielded again;
    ``ids`` gets each data record's position among the data records yielded."""
    numbered = enumerate(read_lines(path), 1)
    rest = (line for _, line in numbered)
    limit, seen, width = csv.field_size_limit(), {}, None
    for lineno, line in numbered:
        known = seen.get(line)
        if known is not None:
            ids.append(known)
            continue
        # any other line is one record that split() cuts as csv.reader does; csv.reader
        # takes quotes, a cell that may pass its field limit, and NUL (an error before 3.11)
        if '"' in line or "\0" in line or len(line) > limit:
            reader = csv.reader(itertools.chain([line], rest))
            try:
                cells = next(reader)
            except csv.Error as exc:
                raise ParseError(f"{path}:{lineno + reader.line_num - 1}: {exc}") from None
            spans = reader.line_num > 1
            lineno += reader.line_num - 1
        else:
            cells, spans = line.rstrip("\r\n").split(","), False
        if not "".join(cells).strip():
            continue
        if width is None:
            width = len(cells)  # the header's
        elif len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
        elif ids is not None:
            # a record that spans lines is keyed by its number, which no line is
            ids.append(seen.setdefault(lineno if spans else line, len(seen)))
        yield lineno, cells
    if width is None:
        raise ParseError(f"{path}: empty {what} file")


def read_json_lines(path, what: str):
    """Yield ``(line number, object)`` for each non-blank line of a
    line-delimited JSON file; every line must hold one JSON object."""
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            # json.loads without its per-call overhead: JSON whitespace around one value
            record, end = decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
            if line[end:].strip(_JSON_SPACE):
                raise ValueError("extra data")
        except (ValueError, RecursionError):
            try:
                record = json.loads(line)  # the general path words each error
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{path}:{lineno}: invalid {what} line: {exc}") from None
        if not isinstance(record, dict):
            raise ParseError(f"{path}:{lineno}: {what} line must be a JSON object")
        yield lineno, record


def json_float(integer: int) -> float:
    """A JSON integer as a float; one too large for a float reads as ±inf,
    as ``json`` reads ``1e999``."""
    try:
        return float(integer)
    except OverflowError:
        return math.inf if integer > 0 else -math.inf


def load_yaml_doc(path, what: str, known) -> dict:
    """Read a YAML (or JSON) mapping with keys in ``known``, each key text and given once,
    each other scalar its text or, if a plain ``null``, ``~`` or empty, None. Bad YAML is a
    ParseError naming its line; a wrong shape or key is a ValidationError."""
    text = "".join(read_lines(path))
    def text_mapping(loader, node) -> dict:
        mapping = {}
        for key_node, value_node in node.value:
            key = loader.construct_scalar(key_node)  # text as written; a list or map is an error
            if key in mapping:
                raise ParseError(f"{path}:{key_node.start_mark.line + 1}: repeated key {key!r}")
            mapping[key] = loader.construct_object(value_node)
        return mapping

    loader = type("TextLoader", (yaml.BaseLoader,), {"construct_mapping": text_mapping})
    # YAML's null as yaml.safe_load resolves it: ~, null, Null, NULL or nothing
    loader.add_implicit_resolver(*yaml.SafeLoader.yaml_implicit_resolvers["~"][0], [*"~nN", ""])
    loader.add_constructor("tag:yaml.org,2002:null", lambda loader, node: None)
    try:
        doc = yaml.load(text, loader)
    except yaml.MarkedYAMLError as exc:
        line = (exc.problem_mark or exc.context_mark).line + 1
        problem = ": ".join(filter(None, [exc.context, exc.problem]))
        raise ParseError(f"{path}:{line}: invalid document: {problem}") from None
    except yaml.reader.ReaderError as exc:  # a character YAML refuses, found before parsing
        line = text.count("\n", 0, exc.position) + 1
        raise ParseError(f"{path}:{line}: invalid document: {str(exc).splitlines()[0]}") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid document: nested too deeply") from None
    if doc is None:
        raise ParseError(f"{path}: empty document")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {what} document must be a mapping")
    check_keys(doc, known, path, what)
    return doc


def check_keys(mapping: dict, known, where: str, what: str) -> None:
    """Reject an unknown key, naming the one that sorts first."""
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ValidationError(f"{where}: unknown {what} key {min(unknown)!r}")


def load_samples(path, schema: ProfileSchema) -> SampleSet:
    """Read a delimited sample file with a header row naming the columns.

    Columns are bound by name against the schema; file column order is
    irrelevant. Every schema column must be present, every header must
    be declared, and every cell must parse and validate.
    """
    p = Path(path)
    ids = []
    raw = read_csv_rows(p, "sample", ids)
    header = [h.strip() for h in next(raw)[1]]
    if len(set(header)) != len(header):
        raise ValidationError(f"{p}: duplicate column in header")
    specs = schema.columns
    declared = [spec.name for spec in specs]
    unknown = [h for h in header if h not in declared]
    if unknown:
        raise ValidationError(f"{p}: unknown column {unknown[0]!r}")
    missing = [n for n in declared if n not in header]
    if missing:
        raise ValidationError(f"{p}: missing column {missing[0]!r}")
    at = [header.index(name) for name in declared]
    # {cell: code} of each categorical column; an undeclared cell, stripped,
    # gets the next code past the levels
    codes = [None if spec.is_continuous else {v: k for k, v in enumerate(spec.levels)}
             for spec in specs]
    table = [[] for _ in specs]  # the distinct rows, one list per column
    for lineno, cells in raw:
        for values, k, code in zip(table, at, codes):
            cell = cells[k]
            if code is None:
                try:
                    values.append(float(cell.strip()))
                except ValueError:
                    raise ParseError(f"{p}:{lineno}: non-numeric value {cell.strip()!r} "
                                     f"for attribute {header[k]!r}") from None
            else:
                values.append(code.setdefault(cell if cell in code else cell.strip(), len(code)))
    if not ids:
        raise ParseError(f"{p}: sample file has a header but no data rows")
    rows = np.array(ids, dtype=np.intp)
    data = [np.array(values, dtype=float if code is None else np.intp)[rows]
            for values, code in zip(table, codes)]
    # a row per data row, a column per attribute: the first False is the first bad value
    ok = np.column_stack([(s.lower <= v) & (v <= s.upper) if s.is_continuous
                          else v < len(s.levels) for s, v in zip(specs, data)])
    if not ok.all():
        i, j = divmod(int(ok.argmin()), len(specs))
        value = float(data[j][i]) if specs[j].is_continuous else list(codes[j])[data[j][i]]
        _check_value(specs[j], value, f"{p}: row {i}")
    return SampleSet._of(schema, data)


def samples_to_csv(samples: SampleSet) -> str:
    """Render a sample set back to CSV in schema column order; a cell holding a
    comma, a quote or a newline is quoted."""
    out = io.StringIO()
    # csv writes a float as its repr, the shortest round-trip form
    csv.writer(out, lineterminator="\n").writerows(
        [[spec.name for spec in samples.schema.columns], *samples.rows])
    return out.getvalue()

"""Exact information measures over finite joint distributions.

Everything here computes in natural-log units; bits are a display
conversion applied at the boundary through :class:`InfoQuantity`. The
central object is a :class:`JointTable` holding P(X, S) with the
observable on rows and the joint protected labels on columns.

Mutual information is computed two ways on every call, as the
Kullback-Leibler form sum p(x,s) log(p(x,s) / (p(x) p(s))) and as the
entropy difference H(S) - H(S|X); the two must agree to 1e-9 or the
table is rejected as inconsistent. Tiny negative results from round-off
are clamped to zero with a diagnostic warning.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .schema import LABEL_SEP, ProfileSchema, build_intersection_labels, np, read_csv_rows

NATS = "nats"
BITS = "bits"
_UNITS = (NATS, BITS)

LN2 = math.log(2.0)

#: |sum - 1| beyond this rejects a distribution; smaller is renormalized.
SUM_TOLERANCE = 1e-6

#: Renormalization below this deviation happens silently.
_QUIET_RENORM = 1e-9

#: Floating slack inside which negative information is treated as zero.
NEG_CLAMP = 1e-12

#: Required agreement between the two mutual-information formulas.
FORMULA_AGREEMENT = 1e-9

#: Subset reports enumerate 2^m - 1 subsets; refuse beyond this many attributes.
MAX_REPORT_ATTRIBUTES = 12


@dataclass(frozen=True)
class InfoQuantity:
    """A nonnegative amount of information tagged with its unit."""

    value: float
    unit: str

    def __post_init__(self) -> None:
        if self.unit not in _UNITS:
            raise ValidationError(
                f"unknown information unit {self.unit!r}; expected one of {_UNITS}"
            )
        value = float(self.value) + 0.0  # -0.0 becomes 0.0
        object.__setattr__(self, "value", value)
        if not math.isfinite(value):
            raise ValidationError(f"information value must be finite, got {value!r}")
        if value < 0:
            raise ValidationError(f"information value must be nonnegative, got {value!r}")

    def in_nats(self) -> float:
        return self.value if self.unit == NATS else self.value * LN2

    def in_bits(self) -> float:
        return self.value if self.unit == BITS else self.value / LN2

    def to(self, unit: str) -> "InfoQuantity":
        if unit == self.unit:
            return self
        return InfoQuantity(self.in_nats() if unit == NATS else self.in_bits(), unit)


def _normalized(p: np.ndarray, what: str) -> np.ndarray:
    """``p`` divided by its sum, once its entries are checked to be finite,
    nonnegative and to sum to 1 within :data:`SUM_TOLERANCE`; renormalizing
    by more than :data:`_QUIET_RENORM` warns."""
    if p.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{what} entries must be finite")
    if np.any(p < 0):
        raise ValidationError(f"{what} entries must be nonnegative")
    total = float(p.sum())
    deviation = abs(total - 1.0)
    if deviation > SUM_TOLERANCE:
        raise ValidationError(
            f"{what} entries sum to {total:.6f}, deviating from 1 "
            f"by more than {SUM_TOLERANCE}"
        )
    if deviation > _QUIET_RENORM:
        warnings.warn(
            f"{what} renormalized; entries summed to {total!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    return p / total


@dataclass(frozen=True)
class JointTable:
    """Finite joint distribution with labeled axes.

    Rows are the observable's levels, columns the joint protected
    labels. Entries must be nonnegative and sum to 1 within
    :data:`SUM_TOLERANCE`; the stored matrix is renormalized to sum to
    exactly 1 and frozen read-only.
    """

    x_levels: tuple[str, ...]
    s_levels: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        x_levels = tuple(str(v) for v in self.x_levels)
        s_levels = tuple(str(v) for v in self.s_levels)
        object.__setattr__(self, "x_levels", x_levels)
        object.__setattr__(self, "s_levels", s_levels)
        for axis, levels in (("row", x_levels), ("column", s_levels)):
            if not levels:
                raise ValidationError(f"joint table needs at least one {axis} label")
            if len(set(levels)) != len(levels):
                raise ValidationError(f"duplicate {axis} label in joint table")
        p = np.array(self.probabilities, dtype=float)
        if p.shape != (len(x_levels), len(s_levels)):
            raise ValidationError(
                f"probability matrix shape {p.shape} does not match "
                f"{len(x_levels)} rows x {len(s_levels)} columns"
            )
        p = _normalized(p, "joint table")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def x_marginal(self) -> np.ndarray:
        return self.probabilities.sum(axis=1)

    def s_marginal(self) -> np.ndarray:
        return self.probabilities.sum(axis=0)

    def transposed(self) -> "JointTable":
        """The same distribution with the two variables swapped."""
        return JointTable(self.s_levels, self.x_levels, self.probabilities.T)


def _entropy_nats(arr: np.ndarray) -> float:
    support = arr[arr > 0]
    # every term of -p log p is nonnegative once p <= 1, so no clamp needed
    return float(-(support * np.log(support)).sum())


def entropy(dist, unit: str = NATS) -> InfoQuantity:
    """Shannon entropy of a probability vector, with 0 log 0 = 0.

    The vector is checked and renormalized as :class:`JointTable` entries are.
    """
    p = _normalized(np.array(dist, dtype=float).ravel(), "distribution")
    return InfoQuantity(_entropy_nats(p), NATS).to(unit)


def _measures(p: np.ndarray) -> tuple[float, float, float]:
    """KL-form I(X; S), H(S) and H(S|X) in nats of a joint probability
    matrix, from one set of marginals, support mask and logs."""
    px = p.sum(axis=1)
    ps = p.sum(axis=0)
    mask = p > 0
    cells = p[mask]
    px_cells = np.broadcast_to(px[:, None], p.shape)[mask]
    ps_cells = np.broadcast_to(ps[None, :], p.shape)[mask]
    log_cells = np.log(cells)
    log_px = np.log(px_cells)
    direct = float((cells * (log_cells - log_px - np.log(ps_cells))).sum())
    # renormalized as entropy() does, so h_s equals entropy(p.sum(axis=0))
    h_s = _entropy_nats(ps / ps.sum())
    return direct, h_s, float((cells * (log_px - log_cells)).sum())


def conditional_entropy(joint: JointTable, unit: str = NATS) -> InfoQuantity:
    """H(S | X): expected entropy of the columns given the row.

    Rows with zero marginal probability contribute nothing.
    """
    return InfoQuantity(_measures(joint.probabilities)[2], NATS).to(unit)


def _information(p: np.ndarray) -> tuple[float, float]:
    """Checked I(X; S) and H(S) in nats of a joint matrix; see :func:`mutual_information`."""
    direct, h_s, h_s_given_x = _measures(p)
    difference = h_s - h_s_given_x
    if abs(direct - difference) > FORMULA_AGREEMENT:
        raise ValidationError(
            "mutual-information formulas disagree beyond tolerance: "
            f"KL form {direct!r} vs entropy difference {difference!r}"
        )
    value = direct
    if value < 0:
        if value < -NEG_CLAMP:
            raise ValidationError(
                f"mutual information is negative beyond round-off: {value!r}"
            )
        warnings.warn(
            f"clamped negative round-off mutual information {value!r} to 0",
            RuntimeWarning,
            stacklevel=3,
        )
        value = 0.0
    return value, h_s


def mutual_information(joint: JointTable, unit: str = NATS) -> InfoQuantity:
    """I(X; S) between the row and column variables of a joint table.

    Computed both as the KL form and as H(S) - H(S|X); disagreement
    beyond :data:`FORMULA_AGREEMENT` raises. Negative round-off within
    :data:`NEG_CLAMP` is clamped to zero with a warning carrying the
    raw value.
    """
    return InfoQuantity(_information(joint.probabilities)[0], NATS).to(unit)


def _exposure(joint: JointTable) -> tuple[float, float]:
    """I(X; S) and H(S) in nats, from one MI computation; H(S) must be positive."""
    nats, h_s = _information(joint.probabilities)
    if h_s <= 0.0:
        raise ValidationError(
            "profile entropy is zero; exposure ratio undefined "
            "(the prior already determines the profile)"
        )
    return nats, h_s


def _exposure_ratio(nats: float, h_nats: float) -> float:
    """``nats / h_nats`` with its endpoints snapped within :data:`NEG_CLAMP`."""
    ratio = nats / h_nats
    return 1.0 if ratio >= 1.0 - NEG_CLAMP else max(ratio, 0.0)


def exposure_ratio(joint: JointTable) -> float:
    """Leaked fraction of the profile's entropy, I(X;S) / H(S), in [0, 1].

    Unit-free: numerator and denominator share whatever base is used.
    Endpoints are snapped within :data:`NEG_CLAMP` so exact zero and
    exact one survive round-off.
    """
    return _exposure_ratio(*_exposure(joint))


def _subset_indices(schema: ProfileSchema, subset) -> list[int]:
    """Sorted distinct indices into ``schema.attributes``, validated."""
    subset = list(subset)
    for i in subset:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValidationError(f"attribute index {i!r} is not an integer")
    indices = sorted(set(int(i) for i in subset))
    if not indices:
        raise ValidationError("attribute subset must not be empty")
    m = len(schema.attributes)
    out_of_range = [i for i in indices if i < 0 or i >= m]
    if out_of_range:
        raise ValidationError(
            f"attribute index {out_of_range[0]} out of range for "
            f"{m} protected attributes"
        )
    return indices


def _attribute_tensor(joint: JointTable, schema: ProfileSchema) -> np.ndarray:
    """The table as a tensor of shape (|X|, k_1, ..., k_m), once its columns
    are checked against the schema's intersection labels; the reshape is
    exact because the labels enumerate the level cross-product in C order,
    putting attribute i on axis i + 1."""
    if tuple(joint.s_levels) != build_intersection_labels(schema):
        raise ValidationError(
            "joint table columns do not match the schema's intersection labels"
        )
    sizes = [len(a.levels) for a in schema.attributes]
    return joint.probabilities.reshape([len(joint.x_levels)] + sizes)


def _subset_mi(tensor: np.ndarray, indices) -> InfoQuantity:
    """Checked I(X; S_A) for the attributes at ``indices``: the others are
    summed out in one reduction and the result renormalized as
    :class:`JointTable` does."""
    dropped = tuple(1 + i for i in range(tensor.ndim - 1) if i not in indices)
    collapsed = tensor.sum(axis=dropped).reshape(tensor.shape[0], -1)
    return InfoQuantity(_information(collapsed / float(collapsed.sum()))[0], NATS)


def marginal_mi(joint: JointTable, schema: ProfileSchema, subset) -> InfoQuantity:
    """I(X; S_A) in nats for a subset A of protected attributes.

    ``subset`` holds integer indices into ``schema.attributes``; bools
    and non-integers are rejected. The joint table's columns must match
    the schema's intersection labels (see :func:`build_intersection_labels`);
    the table is reshaped to a tensor of shape (|X|, k_1, ..., k_m) and
    the attributes outside A are summed out in one reduction.
    """
    indices = _subset_indices(schema, subset)
    return _subset_mi(_attribute_tensor(joint, schema), indices)


def intersection_leakage_report(
    joint: JointTable, schema: ProfileSchema
) -> dict[str, InfoQuantity]:
    """Leakage in nats for every non-empty attribute subset, keyed by subset name.

    Enumerates all 2^m - 1 subsets, so m is capped at
    :data:`MAX_REPORT_ATTRIBUTES`. The columns are checked against the
    intersection labels and reshaped into the (|X|, k_1, ..., k_m) tensor
    once per report; each subset is then one sum over the axes it drops,
    so entries equal :func:`marginal_mi` exactly.
    """
    m = len(schema.attributes)
    if m > MAX_REPORT_ATTRIBUTES:
        raise ValidationError(
            f"leakage report enumerates 2^m subsets; refusing m={m} > "
            f"{MAX_REPORT_ATTRIBUTES} attributes"
        )
    tensor = _attribute_tensor(joint, schema)
    return {
        LABEL_SEP.join(schema.attributes[i].name for i in combo): _subset_mi(tensor, combo)
        for size in range(1, m + 1)
        for combo in itertools.combinations(range(m), size)
    }


# ---------------------------------------------------------------------------
# file format


def read_joint_table(path) -> JointTable:
    """Read delimited text: header row holds the joint protected labels
    (first cell ignored), each data row holds an observable label then
    probabilities."""
    p = Path(path)
    raw = read_csv_rows(p, "joint-table")
    header = next(raw)[1]
    if len(header) < 2:
        raise ParseError(f"{p}: header needs at least one probability column")
    s_levels = tuple(h.strip() for h in header[1:])
    x_levels: list[str] = []
    matrix: list[list[float]] = []
    for lineno, row in raw:
        x_levels.append(row[0].strip())
        try:
            matrix.append([float(cell) for cell in row[1:]])
        except ValueError:
            raise ParseError(f"{p}:{lineno}: non-numeric probability cell") from None
    if not matrix:
        raise ParseError(f"{p}: joint-table file has no data rows")
    return JointTable(tuple(x_levels), s_levels, np.array(matrix))


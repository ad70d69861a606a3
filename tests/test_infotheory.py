from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakpricer import (
    BITS,
    LN2,
    NATS,
    AttributeSpec,
    InfoQuantity,
    JointTable,
    ProfileSchema,
    ValidationError,
    build_intersection_labels,
    conditional_entropy,
    entropy,
    exposure_ratio,
    intersection_leakage_report,
    marginal_mi,
    mutual_information,
    read_joint_table,
)
from leakpricer.infotheory import _measures

import oracles


def value_or_error(compute):
    """The computed value, or the class of the ValidationError it raised."""
    try:
        return compute()
    except ValidationError as exc:
        return type(exc)


class TestInfoQuantity:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            InfoQuantity(-0.1, NATS)

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValidationError, match="unknown information unit"):
            InfoQuantity(1.0, "hartleys")

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            InfoQuantity(float("nan"), NATS)

    def test_conversion_is_ln2(self):
        q = InfoQuantity(1.0, NATS)
        assert q.in_bits() == 1.0 / LN2
        assert InfoQuantity(1.0, BITS).in_nats() == LN2

    def test_same_unit_conversion_is_identity(self):
        q = InfoQuantity(0.7, BITS)
        assert q.to(BITS) is q

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_round_trip_close(self, value):
        q = InfoQuantity(value, NATS)
        back = q.to(BITS).to(NATS)
        assert back.value == pytest.approx(value, rel=1e-12, abs=1e-300)


class TestJointTable:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            JointTable(("a", "b"), ("u", "v"), np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_rejects_bad_sum_naming_deviation(self):
        with pytest.raises(ValidationError, match="sum to 1.200000"):
            JointTable(("a", "b"), ("u", "v"), np.array([[0.5, 0.3], [0.2, 0.2]]))

    def test_renormalizes_small_deviation_with_warning(self):
        cells = np.array([[0.4, 0.3], [0.2, 0.1]]) * (1 + 2e-7)
        with pytest.warns(RuntimeWarning, match="renormalized"):
            table = JointTable(("a", "b"), ("u", "v"), cells)
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            JointTable(("a",), ("u", "v"), np.array([[0.5], [0.5]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate"):
            JointTable(("a", "a"), ("u", "v"), np.full((2, 2), 0.25))

    def test_probabilities_frozen(self, single_table):
        with pytest.raises(ValueError):
            single_table.probabilities[0, 0] = 0.9


class TestEntropy:
    def test_uniform_two_levels_is_one_bit(self):
        assert entropy([0.5, 0.5], BITS).value == 1.0

    def test_degenerate_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]).value == 0.0

    def test_uniform_is_log_k(self):
        k = 7
        assert entropy([1 / k] * k).value == pytest.approx(math.log(k), abs=1e-12)

    def test_matches_oracle_on_worked_marginal(self, single_table):
        got = entropy(single_table.s_marginal(), NATS).value
        assert got == pytest.approx(oracles.entropy_nats([0.5, 0.5]), abs=1e-12)

    def test_unit_coherence_exact(self, single_table):
        in_bits = entropy(single_table.x_marginal(), BITS)
        converted = entropy(single_table.x_marginal(), NATS).to(BITS)
        assert in_bits.value == converted.value

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            entropy([0.9, 0.2, -0.1])

    def test_renormalization_warns(self):
        with pytest.warns(RuntimeWarning, match="distribution renormalized"):
            value = entropy([0.5, 0.5 + 2e-7]).value
        assert value == pytest.approx(math.log(2), abs=1e-12)

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([float("nan"), float("inf"), -0.25, -1e-9]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([0.0, 5e-10, -5e-10, 5e-7, -5e-7, 2e-6, -2e-6, 0.5]),
    )
    def test_shares_the_joint_table_checks(self, weights, offset):
        # scale to sum 1 + offset where possible: inside, near and beyond
        # the tolerance; degenerate vectors go through unscaled
        v = np.array(weights)
        total = v.sum()
        if np.isfinite(total) and total > 0:
            v = v / total * (1.0 + offset)
        labels = [f"s{i}" for i in range(len(v))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            h = value_or_error(lambda: entropy(v).value)
            h_table = value_or_error(
                lambda: _measures(
                    JointTable(("x",), labels, v[None, :]).probabilities
                )[1]
            )
        if isinstance(h, float) and isinstance(h_table, float):
            assert abs(h - h_table) <= 1e-12
        else:
            assert h == h_table, "one accepted what the other rejected"

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12)
    )
    def test_bounds_hold(self, weights):
        dist = np.array(weights) / sum(weights)
        value = entropy(dist).value
        assert 0.0 <= value <= math.log(len(weights)) + 1e-12


class TestConditionalEntropy:
    def test_matches_oracle_on_worked_table(self, single_table):
        got = conditional_entropy(single_table, BITS).value
        assert got == pytest.approx(oracles.conditional_entropy_nats(oracles.SINGLE_TABLE) / LN2, abs=1e-12)

    def test_zero_when_x_determines_s(self):
        table = JointTable(("a", "b"), ("u", "v"), np.array([[0.3, 0.0], [0.0, 0.7]]))
        assert conditional_entropy(table).value == 0.0

    def test_never_exceeds_marginal_entropy(self, make_random_table):
        rng = np.random.default_rng(5)
        for _ in range(50):
            table = make_random_table(rng)
            h_s = entropy(table.s_marginal()).value
            assert conditional_entropy(table).value <= h_s + 1e-9


class TestMutualInformation:
    def test_worked_table_matches_oracle(self, single_table):
        got = mutual_information(single_table, BITS).value
        assert got == pytest.approx(oracles.mi_bits(oracles.SINGLE_TABLE), abs=1e-12)

    def test_independent_table_is_zero(self):
        px = np.array([0.3, 0.7])
        ps = np.array([0.6, 0.4])
        table = JointTable(("a", "b"), ("u", "v"), np.outer(px, ps))
        assert mutual_information(table).value <= 1e-15

    def test_unit_coherence_exact(self, single_table):
        in_bits = mutual_information(single_table, BITS).value
        converted = mutual_information(single_table, NATS).to(BITS).value
        assert in_bits == converted

    def test_symmetry(self, single_table):
        forward = mutual_information(single_table).value
        backward = mutual_information(single_table.transposed()).value
        assert abs(forward - backward) <= 1e-9

    def test_zero_probability_cells_are_skipped(self):
        table = JointTable(
            ("a", "b", "c"),
            ("u", "v"),
            np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]),
        )
        got = mutual_information(table, BITS).value
        assert got == pytest.approx(1.0, abs=1e-12)


class TestExposureRatio:
    def test_worked_table(self, single_table):
        expected = oracles.mi_nats(oracles.SINGLE_TABLE) / oracles.entropy_nats([0.5, 0.5])
        assert exposure_ratio(single_table) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_table_is_exactly_one(self):
        table = JointTable(("a", "b"), ("u", "v"), np.diag([0.5, 0.5]))
        assert exposure_ratio(table) == 1.0

    def test_independent_table_is_zero(self):
        table = JointTable(("a", "b"), ("u", "v"), np.full((2, 2), 0.25))
        assert exposure_ratio(table) == 0.0

    def test_degenerate_prior_rejected(self):
        table = JointTable(("a", "b"), ("u", "v"), np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(ValidationError, match="entropy is zero"):
            exposure_ratio(table)


class TestMarginalMI:
    def test_single_attribute_projection_matches_collapsed_oracle(
        self, intersect_table, intersect_schema
    ):
        sex_cells = oracles.collapse_columns(oracles.INTERSECT_TABLE, oracles.SEX_GROUPS)
        got = marginal_mi(intersect_table, intersect_schema, [0]).value
        assert got == pytest.approx(oracles.mi_nats(sex_cells), abs=1e-12)

    def test_disability_projection(self, intersect_table, intersect_schema):
        dis_cells = oracles.collapse_columns(
            oracles.INTERSECT_TABLE, oracles.DISABILITY_GROUPS
        )
        got = marginal_mi(intersect_table, intersect_schema, [1]).value
        assert got == pytest.approx(oracles.mi_nats(dis_cells), abs=1e-12)

    def test_full_subset_equals_plain_mi(self, intersect_table, intersect_schema):
        full = marginal_mi(intersect_table, intersect_schema, [0, 1]).value
        assert full == pytest.approx(mutual_information(intersect_table).value, abs=1e-12)

    def test_joint_strictly_exceeds_marginals(self, intersect_table, intersect_schema):
        joint = marginal_mi(intersect_table, intersect_schema, [0, 1]).value
        sex = marginal_mi(intersect_table, intersect_schema, [0]).value
        dis = marginal_mi(intersect_table, intersect_schema, [1]).value
        assert joint > sex
        assert joint > dis

    def test_empty_subset_rejected(self, intersect_table, intersect_schema):
        with pytest.raises(ValidationError, match="must not be empty"):
            marginal_mi(intersect_table, intersect_schema, [])

    def test_out_of_range_index_rejected(self, intersect_table, intersect_schema):
        with pytest.raises(ValidationError, match="out of range"):
            marginal_mi(intersect_table, intersect_schema, [2])

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, np.True_, "1"])
    def test_non_integer_index_rejected(self, intersect_table, intersect_schema, bad):
        with pytest.raises(ValidationError, match="not an integer"):
            marginal_mi(intersect_table, intersect_schema, [bad])

    def test_numpy_integer_index_accepted(self, intersect_table, intersect_schema):
        got = marginal_mi(intersect_table, intersect_schema, [np.int64(1)]).value
        assert got == marginal_mi(intersect_table, intersect_schema, [1]).value

    def test_mismatched_columns_rejected(self, single_table, intersect_schema):
        with pytest.raises(ValidationError, match="intersection labels"):
            marginal_mi(single_table, intersect_schema, [0])

    def test_monotone_in_subset_growth(self, make_attribute_table):
        rng = np.random.default_rng(11)
        for _ in range(30):
            table, schema = make_attribute_table(rng)
            small = marginal_mi(table, schema, [0]).value
            large = marginal_mi(table, schema, [0, 1]).value
            assert large >= small - 1e-12


class TestLeakageReport:
    def test_enumerates_all_subsets(self, intersect_table, intersect_schema):
        report = intersection_leakage_report(intersect_table, intersect_schema)
        assert set(report) == {"sex", "disability", "sex+disability"}

    @pytest.mark.parametrize("counts", [(3, 2, 4), (2, 2, 2, 2), (4,), (2, 3, 1, 2)])
    def test_matches_oracle_on_non_binary_schemas(self, make_attribute_table, counts):
        rng = np.random.default_rng(sum(counts))
        table, schema = make_attribute_table(rng, level_counts=counts, nx=3)
        cells = table.probabilities.tolist()
        levels = [label.split("+") for label in table.s_levels]
        report = intersection_leakage_report(table, schema)
        assert len(report) == 2 ** len(counts) - 1
        for size in range(1, len(counts) + 1):
            for subset in itertools.combinations(range(len(counts)), size):
                # oracle groups: columns whose labels agree on the kept levels
                kept = [tuple(parts[i] for i in subset) for parts in levels]
                groups = [
                    [j for j, key in enumerate(kept) if key == group]
                    for group in dict.fromkeys(kept)
                ]
                expected = oracles.mi_nats(oracles.collapse_columns(cells, groups))
                key = "+".join(schema.attributes[i].name for i in subset)
                got = report[key].value
                assert got == pytest.approx(expected, abs=1e-12)
                assert got == marginal_mi(table, schema, subset).value

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        nx=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        sparsity=st.sampled_from([0.0, 0.3, 0.8]),
    )
    def test_entries_equal_mi_of_the_collapsed_joint_table(self, counts, nx, seed, sparsity):
        schema = ProfileSchema(
            attributes=tuple(
                AttributeSpec.categorical(f"a{k}", [f"v{j}" for j in range(c)])
                for k, c in enumerate(counts)
            ),
            observable=AttributeSpec.categorical("x", [f"x{i}" for i in range(nx)]),
        )
        labels = build_intersection_labels(schema)
        rng = np.random.default_rng(seed)
        shape = (nx, len(labels))
        weights = np.where(rng.random(shape) < sparsity, 0.0, rng.random(shape))
        weights[0, 0] = 1.0
        table = JointTable(schema.observable.levels, labels, weights / weights.sum())
        tensor = table.probabilities.reshape([nx] + list(counts))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = intersection_leakage_report(table, schema)
            assert len(report) == 2 ** len(counts) - 1
            for size in range(1, len(counts) + 1):
                for subset in itertools.combinations(range(len(counts)), size):
                    dropped = tuple(1 + i for i in range(len(counts)) if i not in subset)
                    collapsed = tensor.sum(axis=dropped).reshape(nx, -1)
                    # a table of the collapsed marginal, checked and renormalized on its own
                    own = JointTable(table.x_levels, range(collapsed.shape[1]), collapsed)
                    expected = mutual_information(own)
                    key = "+".join(schema.attributes[i].name for i in subset)
                    assert report[key] == expected
                    assert marginal_mi(table, schema, subset) == expected

    def test_refuses_too_many_attributes(self):
        schema = ProfileSchema(
            attributes=tuple(
                AttributeSpec.categorical(f"a{i}", ["0", "1"]) for i in range(13)
            ),
            observable=AttributeSpec.categorical("x", ["l", "r"]),
        )
        labels_n = 2 ** 13
        table = JointTable(
            ("l", "r"),
            tuple(str(i) for i in range(labels_n)),
            np.full((2, labels_n), 1.0 / (2 * labels_n)),
        )
        with pytest.raises(ValidationError, match="refusing m=13"):
            intersection_leakage_report(table, schema)


class TestJointTableFile:
    def test_header_first_cell_ignored(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("anything,u,v\na,0.5,0.2\nb,0.1,0.2\n")
        table = read_joint_table(path)
        assert table.s_levels == ("u", "v")
        assert table.x_levels == ("a", "b")
        assert table.probabilities.tolist() == [[0.5, 0.2], [0.1, 0.2]]

    def test_non_numeric_cell_is_parse_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,u,v\na,0.5,oops\n")
        with pytest.raises(Exception, match="non-numeric"):
            read_joint_table(path)

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,u,v\na,0.5,0.5\n\n\n\nb,0.5\n")
        from leakpricer import ParseError

        with pytest.raises(ParseError, match=":6: expected 3 cells, got 2"):
            read_joint_table(path)


class TestRandomTableProperties:
    """Smaller spot-check family; the acceptance suite runs 1,000 tables."""

    def test_core_properties(self, make_random_table):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            table = make_random_table(rng)
            mi = mutual_information(table).value
            assert mi >= 0.0
            h_x = entropy(table.x_marginal()).value
            h_s = entropy(table.s_marginal()).value
            assert mi <= min(h_x, h_s) + 1e-12
            assert abs(mi - mutual_information(table.transposed()).value) <= 1e-9
            oracle = oracles.mi_nats([list(r) for r in table.probabilities])
            assert mi == pytest.approx(oracle, abs=1e-9)
            # chain identity ties MI to both entropies
            h_joint = entropy(table.probabilities.ravel()).value
            assert mi == pytest.approx(h_x + h_s - h_joint, abs=1e-9)

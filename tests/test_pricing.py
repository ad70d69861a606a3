from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leakpricer import (
    BITS,
    EXPOSURE,
    InfoQuantity,
    JointTable,
    LINEAR,
    LN2,
    NATS,
    PriceQuote,
    PricingPolicy,
    ValidationError,
    WEIGHTED,
    calibrate_lambda,
    convert_lambda,
    load_policy,
    marginal_mi,
    price_curve,
    price_exposure,
    price_linear,
    price_weighted,
    quantize_money,
    to_decimal,
)
from leakpricer.pricing import MAX_CURVE_POINTS

import oracles


def nats(x: float) -> InfoQuantity:
    return InfoQuantity(x, NATS)


def linear_policy(c_p="0.001", rate=10_000.0, **kw) -> PricingPolicy:
    return PricingPolicy(production_cost=Decimal(c_p), rate_per_nat=rate, **kw)


class TestDecimalHelpers:
    def test_float_goes_through_shortest_repr(self):
        assert to_decimal(0.1) == Decimal("0.1")
        assert to_decimal(0.036) == Decimal("0.036")

    def test_decimal_passthrough_and_int(self):
        d = Decimal("1.23")
        assert to_decimal(d) is d
        assert to_decimal(7) == Decimal("7")

    def test_rejected_inputs(self):
        non_finite = ("NaN", "sNaN", "-Infinity", Decimal("NaN"), Decimal("sNaN"),
                      Decimal("Infinity"), Decimal("-Infinity"))
        for bad in (True, None, [1], float("nan"), float("inf"), "1.2.3", *non_finite):
            with pytest.raises(ValidationError):
                to_decimal(bad)

    def test_quantize_half_even_ties(self):
        assert quantize_money(Decimal("0.00005")) == Decimal("0.0000")
        assert quantize_money(Decimal("0.00015")) == Decimal("0.0002")
        assert quantize_money(Decimal("0.00025")) == Decimal("0.0002")
        assert quantize_money("1.00006") == Decimal("1.0001")

    def test_quantize_preserves_four_places(self):
        assert str(quantize_money(Decimal("3"))) == "3.0000"

    def test_amount_too_large_for_the_grid_rejected(self):
        # 24 integer digits plus 4 decimals fill the 28-digit context
        assert str(quantize_money(Decimal("9" * 24))) == "9" * 24 + ".0000"
        for big in (Decimal("1e24"), 1e30, "1e300"):
            with pytest.raises(ValidationError, match="too large for the four-decimal grid"):
                quantize_money(big)


class TestPricingPolicy:
    def test_scalar_and_map_are_exclusive(self):
        with pytest.raises(ValidationError, match="declare one"):
            PricingPolicy(
                production_cost=Decimal("1"),
                rate_per_nat=10.0,
                subset_rates_per_nat={"sex": 1.0},
            )

    def test_needs_some_pricing_parameter(self):
        with pytest.raises(ValidationError, match="needs a rate"):
            PricingPolicy(production_cost=Decimal("1"))

    def test_negative_production_cost(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            linear_policy(c_p="-0.01")

    def test_scalar_rate_strictly_positive(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            linear_policy(rate=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_is_called_not_finite(self, rate):
        with pytest.raises(ValidationError, match="rate must be finite and strictly positive"):
            linear_policy(rate=rate)
        with pytest.raises(ValidationError, match="rate must be finite and strictly positive"):
            convert_lambda(rate, NATS, BITS)

    def test_map_rates_may_be_zero_but_not_negative(self):
        ok = PricingPolicy(
            production_cost=Decimal("0"),
            subset_rates_per_nat={"sex": 0.0, "disability": 2.0},
        )
        assert ok.subset_rates_per_nat["sex"] == 0.0
        with pytest.raises(ValidationError, match="nonnegative"):
            PricingPolicy(
                production_cost=Decimal("0"),
                subset_rates_per_nat={"sex": -1.0},
            )

    def test_empty_map_rejected(self):
        with pytest.raises(ValidationError, match="must not be empty"):
            PricingPolicy(production_cost=Decimal("0"), subset_rates_per_nat={})

    def test_ceiling_positive(self):
        with pytest.raises(ValidationError, match="penalty"):
            PricingPolicy(production_cost=Decimal("0"), max_penalty=Decimal("0"))


class TestPriceQuote:
    def test_total_must_decompose_exactly(self):
        with pytest.raises(ValidationError, match="exactly"):
            PriceQuote(
                rule=LINEAR,
                leakage=nats(1.0),
                production_component=Decimal("1"),
                surcharge_component=Decimal("2"),
                total=Decimal("3.0001"),
            )

    def test_unknown_rule_and_negative_surcharge(self):
        with pytest.raises(ValidationError, match="unknown pricing rule"):
            PriceQuote(
                rule="flat",
                leakage=nats(0.0),
                production_component=Decimal("1"),
                surcharge_component=Decimal("0"),
                total=Decimal("1"),
            )
        with pytest.raises(ValidationError, match="nonnegative"):
            PriceQuote(
                rule=LINEAR,
                leakage=nats(0.0),
                production_component=Decimal("1"),
                surcharge_component=Decimal("-1"),
                total=Decimal("0"),
            )


class TestLinearRule:
    def test_screen_resolution_total(self):
        quote = price_linear(linear_policy(), nats(0.036))
        assert quote.total == Decimal("360.0010")
        assert quote.surcharge_component == Decimal("360.0000")
        assert quote.rule == LINEAR

    def test_printed_rounding_example_per_bit(self):
        rate = convert_lambda(1e5, BITS, NATS)
        quote = price_linear(
            PricingPolicy(production_cost=Decimal("0"), rate_per_nat=rate),
            InfoQuantity(0.136, BITS),
        )
        assert quantize_money(quote.surcharge_component) == Decimal("13600.0000")

    def test_zero_leakage_prices_at_production_cost(self):
        policy = linear_policy(c_p="0.001")
        quote = price_linear(policy, nats(0.0))
        assert quote.total == policy.production_cost
        assert quote.surcharge_component == 0

    def test_bits_and_nats_agree(self):
        policy = linear_policy()
        a = price_linear(policy, nats(0.25))
        b = price_linear(policy, InfoQuantity(0.25 / LN2, BITS).to(NATS))
        assert float(a.total) == pytest.approx(float(b.total), rel=1e-12)

    def test_missing_rate(self):
        exposure_only = PricingPolicy(
            production_cost=Decimal("0"), max_penalty=Decimal("10")
        )
        with pytest.raises(ValidationError, match="scalar rate"):
            price_linear(exposure_only, nats(1.0))

    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_production_cost_recovered_by_subtraction(self, leakage):
        policy = linear_policy(c_p="2.5", rate=3.0)
        quote = price_linear(policy, nats(leakage))
        assert quote.total - quote.surcharge_component == Decimal("2.5")

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=1e-9, max_value=100.0, allow_nan=False),
    )
    def test_strictly_monotone_in_leakage(self, lower, gap):
        policy = linear_policy(rate=7.0)
        cheap = price_linear(policy, nats(lower))
        dear = price_linear(policy, nats(lower + gap))
        if lower + gap > lower:
            assert dear.total > cheap.total

    def test_additivity_at_money_precision(self):
        rng = np.random.default_rng(81)
        policy = linear_policy(c_p="0.37", rate=94339.62264150944)
        for _ in range(1000):
            a, b = rng.uniform(0.0, 5.0, size=2)
            joint = price_linear(policy, nats(a + b)).total
            split = (
                price_linear(policy, nats(a)).total
                + price_linear(policy, nats(b)).total
                - policy.production_cost
            )
            assert quantize_money(joint) == quantize_money(split)


class TestWeightedRule:
    @pytest.fixture()
    def subset_leakage(self, intersect_table, intersect_schema):
        return {
            "sex": marginal_mi(intersect_table, intersect_schema, [0]),
            "disability": marginal_mi(intersect_table, intersect_schema, [1]),
            "sex+disability": marginal_mi(intersect_table, intersect_schema, [0, 1]),
        }

    def test_bundled_table_surcharge(self, subset_leakage):
        policy = PricingPolicy(
            production_cost=Decimal("0.001"),
            subset_rates_per_nat={"sex": 1000.0, "disability": 2000.0, "sex+disability": 5000.0},
        )
        quote = price_weighted(policy, subset_leakage)
        full_groups = [(0,), (1,), (2,), (3,)]
        oracle = sum(
            rate * oracles.mi_nats(oracles.collapse_columns(oracles.INTERSECT_TABLE, groups))
            for rate, groups in [
                (1000.0, oracles.SEX_GROUPS),
                (2000.0, oracles.DISABILITY_GROUPS),
                (5000.0, full_groups),
            ]
        )
        assert float(quote.surcharge_component) == pytest.approx(oracle, rel=1e-12)
        assert quantize_money(quote.surcharge_component) == Decimal("551.5294")
        assert quote.leakage.value == pytest.approx(
            sum(q.in_nats() for q in subset_leakage.values()), rel=1e-12
        )

    def test_single_subset_reduces_to_linear(self, subset_leakage):
        weighted = PricingPolicy(
            production_cost=Decimal("0.5"),
            subset_rates_per_nat={"sex": 1234.0},
        )
        scalar = PricingPolicy(production_cost=Decimal("0.5"), rate_per_nat=1234.0)
        via_map = price_weighted(weighted, subset_leakage)
        via_rate = price_linear(scalar, subset_leakage["sex"])
        assert via_map.total == via_rate.total

    def test_zero_rate_subsets_cost_nothing(self, subset_leakage):
        policy = PricingPolicy(
            production_cost=Decimal("0"),
            subset_rates_per_nat={"sex": 0.0, "disability": 2000.0},
        )
        quote = price_weighted(policy, subset_leakage)
        only_disability = 2000.0 * subset_leakage["disability"].in_nats()
        assert float(quote.surcharge_component) == pytest.approx(only_disability, rel=1e-12)

    def test_missing_priced_subset(self, subset_leakage):
        policy = PricingPolicy(
            production_cost=Decimal("0"),
            subset_rates_per_nat={"ethnicity": 1.0},
        )
        with pytest.raises(ValidationError, match="ethnicity"):
            price_weighted(policy, subset_leakage)

    def test_unpriced_report_entries_ignored(self, subset_leakage):
        policy = PricingPolicy(
            production_cost=Decimal("0"),
            subset_rates_per_nat={"sex": 10.0},
        )
        quote = price_weighted(policy, subset_leakage)
        assert float(quote.surcharge_component) == pytest.approx(
            10.0 * subset_leakage["sex"].in_nats(), rel=1e-12
        )

    def test_scalar_policy_rejected(self, subset_leakage):
        with pytest.raises(ValidationError, match="per-subset"):
            price_weighted(linear_policy(), subset_leakage)


class TestExposureRule:
    def exposure_policy(self, ceiling="500000") -> PricingPolicy:
        return PricingPolicy(
            production_cost=Decimal("0.001"), max_penalty=Decimal(ceiling)
        )

    def test_bundled_table_surcharge(self, single_table):
        quote = price_exposure(self.exposure_policy(), single_table)
        r = oracles.mi_nats(oracles.SINGLE_TABLE) / oracles.entropy_nats(
            oracles.s_marginal(oracles.SINGLE_TABLE)
        )
        assert float(quote.surcharge_component) == pytest.approx(500000 * r, rel=1e-12)
        assert quantize_money(quote.surcharge_component) == Decimal("62255.6249")

    def test_full_disclosure_hits_ceiling_exactly(self):
        diag = JointTable(("x0", "x1"), ("s0", "s1"), [[0.5, 0.0], [0.0, 0.5]])
        quote = price_exposure(self.exposure_policy(), diag)
        assert quote.surcharge_component == Decimal("500000")
        assert quote.total == Decimal("500000.001")

    def test_independence_prices_at_production_cost(self):
        product = JointTable(("x0", "x1"), ("s0", "s1"), [[0.25, 0.25], [0.25, 0.25]])
        quote = price_exposure(self.exposure_policy(), product)
        assert quote.surcharge_component == 0
        assert quote.total == Decimal("0.001")

    def test_missing_ceiling(self, single_table):
        with pytest.raises(ValidationError, match="maximum penalty"):
            price_exposure(linear_policy(), single_table)


class TestCalibration:
    def test_statutory_example(self):
        rate = calibrate_lambda(Decimal("500000"), nats(5.3))
        assert rate == pytest.approx(94339.6226, abs=0.01)
        quote = price_linear(
            PricingPolicy(production_cost=Decimal("0.001"), rate_per_nat=rate),
            nats(0.02),
        )
        assert float(quote.surcharge_component) == pytest.approx(1886.79, abs=0.01)

    def test_ceiling_equal_to_entropy_gives_unit_rate(self):
        assert calibrate_lambda(Decimal("5.3"), nats(5.3)) == 1.0

    def test_closure_at_full_disclosure_on_money_grid(self):
        rate = calibrate_lambda(Decimal("500000"), nats(5.3))
        policy = PricingPolicy(production_cost=Decimal("0.001"), rate_per_nat=rate)
        quote = price_linear(policy, nats(5.3))
        assert quantize_money(quote.total) == Decimal("500000.0010")

    def test_bad_inputs(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            calibrate_lambda(Decimal("0"), nats(1.0))
        with pytest.raises(ValidationError, match="entropy"):
            calibrate_lambda(Decimal("1"), nats(0.0))
        with pytest.raises(ValidationError, match="overflows"):
            calibrate_lambda(Decimal("500000"), nats(1e-320))


class TestRateConversion:
    def test_bit_rate_is_ln2_times_nat_rate(self):
        rate = 94339.62264150944
        assert convert_lambda(rate, NATS, BITS) / rate == pytest.approx(LN2, abs=1e-12)

    def test_round_trip(self):
        rate = 12345.678
        back = convert_lambda(convert_lambda(rate, NATS, BITS), BITS, NATS)
        assert back == pytest.approx(rate, rel=1e-12)

    def test_currency_compose(self):
        got = convert_lambda(100.0, NATS, BITS, exchange_rate=0.9)
        assert got == pytest.approx(0.9 * LN2 * 100.0, rel=1e-9)

    @pytest.mark.parametrize("rho", [None, 0.9, 1.37])
    @pytest.mark.parametrize("units, factor", [
        ((NATS, BITS), LN2), ((BITS, NATS), 1.0 / LN2), ((NATS, NATS), 1.0), ((BITS, BITS), 1.0),
    ])
    def test_factor_bit_for_bit(self, units, factor, rho):
        for rate in (94339.62264150944, 12345.678, 0.1, 1e300):
            want = rate * factor if rho is None else rate * (factor * rho)
            assert convert_lambda(rate, *units, exchange_rate=rho) == want

    def test_same_unit_with_exchange_only(self):
        assert convert_lambda(50.0, NATS, NATS, exchange_rate=2.0) == pytest.approx(100.0)
        assert convert_lambda(50.0, BITS, BITS) == 50.0

    def test_bad_inputs(self):
        with pytest.raises(ValidationError, match="unknown rate unit"):
            convert_lambda(1.0, "hartleys", NATS)
        with pytest.raises(ValidationError, match="strictly positive"):
            convert_lambda(0.0, NATS, BITS)
        with pytest.raises(ValidationError, match="exchange rate"):
            convert_lambda(1.0, NATS, BITS, exchange_rate=-1.0)

    def test_policy_units_price_identically(self, tmp_path):
        per_nat = tmp_path / "nat.yaml"
        per_bit = tmp_path / "bit.yaml"
        per_nat.write_text("c_p: 0.5\nlambda: 1000.0\n")
        per_bit.write_text(
            f"c_p: 0.5\nlambda: {1000.0 * LN2!r}\nlambda_unit: per_bit\n"
        )
        leak = nats(0.7)
        a = price_linear(load_policy(per_nat), leak)
        b = price_linear(load_policy(per_bit), leak)
        assert float(b.total) == pytest.approx(float(a.total), rel=1e-9)


class TestPriceCurve:
    def test_linear_points(self):
        policy = PricingPolicy(production_cost=Decimal("1"), rate_per_nat=2.0)
        points = price_curve(policy, LINEAR, 0.0, 1.0, 0.5)
        assert [(x, float(v)) for x, v in points] == [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]

    def test_exposure_endpoints_exact(self):
        policy = PricingPolicy(
            production_cost=Decimal("0.001"), max_penalty=Decimal("500000")
        )
        h = 5.3
        points = price_curve(policy, EXPOSURE, 0.0, h, h / 4, baseline_entropy=nats(h))
        assert len(points) == 5
        assert points[0][1] == Decimal("0.001")
        assert points[-1][1] == Decimal("500000.001")

    def test_rate_changes_slope_not_intercept(self):
        for rate in (1.0, 2.0, 3.0):
            policy = PricingPolicy(production_cost=Decimal("0.25"), rate_per_nat=rate)
            points = price_curve(policy, LINEAR, 0.0, 2.0, 1.0)
            assert points[0][1] == Decimal("0.25")
            slope = float(points[1][1] - points[0][1])
            assert slope == pytest.approx(rate, rel=1e-12)

    def test_step_partitions_range(self):
        policy = PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0)
        points = price_curve(policy, LINEAR, 0.2, 1.0, 0.25)
        assert [x for x, _ in points] == pytest.approx([0.2, 0.45, 0.7, 0.95])

    def test_bad_ranges(self):
        policy = PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0)
        with pytest.raises(ValidationError, match="step"):
            price_curve(policy, LINEAR, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError, match="invalid leakage range"):
            price_curve(policy, LINEAR, 1.0, 0.5, 0.1)
        with pytest.raises(ValidationError, match="invalid leakage range"):
            price_curve(policy, LINEAR, -0.5, 0.5, 0.1)

    def test_step_too_small_to_separate_the_points(self):
        policy = PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0)
        with pytest.raises(ValidationError, match="step 8.0 is too small to separate"):
            price_curve(policy, LINEAR, 1e17, 1e17 + 32, 8.0)

    @pytest.mark.parametrize(
        "start, stop",
        [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (math.inf, math.inf)],
    )
    def test_non_finite_range_rejected(self, start, stop):
        policy = PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0)
        with pytest.raises(ValidationError, match="invalid leakage range"):
            price_curve(policy, LINEAR, start, stop, 0.5)

    def test_point_count_capped(self):
        policy = PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0)
        last = (MAX_CURVE_POINTS - 1) * 0.5
        assert len(price_curve(policy, LINEAR, 0.0, last, 0.5)) == MAX_CURVE_POINTS
        for stop, step in ((last + 0.5, 0.5), (1e9, 1.0), (1e300, 1e-300)):
            with pytest.raises(ValidationError, match=f"more than {MAX_CURVE_POINTS} points"):
                price_curve(policy, LINEAR, 0.0, stop, step)

    def test_exposure_range_capped_by_entropy(self):
        policy = PricingPolicy(production_cost=Decimal("0"), max_penalty=Decimal("10"))
        with pytest.raises(ValidationError, match="within"):
            price_curve(policy, EXPOSURE, 0.0, 2.0, 0.5, baseline_entropy=nats(1.0))
        with pytest.raises(ValidationError, match="baseline"):
            price_curve(policy, EXPOSURE, 0.0, 1.0, 0.5)

    def test_weighted_rule_unsupported(self):
        policy = PricingPolicy(production_cost=Decimal("0"), rate_per_nat=1.0)
        with pytest.raises(ValidationError, match="linear and exposure"):
            price_curve(policy, WEIGHTED, 0.0, 1.0, 0.5)


class TestPolicyFile:
    def test_bundled_linear_policy(self, data_dir):
        policy = load_policy(data_dir / "policy_linear.yaml")
        assert policy.production_cost == Decimal("0.001")
        assert policy.rate_per_nat == 10_000.0
        assert policy.currency == "USD"

    def test_bundled_weighted_policy(self, data_dir):
        policy = load_policy(data_dir / "policy_weighted.yaml")
        assert list(policy.subset_rates_per_nat) == ["sex", "disability", "sex+disability"]
        assert policy.subset_rates_per_nat["sex+disability"] == 5000.0

    def test_bundled_calibrated_policy_has_rate_and_ceiling(self, data_dir):
        policy = load_policy(data_dir / "policy_calibrated.yaml")
        assert policy.rate_per_nat == pytest.approx(94339.6226, abs=0.01)
        assert policy.max_penalty == Decimal("500000")

    def test_per_bit_rate_converted_on_load(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0\nlambda: 100000\nlambda_unit: per_bit\n")
        policy = load_policy(path)
        assert policy.rate_per_nat == pytest.approx(1e5 / LN2, rel=1e-12)

    def test_per_bit_subset_rates_converted_on_load(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0\nlambda:\n  sex: 693.1471805599453\nlambda_unit: per_bit\n")
        policy = load_policy(path)
        assert policy.subset_rates_per_nat["sex"] == pytest.approx(1000.0, rel=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0.1\nlambda: 1\nsurge_factor: 2\n")
        with pytest.raises(ValidationError, match="surge_factor"):
            load_policy(path)

    def test_missing_production_cost(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("lambda: 1\n")
        with pytest.raises(ValidationError, match="c_p"):
            load_policy(path)

    def test_bad_unit_and_bad_rate(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0.1\nlambda: 1\nlambda_unit: per_trit\n")
        with pytest.raises(ValidationError, match="lambda_unit"):
            load_policy(path)
        path.write_text("c_p: 0.1\nlambda: [1, 2]\n")
        with pytest.raises(ValidationError, match="lambda"):
            load_policy(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValidationError, match="mapping"):
            load_policy(path)

    @pytest.mark.parametrize("value, shown", [
        ("null", "None"), ("[x]", "['x']"), ('""', "''"), ("' '", "' '"),
    ])
    def test_currency_must_be_a_non_blank_string(self, tmp_path, value, shown):
        path = tmp_path / "policy.yaml"
        path.write_text(f"c_p: 0.1\nlambda: 1\ncurrency: {value}\n")
        with pytest.raises(ValidationError) as raised:
            load_policy(path)
        assert str(raised.value) == f"{path}: currency must be a non-blank string, got {shown}"

    def test_currency_is_the_text_written(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0.1\nlambda: 1\ncurrency: 5\n")
        assert load_policy(path).currency == "5"

    # each spelling float() reads; 0123 is decimal, not YAML 1.1 octal
    @pytest.mark.parametrize("spelling, rate", [
        ("0123", 123.0), ("1e4", 10_000.0), ("10_000", 10_000.0), ("'100'", 100.0),
        ("2.5", 2.5),
    ])
    def test_rate_spellings_read_by_float(self, tmp_path, spelling, rate):
        path = tmp_path / "policy.yaml"
        path.write_text(f"c_p: 0\nlambda: {spelling}\n")
        assert load_policy(path).rate_per_nat == rate
        path.write_text(f"c_p: 0\nlambda: {{sex: {spelling}}}\n")
        assert load_policy(path).subset_rates_per_nat == {"sex": rate}

    # hexadecimal, octal, base 60 and YAML's own infinity are YAML 1.1 numbers only
    @pytest.mark.parametrize("spelling", ["0x10", "0o17", "1:30", ".inf"])
    def test_rate_spellings_float_refuses(self, tmp_path, spelling):
        path = tmp_path / "policy.yaml"
        path.write_text(f"c_p: 0\nlambda: {spelling}\n")
        with pytest.raises(ValidationError) as raised:
            load_policy(path)
        assert str(raised.value) == f"{path}: lambda must be numeric, got {spelling!r}"

    def test_money_is_the_decimal_written(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text("c_p: 0.10\nlambda: 1\npi_max: 1e3\n")
        policy = load_policy(path)
        assert str(policy.production_cost) == "0.10"
        assert str(policy.max_penalty) == "1E+3"

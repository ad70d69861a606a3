from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from leakpricer import (
    AttributeSpec,
    Bandwidth,
    EstimationError,
    KDE_MC,
    PLUGIN,
    ProfileSchema,
    SampleSet,
    ValidationError,
    empirical_joint,
    estimate_mi,
    kde_log_densities,
    mc_mutual_information,
    mutual_information,
    silverman_bandwidth,
)
from leakpricer import estimation

import oracles

GAUSS_SCHEMA = ProfileSchema(
    attributes=(AttributeSpec.continuous("trait", -10.0, 10.0),),
    observable=AttributeSpec.continuous("signal", -10.0, 10.0),
)


def gaussian_pairs(seed: int, n: int, rho: float) -> SampleSet:
    rng = np.random.default_rng(seed)
    cov = [[1.0, rho], [rho, 1.0]]
    pairs = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    return SampleSet(GAUSS_SCHEMA, tuple((float(s), float(x)) for s, x in pairs))


MIXED_SCHEMA = ProfileSchema(
    attributes=(
        AttributeSpec.categorical("sex", ["male", "female"]),
        AttributeSpec.continuous("impairment", 0.0, 1.0),
        AttributeSpec.categorical("band", ["low", "mid", "high"]),
    ),
    observable=AttributeSpec.continuous("interval", 20.0, 600.0),
)


def mixed_samples(seed: int, n: int) -> SampleSet:
    rng = np.random.default_rng(seed)
    sex = rng.integers(0, 2, n)
    band = rng.integers(0, 3, n)
    impairment = rng.beta(2.0, 5.0, n)
    interval = 120.0 + 250.0 * impairment + 25.0 * sex + rng.normal(0.0, 35.0, n)
    interval = np.clip(interval, 20.0, 600.0)
    return SampleSet(MIXED_SCHEMA, tuple(
        (("male", "female")[s], float(i), ("low", "mid", "high")[b], float(v))
        for s, i, b, v in zip(sex, impairment, band, interval)
    ))


def dense_log_densities(samples: SampleSet, bandwidths) -> tuple:
    """(joint, x, s) log densities from whole n x n kernel products,
    multiplied in schema order: the reference for the blocked kernels."""

    def product(specs):
        out = None
        for spec in specs:
            column = samples.column(spec.name)
            if spec.is_continuous:
                v = np.asarray(column, dtype=float)
                h = bandwidths[spec.name].width
                z = (v[:, None] - v[None, :]) / h
                factor = np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))
            else:
                codes = np.asarray([spec.levels.index(c) for c in column])
                factor = (codes[:, None] == codes[None, :]).astype(float)
            out = factor if out is None else out * factor
        return out

    s = product(samples.schema.attributes)
    x = product((samples.schema.observable,))
    return np.log((s * x).mean(axis=1)), np.log(x.mean(axis=1)), np.log(s.mean(axis=1))


def categorical_pair_samples(rows) -> SampleSet:
    schema = ProfileSchema(
        attributes=(AttributeSpec.categorical("sex", ["male", "female"]),),
        observable=AttributeSpec.categorical("timeofday", ["morning", "evening"]),
    )
    return SampleSet(schema, tuple(rows))


class TestBandwidth:
    def test_positive_required(self):
        with pytest.raises(ValidationError, match="positive"):
            Bandwidth(0.0)
        with pytest.raises(ValidationError, match="positive"):
            Bandwidth(float("nan"))

    def test_silverman_formula_matches_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.normal(5.0, 2.5, size=137)
        got = silverman_bandwidth(values).width
        assert got == pytest.approx(oracles.silverman_h(list(values)), rel=1e-12)

    def test_silverman_unit_sigma_n1000(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        values = (values - values.mean()) / values.std(ddof=1)
        got = silverman_bandwidth(values).width
        # 1.06 * 1000^(-1/5) by direct evaluation
        assert got == pytest.approx(1.06 * 1000 ** (-0.2), rel=1e-12)
        assert got == pytest.approx(0.266260, abs=5e-7)

    def test_silverman_scale_homogeneity(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=50)
        h = silverman_bandwidth(values).width
        assert silverman_bandwidth(values * 3.0).width == pytest.approx(3.0 * h, rel=1e-12)

    def test_constant_sample_rejected(self):
        with pytest.raises(ValidationError, match="zero variance"):
            silverman_bandwidth([2.0, 2.0, 2.0])

    def test_needs_two_values(self):
        with pytest.raises(ValidationError, match="two values"):
            silverman_bandwidth([1.0])


class TestEmpiricalJoint:
    def test_counts_over_declared_cross_product(self):
        samples = categorical_pair_samples(
            [("male", "morning")] * 3 + [("female", "evening")] * 1
        )
        table = empirical_joint(samples)
        assert table.x_levels == ("morning", "evening")
        assert table.s_levels == ("male", "female")
        np.testing.assert_allclose(
            table.probabilities, [[0.75, 0.0], [0.0, 0.25]]
        )

    def test_unseen_levels_keep_zero_cells(self, intersect_schema):
        samples = SampleSet(intersect_schema, (("male", "abled", "morning"),))
        table = empirical_joint(samples)
        assert table.probabilities.shape == (2, 4)
        assert table.probabilities.sum() == pytest.approx(1.0)
        assert table.probabilities[0, 0] == 1.0

    def test_counts_match_oracle_on_uneven_levels(self):
        levels = {"a": ("a0", "a1", "a2"), "b": ("b0", "b1"), "c": ("c0", "c1", "c2", "c3")}
        x_levels = ("early", "late", "night")
        schema = ProfileSchema(
            attributes=tuple(AttributeSpec.categorical(n, lv) for n, lv in levels.items()),
            observable=AttributeSpec.categorical("x", x_levels),
        )
        rng = np.random.default_rng(11)
        pools = [*levels.values(), x_levels]
        # c3 is never drawn, so at least its 18 cells must stay in the table as zeros
        rows = [tuple(pool[rng.integers(min(len(pool), 3))] for pool in pools) for _ in range(50)]
        table = empirical_joint(SampleSet(schema, rows))
        counts = oracles.joint_counts(rows)
        expected = [
            [counts.get((x, *combo), 0) / len(rows) for combo in itertools.product(*levels.values())]
            for x in x_levels
        ]
        assert np.array_equal(table.probabilities, np.array(expected))
        assert table.probabilities.shape == (3, 24)
        assert not table.probabilities[:, 3::4].any()

    def test_continuous_data_rejected(self):
        samples = gaussian_pairs(0, 10, 0.5)
        with pytest.raises(ValidationError, match="discretize first"):
            empirical_joint(samples)

    def test_multinomial_recovery_within_tolerance(self):
        rng = np.random.default_rng(42)
        counts = rng.multinomial(100_000, np.array(oracles.SINGLE_TABLE).ravel())
        cells = [
            ("male", "morning"),
            ("female", "morning"),
            ("male", "evening"),
            ("female", "evening"),
        ]
        rows = []
        for cell, k in zip(cells, counts):
            rows += [cell] * int(k)
        estimate = estimate_mi(categorical_pair_samples(rows))
        assert estimate.method == PLUGIN
        truth_bits = oracles.mi_bits(oracles.SINGLE_TABLE)
        assert estimate.value.in_bits() == pytest.approx(truth_bits, abs=0.01)


class TestKdeDensities:
    def test_two_point_closed_form(self):
        schema = ProfileSchema(
            attributes=(AttributeSpec.continuous("trait", -5.0, 5.0),),
            observable=AttributeSpec.continuous("signal", -5.0, 5.0),
        )
        samples = SampleSet(schema, ((0.0, 0.0), (1.0, 1.0)))
        dens = kde_log_densities(samples, {"trait": Bandwidth(1.0), "signal": Bandwidth(1.0)})
        k0 = 1.0 / math.sqrt(2 * math.pi)
        k1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        expected = 0.5 * (k0 + k1)
        assert math.exp(dens.x[0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.320457, abs=5e-7)

    def test_matches_pointwise_oracle(self):
        samples = gaussian_pairs(12, 40, 0.6)
        h = {"trait": Bandwidth(0.5), "signal": Bandwidth(0.7)}
        dens = kde_log_densities(samples, h)
        trait = samples.column("trait")
        signal = samples.column("signal")
        for i in (0, 7, 39):
            x_oracle = oracles.gaussian_kernel_density(signal, 0.7, signal[i])
            s_oracle = oracles.gaussian_kernel_density(trait, 0.5, trait[i])
            assert math.exp(dens.x[i]) == pytest.approx(x_oracle, rel=1e-10)
            assert math.exp(dens.s[i]) == pytest.approx(s_oracle, rel=1e-10)
            joint_oracle = sum(
                oracles.gaussian_kernel_density([signal[j]], 0.7, signal[i])
                * oracles.gaussian_kernel_density([trait[j]], 0.5, trait[i])
                for j in range(40)
            ) / 40
            assert math.exp(dens.joint[i]) == pytest.approx(joint_oracle, rel=1e-10)

    def test_categorical_marginal_is_indicator_average(self):
        schema = ProfileSchema(
            attributes=(AttributeSpec.categorical("grp", ["a", "b"]),),
            observable=AttributeSpec.continuous("val", 0.0, 10.0),
        )
        rows = (("a", 1.0), ("a", 2.0), ("b", 3.0), ("b", 4.0))
        dens = kde_log_densities(SampleSet(schema, rows), {"val": Bandwidth(1.0)})
        np.testing.assert_allclose(np.exp(dens.s), [0.5, 0.5, 0.5, 0.5])

    def test_joint_density_integrates_to_one(self):
        # quadrature over x for each categorical level, via the oracle
        # formula; checks normalization of the product-kernel density
        schema = ProfileSchema(
            attributes=(AttributeSpec.categorical("grp", ["a", "b"]),),
            observable=AttributeSpec.continuous("val", -50.0, 50.0),
        )
        rng = np.random.default_rng(8)
        rows = tuple(
            ("a" if rng.random() < 0.4 else "b", float(rng.normal()))
            for _ in range(60)
        )
        samples = SampleSet(schema, rows)
        h = silverman_bandwidth(samples.column("val")).width
        values = samples.column("val")
        groups = samples.column("grp")
        grid = [(-8.0 + 16.0 * k / 4000) for k in range(4001)]
        total = 0.0
        for level in ("a", "b"):
            members = [v for v, g in zip(values, groups) if g == level]
            weight = len(members) / len(values)
            dens = [
                weight * oracles.gaussian_kernel_density(members, h, x) for x in grid
            ]
            total += oracles.trapezoid(grid, dens)
        assert total == pytest.approx(1.0, abs=1e-3)
        # and the library agrees with that same construction pointwise
        lib = kde_log_densities(samples, {"val": Bandwidth(h)})
        i = 5
        members = [v for v, g in zip(values, groups) if g == groups[i]]
        weight = len(members) / len(values)
        oracle_joint = weight * oracles.gaussian_kernel_density(members, h, values[i])
        assert math.exp(lib.joint[i]) == pytest.approx(oracle_joint, rel=1e-10)

    def test_missing_bandwidth_rejected(self):
        samples = gaussian_pairs(0, 10, 0.5)
        with pytest.raises(ValidationError, match="missing bandwidth.*'signal'"):
            kde_log_densities(samples, {"trait": Bandwidth(1.0)})

    def test_needs_two_samples(self):
        samples = SampleSet(GAUSS_SCHEMA, ((0.0, 0.0),))
        with pytest.raises(ValidationError, match="two samples"):
            kde_log_densities(samples, {"trait": Bandwidth(1.0), "signal": Bandwidth(1.0)})

    def test_pure_categorical_accepted(self, intersect_schema):
        samples = SampleSet(intersect_schema, (("male", "abled", "morning"),) * 2)
        dens = kde_log_densities(samples, {})
        np.testing.assert_allclose(dens.joint, 0.0, atol=1e-15)

    def test_joint_underflow_is_error_with_index(self):
        # two continuous dimensions at an absurd bandwidth push even the
        # self-match kernel product below the double floor
        samples = SampleSet(GAUSS_SCHEMA, ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        huge = Bandwidth(1e200)
        with pytest.raises(EstimationError, match="sample index 0"):
            kde_log_densities(samples, {"trait": huge, "signal": huge})

    # 50 rows: one row per block, 7 blocks of 7 plus one row, one block
    @pytest.mark.parametrize("budget", [10, 7 * 50, 50 * 50 + 1])
    def test_blocked_equals_dense_bit_for_bit(self, monkeypatch, budget):
        samples = mixed_samples(4, 50)
        h = {
            name: silverman_bandwidth(samples.column(name))
            for name in ("impairment", "interval")
        }
        whole = estimate_mi(samples, h)
        monkeypatch.setattr(estimation, "BLOCK_ENTRIES", budget)
        dens = kde_log_densities(samples, h)
        joint, x, s = dense_log_densities(samples, h)
        assert np.array_equal(dens.joint, joint)
        assert np.array_equal(dens.x, x)
        assert np.array_equal(dens.s, s)
        assert estimate_mi(samples, h).raw_nats == whole.raw_nats

    def test_peak_memory_bounded(self):
        # three whole 2000 x 2000 float64 products would take 96 MB
        samples = mixed_samples(9, 2000)
        h = {"impairment": Bandwidth(0.03), "interval": Bandwidth(11.0)}
        tracemalloc.start()
        try:
            kde_log_densities(samples, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_joint_overflow_is_error_with_index(self):
        # 1/(h sqrt(2 pi)) overflows: an error, not numpy warnings and a NaN
        samples = SampleSet(GAUSS_SCHEMA, ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        h = {"trait": Bandwidth(1.0), "signal": Bandwidth(1e-320)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="overflowed at sample index 0; "
                               "a bandwidth is too small"):
                kde_log_densities(samples, h)

    # 50 rows: 1 block at the last budget, so one worker whatever the cores
    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    @pytest.mark.parametrize("budget", [10, 7 * 50, 50 * 50 + 1])
    def test_equals_dense_bit_for_bit_on_any_core_count(self, monkeypatch, budget, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(estimation, "BLOCK_ENTRIES", budget)
        samples = mixed_samples(4, 50)
        h = {
            name: silverman_bandwidth(samples.column(name))
            for name in ("impairment", "interval")
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches between the workers
        try:
            dens = kde_log_densities(samples, h)
        finally:
            sys.setswitchinterval(interval)
        joint, x, s = dense_log_densities(samples, h)
        assert np.array_equal(dens.joint, joint)
        assert np.array_equal(dens.x, x)
        assert np.array_equal(dens.s, s)

    # 1200 entries are 3 blocks of 24 rows of 50; w workers split the budget
    # into blocks of 24 // w rows, so the block height shows the worker count
    @pytest.mark.parametrize("affinity, cpu_count, height", [
        ({0}, 2, 24), ({0, 1, 2}, 1, 8), (set(range(8)), 1, 8), (None, 3, 8),
    ], ids=["one-core", "three-cores", "more-cores-than-blocks", "no-affinity-call"])
    def test_one_worker_per_available_core(self, monkeypatch, affinity, cpu_count, height):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(estimation, "BLOCK_ENTRIES", 1200)
        heights = []
        plain = estimation._kernel_block

        def spy(inputs, lo, hi, *buffers):
            heights.append(hi - lo)
            return plain(inputs, lo, hi, *buffers)

        monkeypatch.setattr(estimation, "_kernel_block", spy)
        kde_log_densities(mixed_samples(4, 50), {"impairment": Bandwidth(0.1),
                                                 "interval": Bandwidth(20.0)})
        assert max(heights) == height
        assert sum(heights) == 2 * 50

    def test_peak_memory_bounded_on_eight_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        self.test_peak_memory_bounded()

    @pytest.mark.parametrize("cores", [1, 3])
    def test_workers_end_with_the_call(self, monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(estimation, "BLOCK_ENTRIES", 10)
        samples = mixed_samples(4, 50)
        h = {"impairment": Bandwidth(0.1), "interval": Bandwidth(20.0)}
        before = threading.active_count()
        kde_log_densities(samples, h)
        assert threading.active_count() == before
        plain = estimation._kernel_block

        def failing(inputs, lo, hi, *buffers):
            if lo == 44:  # a later block, taken by a worker thread at 3 cores
                raise ArithmeticError("block at row 44")
            return plain(inputs, lo, hi, *buffers)

        monkeypatch.setattr(estimation, "_kernel_block", failing)
        with pytest.raises(ArithmeticError, match="block at row 44"):
            kde_log_densities(samples, h)
        assert threading.active_count() == before

    def test_marginal_floor_warns(self):
        from leakpricer.estimation import LOG_FLOOR, _log_density

        tiny = np.array([1e-330, 0.5])
        with pytest.warns(RuntimeWarning, match="floored"):
            logs = _log_density(tiny, "x marginal")
        assert logs[0] == LOG_FLOOR
        assert logs[1] == pytest.approx(math.log(0.5))


class TestMonteCarloMI:
    def test_correlated_gaussians_near_analytic(self):
        analytic = oracles.gaussian_mi_nats(0.8)
        est = estimate_mi(gaussian_pairs(0, 2000, 0.8), seed=0)
        assert est.method == KDE_MC
        assert est.n == 2000
        assert abs(est.value.value - analytic) <= 0.08

    def test_independent_gaussians_near_zero(self):
        est = estimate_mi(gaussian_pairs(99, 2000, 0.0), seed=99)
        assert abs(est.value.value) <= 0.05

    def test_deterministic_and_seed_independent(self):
        samples = gaussian_pairs(1, 300, 0.5)
        a = mc_mutual_information(samples, _silverman_pair(samples), seed=1)
        b = mc_mutual_information(samples, _silverman_pair(samples), seed=2)
        assert a.value.value == b.value.value
        assert a.seed == 1 and b.seed == 2

    def test_duplication_invariance(self):
        samples = gaussian_pairs(6, 150, 0.5)
        doubled = SampleSet(GAUSS_SCHEMA, samples.rows + samples.rows)
        bw = _silverman_pair(samples)
        once = mc_mutual_information(samples, bw, seed=0)
        twice = mc_mutual_information(doubled, bw, seed=0)
        assert twice.value.value == pytest.approx(once.value.value, abs=1e-12)

    def test_mae_shrinks_with_n(self):
        analytic = oracles.gaussian_mi_nats(0.8)
        small = [abs(estimate_mi(gaussian_pairs(s, 200, 0.8), seed=s).value.value - analytic) for s in range(5)]
        large = [abs(estimate_mi(gaussian_pairs(s, 2000, 0.8), seed=s).value.value - analytic) for s in range(5)]
        assert np.mean(large) <= np.mean(small)

    def test_negative_raw_estimate_clamped_but_kept(self):
        # near-independent data can dip below zero; force it with a
        # narrow bandwidth on an independent pair
        samples = gaussian_pairs(17, 400, 0.0)
        est = estimate_mi(samples, seed=17)
        assert est.value.value >= 0.0
        assert est.raw_nats <= est.value.value

    def test_discrete_agreement_between_routes(self):
        rng = np.random.default_rng(23)
        rows = [
            ("male" if rng.random() < 0.6 else "female",
             "morning" if rng.random() < 0.5 else "evening")
            for _ in range(250)
        ]
        samples = categorical_pair_samples(rows)
        plug = estimate_mi(samples)
        kde = mc_mutual_information(samples, {})
        assert plug.method == PLUGIN
        assert abs(plug.value.value - kde.value.value) <= 1e-9

    def test_plugin_equals_exact_mi_of_counts(self):
        samples = categorical_pair_samples(
            [("male", "morning")] * 30
            + [("male", "evening")] * 20
            + [("female", "morning")] * 10
            + [("female", "evening")] * 40
        )
        est = estimate_mi(samples)
        direct = mutual_information(empirical_joint(samples)).value
        assert est.value.value == direct
        assert est.value.unit == "nats"

    @pytest.mark.parametrize("name", ["typo", "sex"])
    def test_bandwidth_for_a_non_continuous_name_rejected(self, name):
        samples = mixed_samples(2, 20)
        with pytest.raises(ValidationError, match=f"{name!r}, which is not a continuous"):
            estimate_mi(samples, {"impairment": Bandwidth(0.1), name: Bandwidth(0.5)})

    def test_bandwidth_on_categorical_data_rejected(self):
        samples = categorical_pair_samples([("male", "morning"), ("female", "evening")])
        with pytest.raises(ValidationError, match="'sex', which is not a continuous"):
            estimate_mi(samples, {"sex": Bandwidth(0.5)})

    def test_dispatcher_fills_silverman_defaults(self):
        samples = gaussian_pairs(2, 120, 0.5)
        est = estimate_mi(samples, seed=2)
        assert set(est.bandwidths) == {"trait", "signal"}
        assert est.bandwidths["trait"] == pytest.approx(
            silverman_bandwidth(samples.column("trait")).width
        )


def _silverman_pair(samples: SampleSet) -> dict[str, Bandwidth]:
    return {
        "trait": silverman_bandwidth(samples.column("trait")),
        "signal": silverman_bandwidth(samples.column("signal")),
    }

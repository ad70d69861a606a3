"""Monetary valuation of information leakage.

Money is carried as exact :class:`decimal.Decimal`. Information stays
floating point and crosses into money through ``Decimal(str(x))``, the
shortest round-trip decimal form. Price components are kept exact so
that additivity holds at full precision; amounts are rounded to the
four-decimal money grid (banker's rounding) only where money is
displayed or recorded, via :func:`quantize_money`.

Rates are stored per nat canonically. A per-bit rate is the per-nat
rate times ln 2, and a currency change multiplies by the exchange
rate; :func:`convert_lambda` composes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN

from .errors import ValidationError
from .infotheory import (
    BITS,
    LN2,
    NATS,
    InfoQuantity,
    JointTable,
    _exposure,
    _exposure_ratio,
)
from .schema import _number, load_yaml_doc

MONEY_QUANTUM = Decimal("0.0001")

PER_NAT = "per_nat"
PER_BIT = "per_bit"

LINEAR = "linear"
WEIGHTED = "weighted"
EXPOSURE = "exposure"
RULES = (LINEAR, WEIGHTED, EXPOSURE)

#: Price curves tabulate one Decimal per point; refuse beyond this many points.
MAX_CURVE_POINTS = 100_000


def to_decimal(amount) -> Decimal:
    """Exact, finite decimal from a number's shortest round-trip representation."""
    if isinstance(amount, bool) or not isinstance(amount, (Decimal, int, float, str)):
        raise ValidationError(f"cannot interpret {amount!r} as a money amount")
    try:
        value = amount if isinstance(amount, Decimal) else Decimal(str(amount))
    except InvalidOperation:
        raise ValidationError(f"cannot interpret {amount!r} as a money amount") from None
    if not value.is_finite():
        raise ValidationError(f"money amount must be finite, got {amount!r}")
    return value


def _float_rate(value, what: str) -> float:
    """A rate as a float; a boolean is no number, as in :func:`to_decimal`."""
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def quantize_money(amount) -> Decimal:
    """Round onto the four-decimal money grid, ties to even."""
    value = to_decimal(amount)
    try:
        return value.quantize(MONEY_QUANTUM, ROUND_HALF_EVEN)  # a keyword costs as much again
    except InvalidOperation:
        # the quantized amount needs more digits than the decimal context holds
        raise ValidationError(
            f"money amount {value} is too large for the four-decimal grid"
        ) from None


@dataclass(frozen=True)
class PricingPolicy:
    """Frozen pricing parameters.

    Exactly one of ``rate_per_nat`` (scalar rule) and
    ``subset_rates_per_nat`` (weighted rule, keyed by subset name such
    as ``"sex+disability"``) may be set; ``max_penalty`` is the
    statutory ceiling used by the exposure rule and calibration.
    ``currency`` must be a string that is not blank.
    """

    production_cost: Decimal
    rate_per_nat: float | None = None
    subset_rates_per_nat: dict[str, float] | None = None
    max_penalty: Decimal | None = None
    currency: str = "USD"

    def __post_init__(self) -> None:
        object.__setattr__(self, "production_cost", to_decimal(self.production_cost))
        if self.production_cost < 0:
            raise ValidationError("production cost must be nonnegative")
        if self.rate_per_nat is not None and self.subset_rates_per_nat is not None:
            raise ValidationError(
                "policy mixes a scalar rate with per-subset rates; declare one"
            )
        if self.rate_per_nat is not None:
            rate = _float_rate(self.rate_per_nat, "rate")
            object.__setattr__(self, "rate_per_nat", rate)
            if not (math.isfinite(rate) and rate > 0):
                raise ValidationError(f"rate must be finite and strictly positive, got {rate!r}")
        if self.subset_rates_per_nat is not None:
            rates = {str(k): _float_rate(v, f"rate for subset {str(k)!r}")
                     for k, v in self.subset_rates_per_nat.items()}
            object.__setattr__(self, "subset_rates_per_nat", rates)
            if not rates:
                raise ValidationError("per-subset rate map must not be empty")
            for key, rate in rates.items():
                if not (math.isfinite(rate) and rate >= 0):
                    raise ValidationError(
                        f"rate for subset {key!r} must be nonnegative, got {rate!r}"
                    )
        if self.max_penalty is not None:
            ceiling = to_decimal(self.max_penalty)
            object.__setattr__(self, "max_penalty", ceiling)
            if not ceiling > 0:
                raise ValidationError("maximum penalty must be strictly positive")
        if (
            self.rate_per_nat is None
            and self.subset_rates_per_nat is None
            and self.max_penalty is None
        ):
            raise ValidationError(
                "policy needs a rate, per-subset rates, or a maximum penalty"
            )
        if not isinstance(self.currency, str) or not self.currency.strip():
            raise ValidationError(f"currency must be a non-blank string, got {self.currency!r}")


@dataclass(frozen=True)
class PriceQuote:
    """A price decomposed into production cost plus leakage surcharge.

    Components are exact, unrounded decimals and always satisfy
    ``total == production_component + surcharge_component``; apply
    :func:`quantize_money` when recording or displaying them. The
    leakage that generated the surcharge rides along in nats.
    """

    rule: str
    leakage: InfoQuantity
    production_component: Decimal
    surcharge_component: Decimal
    total: Decimal
    currency: str = "USD"

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValidationError(f"unknown pricing rule {self.rule!r}")
        if self.surcharge_component < 0:
            raise ValidationError("surcharge must be nonnegative")
        if self.total != self.production_component + self.surcharge_component:
            raise ValidationError("total must equal production plus surcharge exactly")


def _linear_surcharge(rate_per_nat, nats) -> Decimal:
    """Exact, unrounded rate times leakage in nats."""
    return to_decimal(rate_per_nat) * to_decimal(nats)


def _surcharge(policy: PricingPolicy, rule: str, nats: float, h_nats=None) -> Decimal:
    """Exact, unrounded surcharge for ``nats`` under the linear rule, or under the
    exposure rule against a profile entropy of ``h_nats`` nats."""
    if rule == LINEAR:
        return _linear_surcharge(policy.rate_per_nat, nats)
    return to_decimal(_exposure_ratio(nats, h_nats)) * policy.max_penalty


def _quote(rule, leakage_nats, policy, surcharge) -> PriceQuote:
    return PriceQuote(
        rule=rule,
        leakage=InfoQuantity(leakage_nats, NATS),
        production_component=policy.production_cost,
        surcharge_component=surcharge,
        total=policy.production_cost + surcharge,
        currency=policy.currency,
    )


def price_linear(policy: PricingPolicy, leakage: InfoQuantity) -> PriceQuote:
    """Production cost plus rate times leakage in nats.

    Zero leakage prices at exactly the production cost, and the charge
    for a sum of leakages equals the sum of charges minus the
    once-counted production cost, both at full decimal precision.
    """
    if policy.rate_per_nat is None:
        raise ValidationError("linear pricing needs a scalar rate in the policy")
    nats = leakage.in_nats()
    return _quote(LINEAR, nats, policy, _surcharge(policy, LINEAR, nats))


def price_weighted(
    policy: PricingPolicy, leakage_by_subset: dict[str, InfoQuantity]
) -> PriceQuote:
    """Sum of per-subset rates times per-subset leakage.

    Every subset the policy prices must appear in the report; extra
    report entries (subsets priced at no rate) are ignored. The quote's
    leakage field carries the sum of the priced subsets' leakages.
    """
    if policy.subset_rates_per_nat is None:
        raise ValidationError("weighted pricing needs per-subset rates in the policy")
    missing = [k for k in policy.subset_rates_per_nat if k not in leakage_by_subset]
    if missing:
        raise ValidationError(f"no leakage entry for priced subset {missing[0]!r}")
    surcharge = Decimal("0")
    priced_nats = 0.0
    for key, rate in policy.subset_rates_per_nat.items():
        nats = leakage_by_subset[key].in_nats()
        surcharge += _linear_surcharge(rate, nats)
        priced_nats += nats
    return _quote(WEIGHTED, priced_nats, policy, surcharge)


def price_exposure(policy: PricingPolicy, joint: JointTable) -> PriceQuote:
    """Surcharge as the leaked fraction of profile entropy times the ceiling.

    Full disclosure (exposure ratio 1) prices at exactly the ceiling;
    zero leakage at exactly the production cost.
    """
    if policy.max_penalty is None:
        raise ValidationError("exposure pricing needs a maximum penalty in the policy")
    nats, h_nats = _exposure(joint)
    return _quote(EXPOSURE, nats, policy, _surcharge(policy, EXPOSURE, nats, h_nats))


def calibrate_lambda(max_penalty, baseline_entropy: InfoQuantity) -> float:
    """Per-nat rate that reaches the ceiling exactly at full disclosure.

    Solves rate * H = ceiling for the baseline profile entropy H, so the
    linear rule and the exposure rule agree over [0, H].
    """
    ceiling = to_decimal(max_penalty)
    if not ceiling > 0:
        raise ValidationError("maximum penalty must be strictly positive")
    h_nats = baseline_entropy.in_nats()
    if h_nats <= 0:
        raise ValidationError("baseline entropy must be strictly positive")
    rate = float(ceiling) / h_nats
    if not math.isfinite(rate):
        raise ValidationError(f"calibrated rate overflows at entropy {h_nats!r} nats")
    return rate


def convert_lambda(
    rate: float,
    from_unit: str,
    to_unit: str,
    exchange_rate: float | None = None,
) -> float:
    """Re-express a rate between per-nat and per-bit, optionally across
    currencies.

    A per-bit rate equals the per-nat rate times ln 2 (a bit is ln 2
    nats, so charging per bit scales the rate the same way). The
    exchange rate, when given, multiplies on top. Same-unit conversion
    with no exchange rate returns the rate unchanged.
    """
    for unit in (from_unit, to_unit):
        if unit not in (NATS, BITS):
            raise ValidationError(
                f"unknown rate unit {unit!r}; expected {NATS!r} or {BITS!r}"
            )
    if not (math.isfinite(rate) and rate > 0):
        raise ValidationError(f"rate must be finite and strictly positive, got {rate!r}")
    factor = InfoQuantity(1.0, to_unit).in_nats() / InfoQuantity(1.0, from_unit).in_nats()
    if exchange_rate is not None:
        rho = float(exchange_rate)
        if not (math.isfinite(rho) and rho > 0):
            raise ValidationError("exchange rate must be strictly positive")
        factor *= rho
    return rate * factor


def price_curve(
    policy: PricingPolicy,
    rule: str,
    start: float,
    stop: float,
    step: float,
    baseline_entropy: InfoQuantity | None = None,
) -> list[tuple[float, Decimal]]:
    """Evenly spaced (leakage_nats, total price) points.

    Supports the linear and exposure rules; for exposure the leakage
    range must stay within [0, H] for the supplied baseline entropy.
    The range must be finite and span at most :data:`MAX_CURVE_POINTS` points.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"step must be positive, got {step!r}")
    if not (math.isfinite(start) and math.isfinite(stop)) or start < 0 or stop < start:
        raise ValidationError(f"invalid leakage range [{start}, {stop}]")
    h_nats = None
    if rule == LINEAR:
        if policy.rate_per_nat is None:
            raise ValidationError("linear curve needs a scalar rate in the policy")
    elif rule == EXPOSURE:
        if policy.max_penalty is None:
            raise ValidationError("exposure curve needs a maximum penalty in the policy")
        if baseline_entropy is None:
            raise ValidationError("exposure curve needs the baseline profile entropy")
        h_nats = baseline_entropy.in_nats()
        if h_nats <= 0:
            raise ValidationError("baseline entropy must be strictly positive")
        if stop > h_nats * (1.0 + 1e-12):
            raise ValidationError(
                f"exposure leakage range must stay within [0, {h_nats!r}] nats"
            )
    else:
        raise ValidationError(
            f"price curves support the linear and exposure rules, not {rule!r}"
        )
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_CURVE_POINTS:
        raise ValidationError(
            f"curve over [{start}, {stop}] in steps of {step} has more than "
            f"{MAX_CURVE_POINTS} points"
        )
    leakages = [start + i * step for i in range(int(math.floor(steps)) + 1)]
    if any(x1 <= x0 for x0, x1 in zip(leakages, leakages[1:])):
        raise ValidationError(f"step {step!r} is too small to separate the points of "
                              f"[{start}, {stop}] as floats")
    return [(nats, policy.production_cost + _surcharge(policy, rule, nats, h_nats))
            for nats in leakages]


# ---------------------------------------------------------------------------
# file format


def load_policy(path) -> PricingPolicy:
    """Read a pricing-policy document (YAML key-value tree).

    Keys: ``c_p`` (required), ``lambda`` (scalar, or map keyed by subset
    name), ``lambda_unit`` (``per_nat`` default, or ``per_bit``),
    ``pi_max``, ``currency``. Per-bit rates are
    converted to per-nat on load; everything downstream is per nat.
    """
    doc = load_yaml_doc(path, "policy", {"c_p", "lambda", "lambda_unit", "pi_max", "currency"})
    if "c_p" not in doc:
        raise ValidationError(f"{path}: policy must declare the production cost c_p")
    unit = doc.get("lambda_unit", PER_NAT)
    if unit not in (PER_NAT, PER_BIT):
        raise ValidationError(
            f"{path}: lambda_unit must be {PER_NAT!r} or {PER_BIT!r}, got {unit!r}"
        )

    # a per-bit rate charges more per nat (lambda_b / ln 2 > lambda_b):
    # divide by ln 2 to store per nat
    scale = 1.0 if unit == PER_NAT else 1.0 / LN2
    raw = doc.get("lambda")
    rate = subset_rates = None
    if isinstance(raw, dict):
        subset_rates = {k: _number(v, f"{path}: lambda[{k!r}]") * scale for k, v in raw.items()}
    elif raw is not None:
        rate = _number(raw, f"{path}: lambda") * scale
    try:
        return PricingPolicy(
            production_cost=doc["c_p"],
            rate_per_nat=rate,
            subset_rates_per_nat=subset_rates,
            max_penalty=doc.get("pi_max"),
            currency=doc.get("currency", "USD"),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None

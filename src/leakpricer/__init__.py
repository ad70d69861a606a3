"""Price the privacy leakage of observable data.

The library measures how much an observable X reveals about a protected
profile S as the mutual information I(X;S), reports the leaked fraction
of the profile's entropy, and converts leakage into a monetary
surcharge on top of a production cost: linearly per nat, as weighted
per-subset rates, or as a fraction of a statutory maximum penalty.
An append-only session ledger prices observation events as they happen
and closes on an explicit consent decision.
"""

from types import ModuleType as _ModuleType

from .audit import (
    CONSENT_DENIED,
    CONSENT_GRANTED,
    CONSENT_PENDING,
    DISCLAIMER,
    AuditEvent,
    SessionLedger,
    SessionReport,
    build_report,
    close_session,
    open_session,
    read_ledger,
    record_event,
    write_ledger,
)
from .errors import (
    EstimationError,
    LeakPricerError,
    ParseError,
    ValidationError,
)
from .estimation import (
    KDE_MC,
    PLUGIN,
    Bandwidth,
    MIEstimate,
    empirical_joint,
    estimate_mi,
    kde_log_densities,
    mc_mutual_information,
    silverman_bandwidth,
)
from .infotheory import (
    BITS,
    LN2,
    NATS,
    InfoQuantity,
    JointTable,
    conditional_entropy,
    entropy,
    exposure_ratio,
    intersection_leakage_report,
    marginal_mi,
    mutual_information,
    read_joint_table,
)
from .pricing import (
    EXPOSURE,
    LINEAR,
    MONEY_QUANTUM,
    WEIGHTED,
    PriceQuote,
    PricingPolicy,
    calibrate_lambda,
    convert_lambda,
    load_policy,
    price_curve,
    price_exposure,
    price_linear,
    price_weighted,
    quantize_money,
    to_decimal,
)
from .schema import (
    AttributeSpec,
    BinRule,
    ProfileSchema,
    SampleSet,
    build_intersection_labels,
    discretize,
    load_samples,
    load_schema,
    samples_to_csv,
)

__version__ = "0.1.0"

# the import block above is the one list of the public surface
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

"""The package's public surface: the names ``leakpricer`` exports."""

import leakpricer

# frozen, sorted: a name joins or leaves the surface only by changing this list
PUBLIC_NAMES = [
    "AttributeSpec", "AuditEvent", "BITS", "Bandwidth", "BinRule", "CONSENT_DENIED",
    "CONSENT_GRANTED", "CONSENT_PENDING", "DISCLAIMER", "EXPOSURE", "EstimationError",
    "InfoQuantity", "JointTable", "KDE_MC", "LINEAR", "LN2", "LeakPricerError",
    "MIEstimate", "MONEY_QUANTUM", "NATS", "PLUGIN", "ParseError", "PriceQuote",
    "PricingPolicy", "ProfileSchema", "SampleSet", "SessionLedger", "SessionReport",
    "ValidationError", "WEIGHTED", "build_intersection_labels", "build_report",
    "calibrate_lambda", "close_session", "conditional_entropy", "convert_lambda",
    "discretize", "empirical_joint", "entropy", "estimate_mi", "exposure_ratio",
    "intersection_leakage_report", "kde_log_densities", "load_policy", "load_samples",
    "load_schema", "marginal_mi", "mc_mutual_information", "mutual_information",
    "open_session", "price_curve", "price_exposure", "price_linear", "price_weighted",
    "quantize_money", "read_joint_table", "read_ledger", "record_event",
    "samples_to_csv", "silverman_bandwidth", "to_decimal", "write_ledger",
]


def test_all_is_the_frozen_list():
    assert leakpricer.__all__ == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from leakpricer import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES

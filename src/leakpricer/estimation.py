"""Mutual-information estimation from paired samples.

Two routes share one result type:

* all-categorical data goes through exact plug-in frequency counts over
  the declared level cross-product (:func:`empirical_joint`);
* data with continuous attributes goes through kernel density
  estimation with Gaussian product kernels and a resubstitution Monte
  Carlo average of the log density ratio
  (:func:`mc_mutual_information`).

The resubstitution average evaluates densities at the training points
themselves. That makes the estimate mildly optimistic for small n; the
bias is documented rather than corrected, and it shrinks as n grows.

Kernel evaluation walks the rows in blocks, each against all n samples,
on one worker thread per available core. Each worker reuses its own
buffers, together within one block budget whatever n is, while time stays
quadratic in n. Each row's mean is one contiguous reduction over that
row, so results are the same bit for bit for any block size or core count.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EstimationError, ValidationError
from .infotheory import NATS, InfoQuantity, JointTable, mutual_information
from .schema import SampleSet, build_intersection_labels, np

PLUGIN = "plug-in-counts"
KDE_MC = "kde-monte-carlo"

#: log densities are floored here; exp(-745) sits just above double underflow.
LOG_FLOOR = -745.0

_SQRT_TAU = math.sqrt(2.0 * math.pi)

#: Kernel entries per block of rows, summed over the workers (2 MiB of float64).
BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Bandwidth:
    """Gaussian kernel width for one continuous attribute, in data units."""

    width: float

    def __post_init__(self) -> None:
        width = float(self.width)
        object.__setattr__(self, "width", width)
        if not (math.isfinite(width) and width > 0):
            raise ValidationError(f"bandwidth must be a positive real, got {width!r}")


def silverman_bandwidth(values) -> Bandwidth:
    """Gaussian reference rule: 1.06 * sample std (ddof=1) * n^(-1/5)."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 2:
        raise ValidationError("bandwidth selection needs at least two values")
    sigma = float(arr.std(ddof=1))
    if sigma == 0.0:
        raise ValidationError(
            "all values are identical; bandwidth undefined for zero variance"
        )
    return Bandwidth(1.06 * sigma * arr.size ** (-1.0 / 5.0))


@dataclass(frozen=True)
class MIEstimate:
    """An estimated leakage plus the provenance needed to reproduce it.

    ``value`` is clamped at zero; ``raw_nats`` keeps the pre-clamp
    estimate for diagnostics. ``bandwidths`` maps continuous attribute
    names to the kernel widths actually used (None for the plug-in
    route), and ``seed`` records the requested seed (None likewise).
    """

    value: InfoQuantity
    n: int
    method: str
    seed: int | None = None
    raw_nats: float = 0.0
    bandwidths: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.method not in (PLUGIN, KDE_MC):
            raise ValidationError(f"unknown estimation method {self.method!r}")
        if self.n < 1:
            raise ValidationError("estimate needs a positive sample count")


def empirical_joint(samples: SampleSet) -> JointTable:
    """Frequency-count joint table over the declared level cross-product.

    Cells for unobserved level combinations are zero, never dropped, so
    the table shape depends only on the schema.
    """
    schema = samples.schema
    continuous = schema.continuous_columns
    if continuous:
        raise ValidationError(
            f"plug-in counting needs all-categorical data; "
            f"{continuous[0].name!r} is continuous (discretize first)"
        )
    s_labels = build_intersection_labels(schema)
    x_levels = schema.observable.levels
    # the joint index runs over x first, then the protected codes in
    # schema order: the row-major order of the table's cells
    dims = [len(spec.levels) for spec in (schema.observable, *schema.attributes)]
    cells = np.ravel_multi_index(samples.data[-1:] + samples.data[:-1], dims)
    counts = np.bincount(cells, minlength=len(x_levels) * len(s_labels))
    return JointTable(x_levels, s_labels, counts.reshape(len(x_levels), -1) / samples.n)


class LogDensities(NamedTuple):
    """Per-sample resubstitution log densities, aligned with row order."""

    joint: np.ndarray
    x: np.ndarray
    s: np.ndarray


def kde_log_densities(
    samples: SampleSet,
    bandwidths: dict[str, Bandwidth],
) -> LogDensities:
    """log p(x_i, s_i), log p(x_i), log p(s_i) at every sample point.

    Each continuous dimension contributes a Gaussian kernel factor with
    its own bandwidth; each categorical dimension contributes an exact
    indicator match. Marginal densities reuse the same kernel
    assignments restricted to the relevant dimensions, never a refit.

    A density that overflows, or a joint density that underflows to
    zero, is an error naming the first offending sample; marginals are
    floored at :data:`LOG_FLOOR` with a warning.

    All-categorical data is accepted; its indicator kernels make the
    estimate agree with plug-in counting (:func:`empirical_joint`).
    """
    schema = samples.schema
    if samples.n < 2:
        raise ValidationError("kernel density estimation needs at least two samples")
    continuous = schema.continuous_columns
    missing = [spec.name for spec in continuous if spec.name not in bandwidths]
    if missing:
        raise ValidationError(
            f"missing bandwidth for continuous attribute {missing[0]!r}"
        )

    inputs = [
        (values, bandwidths[spec.name].width if spec.is_continuous else None)
        for spec, values in zip(schema.columns, samples.data)
    ]
    s_inputs, x_inputs = inputs[:-1], inputs[-1:]
    n = samples.n
    joint_mean, x_mean, s_mean = np.empty(n), np.empty(n), np.empty(n)
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cores, -(-n // max(1, BLOCK_ENTRIES // n)))  # no more than blocks
    rows = max(1, BLOCK_ENTRIES // (n * workers))

    def work(first: int) -> None:
        # errstate is per thread; _log_density reports non-finite densities
        s_buf, x_buf, scratch, z = (np.empty((rows, n)) for _ in range(4))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(first * rows, n, workers * rows):
                hi = min(lo + rows, n)
                s_block = _kernel_block(s_inputs, lo, hi, s_buf, scratch, z)
                x_block = _kernel_block(x_inputs, lo, hi, x_buf, scratch, z)
                s_mean[lo:hi] = s_block.mean(axis=1)
                x_mean[lo:hi] = x_block.mean(axis=1)
                s_block *= x_block
                joint_mean[lo:hi] = s_block.mean(axis=1)

    # imported here: concurrent.futures would slow every command's start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:  # joins every worker on exit
        list(pool.map(work, range(workers)))  # raises what a worker raised

    kinds = ("joint", "x marginal", "s marginal")
    return LogDensities(*map(_log_density, (joint_mean, x_mean, s_mean), kinds))


def _kernel_block(inputs, lo, hi, out, scratch, z) -> np.ndarray:
    """Entry (i, j) of ``out`` gets the product, over the group's dimensions
    in schema order, of the kernel between sample lo + i and sample j."""
    out, scratch, z = out[: hi - lo], scratch[: hi - lo], z[: hi - lo]
    for k, (values, h) in enumerate(inputs):
        factor = scratch if k else out
        if h is None:
            np.equal(values[lo:hi, None], values[None, :], out=factor)
        else:
            np.subtract(values[lo:hi, None], values[None, :], out=z)
            z /= h
            np.multiply(-0.5, z, out=factor)
            factor *= z
            np.exp(factor, out=factor)
            factor /= h * _SQRT_TAU
        if k:
            out *= factor
    return out


def _log_density(density: np.ndarray, kind: str) -> np.ndarray:
    if not np.isfinite(density).all():
        index = int(np.argmin(np.isfinite(density)))
        raise EstimationError(f"{kind} density overflowed at sample index {index}; "
                              "a bandwidth is too small for this data")
    with np.errstate(divide="ignore"):
        logs = np.log(density)
    floored = logs < LOG_FLOOR
    if not floored.any():
        return logs
    if kind == "joint":
        index = int(np.nonzero(floored)[0][0])
        raise EstimationError(
            f"joint density underflowed at sample index {index}; "
            "a bandwidth is too large for this data"
        )
    warnings.warn(
        f"{int(floored.sum())} {kind} densities floored at exp({LOG_FLOOR:g})",
        RuntimeWarning,
        stacklevel=3,
    )
    return np.where(floored, LOG_FLOOR, logs)


def mc_mutual_information(
    samples: SampleSet,
    bandwidths: dict[str, Bandwidth],
    seed: int = 0,
) -> MIEstimate:
    """Resubstitution Monte Carlo estimate of I(X; S) in nats.

    The average always runs over the full sample in row order, so the
    value is deterministic and seed-independent; the seed is recorded
    purely as provenance for pipelines that generated the data from it.
    """
    densities = kde_log_densities(samples, bandwidths)
    raw = float(np.mean(densities.joint - densities.x - densities.s))
    widths = {
        spec.name: bandwidths[spec.name].width
        for spec in samples.schema.continuous_columns
    }
    return MIEstimate(
        value=InfoQuantity(max(raw, 0.0), NATS),
        n=samples.n,
        method=KDE_MC,
        seed=int(seed),
        raw_nats=raw,
        bandwidths=widths,
    )


def estimate_mi(
    samples: SampleSet,
    bandwidths: dict[str, Bandwidth] | None = None,
    seed: int = 0,
) -> MIEstimate:
    """Estimate leakage, routing by schema: exact counts when every
    attribute is categorical, kernel Monte Carlo otherwise.

    Bandwidths left unspecified for continuous attributes fall back to
    :func:`silverman_bandwidth` on that attribute's sample column; a
    bandwidth for any other name is rejected.
    """
    continuous = {spec.name for spec in samples.schema.continuous_columns}
    stray = sorted(set(bandwidths or ()) - continuous)
    if stray:
        raise ValidationError(
            f"bandwidth given for {stray[0]!r}, which is not a continuous attribute"
        )
    if not continuous:
        mi = mutual_information(empirical_joint(samples), NATS)
        return MIEstimate(value=mi, n=samples.n, method=PLUGIN, raw_nats=mi.value)
    widths = dict(bandwidths) if bandwidths else {}
    for spec, values in zip(samples.schema.columns, samples.data):
        if spec.is_continuous and spec.name not in widths:
            widths[spec.name] = silverman_bandwidth(values)
    return mc_mutual_information(samples, widths, seed=seed)

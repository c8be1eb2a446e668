"""Release-level adoption metrics: size bins, look-ahead grids, log-differences.

A release record carries the counts needed to measure adoption growth around
a release: the dependent count the day before (which fixes the size bin and
the threshold filter), and metric values at the release date (offset 0) plus
a grid of forward offsets. Missing look-ahead values are stored explicitly as
None, never zero-filled; zero counts are real data but are excluded from
log-difference samples because ln(0) is undefined (no smoothing is applied,
exclusions are tallied instead).
"""

from __future__ import annotations

import enum
import math
from datetime import date, timedelta
from typing import Iterable, NamedTuple, Sequence

from .filters import ClassifiedRelease, CountProvider, pre_release_date
from .ingest import RepoIndex
from .semver import ReleaseType, VersionSeries, format_version, version_series

__all__ = [
    "LogDiffSample",
    "LookaheadGrid",
    "METRICS",
    "NonPositiveInput",
    "ReleaseRecord",
    "SUPPORTED_GRIDS",
    "SizeBin",
    "build_release_records",
    "log_diff_samples",
    "log_difference",
    "size_bin",
]

METRICS = ("dependents", "stars", "forks")

# (horizon_days, step_days) pairs the pipeline supports
SUPPORTED_GRIDS = ((180, 45), (365, 90), (730, 180))


class NonPositiveInput(ValueError):
    """log_difference needs strictly positive inputs."""


class SizeBin(enum.Enum):
    """Dependent-count bin on the day before the release."""

    SMALL = "small"  # [0, 100)
    MEDIUM = "medium"  # [100, 1000)
    LARGE = "large"  # [1000, 10000)
    HUGE = "huge"  # [10000, inf)


_BIN_EDGES = ((100, SizeBin.SMALL), (1000, SizeBin.MEDIUM), (10000, SizeBin.LARGE))


def size_bin(count: int) -> SizeBin:
    """Bin a non-negative dependent count: <100, <1000, <10000, else huge."""
    if count < 0:
        raise ValueError(f"dependent count must be >= 0, got {count}")
    for edge, bin_ in _BIN_EDGES:
        if count < edge:
            return bin_
    return SizeBin.HUGE


class _GridFields(NamedTuple):
    horizon_days: int
    step_days: int


class LookaheadGrid(_GridFields):
    """Forward measurement offsets: multiples of ``step_days`` up to the horizon.

    The final multiple at or below ``horizon_days`` is the grid's headline
    measurement (``final_offset``); for the supported one-year grid that is
    day 360, the last 90-day multiple inside 365 days.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "LookaheadGrid":
        self = super().__new__(cls, *args, **kwargs)
        if self.step_days <= 0 or self.horizon_days <= 0:
            raise ValueError("grid days must be positive")
        if self.step_days > self.horizon_days:
            raise ValueError("step cannot exceed horizon")
        return self

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(range(self.step_days, self.horizon_days + 1, self.step_days))

    @property
    def final_offset(self) -> int:
        return self.offsets[-1]


class ReleaseRecord(NamedTuple):
    """One surviving release with its adoption measurements.

    ``version_text`` is the version's canonical ``format_version`` text,
    rendered once per record for the rows and samples that carry it."""

    release_date: date
    ecosystem: str
    package_name: str
    owner: str
    repo_name: str
    version_text: str
    release_type: ReleaseType
    series: VersionSeries
    pre_dependents: int
    bin: SizeBin
    # (metric, offset_days) -> value; None marks a missing look-ahead
    metric_values: dict[tuple[str, int], int | None]


class LogDiffSample(NamedTuple):
    """One log-difference observation, denormalized for stratified analysis."""

    ecosystem: str
    package_name: str
    release_date: date
    version_text: str
    release_type: ReleaseType
    series: VersionSeries
    bin: SizeBin
    metric: str
    offset_days: int
    value: float


def log_difference(v0: float, v1: float) -> float:
    """ln(v1) - ln(v0).

    Raises:
        NonPositiveInput: either argument is zero or negative.
    """
    if v0 <= 0 or v1 <= 0:
        raise NonPositiveInput(f"log difference needs positive values, got {v0}, {v1}")
    return math.log(v1) - math.log(v0)


def build_release_records(
    classified: Iterable[ClassifiedRelease],
    repos: RepoIndex,
    dependent_count: CountProvider,
    grid: LookaheadGrid,
) -> tuple[list[ReleaseRecord], dict[str, int]]:
    """Assemble release records with look-ahead metric values.

    Star and fork look-aheads come from the repository snapshot joined at
    each offset date; dependent look-aheads come from ``dependent_count``.
    Releases whose day-before dependent count is unavailable cannot be
    binned and are skipped with a tally (the canonical cascade already
    filtered them, so this only fires when stages are run out of order).

    Returns:
        (records, skip tallies by reason)
    """
    # each offset's (metric, offset) keys, built once and shared by every record
    keyed = [
        (offset, ("dependents", offset), ("stars", offset), ("forks", offset)) for offset in (0, *grid.offsets)
    ]
    records: list[ReleaseRecord] = []
    skipped: dict[str, int] = {}
    for item in classified:
        release = item.release
        pre = dependent_count(release.package_name, release.ecosystem, pre_release_date(release))
        if pre is None:
            skipped["missing_pre_dependents"] = skipped.get("missing_pre_dependents", 0) + 1
            continue
        values: dict[tuple[str, int], int | None] = {}
        for offset, dependents, stars, forks in keyed:
            when = release.release_date + timedelta(days=offset)
            values[dependents] = dependent_count(release.package_name, release.ecosystem, when)
            snap = repos.nearest(release.owner, release.repo_name, when)
            values[stars] = snap.stars if snap else None
            values[forks] = snap.forks if snap else None
        records.append(
            ReleaseRecord(
                release_date=release.release_date,
                ecosystem=release.ecosystem,
                package_name=release.package_name,
                owner=release.owner,
                repo_name=release.repo_name,
                version_text=format_version(item.version),
                release_type=item.release_type,
                series=version_series(item.version),
                pre_dependents=pre,
                bin=size_bin(pre),
                metric_values=values,
            )
        )
    return records, skipped


def log_diff_samples(
    records: Sequence[ReleaseRecord], metric: str, offset_days: int
) -> tuple[list[LogDiffSample], dict[str, int]]:
    """Log-difference samples for one metric at one offset.

    v0 is the metric value at offset 0 (the release date), v1 at
    ``offset_days``. Records with a missing or non-positive endpoint are
    dropped and tallied under ``missing_v0`` / ``missing_v1`` /
    ``nonpositive_v0`` / ``nonpositive_v1``.

    Raises:
        ValueError: unknown metric name.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    samples: list[LogDiffSample] = []
    exclusions = {"missing_v0": 0, "missing_v1": 0, "nonpositive_v0": 0, "nonpositive_v1": 0}
    for record in records:
        v0 = record.metric_values.get((metric, 0))
        v1 = record.metric_values.get((metric, offset_days))
        if v0 is None:
            exclusions["missing_v0"] += 1
            continue
        if v1 is None:
            exclusions["missing_v1"] += 1
            continue
        if v0 <= 0:
            exclusions["nonpositive_v0"] += 1
            continue
        if v1 <= 0:
            exclusions["nonpositive_v1"] += 1
            continue
        samples.append(
            LogDiffSample(
                record.ecosystem,
                record.package_name,
                record.release_date,
                record.version_text,
                record.release_type,
                record.series,
                record.bin,
                metric,
                offset_days,
                log_difference(v0, v1),
            )
        )
    return samples, exclusions

"""Release filter cascade with conservation-checked audit reports.

Stages (in canonical pipeline order):

1. repo quality: the source repository, joined at the release date, must
   exist, not be a fork, and have at least one star.
2. semver parse: the version text must be a plain MAJOR.MINOR.PATCH tag;
   classification is attached to survivors.
3. name match: the package must be named after its repository (lowercased,
   ``-``/``_`` folded).
4. same-day dedup: a package releasing more than once on one UTC day has all
   of that day's releases removed (the look-ahead metric cannot attribute
   growth to any single one of them).
5. ecosystem allow-list.
6. minimum dependents on the day before the release.

Every stage returns a :class:`FilterReport` whose counts satisfy
``records_in == records_out + sum(reasons.values())``.
"""

from __future__ import annotations

import re
from datetime import date, timedelta
from typing import Callable, Iterable, NamedTuple, Union

from .ingest import PackageRelease, RepoIndex
from .semver import (
    MalformedVersion,
    PreReleaseExcluded,
    ReleaseType,
    Version,
    classify_release,
    parse_version,
)

__all__ = [
    "ClassifiedRelease",
    "CountProvider",
    "FilterReport",
    "dedup_same_day",
    "filter_ecosystems",
    "filter_min_dependents",
    "filter_name_match",
    "filter_repo_quality",
    "filter_semver",
    "normalize_name",
    "run_filter_cascade",
    "DEFAULT_ECOSYSTEMS",
    "DEFAULT_MIN_DEPENDENTS",
]

DEFAULT_ECOSYSTEMS = frozenset({"npm", "pypi", "rubygems"})
DEFAULT_MIN_DEPENDENTS = 5

# reason codes, used in audit output
REASON_NO_SNAPSHOT = "NoSnapshot"
REASON_FORKED = "ForkedRepo"
REASON_LOW_ENGAGEMENT = "LowEngagement"
REASON_MALFORMED = "MalformedVersion"
REASON_PRE_RELEASE = "PreReleaseExcluded"
REASON_NAME_MISMATCH = "NameMismatch"
REASON_SAME_DAY = "SameDayMultiple"
REASON_ECOSYSTEM = "EcosystemExcluded"
REASON_FEW_DEPENDENTS = "FewDependents"
REASON_NO_DEPENDENT_DATA = "NoDependentData"


class ClassifiedRelease(NamedTuple):
    """A release that survived semver parsing, with its classification."""

    release: PackageRelease
    version: Version
    release_type: ReleaseType


Releaselike = Union[PackageRelease, ClassifiedRelease]

# (package_name, ecosystem, date) -> dependent count, or None when the edge
# data has no coverage within the join window of the date
CountProvider = Callable[[str, str, date], "int | None"]


def _pkg(item: Releaselike) -> PackageRelease:
    return item.release if isinstance(item, ClassifiedRelease) else item


class FilterReport:
    """Audit record for one filter stage.

    Invariant: ``records_in == records_out + sum(reasons.values())``. The
    ``check`` method asserts it.
    """

    __slots__ = ("stage", "records_in", "records_out", "reasons")

    def __init__(
        self, stage: str, records_in: int = 0, records_out: int = 0, reasons: dict[str, int] | None = None
    ) -> None:
        self.stage = stage
        self.records_in = records_in
        self.records_out = records_out
        self.reasons: dict[str, int] = {} if reasons is None else reasons

    def drop(self, reason: str, count: int = 1) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check(self) -> None:
        total = self.records_out + sum(self.reasons.values())
        if self.records_in != total:
            raise AssertionError(
                f"{self.stage}: conservation violated, in={self.records_in} "
                f"out+dropped={total}"
            )

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "reasons": dict(sorted(self.reasons.items())),
        }


_SEPARATOR_RUN = re.compile(r"[-_]+")


def normalize_name(text: str) -> str:
    """Lowercase and fold ``-``/``_`` runs to a single ``-`` for name matching."""
    return _SEPARATOR_RUN.sub("-", text.lower())


def filter_repo_quality(
    releases: Iterable[PackageRelease], repos: RepoIndex
) -> tuple[list[PackageRelease], FilterReport]:
    """Keep releases whose repository is visible, non-fork, and starred.

    A repository that is both a fork and starless reports ``ForkedRepo``
    (fork status is checked first).
    """
    report = FilterReport(stage="repo_quality")
    kept: list[PackageRelease] = []
    for release in releases:
        report.records_in += 1
        snap = repos.nearest(release.owner, release.repo_name, release.release_date)
        if snap is None:
            report.drop(REASON_NO_SNAPSHOT)
        elif snap.is_fork:
            report.drop(REASON_FORKED)
        elif snap.stars < 1:
            report.drop(REASON_LOW_ENGAGEMENT)
        else:
            kept.append(release)
            report.records_out += 1
    report.check()
    return kept, report


def filter_semver(
    releases: Iterable[PackageRelease], zero_split: str = "patch"
) -> tuple[list[ClassifiedRelease], FilterReport]:
    """Parse and classify version texts; drop non-semver and pre-releases."""
    report = FilterReport(stage="semver")
    kept: list[ClassifiedRelease] = []
    for release in releases:
        report.records_in += 1
        try:
            version = parse_version(release.version_text)
        except PreReleaseExcluded:
            report.drop(REASON_PRE_RELEASE)
            continue
        except MalformedVersion:
            report.drop(REASON_MALFORMED)
            continue
        kept.append(
            ClassifiedRelease(
                release=release,
                version=version,
                release_type=classify_release(version, zero_split=zero_split),
            )
        )
        report.records_out += 1
    report.check()
    return kept, report


def filter_name_match(
    items: Iterable[Releaselike],
) -> tuple[list[Releaselike], FilterReport]:
    """Keep releases whose package name matches the repository name."""
    report = FilterReport(stage="name_match")
    kept: list[Releaselike] = []
    for item in items:
        report.records_in += 1
        release = _pkg(item)
        if normalize_name(release.package_name) == normalize_name(release.repo_name):
            kept.append(item)
            report.records_out += 1
        else:
            report.drop(REASON_NAME_MISMATCH)
    report.check()
    return kept, report


def dedup_same_day(
    items: Iterable[Releaselike],
) -> tuple[list[Releaselike], FilterReport]:
    """Remove every release of a package-day that released more than once."""
    report = FilterReport(stage="same_day_dedup")
    buffered = list(items)
    report.records_in = len(buffered)
    counts: dict[tuple[str, str, object], int] = {}
    for item in buffered:
        release = _pkg(item)
        key = (release.ecosystem, release.package_name, release.release_date)
        counts[key] = counts.get(key, 0) + 1
    kept: list[Releaselike] = []
    for item in buffered:
        release = _pkg(item)
        key = (release.ecosystem, release.package_name, release.release_date)
        if counts[key] == 1:
            kept.append(item)
            report.records_out += 1
        else:
            report.drop(REASON_SAME_DAY)
    report.check()
    return kept, report


def filter_ecosystems(
    items: Iterable[Releaselike], allowed: Iterable[str] = DEFAULT_ECOSYSTEMS
) -> tuple[list[Releaselike], FilterReport]:
    """Keep releases from the allowed ecosystems only."""
    allowed_set = frozenset(allowed)
    report = FilterReport(stage="ecosystems")
    kept: list[Releaselike] = []
    for item in items:
        report.records_in += 1
        if _pkg(item).ecosystem in allowed_set:
            kept.append(item)
            report.records_out += 1
        else:
            report.drop(REASON_ECOSYSTEM)
    report.check()
    return kept, report


def filter_min_dependents(
    items: Iterable[Releaselike],
    dependent_count: CountProvider,
    threshold: int = DEFAULT_MIN_DEPENDENTS,
) -> tuple[list[Releaselike], FilterReport]:
    """Keep releases with at least ``threshold`` dependents the day before.

    ``dependent_count`` is asked for each release's package on
    :func:`pre_release_date`; a None count (no edge coverage for that day)
    drops the release as ``NoDependentData``. A threshold of 0 keeps
    everything (vacuous filter) and asks for no count.

    Raises:
        ValueError: negative threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    report = FilterReport(stage="min_dependents")
    kept: list[Releaselike] = []
    for item in items:
        report.records_in += 1
        if threshold == 0:
            kept.append(item)
            report.records_out += 1
            continue
        release = _pkg(item)
        count = dependent_count(release.package_name, release.ecosystem, pre_release_date(item))
        if count is None:
            report.drop(REASON_NO_DEPENDENT_DATA)
        elif count >= threshold:
            kept.append(item)
            report.records_out += 1
        else:
            report.drop(REASON_FEW_DEPENDENTS)
    report.check()
    return kept, report


def pre_release_date(item: Releaselike) -> date:
    """The day before the release, on which the dependents threshold is read."""
    return _pkg(item).release_date - timedelta(days=1)


def run_filter_cascade(
    releases: Iterable[PackageRelease],
    repos: RepoIndex,
    dependent_count: CountProvider,
    allowed: Iterable[str] = DEFAULT_ECOSYSTEMS,
    threshold: int = DEFAULT_MIN_DEPENDENTS,
    zero_split: str = "patch",
) -> tuple[list[ClassifiedRelease], list[FilterReport]]:
    """Run all six stages in canonical order and collect their reports."""
    quality, r1 = filter_repo_quality(releases, repos)
    classified, r2 = filter_semver(quality, zero_split=zero_split)
    named, r3 = filter_name_match(classified)
    deduped, r4 = dedup_same_day(named)
    in_scope, r5 = filter_ecosystems(deduped, allowed)
    final, r6 = filter_min_dependents(in_scope, dependent_count, threshold)
    return final, [r1, r2, r3, r4, r5, r6]  # type: ignore[return-value]

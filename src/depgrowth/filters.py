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

Stage 1 takes and returns :class:`PackageRelease`; the semver stage builds a
:class:`ClassifiedRelease` for each survivor, and every later stage takes and
returns those. Each stage is a rule run by one screening loop: the rule
returns the item to keep or a ``str`` reason code to drop it. Every stage
returns a :class:`FilterReport` whose counts satisfy
``records_in == records_out + sum(reasons.values())``.
"""

from __future__ import annotations

import re
from collections import Counter
from datetime import date, timedelta
from typing import Callable, Iterable, NamedTuple, TypeVar

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


_In = TypeVar("_In")
_Out = TypeVar("_Out")

# (package_name, ecosystem, date) -> dependent count, or None when the edge
# data has no coverage within the join window of the date
CountProvider = Callable[[str, str, date], "int | None"]


class FilterReport(NamedTuple):
    """Audit record for one filter stage.

    Invariant: ``records_in == records_out + sum(reasons.values())``. The
    ``check`` method asserts it.
    """

    stage: str
    records_in: int
    records_out: int
    reasons: dict[str, int]

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


def _screen(stage: str, items: Iterable[_In], rule: Callable[[_In], _Out | str]) -> tuple[list[_Out], FilterReport]:
    """Apply ``rule`` to each item: keep what it returns, or count the ``str``
    reason it returns as one drop. Builds and checks the stage's report."""
    kept: list[_Out] = []
    reasons: Counter[str] = Counter()
    records_in = 0
    for records_in, item in enumerate(items, 1):
        outcome = rule(item)
        if isinstance(outcome, str):
            reasons[outcome] += 1
        else:
            kept.append(outcome)
    report = FilterReport(stage, records_in, len(kept), dict(reasons))
    report.check()
    return kept, report


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

    def rule(release: PackageRelease) -> PackageRelease | str:
        snap = repos.nearest(release.owner, release.repo_name, release.release_date)
        if snap is None:
            return REASON_NO_SNAPSHOT
        if snap.is_fork:
            return REASON_FORKED
        return release if snap.stars >= 1 else REASON_LOW_ENGAGEMENT

    return _screen("repo_quality", releases, rule)


def filter_semver(
    releases: Iterable[PackageRelease], zero_split: str = "patch"
) -> tuple[list[ClassifiedRelease], FilterReport]:
    """Parse and classify version texts; drop non-semver and pre-releases."""

    def rule(release: PackageRelease) -> ClassifiedRelease | str:
        try:
            version = parse_version(release.version_text)
        except PreReleaseExcluded:
            return REASON_PRE_RELEASE
        except MalformedVersion:
            return REASON_MALFORMED
        return ClassifiedRelease(
            release=release,
            version=version,
            release_type=classify_release(version, zero_split=zero_split),
        )

    return _screen("semver", releases, rule)


def filter_name_match(
    items: Iterable[ClassifiedRelease],
) -> tuple[list[ClassifiedRelease], FilterReport]:
    """Keep releases whose package name matches the repository name."""

    def rule(item: ClassifiedRelease) -> ClassifiedRelease | str:
        release = item.release
        same = normalize_name(release.package_name) == normalize_name(release.repo_name)
        return item if same else REASON_NAME_MISMATCH

    return _screen("name_match", items, rule)


def _package_day(item: ClassifiedRelease) -> tuple[str, str, date]:
    release = item.release
    return release.ecosystem, release.package_name, release.release_date


def dedup_same_day(
    items: Iterable[ClassifiedRelease],
) -> tuple[list[ClassifiedRelease], FilterReport]:
    """Remove every release of a package-day that released more than once."""
    buffered = list(items)
    counts = Counter(map(_package_day, buffered))
    return _screen("same_day_dedup", buffered, lambda item: item if counts[_package_day(item)] == 1 else REASON_SAME_DAY)


def filter_ecosystems(
    items: Iterable[ClassifiedRelease], allowed: Iterable[str] = DEFAULT_ECOSYSTEMS
) -> tuple[list[ClassifiedRelease], FilterReport]:
    """Keep releases from the allowed ecosystems only."""
    allowed_set = frozenset(allowed)
    return _screen("ecosystems", items, lambda item: item if item.release.ecosystem in allowed_set else REASON_ECOSYSTEM)


def filter_min_dependents(
    items: Iterable[ClassifiedRelease],
    dependent_count: CountProvider,
    threshold: int = DEFAULT_MIN_DEPENDENTS,
) -> tuple[list[ClassifiedRelease], FilterReport]:
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

    def rule(item: ClassifiedRelease) -> ClassifiedRelease | str:
        if threshold == 0:
            return item
        release = item.release
        count = dependent_count(release.package_name, release.ecosystem, pre_release_date(release))
        if count is None:
            return REASON_NO_DEPENDENT_DATA
        return item if count >= threshold else REASON_FEW_DEPENDENTS

    return _screen("min_dependents", items, rule)


def pre_release_date(release: PackageRelease) -> date:
    """The day before the release, on which the dependents threshold is read."""
    return release.release_date - timedelta(days=1)


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
    return final, [r1, r2, r3, r4, r5, r6]

"""Semantic-version parsing and release-type classification.

Release version strings are the raw tag text that ecosystems publish, so the
parser is deliberately strict: the whole text is an optional leading
``v``/``V``, exactly three dot-separated ``NUMBER`` components (ASCII digits,
no leading zeros) and optional build metadata after ``+`` (ignored).
Pre-release versions are not malformed, but they are out of scope for release
classification, so they raise a dedicated error that callers can tally
separately from garbage strings.

Key responsibilities:
    * ``parse_version``: text -> ``Version`` or a typed rejection.
    * ``classify_release``: five-way release type from the version components.
    * ``version_series``: coarse maturity series keyed on the major component.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

__all__ = [
    "MalformedVersion",
    "NUMBER",
    "PreReleaseExcluded",
    "ReleaseType",
    "Version",
    "VersionParseError",
    "VersionSeries",
    "ZERO_SPLITS",
    "classify_release",
    "format_version",
    "parse_version",
]


class VersionParseError(ValueError):
    """Base class for version-text rejections."""


class MalformedVersion(VersionParseError):
    """Text is not ``[v]MAJOR.MINOR.PATCH`` with plain numeric components."""

    def __init__(self, text: str) -> None:
        super().__init__(f"not a MAJOR.MINOR.PATCH version: {text!r}")


class PreReleaseExcluded(VersionParseError):
    """Text is a valid semantic version but carries a pre-release suffix."""

    def __init__(self, text: str) -> None:
        super().__init__(f"pre-release versions are excluded: {text!r}")


# How a version component, or a metrics-key offset, spells a decimal integer:
# ASCII digits with no leading zero, so no two spellings name one number, and
# at most 640 of them (sys.int_info.str_digits_check_threshold, the lowest
# limit PYTHONINTMAXSTRDIGITS can set), so int() converts every one it
# matches, whatever that setting is.
NUMBER = re.compile("0|[1-9][0-9]{0,639}")

# Strict grammar, matched against the whole text: numeric core, optional
# pre-release and build-metadata suffixes with the usual dotted-identifier
# alphabet. The pre-release group is matched (not rejected by the regex) so
# that it can be reported as PreReleaseExcluded rather than MalformedVersion.
_PRE_IDENT = "(?:0|[1-9][0-9]*|[0-9]*[A-Za-z-][0-9A-Za-z-]*)"
_VERSION_RE = re.compile(
    rf"[vV]?(?P<major>{NUMBER.pattern})\.(?P<minor>{NUMBER.pattern})\.(?P<patch>{NUMBER.pattern})"
    rf"(?:-(?P<pre>{_PRE_IDENT}(?:\.{_PRE_IDENT})*))?"
    r"(?:\+(?P<build>[0-9A-Za-z-]+(?:\.[0-9A-Za-z-]+)*))?"
)


class Version(NamedTuple):
    """A parsed three-component version."""

    major: int
    minor: int
    patch: int


class ReleaseType(enum.Enum):
    """Five-way release classification.

    The zero-major rows exist because 0.y.z projects signal breaking vs.
    additive changes one component lower than stable projects do.
    """

    MAJOR = "major"
    MINOR = "minor"
    PATCH = "patch"
    ZERO_MAJOR = "zero_major"
    ZERO_MINOR = "zero_minor"


# the ways classify_release can split 0.y.z releases
ZERO_SPLITS = ("patch", "folded")


class VersionSeries(enum.Enum):
    """Coarse project-maturity series keyed on the major component."""

    ZERO_VER = "zero_ver"
    ONE_VER = "one_ver"
    TWO_PLUS_VER = "two_plus_ver"


def parse_version(text: str) -> Version:
    """Parse raw tag text into a :class:`Version`.

    Accepts an optional leading ``v`` or ``V`` and strips build metadata
    (everything after ``+``). The whole text must match: exactly three
    components, each a :data:`NUMBER`, so leading zeros, non-ASCII digits
    and a trailing newline are rejected.

    Args:
        text: Raw version text as published by the ecosystem.

    Returns:
        The parsed version's three numeric components.

    Raises:
        MalformedVersion: ``text`` does not match the grammar at all.
        PreReleaseExcluded: ``text`` parses but has a pre-release suffix
            (for example ``1.2.3-rc1``).
    """
    match = _VERSION_RE.fullmatch(text)
    if match is None:
        raise MalformedVersion(text)
    if match.group("pre") is not None:
        raise PreReleaseExcluded(text)
    major, minor, patch = match.group("major", "minor", "patch")
    return Version(int(major), int(minor), int(patch))


def format_version(version: Version) -> str:
    """Render the canonical ``MAJOR.MINOR.PATCH`` text (no prefix, no build)."""
    return f"{version.major}.{version.minor}.{version.patch}"


def classify_release(version: Version, zero_split: str = "patch") -> ReleaseType:
    """Classify a version into one of the five release types.

    The default rule table::

        major >= 1, minor == 0, patch == 0  -> MAJOR
        major >= 1, patch == 0, minor  > 0  -> MINOR
        major >= 1, patch  > 0             -> PATCH
        major == 0, patch == 0             -> ZERO_MAJOR
        major == 0, patch  > 0             -> ZERO_MINOR

    Args:
        version: Parsed version.
        zero_split: How to split 0.y.z releases. ``"patch"`` (default) uses
            the patch component as above. ``"folded"`` treats every 0.y.z
            except the bare 0.0.0 as ZERO_MINOR, for sensitivity analysis.

    Raises:
        ValueError: unknown ``zero_split`` mode.
    """
    if zero_split not in ZERO_SPLITS:
        raise ValueError(f"unknown zero_split mode: {zero_split!r}")
    if version.major >= 1:
        if version.minor == 0 and version.patch == 0:
            return ReleaseType.MAJOR
        if version.patch == 0:
            return ReleaseType.MINOR
        return ReleaseType.PATCH
    if zero_split == "folded":
        if version.minor == 0 and version.patch == 0:
            return ReleaseType.ZERO_MAJOR
        return ReleaseType.ZERO_MINOR
    if version.patch == 0:
        return ReleaseType.ZERO_MAJOR
    return ReleaseType.ZERO_MINOR


def version_series(version: Version) -> VersionSeries:
    """Map a version to its maturity series: 0 -> zero, 1 -> one, >=2 -> two-plus."""
    if version.major == 0:
        return VersionSeries.ZERO_VER
    if version.major == 1:
        return VersionSeries.ONE_VER
    return VersionSeries.TWO_PLUS_VER

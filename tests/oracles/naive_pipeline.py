"""Independent end-to-end pipeline oracle.

Recomputes the whole corpus-to-samples pipeline from raw parsed rows using
deliberately plain structures: day-keyed dictionaries, try-each-day join
loops, and literal per-stage recounts in input order. Shares nothing with
the package under test beyond the classification table in semver_oracle.
"""

import json
import math
import re
from datetime import date, timedelta

from .semver_oracle import expected_series, expected_type

WINDOW_DAYS = 7
ALLOWED = ("npm", "pypi", "rubygems")
THRESHOLD = 5

_BUILD_IDENT = re.compile(r"[0-9A-Za-z-]+\Z")
_PRE_ALPHABET = re.compile(r"[0-9A-Za-z-]+\Z")


def iter_rows(path):
    """Parsed rows of a line-delimited file, skipping an optional header."""
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if i == 0 and "schema" in obj:
                continue
            yield obj


# ---------------------------------------------------------------------------
# version grammar, re-derived: optional v prefix, numeric x.y.z core without
# leading zeros, optional -prerelease (dotted identifiers), optional +build
# ---------------------------------------------------------------------------


def _numeric_component(text):
    if not text or not all("0" <= c <= "9" for c in text):
        return False
    return text == "0" or text[0] != "0"


def _pre_identifier(text):
    if not text or _PRE_ALPHABET.match(text) is None:
        return False
    if text.isdigit():
        return text == "0" or text[0] != "0"
    return True


def parse_semver(text):
    """Returns ('ok', (major, minor, patch)) or ('pre', None) or ('bad', None)."""
    body = text
    if body[:1] in ("v", "V"):
        body = body[1:]
    if "+" in body:
        body, build = body.split("+", 1)
        idents = build.split(".")
        if not all(_BUILD_IDENT.match(part) for part in idents):
            return ("bad", None)
    pre = None
    if "-" in body:
        body, pre = body.split("-", 1)
    parts = body.split(".")
    if len(parts) != 3 or not all(_numeric_component(part) for part in parts):
        return ("bad", None)
    if pre is not None:
        if not all(_pre_identifier(part) for part in pre.split(".")):
            return ("bad", None)
        return ("pre", None)
    return ("ok", tuple(int(part) for part in parts))


def normalize_name(text):
    return re.sub(r"[-_]+", "-", text.lower())


def classify_bin(pre_dependents):
    if pre_dependents < 100:
        return "small"
    if pre_dependents < 1000:
        return "medium"
    if pre_dependents < 10000:
        return "large"
    return "huge"


# ---------------------------------------------------------------------------
# raw-data indexes: one dict per repo keyed by day ordinal, one dict per
# package keyed by day ordinal holding the distinct dependent set
# ---------------------------------------------------------------------------


class OracleData:
    def __init__(self):
        self.repo_days = {}  # (owner, name) -> {ordinal: (stars, forks, is_fork)}
        self.package_deps = {}  # (eco, pkg) -> {ordinal: set("owner/repo")}
        self.coverage = set()  # ordinals with any edge row at all

    def add_repo_row(self, row):
        key = (row["owner"], row["name"])
        ordinal = date.fromisoformat(row["snapshot_date"]).toordinal()
        # same-day duplicates: the later row wins
        self.repo_days.setdefault(key, {})[ordinal] = (
            row["stars"],
            row["forks"],
            row["is_fork"],
        )

    def add_edge_row(self, row):
        ordinal = date.fromisoformat(row["snapshot_date"]).toordinal()
        self.coverage.add(ordinal)
        cell = self.package_deps.setdefault((row["ecosystem"], row["package_name"]), {})
        cell.setdefault(ordinal, set()).add(
            row["dependent_owner"] + "/" + row["dependent_repo"]
        )

    def join_repo(self, owner, name, ordinal):
        """Today's row, else the newest of the previous seven days, else None."""
        days = self.repo_days.get((owner, name))
        if days is None:
            return None
        for delta in range(WINDOW_DAYS + 1):
            row = days.get(ordinal - delta)
            if row is not None:
                return row
        return None

    def quality_ok(self, owner, name, ordinal):
        row = self.join_repo(owner, name, ordinal)
        return row is not None and not row[2] and row[0] >= 1

    def resolve_coverage(self, ordinal):
        for delta in range(WINDOW_DAYS + 1):
            if ordinal - delta in self.coverage:
                return ordinal - delta
        return None

    def count_dependents(self, ecosystem, package_name, ordinal):
        """Distinct quality dependents, or None when coverage has a gap."""
        effective = self.resolve_coverage(ordinal)
        if effective is None:
            return None
        deps = self.package_deps.get((ecosystem, package_name), {}).get(effective, ())
        count = 0
        for dep in deps:
            owner, _, name = dep.partition("/")
            if self.quality_ok(owner, name, ordinal):
                count += 1
        return count


def build_data(repo_rows, edge_rows):
    data = OracleData()
    for row in repo_rows:
        data.add_repo_row(row)
    for row in edge_rows:
        data.add_edge_row(row)
    return data


# ---------------------------------------------------------------------------
# the six filter stages, recounted literally in input order; rows travel as
# (index, row) pairs so side tables key on the stable input position
# ---------------------------------------------------------------------------


def _report(stage, kept, reasons):
    return {
        "stage": stage,
        "records_in": len(kept) + sum(reasons.values()),
        "records_out": len(kept),
        "reasons": dict(sorted(reasons.items())),
    }


def run_pipeline(
    repo_rows,
    release_rows,
    edge_rows,
    offsets=(90, 180, 270, 360),
    threshold=THRESHOLD,
    allowed=ALLOWED,
):
    """Full oracle pipeline over parsed row iterables.

    Returns a dict bundle of per-stage reports, survivor annotations, metric
    values, and log-difference samples, keyed by
    (ecosystem, package_name, release_date_iso, version_text).
    """
    data = build_data(repo_rows, edge_rows)
    pairs = list(enumerate(release_rows))

    # stage 1: repository quality at the release date
    kept, reasons = [], {}
    for idx, row in pairs:
        ordinal = date.fromisoformat(row["release_date"]).toordinal()
        repo = data.join_repo(row["owner"], row["repo_name"], ordinal)
        if repo is None:
            reasons["NoSnapshot"] = reasons.get("NoSnapshot", 0) + 1
        elif repo[2]:
            reasons["ForkedRepo"] = reasons.get("ForkedRepo", 0) + 1
        elif repo[0] < 1:
            reasons["LowEngagement"] = reasons.get("LowEngagement", 0) + 1
        else:
            kept.append((idx, row))
    reports = [_report("repo_quality", kept, reasons)]

    # stage 2: semver grammar, pre-releases excluded
    pairs, kept, reasons = kept, [], {}
    versions = {}
    for idx, row in pairs:
        verdict, triple = parse_semver(row["version_text"])
        if verdict == "bad":
            reasons["MalformedVersion"] = reasons.get("MalformedVersion", 0) + 1
        elif verdict == "pre":
            reasons["PreReleaseExcluded"] = reasons.get("PreReleaseExcluded", 0) + 1
        else:
            versions[idx] = triple
            kept.append((idx, row))
    reports.append(_report("semver", kept, reasons))

    # stage 3: package name matches repository name
    pairs, kept, reasons = kept, [], {}
    for idx, row in pairs:
        if normalize_name(row["package_name"]) == normalize_name(row["repo_name"]):
            kept.append((idx, row))
        else:
            reasons["NameMismatch"] = reasons.get("NameMismatch", 0) + 1
    reports.append(_report("name_match", kept, reasons))

    # stage 4: drop every release of a package-day with more than one
    pairs, kept, reasons = kept, [], {}
    day_counts = {}
    for idx, row in pairs:
        key = (row["ecosystem"], row["package_name"], row["release_date"])
        day_counts[key] = day_counts.get(key, 0) + 1
    for idx, row in pairs:
        if day_counts[(row["ecosystem"], row["package_name"], row["release_date"])] > 1:
            reasons["SameDayMultiple"] = reasons.get("SameDayMultiple", 0) + 1
        else:
            kept.append((idx, row))
    reports.append(_report("same_day_dedup", kept, reasons))

    # stage 5: ecosystem allow-list
    pairs, kept, reasons = kept, [], {}
    for idx, row in pairs:
        if row["ecosystem"] in allowed:
            kept.append((idx, row))
        else:
            reasons["EcosystemExcluded"] = reasons.get("EcosystemExcluded", 0) + 1
    reports.append(_report("ecosystems", kept, reasons))

    # stage 6: at least `threshold` dependents the day before the release
    pairs, kept, reasons = kept, [], {}
    pre_counts = {}
    for idx, row in pairs:
        day_before = date.fromisoformat(row["release_date"]) - timedelta(days=1)
        count = data.count_dependents(
            row["ecosystem"], row["package_name"], day_before.toordinal()
        )
        if count is None:
            reasons["NoDependentData"] = reasons.get("NoDependentData", 0) + 1
        elif count < threshold:
            reasons["FewDependents"] = reasons.get("FewDependents", 0) + 1
        else:
            pre_counts[idx] = count
            kept.append((idx, row))
    reports.append(_report("min_dependents", kept, reasons))

    # record building and log-difference samples for the survivors
    survivors = kept
    keys, pre_dependents, bins, types, series, metric_values = {}, {}, {}, {}, {}, {}
    for idx, row in survivors:
        key = (row["ecosystem"], row["package_name"], row["release_date"], row["version_text"])
        keys[idx] = key
        major, minor, patch = versions[idx]
        pre = pre_counts[idx]
        pre_dependents[key] = pre
        bins[key] = classify_bin(pre)
        types[key] = expected_type(major, minor, patch)
        series[key] = expected_series(major)
        ordinal = date.fromisoformat(row["release_date"]).toordinal()
        values = {}
        for offset in (0, *offsets):
            values[("dependents", offset)] = data.count_dependents(
                row["ecosystem"], row["package_name"], ordinal + offset
            )
            repo = data.join_repo(row["owner"], row["repo_name"], ordinal + offset)
            values[("stars", offset)] = None if repo is None else repo[0]
            values[("forks", offset)] = None if repo is None else repo[1]
        metric_values[key] = values

    samples = {}
    exclusions = {}
    for metric in ("dependents", "stars", "forks"):
        for offset in offsets:
            tally = {
                "missing_v0": 0,
                "missing_v1": 0,
                "nonpositive_v0": 0,
                "nonpositive_v1": 0,
            }
            for idx, _row in survivors:
                key = keys[idx]
                v0 = metric_values[key][(metric, 0)]
                v1 = metric_values[key][(metric, offset)]
                if v0 is None:
                    tally["missing_v0"] += 1
                elif v1 is None:
                    tally["missing_v1"] += 1
                elif v0 <= 0:
                    tally["nonpositive_v0"] += 1
                elif v1 <= 0:
                    tally["nonpositive_v1"] += 1
                else:
                    samples[(key, metric, offset)] = math.log(v1) - math.log(v0)
            exclusions[(metric, offset)] = tally

    return {
        "reports": reports,
        "survivor_keys": set(keys.values()),
        "pre_dependents": pre_dependents,
        "bins": bins,
        "types": types,
        "series": series,
        "metric_values": metric_values,
        "samples": samples,
        "exclusions": exclusions,
    }

"""Output checks: the naive oracle, reference runs and byte identity.

Each ``check_*`` returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# The CLI's default grid, (365, 90).
GRID_OFFSETS = (90, 180, 270, 360)


def rows(path: Path) -> list[dict]:
    """Records of a line-delimited file, without its header line."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


def body_lines(path: Path) -> list[str]:
    """Raw lines after the provenance header."""
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()[1:]


def tree_digests(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _key(*parts: object) -> str:
    return "|".join(str(part) for part in parts)


def oracle_reference(corpus: Path) -> dict:
    """The naive oracle's answer for a clean corpus, as JSON-ready data."""
    from oracles import naive_pipeline

    result = naive_pipeline.run_pipeline(
        naive_pipeline.iter_rows(corpus / "repo_snapshots.jsonl"),
        naive_pipeline.iter_rows(corpus / "releases.jsonl"),
        naive_pipeline.iter_rows(corpus / "dependent_edges.jsonl"),
        offsets=GRID_OFFSETS,
    )
    return {
        "reports": result["reports"],
        "survivors": sorted(_key(*key) for key in result["survivor_keys"]),
        "records": {
            _key(*key): {
                "pre_dependents": result["pre_dependents"][key],
                "bin": result["bins"][key],
                "release_type": result["types"][key],
                "series": result["series"][key],
                "metrics": {f"{m}@{o}": v for (m, o), v in sorted(result["metric_values"][key].items())},
            }
            for key in result["survivor_keys"]
        },
        "samples": {_key(*key, metric, offset): value for (key, metric, offset), value in result["samples"].items()},
        "exclusions": {f"{m}@{o}": tally for (m, o), tally in result["exclusions"].items()},
    }


def check_against_oracle(out: Path, oracle: dict) -> list[str]:
    """Stage counts, survivors, dependent counts, bins and log-differences."""
    problems = []
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    if report["stages"] != oracle["reports"]:
        problems.append("filter stage counts differ from the oracle")
    if any(report["schema_violations"].values()):
        problems.append(f"schema violations on a clean corpus: {report['schema_violations']}")

    version_of = {}
    survivors = []
    for row in rows(out / "filtered_releases.jsonl"):
        version_of[_key(row["ecosystem"], row["package_name"], row["release_date"])] = row["version_text"]
        survivors.append(_key(row["ecosystem"], row["package_name"], row["release_date"], row["version_text"]))
    if sorted(survivors) != oracle["survivors"]:
        problems.append("survivors differ from the oracle")

    wrong = 0
    records = rows(out / "release_records.jsonl")
    for row in records:
        triple = _key(row["ecosystem"], row["package_name"], row["release_date"])
        expected = oracle["records"].get(_key(triple, version_of.get(triple)))
        got = {name: row[name] for name in ("pre_dependents", "bin", "release_type", "series", "metrics")}
        if got != expected:
            wrong += 1
    if wrong or len(records) != len(oracle["records"]):
        problems.append(f"{wrong} of {len(records)} release records differ from the oracle")

    samples = {}
    for row in rows(out / "log_diff_samples.jsonl"):
        # sample rows carry the normalised version; the oracle keys on the raw text
        triple = _key(row["ecosystem"], row["package_name"], row["release_date"])
        samples[_key(triple, version_of.get(triple), row["metric"], row["offset_days"])] = row["value"]
    if set(samples) != set(oracle["samples"]):
        problems.append("log-difference sample set differs from the oracle")
    else:
        worst = max((abs(v - oracle["samples"][k]) for k, v in samples.items()), default=0.0)
        if worst > 1e-12:
            problems.append(f"log-difference deviates from the oracle by {worst:g}")
    exclusions = json.loads((out / "metrics_report.json").read_text(encoding="utf-8"))["exclusions"]
    if exclusions != oracle["exclusions"]:
        problems.append("sample exclusion tallies differ from the oracle")
    return problems


def check_same_filter(out: Path, reference: dict, violations: dict[str, int]) -> list[str]:
    """Survivors byte-identical to the clean run; violations as injected."""
    problems = []
    if body_lines(out / "filtered_releases.jsonl") != reference["survivor_lines"]:
        problems.append("survivors differ from the clean-corpus run")
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    if report["stages"] != reference["stages"]:
        problems.append("filter stage counts differ from the clean-corpus run")
    if report["schema_violations"] != violations:
        problems.append(f"schema violations {report['schema_violations']} != injected {violations}")
    return problems


def filter_reference(out: Path) -> dict:
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    return {"survivor_lines": body_lines(out / "filtered_releases.jsonl"), "stages": report["stages"]}


_RATING_FIELDS = ("rating", "required_skills", "reasoning", "prompt_sha256")


def rating_reference(out: Path) -> dict:
    """Expected rating fields per key, from a run against the mock client."""
    report = json.loads((out / "complexity_report.json").read_text(encoding="utf-8"))
    return {
        "eligible": report["eligible"],
        "ratings": {row["key"]: {f: row[f] for f in _RATING_FIELDS} for row in rows(out / "ratings.jsonl")},
    }


def check_ratings(out: Path, reference: dict, permanent: set[str]) -> tuple[int, list[str]]:
    """Keys handled wrongly, and problems.

    A key is right when it was rated exactly as the stub's pure answer, or,
    for a prompt the stub refuses permanently, when it is a reported failure
    and has no rating.
    """
    expected = reference["ratings"]
    got = {row["key"]: {f: row[f] for f in _RATING_FIELDS} for row in rows(out / "ratings.jsonl")}
    failures = set(json.loads((out / "complexity_report.json").read_text(encoding="utf-8"))["failures"])
    wrong = len((set(got) | failures) - set(expected))
    for key, answer in expected.items():
        if answer["prompt_sha256"] in permanent:
            wrong += key in got or key not in failures
        else:
            wrong += key in failures or got.get(key) != answer
    return wrong, [f"{wrong} rating key(s) wrong"] if wrong else []

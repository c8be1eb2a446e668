"""Seeded benchmark inputs: synth worlds and the rewrites the workloads need.

Every function here is a pure function of its seed and the files it reads,
so one seed always yields byte-identical inputs.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import time
from pathlib import Path

from depgrowth.synth import SynthConfig, build_world, small_config, write_corpus

CORPUS_FILES = ("releases.jsonl", "repo_snapshots.jsonl", "dependent_edges.jsonl")

# Share of rows the daily-dump rewrite corrupts or re-crawls.
MALFORMED_SHARE = 0.002
DUPLICATE_SHARE = 0.01
# Of the re-crawled duplicates, the share appended 1-5 days late.
LATE_SHARE = 0.25

_DATE_RE = re.compile(r'"snapshot_date":"(\d{4}-\d{2}-\d{2})"')
_NOTE_SENTENCES = (
    "The resolver now walks optional peers lazily and caches negative lookups.",
    "Startup no longer imports the plugin registry before it is needed.",
    "A new streaming adapter replaces the buffered reader for large payloads.",
    "Deprecated helpers emit a warning naming their public replacement.",
    "The build drops the legacy bundler target and trims the wheel by a third.",
    "Error messages carry the offending path and the expected schema version.",
    "Concurrency limits are configurable per host instead of globally.",
    "Documentation gains a migration guide for the adapter contract.",
)


def world_config(scale: str, seed: int) -> SynthConfig:
    """Synth geometry per scale.

    ``bench`` is the small test world with more small packages, no large
    bin and a 1,000-repo dependent pool: about 116k snapshot rows, 70k edge
    rows and 700 releases, so a cold ``all`` takes seconds, not minutes.
    ``rate`` is the same with the small world's 24 small packages per
    ecosystem, for the rating workload. ``full`` is the ROADMAP yardstick.
    """
    if scale == "full":
        return SynthConfig(seed=seed)
    smalls = 24 if scale == "rate" else 40
    return dataclasses.replace(small_config(seed), smalls=smalls, larges=0, pool_quality=1000)


def generate(scale: str, seed: int, out_dir: Path) -> dict[str, float]:
    """Write the synth corpus; returns the build and write times."""
    started = time.perf_counter()
    world = build_world(world_config(scale, seed))
    built = time.perf_counter()
    write_corpus(world, out_dir)
    return {"build_world_s": built - started, "write_corpus_s": time.perf_counter() - built}


def _split(path: Path) -> tuple[str, list[str]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    return lines[0], lines[1:]


def _malformed(line: str, rng: random.Random, kind: str) -> str:
    """One line that fails validation in exactly one way."""
    choice = rng.randrange(3)
    if choice == 0:
        return line[: len(line) // 2] + "\n"  # truncated JSON
    if choice == 1:
        return "[]\n"  # valid JSON, not an object
    row = json.loads(line)
    if kind == "snapshots":
        row["stars"] = -1
    else:
        row["ecosystem"] = "Not An Ecosystem"
    return json.dumps(row, separators=(",", ":")) + "\n"


def _daily_dump(src: Path, dst: Path, rng: random.Random, kind: str) -> int:
    """Date-major rewrite with re-crawls and injected bad lines.

    Returns the number of malformed lines written.
    """
    header, rows = _split(src)
    by_day: dict[str, list[str]] = {}
    for line in rows:
        by_day.setdefault(_DATE_RE.search(line).group(1), []).append(line)
    days = sorted(by_day)
    late: dict[int, list[str]] = {}
    out: list[str] = []
    bad = 0
    for i, day in enumerate(days):
        for line in by_day[day]:
            out.append(line)
            if rng.random() < DUPLICATE_SHARE:
                lag = rng.randint(1, 5) if rng.random() < LATE_SHARE else 0
                late.setdefault(min(i + lag, len(days)), []).append(line)
            if rng.random() < MALFORMED_SHARE:
                out.append(_malformed(line, rng, kind))
                bad += 1
        out.extend(late.pop(i, ()))
    out.extend(late.pop(len(days), ()))
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write(header)
        handle.writelines(out)
    return bad


def daily_dump(clean_dir: Path, out_dir: Path, seed: int) -> dict[str, int]:
    """Rewrite a clean corpus as a daily crawl would deliver it.

    Snapshot and edge rows come in date order, about 1% are re-crawled
    exact duplicates (a quarter of them days late, so some repo timelines
    arrive out of order) and about 0.2% extra lines are malformed. Releases
    are copied unchanged. Returns the malformed count per input.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"daily-dump:{seed}")
    (out_dir / "releases.jsonl").write_bytes((clean_dir / "releases.jsonl").read_bytes())
    return {
        "releases": 0,
        "repo_snapshots": _daily_dump(
            clean_dir / "repo_snapshots.jsonl", out_dir / "repo_snapshots.jsonl", rng, "snapshots"
        ),
        "dependent_edges": _daily_dump(
            clean_dir / "dependent_edges.jsonl", out_dir / "dependent_edges.jsonl", rng, "edges"
        ),
    }


def lengthen_notes(corpus_dir: Path, seed: int) -> None:
    """Give every release notes longer than the rating threshold, in place."""
    rng = random.Random(f"long-notes:{seed}")
    path = corpus_dir / "releases.jsonl"
    header, rows = _split(path)
    out = [header]
    for line in rows:
        row = json.loads(line)
        sentences = [rng.choice(_NOTE_SENTENCES) for _ in range(rng.randint(8, 12))]
        row["release_notes"] = f"Release {row['version_text']}. " + " ".join(sentences)
        out.append(json.dumps(row, separators=(",", ":")) + "\n")
    path.write_text("".join(out), encoding="utf-8")

"""Deterministic synthetic corpus generation for end-to-end validation.

Builds a fully seeded two-year world of packages, repositories, releases,
and dependent edges whose ground truth is engineered, so a naive
reimplementation of the whole pipeline can be compared against the real
one record by record. The same world is replayable: row iterators are pure
functions of the built world and never touch the RNG.

Layout invariants the generators maintain:

* Release days sit on a 15-day lattice, so look-ahead offsets (multiples
  of 15) land back on the lattice and edge emission days stay aligned
  with query days.
* Every package emits edge rows only at its own query days (day before
  each release, the release day, and each in-range look-ahead day), which
  keeps the corpus small while giving exact-date coverage for every count
  the pipeline will request.
* For release days listed in ``_FALLBACK_DAYS`` the whole cohort emits its
  day-before rows four days early instead, leaving the day before release
  globally uncovered. That forces the seven-day join-window fallback path
  through both the pipeline and any oracle.
* Orphan packages release before the first covered edge date, producing
  genuine no-coverage drops rather than zero counts.

The world also carries deliberate filter bait: repos with no snapshots,
forks, zero-star repos, mismatched names, same-day duplicate releases,
pre-release and malformed version strings, foreign-ecosystem clones, and
under-threshold dependent counts. Each family is sized by the config so a
test can predict the exact per-stage drop counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Iterator

from .ingest import _DATED_PREFIX, _resolve_coverage, compact_json, write_records

__all__ = [
    "BASE_DATE",
    "OPEN_END",
    "DepSpan",
    "SynthConfig",
    "SynthPackage",
    "SynthRelease",
    "SynthWorld",
    "build_world",
    "dependent_edge_rows",
    "release_rows",
    "repo_snapshot_rows",
    "small_config",
    "synth_edge_stream",
    "write_corpus",
]

BASE_DATE = date(2023, 1, 1)
OPEN_END = 10**9  # exclusive end-day for spans that never deactivate

# world geometry that no config varies
_LATTICE_STEP = 15
_FALLBACK_DAYS = frozenset({105, 225, 345})
_HUGE_RELEASES = 3
_HUGE_PRE = 10050
_HUGE_LATE = 150
_POOL_START_DAY = 84
_POOL_CADENCE_DAYS = 7

_PRERELEASE_TEXTS = ("1.2.0-rc.1", "2.0.0-alpha", "1.0.0-beta.2", "0.3.0-dev.5")
_MALFORMED_TEXTS = ("1.2", "v1.2.3.4", "01.2.3", "1.-2.3", "banana")
_LANGS = ("JavaScript", "TypeScript", "Python", "Ruby", "Go", "Rust", "C")
_TOPICS = ("cli", "parser", "async", "dag", "build-tools", "orm", "http", "cache")
_DESCS = (
    "Composable data pipelines",
    "Zero-config bundler shims",
    "Typed config loader",
    "Streaming graph toolkit",
)
_NOTE_FILLER = (
    "This release tightens the dependency resolver, trims the startup path, "
    "and documents the plugin contract. Callers that pinned internal helpers "
    "should migrate to the public adapter API before the next major cut. "
)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for world size and spice volumes. Defaults give roughly
    2,000 packages, 20,000 releases, and two years of daily snapshots."""

    seed: int = 7
    days: int = 730
    ecosystems: tuple[str, ...] = ("npm", "pypi", "rubygems")
    offsets: tuple[int, ...] = (90, 180, 270, 360)
    lattice_start: int = 90
    lattice_end: int = 480
    anchor_last_day: int = 330
    # normal population per ecosystem
    smalls: int = 600
    mediums: int = 9
    larges: int = 3
    huges: int = 1
    small_release_range: tuple[int, int] = (10, 12)
    medium_releases: int = 6
    large_releases: int = 3
    zero_walk_smalls: int = 80
    anchors_per_walk: int = 30
    # shared dependent repo pool
    pool_quality: int = 10500
    pool_zero_star: int = 200
    pool_forked: int = 200
    # spice, per ecosystem unless noted
    n_ghost: int = 6
    n_forked: int = 5
    n_low_engagement: int = 5
    n_name_mismatch: int = 6
    n_same_day_pairs: int = 12
    n_few_dependents: int = 12
    n_orphans: int = 4
    n_prerelease_pkgs: int = 5
    prerelease_per_pkg: int = 8
    n_malformed_pkgs: int = 5
    malformed_per_pkg: int = 6
    n_build_metadata: int = 20
    n_cargo_clones: int = 25  # global, cloned from the first ecosystem

    @property
    def lattice(self) -> tuple[int, ...]:
        return tuple(range(self.lattice_start, self.lattice_end + 1, _LATTICE_STEP))

    @property
    def pool_size(self) -> int:
        return self.pool_quality + self.pool_zero_star + self.pool_forked


def small_config(seed: int = 7) -> SynthConfig:
    """A scaled-down world for fast unit tests (no huge packages)."""
    return SynthConfig(
        seed=seed,
        days=400,
        offsets=(90, 180),
        lattice_start=90,
        lattice_end=240,
        anchor_last_day=150,
        smalls=24,
        mediums=2,
        larges=1,
        huges=0,
        small_release_range=(4, 6),
        medium_releases=4,
        large_releases=3,
        zero_walk_smalls=6,
        anchors_per_walk=3,
        pool_quality=2500,
        pool_zero_star=40,
        pool_forked=40,
        n_ghost=2,
        n_forked=1,
        n_low_engagement=1,
        n_name_mismatch=1,
        n_same_day_pairs=2,
        n_few_dependents=5,
        n_orphans=1,
        n_prerelease_pkgs=1,
        prerelease_per_pkg=4,
        n_malformed_pkgs=1,
        malformed_per_pkg=3,
        n_build_metadata=3,
        n_cargo_clones=3,
    )


@dataclass(frozen=True)
class DepSpan:
    """One dependent repository's active interval against a package."""

    dep_id: int
    start_day: int
    end_day: int  # exclusive


@dataclass(frozen=True)
class SynthRelease:
    day: int
    version_text: str
    release_notes: str | None = None


@dataclass(frozen=True)
class SynthPackage:
    ecosystem: str
    package_name: str
    owner: str
    repo_name: str
    size_class: str  # small / medium / large / huge / spice
    quirk: str | None  # None, ghost, forked_repo, low_engagement, name_mismatch,
    # same_day_dup, few_dependents, orphan, junk_versions
    releases: tuple[SynthRelease, ...]
    deps: tuple[DepSpan, ...]
    engineered_pre: int  # quality dependents active on the day before release 1


@dataclass(frozen=True)
class SynthWorld:
    config: SynthConfig
    packages: tuple[SynthPackage, ...]
    # (package index, release index) pairs re-emitted under a foreign ecosystem
    cargo_clones: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# world construction
# ---------------------------------------------------------------------------


def _walk_versions(kind: str, count: int, rng: random.Random) -> list[str]:
    # first three steps are fixed so each walk opens major, minor, patch
    # (or their zero-major analogues), pinning every stratum's anchors
    if kind == "zero":
        out = ["0.2.0", "0.2.1", "0.3.0"][:count]
        mnr, pat = 3, 0
        while len(out) < count:
            if rng.random() < 0.45:
                mnr, pat = mnr + 1, 0
            else:
                pat += 1
            out.append(f"0.{mnr}.{pat}")
        return out
    start = 1 if kind == "one" else 2
    out = [f"{start}.0.0", f"{start}.1.0", f"{start}.1.1"][:count]
    mnr, pat = 1, 1
    while len(out) < count:
        if rng.random() < 0.35:
            mnr, pat = mnr + 1, 0
        else:
            pat += 1
        out.append(f"{start}.{mnr}.{pat}")
    return out


def _release_days(rng: random.Random, cfg: SynthConfig, k: int, anchored: bool) -> list[int]:
    slots = list(cfg.lattice)
    if not anchored:
        return sorted(rng.sample(slots, min(k, len(slots))))
    early = [s for s in slots if s <= cfg.anchor_last_day]
    first = sorted(rng.sample(early, 3))
    rest_pool = [s for s in slots if s > first[2]]
    rest = sorted(rng.sample(rest_pool, min(k - 3, len(rest_pool)))) if k > 3 else []
    return first + rest


def _decorate(version: str, rng: random.Random) -> str:
    if rng.random() < 0.08:
        version = "v" + version
    if rng.random() < 0.02:
        version = f"{version}+build.{rng.randint(1, 9)}"
    return version


def _make_notes(version_text: str, salt: int, long: bool) -> str:
    head = f"Release {version_text} notes: "
    body = _NOTE_FILLER * (3 if long else 1)
    if salt % 3 == 0:
        body += "Benchmarks & <details> tables live in the repo wiki. "
    return (head + body)[: 650 if long else 240]


def _dep_spans(
    rng: random.Random,
    cfg: SynthConfig,
    pre: int,
    late: int,
    first_day: int,
    deact_allowed: bool,
) -> tuple[DepSpan, ...]:
    ids = rng.sample(range(cfg.pool_quality), pre + late)
    n_deact = pre // 6 if (deact_allowed and pre >= 12) else 0
    spans: list[DepSpan] = []
    for j, dep in enumerate(ids[:pre]):
        start = rng.randint(40, first_day - 8)
        if j < n_deact:
            # still active through the first release's queries, gone later
            end = rng.randint(first_day + 6, first_day + 406)
        else:
            end = OPEN_END
        spans.append(DepSpan(dep, start, end))
    for dep in ids[pre:]:
        start = rng.randint(first_day, min(cfg.days - 30, first_day + 400))
        spans.append(DepSpan(dep, start, OPEN_END))
    return tuple(spans)


def _extra_spans(rng: random.Random, cfg: SynthConfig, n_zero: int, n_fork: int) -> tuple[DepSpan, ...]:
    # non-quality dependents: present in the edge rows, never in the counts
    q, z = cfg.pool_quality, cfg.pool_zero_star
    zero_ids = rng.sample(range(q, q + z), min(n_zero, z))
    fork_ids = rng.sample(range(q + z, q + z + cfg.pool_forked), min(n_fork, cfg.pool_forked))
    return tuple(DepSpan(d, 40, OPEN_END) for d in zero_ids + fork_ids)


def _names(eco: str, i: int) -> tuple[str, str, str]:
    """(package_name, owner, repo_name) with periodic match-fold variants."""
    if i % 10 == 0:
        return f"data_kit_{eco}_{i:04d}", f"org-{eco}-{i:04d}", f"data-kit-{eco}-{i:04d}"
    if i % 10 == 5:
        return f"widget-{eco}-{i:04d}", f"org-{eco}-{i:04d}", f"Widget-{eco}-{i:04d}"
    name = f"pkg-{eco}-{i:04d}"
    return name, f"org-{eco}-{i:04d}", name


def build_world(config: SynthConfig | None = None) -> SynthWorld:
    """Construct the full deterministic world and validate its invariants.

    Raises:
        ValueError: the configured geometry breaks a coverage or bin
            invariant (a bug in the config, not in the caller's data).
    """
    cfg = config or SynthConfig()
    rng = random.Random(cfg.seed)
    packages: list[SynthPackage] = []

    for eco in cfg.ecosystems:
        anchored_one = anchored_two = 0
        for i in range(cfg.smalls):
            if i < cfg.zero_walk_smalls:
                kind = "zero"
                anchored = i < cfg.anchors_per_walk
            else:
                kind = "one" if rng.random() < 0.65 else "two"
                if kind == "one" and anchored_one < cfg.anchors_per_walk:
                    anchored_one += 1
                    anchored = True
                elif kind == "two" and anchored_two < cfg.anchors_per_walk:
                    anchored_two += 1
                    anchored = True
                else:
                    anchored = False
            k = rng.randint(*cfg.small_release_range)
            days = _release_days(rng, cfg, k, anchored)
            versions = _walk_versions(kind, len(days), rng)
            texts = [_decorate(v, rng) for v in versions]
            if cfg.n_build_metadata and cfg.zero_walk_smalls <= i < cfg.zero_walk_smalls + cfg.n_build_metadata:
                if "+" not in texts[0]:
                    texts[0] = texts[0] + "+build.7"
            releases = tuple(
                SynthRelease(
                    day=d,
                    version_text=t,
                    release_notes=_make_notes(t, i, long=True) if (i % 25 == 0 and j == 0) else None,
                )
                for j, (d, t) in enumerate(zip(days, texts))
            )
            pre = rng.randint(8, 20)
            late = rng.randint(0, pre // 3)
            deps = _dep_spans(rng, cfg, pre, late, days[0], deact_allowed=not anchored)
            if i % 4 == 0:
                deps = deps + _extra_spans(rng, cfg, 2, 1)
            name, owner, repo = _names(eco, i)
            packages.append(
                SynthPackage(eco, name, owner, repo, "small", None, releases, deps, pre)
            )

        for i in range(cfg.mediums):
            kind = "two" if i == 0 else "one"
            days = _release_days(rng, cfg, cfg.medium_releases, anchored=True)
            versions = _walk_versions(kind, len(days), rng)
            releases = tuple(
                SynthRelease(d, _decorate(v, rng), _make_notes(v, i + j, long=(i + j) % 2 == 0))
                for j, (d, v) in enumerate(zip(days, versions))
            )
            pre = rng.randint(120, 650)
            late = rng.randint(0, min(pre // 3, 930 - pre))
            deps = _dep_spans(rng, cfg, pre, late, days[0], deact_allowed=False)
            deps = deps + _extra_spans(rng, cfg, 5, 3)
            name = f"mid-{eco}-{i:02d}"
            packages.append(
                SynthPackage(eco, name, f"midorg-{eco}-{i:02d}", name, "medium", None, releases, deps, pre)
            )

        for i in range(cfg.larges):
            days = _release_days(rng, cfg, cfg.large_releases, anchored=True)
            versions = _walk_versions("one", len(days), rng)
            releases = tuple(
                SynthRelease(d, v, _make_notes(v, i + j, long=(i + j) % 2 == 0))
                for j, (d, v) in enumerate(zip(days, versions))
            )
            pre = rng.randint(1050, 1400)
            late = rng.randint(0, pre // 3)
            deps = _dep_spans(rng, cfg, pre, late, days[0], deact_allowed=False)
            deps = deps + _extra_spans(rng, cfg, 15, 10)
            name = f"big-{eco}-{i:02d}"
            packages.append(
                SynthPackage(eco, name, f"bigorg-{eco}-{i:02d}", name, "large", None, releases, deps, pre)
            )

        for i in range(cfg.huges):
            days = _release_days(rng, cfg, _HUGE_RELEASES, anchored=True)
            versions = _walk_versions("one", len(days), rng)
            releases = tuple(
                SynthRelease(d, v, _make_notes(v, j, long=True))
                for j, (d, v) in enumerate(zip(days, versions))
            )
            deps = _dep_spans(rng, cfg, _HUGE_PRE, _HUGE_LATE, days[0], deact_allowed=False)
            deps = deps + _extra_spans(rng, cfg, 35, 25)
            name = f"mega-{eco}-core"
            packages.append(
                SynthPackage(eco, name, f"platform-{eco}", name, "huge", None, releases, deps, _HUGE_PRE)
            )

        # --- filter bait ---
        slots = list(cfg.lattice)
        for count, prefix, org, quirk in (
            (cfg.n_ghost, "ghost", "ghostorg", "ghost"),
            (cfg.n_forked, "forkish", "forkorg", "forked_repo"),
            (cfg.n_low_engagement, "dim", "dimorg", "low_engagement"),
            (cfg.n_name_mismatch, "misfit", "misorg", "name_mismatch"),
        ):
            for i in range(count):
                days = sorted(rng.sample(slots, 2))
                rel = tuple(SynthRelease(d, v) for d, v in zip(days, ("1.0.0", "1.1.0")))
                name = f"{prefix}-{eco}-{i:02d}"
                repo = f"misfits-{eco}-{i:02d}" if quirk == "name_mismatch" else name
                packages.append(
                    SynthPackage(eco, name, f"{org}-{eco}-{i:02d}", repo, "spice", quirk, rel, (), 0)
                )
        for i in range(cfg.n_same_day_pairs):
            day = rng.choice(slots)
            rel = (SynthRelease(day, "1.1.0"), SynthRelease(day, "1.2.0"))
            pre = rng.randint(8, 20)
            deps = _dep_spans(rng, cfg, pre, 0, day, deact_allowed=False)
            name = f"twin-{eco}-{i:02d}"
            packages.append(
                SynthPackage(eco, name, f"twinorg-{eco}-{i:02d}", name, "spice", "same_day_dup", rel, deps, pre)
            )
        for i in range(cfg.n_few_dependents):
            # these emit few or no rows themselves, so keep them off the
            # shifted fallback slots where they cannot rely on self-coverage
            day = rng.choice([s for s in slots if s not in _FALLBACK_DAYS])
            pre = i % 5  # 0..4, always under the threshold of five
            deps = _dep_spans(rng, cfg, pre, 0, day, deact_allowed=False) if pre else ()
            name = f"thin-{eco}-{i:02d}"
            packages.append(
                SynthPackage(eco, name, f"thinorg-{eco}-{i:02d}", name, "spice", "few_dependents", (SynthRelease(day, "1.0.0"),), deps, pre)
            )
        for i in range(cfg.n_orphans):
            name = f"lone-{eco}-{i:02d}"
            packages.append(
                SynthPackage(eco, name, f"loneorg-{eco}-{i:02d}", name, "spice", "orphan", (SynthRelease(30, "1.0.0"),), (), 0)
            )
        for count, per_pkg, prefix, texts in (
            (cfg.n_prerelease_pkgs, cfg.prerelease_per_pkg, "edge", _PRERELEASE_TEXTS),
            (cfg.n_malformed_pkgs, cfg.malformed_per_pkg, "mangle", _MALFORMED_TEXTS),
        ):
            for i in range(count):
                days = sorted(rng.sample(range(60, min(700, cfg.days - 30)), per_pkg))
                rel = tuple(SynthRelease(d, texts[j % len(texts)]) for j, d in enumerate(days))
                name = f"{prefix}-{eco}-{i:02d}"
                packages.append(
                    SynthPackage(eco, name, f"{prefix}org-{eco}-{i:02d}", name, "spice", "junk_versions", rel, (), 0)
                )

    world = SynthWorld(
        config=cfg,
        packages=tuple(packages),
        cargo_clones=_pick_cargo_clones(cfg, packages),
    )
    _validate_world(world)
    return world


def _pick_cargo_clones(cfg: SynthConfig, packages: list[SynthPackage]) -> tuple[tuple[int, int], ...]:
    clones: list[tuple[int, int]] = []
    first_eco = cfg.ecosystems[0]
    for idx, pkg in enumerate(packages):
        if len(clones) == cfg.n_cargo_clones:
            break
        if pkg.ecosystem == first_eco and pkg.quirk is None and pkg.size_class == "small":
            clones.append((idx, 0))
    return tuple(clones)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _emission_days(pkg: SynthPackage, cfg: SynthConfig) -> list[int]:
    days: set[int] = set()
    for rel in pkg.releases:
        r = rel.day
        before = r - 4 if r in _FALLBACK_DAYS else r - 1
        if before >= 0:
            days.add(before)
        days.add(r)
        for off in cfg.offsets:
            if r + off <= cfg.days - 1:
                days.add(r + off)
    return sorted(days)


def _active(pkg: SynthPackage, day: int) -> bool:
    return any(s.start_day <= day < s.end_day for s in pkg.deps)


def _quality_pre_count(pkg: SynthPackage, cfg: SynthConfig, day: int) -> int:
    return sum(1 for s in pkg.deps if s.dep_id < cfg.pool_quality and s.start_day <= day < s.end_day)


def _validate_world(world: SynthWorld) -> None:
    cfg = world.config
    coverage: set[int] = set()
    for pkg in world.packages:
        if not pkg.deps:
            continue
        for d in _emission_days(pkg, cfg):
            if _active(pkg, d):
                coverage.add(d)
    cov = sorted(coverage)

    live_fallback = [f for f in _FALLBACK_DAYS if f in set(cfg.lattice)]
    if live_fallback:
        exercised = 0
        for pkg in world.packages:
            if pkg.quirk is not None:
                continue
            for rel in pkg.releases:
                if rel.day in _FALLBACK_DAYS:
                    effective = _resolve_coverage(cov, rel.day - 1)
                    if effective != rel.day - 4:
                        raise ValueError(
                            f"fallback day {rel.day}: day-before resolved to {effective}, "
                            f"expected the shifted day {rel.day - 4}"
                        )
                    exercised += 1
        if not exercised:
            raise ValueError("no surviving release lands on a fallback day")

    bin_floor = {"small": (5, 99), "medium": (100, 999), "large": (1000, 9999), "huge": (10000, None)}
    for pkg in world.packages:
        if pkg.quirk in ("ghost", "forked_repo", "low_engagement", "name_mismatch", "junk_versions", "same_day_dup"):
            continue
        if pkg.quirk == "orphan":
            if _resolve_coverage(cov, pkg.releases[0].day - 1) is not None:
                raise ValueError(f"orphan {pkg.package_name} unexpectedly has edge coverage")
            continue
        for rel in pkg.releases:
            before = rel.day - 1
            effective = _resolve_coverage(cov, before)
            if effective is None:
                raise ValueError(
                    f"{pkg.package_name} release at day {rel.day} has no day-before coverage"
                )
            if pkg.quirk is None and _quality_pre_count(pkg, cfg, effective) < 5:
                raise ValueError(
                    f"{pkg.package_name} dips under the dependent threshold at day {rel.day}"
                )
        if pkg.quirk is None:
            first = pkg.releases[0].day
            effective = _resolve_coverage(cov, first - 1)
            pre = _quality_pre_count(pkg, cfg, effective)
            if pre != pkg.engineered_pre:
                raise ValueError(
                    f"{pkg.package_name}: pre-count {pre} != engineered {pkg.engineered_pre}"
                )
            lo, hi = bin_floor[pkg.size_class]
            if pre < lo or (hi is not None and pre > hi):
                raise ValueError(f"{pkg.package_name}: pre-count {pre} out of {pkg.size_class} range")


# ---------------------------------------------------------------------------
# row iterators (pure functions of the world)
# ---------------------------------------------------------------------------


def _iso_table(days: int) -> list[str]:
    return [(BASE_DATE + timedelta(days=d)).isoformat() for d in range(days)]


def _dep_owner(dep_id: int) -> str:
    return f"dep-{dep_id:05d}"


def _dep_repo(dep_id: int) -> str:
    return f"lib-{dep_id:05d}"


def repo_snapshot_rows(world: SynthWorld) -> Iterator[str]:
    """Daily package-repo snapshots plus weekly dependent-pool snapshots, as
    compact JSON lines: the text after a repository's date is encoded once
    per (stars, forks) state."""
    cfg = world.config
    dated = [f'{_DATED_PREFIX}{text}",' for text in _iso_table(cfg.days)]
    for pidx, pkg in enumerate(world.packages):
        if pkg.quirk == "ghost":
            continue
        if pkg.quirk == "low_engagement":
            base_stars, star_slope, base_forks, fork_slope, is_fork = 0, 0, 0, 0, False
        elif pkg.quirk == "forked_repo":
            base_stars, star_slope, base_forks, fork_slope, is_fork = 5, 0, 1, 0, True
        else:
            base_stars = 1 + (pidx * 7) % 120
            star_slope = 1 + pidx % 5
            base_forks = 0 if pidx % 4 == 0 else 1 + pidx % 9
            fork_slope = pidx % 3
            is_fork = False
        desc = None if pidx % 7 == 0 else _DESCS[pidx % len(_DESCS)]
        topics = tuple(_TOPICS[(pidx + j) % len(_TOPICS)] for j in range(pidx % 4))
        lang = None if pidx % 11 == 0 else _LANGS[pidx % len(_LANGS)]
        optional = {"description": desc, "topics": list(topics), "language": lang}
        head = compact_json({"owner": pkg.owner, "name": pkg.repo_name})[1:-1]
        tail = compact_json({"is_fork": is_fork, **{k: v for k, v in optional.items() if v}})[1:]
        state = body = None
        for d in range(cfg.days):
            counts = base_stars + (d * star_slope) // 64, base_forks + (d * fork_slope) // 128
            if counts != state:
                state = counts
                body = f'{head},"stars":{counts[0]},"forks":{counts[1]},{tail}'
            yield dated[d] + body
    q, z = cfg.pool_quality, cfg.pool_zero_star
    for dep in range(cfg.pool_size):
        if dep < q:
            is_fork, base = False, 1 + dep % 40
        elif dep < q + z:
            is_fork, base = False, 0
        else:
            is_fork, base = True, 3
        head = compact_json({"owner": _dep_owner(dep), "name": _dep_repo(dep)})[1:-1]
        tail = compact_json({"forks": dep % 5, "is_fork": is_fork})[1:]
        # a pool repository's stars change at most once a year: one body a year
        stars = [base + (year if (base and dep < q) else 0) for year in range(cfg.days // 365 + 1)]
        bodies = [f'{head},"stars":{count},{tail}' for count in stars]
        for d in range(_POOL_START_DAY, cfg.days, _POOL_CADENCE_DAYS):
            yield dated[d] + bodies[d // 365]


def release_rows(world: SynthWorld) -> Iterator[dict]:
    cfg = world.config
    iso = _iso_table(cfg.days)
    for pkg in world.packages:
        for rel in pkg.releases:
            row: dict = {
                "release_date": iso[rel.day],
                "ecosystem": pkg.ecosystem,
                "package_name": pkg.package_name,
                "owner": pkg.owner,
                "repo_name": pkg.repo_name,
                "version_text": rel.version_text,
            }
            if rel.release_notes is not None:
                row["release_notes"] = rel.release_notes
            yield row
    for pidx, ridx in world.cargo_clones:
        pkg = world.packages[pidx]
        rel = pkg.releases[ridx]
        yield {
            "release_date": iso[rel.day],
            "ecosystem": "cargo",
            "package_name": pkg.package_name,
            "owner": pkg.owner,
            "repo_name": pkg.repo_name,
            "version_text": rel.version_text,
        }


def dependent_edge_rows(world: SynthWorld) -> Iterator[str]:
    """Edge rows at each package's own query days, ~1% emitted twice, as
    compact JSON lines: an edge's dependent part is encoded once per
    dependent, and its package part once per package."""
    cfg = world.config
    dated = [f'{_DATED_PREFIX}{text}",' for text in _iso_table(cfg.days)]
    dependents = [
        compact_json({"dependent_owner": _dep_owner(dep), "dependent_repo": _dep_repo(dep)})[1:-1]
        for dep in range(cfg.pool_size)
    ]
    for pidx, pkg in enumerate(world.packages):
        if not pkg.deps:
            continue
        package = "," + compact_json({"ecosystem": pkg.ecosystem, "package_name": pkg.package_name})[1:]
        for d in _emission_days(pkg, cfg):
            for span in pkg.deps:
                if span.start_day <= d < span.end_day:
                    line = dated[d] + dependents[span.dep_id] + package
                    yield line
                    if (span.dep_id * 131071 + d * 31 + pidx) % 97 == 0:
                        yield line


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_corpus(world: SynthWorld, out_dir: str | Path) -> dict[str, int]:
    """Write the three corpus files; returns per-file row counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, schema, rows in (
        ("repo_snapshots", "repo-snapshots", repo_snapshot_rows(world)),
        ("releases", "releases", map(compact_json, release_rows(world))),
        ("dependent_edges", "dependent-edges", dependent_edge_rows(world)),
    ):
        with open(out / f"{name}.jsonl", "w", encoding="utf-8") as handle:
            counts[name] = write_records(handle, schema, rows)
    return counts


# ---------------------------------------------------------------------------
# unbounded edge stream for throughput tests
# ---------------------------------------------------------------------------


def synth_edge_stream(n_rows: int, n_packages: int = 2000, seed: int = 99) -> Iterator[dict]:
    """Arbitrary-length deterministic edge rows over a bounded package set.

    Pure arithmetic mixing (no RNG state) keeps generation overhead far
    below parse cost, so throughput tests measure ingestion, not the
    generator.
    """
    if n_rows < 0 or n_packages <= 0:
        raise ValueError("n_rows must be >= 0 and n_packages positive")
    iso = [(BASE_DATE + timedelta(days=7 * w)).isoformat() for w in range(104)]
    for i in range(n_rows):
        p = (i * 2654435761 + seed) % n_packages
        w = (i * 40503) % 104
        dep = (i * 69069 + seed * 7919) % 50000
        yield {
            "snapshot_date": iso[w],
            "dependent_owner": f"dep-{dep:05d}",
            "dependent_repo": f"lib-{dep:05d}",
            "ecosystem": "npm",
            "package_name": f"pkg-npm-{p:04d}",
        }

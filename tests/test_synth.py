"""Structural tests for the deterministic synthetic corpus."""

import dataclasses
import hashlib
import json

import pytest

from depgrowth.ingest import (
    compact_json,
    read_dependent_edges,
    read_releases,
    read_repo_snapshots,
)
from depgrowth.semver import ReleaseType, classify_release, parse_version
from depgrowth.synth import (
    OPEN_END,
    _FALLBACK_DAYS,
    build_world,
    dependent_edge_rows,
    release_rows,
    repo_snapshot_rows,
    small_config,
    synth_edge_stream,
    write_corpus,
)


@pytest.fixture(scope="module")
def world():
    return build_world(small_config())


@pytest.fixture(scope="module")
def corpus_dir(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    counts = write_corpus(world, out)
    return out, counts


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_world(self, world):
        again = build_world(small_config())
        assert again.packages == world.packages
        assert again.cargo_clones == world.cargo_clones

    def test_different_seed_differs(self, world):
        other = build_world(small_config(seed=8))
        assert other.packages != world.packages

    def test_row_iterators_replayable(self, world):
        first = list(dependent_edge_rows(world))
        second = list(dependent_edge_rows(world))
        assert first == second
        assert list(release_rows(world)) == list(release_rows(world))

    def test_repo_rows_replayable_prefix(self, world):
        a = repo_snapshot_rows(world)
        b = repo_snapshot_rows(world)
        for _ in range(500):
            assert next(a) == next(b)


# ---------------------------------------------------------------------------
# population structure
# ---------------------------------------------------------------------------


class TestPopulation:
    def test_class_counts(self, world):
        cfg = world.config
        by_class = {}
        for pkg in world.packages:
            by_class[pkg.size_class] = by_class.get(pkg.size_class, 0) + 1
        ecos = len(cfg.ecosystems)
        assert by_class["small"] == cfg.smalls * ecos
        assert by_class["medium"] == cfg.mediums * ecos
        assert by_class["large"] == cfg.larges * ecos
        assert by_class.get("huge", 0) == cfg.huges * ecos
        spice_per_eco = (
            cfg.n_ghost
            + cfg.n_forked
            + cfg.n_low_engagement
            + cfg.n_name_mismatch
            + cfg.n_same_day_pairs
            + cfg.n_few_dependents
            + cfg.n_orphans
            + cfg.n_prerelease_pkgs
            + cfg.n_malformed_pkgs
        )
        assert by_class["spice"] == spice_per_eco * ecos

    def test_engineered_pre_in_bin_range(self, world):
        ranges = {"small": (5, 99), "medium": (100, 999), "large": (1000, 9999)}
        for pkg in world.packages:
            if pkg.quirk is not None:
                continue
            lo, hi = ranges.get(pkg.size_class, (10000, 10**9))
            assert lo <= pkg.engineered_pre <= hi, pkg.package_name

    def test_normal_releases_on_lattice(self, world):
        lattice = set(world.config.lattice)
        for pkg in world.packages:
            if pkg.quirk is None:
                for rel in pkg.releases:
                    assert rel.day in lattice

    def test_anchored_first_three_open_major_minor_patch(self, world):
        # every medium and large package is anchored: early days and a
        # fixed type sequence for its first three releases
        cfg = world.config
        want = [ReleaseType.MAJOR, ReleaseType.MINOR, ReleaseType.PATCH]
        for pkg in world.packages:
            if pkg.size_class not in ("medium", "large", "huge"):
                continue
            days = [r.day for r in pkg.releases[:3]]
            assert days == sorted(days)
            assert days[2] <= cfg.anchor_last_day
            types = [
                classify_release(parse_version(r.version_text)) for r in pkg.releases[:3]
            ]
            assert types == want, pkg.package_name

    def test_zero_walk_smalls_stay_zero_major(self, world):
        cfg = world.config
        per_eco_seen = {}
        for pkg in world.packages:
            if pkg.size_class != "small" or pkg.quirk is not None:
                continue
            first = parse_version(pkg.releases[0].version_text)
            if first.major == 0:
                per_eco_seen[pkg.ecosystem] = per_eco_seen.get(pkg.ecosystem, 0) + 1
                for rel in pkg.releases:
                    assert parse_version(rel.version_text).major == 0
        for eco in cfg.ecosystems:
            assert per_eco_seen[eco] == cfg.zero_walk_smalls

    def test_release_count_scale(self, world):
        total = sum(len(p.releases) for p in world.packages) + len(world.cargo_clones)
        cfg = world.config
        floor = cfg.smalls * cfg.small_release_range[0] * len(cfg.ecosystems)
        assert total >= floor

    def test_too_small_pool_rejected(self):
        import dataclasses

        broken = dataclasses.replace(small_config(), pool_quality=900)
        with pytest.raises(ValueError):
            build_world(broken)


# ---------------------------------------------------------------------------
# spice families
# ---------------------------------------------------------------------------


class TestSpice:
    def test_ghost_repos_emit_no_snapshots(self, world):
        ghosts = {p.owner for p in world.packages if p.quirk == "ghost"}
        assert ghosts
        owners = {json.loads(line)["owner"] for line in repo_snapshot_rows(world)}
        assert not (ghosts & owners)

    def test_prerelease_and_malformed_counts(self, world):
        cfg = world.config
        pre = mal = 0
        for pkg in world.packages:
            if pkg.quirk != "junk_versions":
                continue
            for rel in pkg.releases:
                try:
                    parse_version(rel.version_text)
                except Exception as exc:
                    if type(exc).__name__ == "PreReleaseExcluded":
                        pre += 1
                    else:
                        mal += 1
        ecos = len(cfg.ecosystems)
        assert pre == cfg.n_prerelease_pkgs * cfg.prerelease_per_pkg * ecos
        assert mal == cfg.n_malformed_pkgs * cfg.malformed_per_pkg * ecos

    def test_same_day_pairs_share_date(self, world):
        for pkg in world.packages:
            if pkg.quirk == "same_day_dup":
                assert len(pkg.releases) == 2
                assert pkg.releases[0].day == pkg.releases[1].day
                assert pkg.releases[0].version_text != pkg.releases[1].version_text

    def test_name_mismatch_actually_mismatches(self, world):
        from depgrowth.filters import normalize_name

        seen = 0
        for pkg in world.packages:
            if pkg.quirk == "name_mismatch":
                assert normalize_name(pkg.package_name) != normalize_name(pkg.repo_name)
                seen += 1
            elif pkg.quirk is None:
                assert normalize_name(pkg.package_name) == normalize_name(pkg.repo_name)
        assert seen == world.config.n_name_mismatch * len(world.config.ecosystems)

    def test_cargo_clones_emitted_under_foreign_ecosystem(self, world):
        rows = [r for r in release_rows(world) if r["ecosystem"] == "cargo"]
        assert len(rows) == world.config.n_cargo_clones
        native = {
            (p.package_name, p.releases[0].version_text)
            for p in world.packages
            if p.ecosystem == world.config.ecosystems[0]
        }
        for row in rows:
            assert (row["package_name"], row["version_text"]) in native

    def test_orphans_predate_coverage(self, world):
        edge_days = {json.loads(line)["snapshot_date"] for line in dependent_edge_rows(world)}
        min_edge = min(edge_days)
        for pkg in world.packages:
            if pkg.quirk == "orphan":
                rel_date = next(
                    r["release_date"]
                    for r in release_rows(world)
                    if r["package_name"] == pkg.package_name
                )
                assert rel_date < min_edge

    def test_build_metadata_versions_survive_parse(self, world):
        tagged = [
            p.releases[0].version_text
            for p in world.packages
            if p.quirk is None and "+" in p.releases[0].version_text
        ]
        assert tagged
        for text in tagged:
            parse_version(text)  # must not raise


# ---------------------------------------------------------------------------
# coverage layout
# ---------------------------------------------------------------------------


class TestCoverage:
    def test_fallback_day_before_is_uncovered(self, world):
        cfg = world.config
        live = sorted(f for f in _FALLBACK_DAYS if f in set(cfg.lattice))
        assert live, "small config should keep at least one live fallback day"
        from depgrowth.synth import BASE_DATE
        from datetime import timedelta

        edge_days = {json.loads(line)["snapshot_date"] for line in dependent_edge_rows(world)}
        for f in live:
            before = (BASE_DATE + timedelta(days=f - 1)).isoformat()
            shifted = (BASE_DATE + timedelta(days=f - 4)).isoformat()
            assert before not in edge_days
            assert shifted in edge_days

    def test_duplicate_edge_rows_exist(self, world):
        seen = set()
        dup = 0
        for row in map(json.loads, dependent_edge_rows(world)):
            key = (
                row["snapshot_date"],
                row["dependent_owner"],
                row["ecosystem"],
                row["package_name"],
            )
            if key in seen:
                dup += 1
            seen.add(key)
        assert dup > 0

    def test_open_spans_never_deactivate(self, world):
        for pkg in world.packages:
            for span in pkg.deps:
                assert span.start_day < span.end_day
                assert span.end_day == OPEN_END or span.end_day < OPEN_END


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


class TestCorpusFiles:
    def test_counts_match_iterators(self, world, corpus_dir):
        _, counts = corpus_dir
        assert counts["releases"] == sum(1 for _ in release_rows(world))
        assert counts["dependent_edges"] == sum(1 for _ in dependent_edge_rows(world))
        assert counts["repo_snapshots"] == sum(1 for _ in repo_snapshot_rows(world))

    def test_schema_headers(self, corpus_dir):
        out, _ = corpus_dir
        for name, schema in (
            ("repo_snapshots.jsonl", "repo-snapshots"),
            ("releases.jsonl", "releases"),
            ("dependent_edges.jsonl", "dependent-edges"),
        ):
            with open(out / name, encoding="utf-8") as fh:
                head = json.loads(fh.readline())
            assert head == {"schema": schema, "version": 1}

    def test_lines_are_compact_json_in_schema_table_order(self, tmp_path):
        # the order of each schema table in docs/DATA_FORMAT.md
        order = {
            "repo_snapshots": (
                "snapshot_date", "owner", "name", "stars", "forks", "is_fork", "description", "topics", "language"
            ),
            "releases": (
                "release_date", "ecosystem", "package_name", "owner", "repo_name", "version_text", "release_notes"
            ),
            "dependent_edges": ("snapshot_date", "dependent_owner", "dependent_repo", "ecosystem", "package_name"),
        }
        world = build_world(small_config(seed=3))
        write_corpus(world, tmp_path)
        for name, lines in (
            ("repo_snapshots", repo_snapshot_rows(world)),
            ("releases", map(compact_json, release_rows(world))),
            ("dependent_edges", dependent_edge_rows(world)),
        ):
            lines = list(lines)
            with open(tmp_path / f"{name}.jsonl", encoding="utf-8") as fh:
                fh.readline()
                assert fh.read() == "".join(line + "\n" for line in lines)
            for line in lines:
                row = json.loads(line)
                assert line == json.dumps(row, separators=(",", ":"))
                assert list(row) == [field for field in order[name] if field in row]

    @pytest.mark.parametrize(
        "config, digests",
        [
            (
                small_config(3),
                {
                    "repo_snapshots": "daaca1dcc0509f6278fde895ce95975601d5ab0be434d9e2e8b05d2088f9b645",
                    "releases": "78b1b301b5c24ebef249aeffe17fdcefcd28d7b5410e31d3b1553dbd3051113c",
                    "dependent_edges": "cab537e5e71f421601f9f8bc88700b507fcebac57be630c846ef8ce97f51f6cc",
                },
            ),
            # the benchmark's bench shape
            (
                dataclasses.replace(small_config(7), smalls=40, larges=0, pool_quality=1000),
                {
                    "repo_snapshots": "5debb4e46ccdfbcc8203413aca9e5fbfffe580377ef30ba2af5487bc8d447eb4",
                    "releases": "26a3b16758ff2d83e63688ad316c30a84fc1dbf16055031fed8b28757e205a54",
                    "dependent_edges": "a0c212a0b8e72e289a7966ecf2dc83c556f15c86f3dc2d7ff409a744060de635",
                },
            ),
        ],
        ids=["small-seed-3", "bench-seed-7"],
    )
    def test_corpus_bytes_are_pinned(self, config, digests, tmp_path):
        # a change to the generators' RNG order or row layout changes these
        write_corpus(build_world(config), tmp_path)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() == digest, name

    def test_zero_schema_violations(self, corpus_dir):
        out, counts = corpus_dir
        reader = read_repo_snapshots(out / "repo_snapshots.jsonl")
        assert sum(1 for _ in reader) == counts["repo_snapshots"]
        assert reader.violations == []
        reader = read_releases(out / "releases.jsonl")
        assert sum(1 for _ in reader) == counts["releases"]
        assert reader.violations == []
        reader = read_dependent_edges(out / "dependent_edges.jsonl")
        assert sum(1 for _ in reader) == counts["dependent_edges"]
        assert reader.violations == []

    def test_notes_both_sides_of_eligibility(self, world):
        lengths = [
            len(rel.release_notes)
            for pkg in world.packages
            for rel in pkg.releases
            if rel.release_notes is not None
        ]
        assert any(n >= 512 for n in lengths)
        assert any(n < 512 for n in lengths)


# ---------------------------------------------------------------------------
# unbounded stream
# ---------------------------------------------------------------------------


class TestEdgeStream:
    def test_deterministic(self):
        a = list(synth_edge_stream(200, n_packages=10, seed=3))
        b = list(synth_edge_stream(200, n_packages=10, seed=3))
        assert a == b

    def test_row_count_and_package_bound(self):
        rows = list(synth_edge_stream(500, n_packages=7))
        assert len(rows) == 500
        assert len({r["package_name"] for r in rows}) <= 7

    def test_rows_are_schema_valid(self):
        lines = (json.dumps(r) for r in synth_edge_stream(300, n_packages=5))
        reader = read_dependent_edges(lines)
        assert sum(1 for _ in reader) == 300
        assert reader.violations == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(synth_edge_stream(-1))
        with pytest.raises(ValueError):
            list(synth_edge_stream(10, n_packages=0))

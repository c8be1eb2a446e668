import math
import random
from datetime import date, timedelta

import pytest

from depgrowth.filters import ClassifiedRelease
from depgrowth.ingest import DependentEdge, PackageRelease, RepoSnapshot
from depgrowth.metrics import (
    LookaheadGrid,
    NonPositiveInput,
    SizeBin,
    build_release_records,
    log_diff_samples,
    log_difference,
    size_bin,
)
from depgrowth.semver import ReleaseType, Version, VersionSeries, classify_release, parse_version
from compact_rows import repo_index
from oracles.brute_force import naive_dependent_count

D = date.fromisoformat


class TestSizeBin:
    @pytest.mark.parametrize(
        "count,expected",
        [
            (0, SizeBin.SMALL),
            (99, SizeBin.SMALL),
            (100, SizeBin.MEDIUM),
            (999, SizeBin.MEDIUM),
            (1000, SizeBin.LARGE),
            (9999, SizeBin.LARGE),
            (10000, SizeBin.HUGE),
            (1_000_000, SizeBin.HUGE),
        ],
    )
    def test_boundaries(self, count, expected):
        assert size_bin(count) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            size_bin(-1)

    def test_partition_is_total_and_disjoint(self):
        # every count lands in exactly one bin and bins are contiguous
        previous = size_bin(0)
        changes = 0
        for count in range(0, 20001):
            current = size_bin(count)
            if current != previous:
                changes += 1
                previous = current
        assert changes == 3


class TestGrid:
    @pytest.mark.parametrize(
        "grid,offsets",
        [
            ((180, 45), (45, 90, 135, 180)),
            ((365, 90), (90, 180, 270, 360)),
            ((730, 180), (180, 360, 540, 720)),
        ],
    )
    def test_supported_grids(self, grid, offsets):
        g = LookaheadGrid(*grid)
        assert g.offsets == offsets
        assert g.final_offset == offsets[-1]

    @pytest.mark.parametrize("bad", [(0, 45), (180, 0), (45, 180), (-1, -1)])
    def test_invalid_grids(self, bad):
        with pytest.raises(ValueError):
            LookaheadGrid(*bad)


class TestLogDifference:
    def test_frozen_reference_value(self):
        # 200 -> 300 grows by ln(1.5)
        assert log_difference(200, 300) == pytest.approx(0.4054651081081644, abs=1e-15)

    def test_identity_is_zero(self):
        for v in (1, 7, 1000, 123456):
            assert log_difference(v, v) == 0.0

    def test_antisymmetry_exact(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.randint(1, 10**6)
            b = rng.randint(1, 10**6)
            assert log_difference(a, b) == -log_difference(b, a)

    def test_additivity(self):
        rng = random.Random(4)
        for _ in range(200):
            a, b, c = (rng.randint(1, 10**6) for _ in range(3))
            chained = log_difference(a, b) + log_difference(b, c)
            assert log_difference(a, c) == pytest.approx(chained, abs=1e-12)

    @pytest.mark.parametrize("v0,v1", [(0, 10), (10, 0), (-5, 10), (10, -5), (0, 0)])
    def test_nonpositive_rejected(self, v0, v1):
        with pytest.raises(NonPositiveInput):
            log_difference(v0, v1)


def classified(pkg="libfoo", eco="npm", day="2023-03-10", version="1.2.3", owner="acme"):
    v = parse_version(version)
    release = PackageRelease(
        release_date=D(day),
        ecosystem=eco,
        package_name=pkg,
        owner=owner,
        repo_name=pkg,
        version_text=version,
    )
    return ClassifiedRelease(release=release, version=v, release_type=classify_release(v))


def snap(owner, name, day, stars=5, forks=2, is_fork=False):
    return RepoSnapshot(
        snapshot_date=day if isinstance(day, date) else D(day),
        owner=owner,
        name=name,
        stars=stars,
        forks=forks,
        is_fork=is_fork,
    )


def edge(pkg, dep_i, day, eco="npm"):
    return DependentEdge(
        snapshot_date=day if isinstance(day, date) else D(day),
        dependent_owner=f"u{dep_i}",
        dependent_repo=f"r{dep_i}",
        ecosystem=eco,
        package_name=pkg,
    )


GRID = LookaheadGrid(180, 45)


class TestBuildRecords:
    def _world(self):
        # release on 03-10; edge snapshots every 5 days from 03-01 for 200 days
        base = D("2023-03-01")
        days = [base + timedelta(days=5 * k) for k in range(40)]
        edges = []
        for i, day in enumerate(days):
            # dependents grow over time: 6 at first, +1 every 2 snapshots
            for dep in range(6 + i // 2):
                edges.append(edge("libfoo", dep, day))
        repo_rows = [snap("acme", "libfoo", day, stars=10 + i, forks=i) for i, day in enumerate(days)]
        dep_rows = [snap(f"u{d}", f"r{d}", day) for day in days for d in range(30)]
        rows = repo_rows + dep_rows
        repos = repo_index(rows)

        def provider(pkg, eco, when):
            return naive_dependent_count(edges, rows, pkg, eco, when)

        return repos, provider, edges, rows

    def test_record_assembly(self):
        repos, provider, _, _ = self._world()
        records, skipped = build_release_records(
            [classified(day="2023-03-10", version="2.1.0")], repos, provider, GRID
        )
        assert skipped == {}
        (record,) = records
        assert record.release_type == ReleaseType.MINOR
        assert record.series == VersionSeries.TWO_PLUS_VER
        # day before 03-10 resolves to the 03-06 edge snapshot: 6 + 1//2 deps
        assert record.pre_dependents == provider("libfoo", "npm", D("2023-03-09"))
        assert record.bin == SizeBin.SMALL
        expected_keys = {(m, o) for m in ("dependents", "stars", "forks") for o in (0, 45, 90, 135, 180)}
        assert set(record.metric_values) == expected_keys
        # star look-ahead joins the repo snapshot at each offset date
        snap_at = repos.nearest("acme", "libfoo", D("2023-03-10") + timedelta(days=45))
        assert record.metric_values[("stars", 45)] == snap_at.stars
        assert record.metric_values[("forks", 45)] == snap_at.forks

    def test_counts_are_asked_for_the_day_before_and_each_offset(self):
        repos, provider, _, _ = self._world()
        asked = []

        def dependent_count(pkg, eco, when):
            asked.append((pkg, eco, when))
            return provider(pkg, eco, when)

        build_release_records([classified(day="2023-03-10")], repos, dependent_count, GRID)
        release_day = D("2023-03-10")
        assert asked == [("libfoo", "npm", release_day - timedelta(days=1))] + [
            ("libfoo", "npm", release_day + timedelta(days=offset)) for offset in (0, 45, 90, 135, 180)
        ]

    def test_missing_pre_count_skips_record(self):
        repos, provider, _, _ = self._world()
        records, skipped = build_release_records(
            [classified(day="2022-01-01")], repos, provider, GRID
        )
        assert records == []
        assert skipped == {"missing_pre_dependents": 1}

    def test_lookahead_beyond_coverage_is_none_not_zero(self):
        repos, provider, _, _ = self._world()
        # release near the end of coverage: +180 falls past the last edge date
        records, _ = build_release_records(
            [classified(day="2023-09-01")], repos, provider, GRID
        )
        (record,) = records
        assert record.metric_values[("dependents", 180)] is None
        assert record.metric_values[("dependents", 0)] is not None

    def test_matches_brute_force_join(self):
        repos, provider, edges, repo_rows = self._world()
        records, _ = build_release_records(
            [classified(day="2023-03-17", version="0.9.1")], repos, provider, GRID
        )
        (record,) = records
        when = D("2023-03-16")
        assert record.pre_dependents == naive_dependent_count(
            edges, repo_rows, "libfoo", "npm", when
        )
        for offset in (0,) + GRID.offsets:
            want = naive_dependent_count(
                edges, repo_rows, "libfoo", "npm", D("2023-03-17") + timedelta(days=offset)
            )
            assert record.metric_values[("dependents", offset)] == want


class TestLogDiffSamples:
    def _record(self, v0, v1, offset=45, **kw):
        values = {("dependents", 0): v0, ("dependents", offset): v1}
        from depgrowth.metrics import ReleaseRecord

        return ReleaseRecord(
            release_date=D("2023-03-10"),
            ecosystem=kw.get("eco", "npm"),
            package_name=kw.get("pkg", "libfoo"),
            owner="acme",
            repo_name="libfoo",
            version_text="1.2.3",
            release_type=ReleaseType.PATCH,
            series=VersionSeries.ONE_VER,
            pre_dependents=50,
            bin=SizeBin.SMALL,
            metric_values=values,
        )

    def test_sample_values(self):
        records = [self._record(200, 300), self._record(100, 100)]
        samples, exclusions = log_diff_samples(records, "dependents", 45)
        assert [s.value for s in samples] == [
            pytest.approx(math.log(1.5)),
            0.0,
        ]
        assert all(v == 0 for v in exclusions.values())
        assert samples[0].metric == "dependents"
        assert samples[0].offset_days == 45

    def test_exclusion_tallies(self):
        records = [
            self._record(None, 300),
            self._record(200, None),
            self._record(0, 300),
            self._record(200, 0),
            self._record(10, 20),
        ]
        samples, exclusions = log_diff_samples(records, "dependents", 45)
        assert len(samples) == 1
        assert exclusions == {
            "missing_v0": 1,
            "missing_v1": 1,
            "nonpositive_v0": 1,
            "nonpositive_v1": 1,
        }

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            log_diff_samples([], "downloads", 45)

    def test_requested_offset_respected(self):
        record = self._record(100, 200, offset=90)
        samples, exclusions = log_diff_samples([record], "dependents", 45)
        assert samples == []
        assert exclusions["missing_v1"] == 1

import random
from datetime import date, timedelta

import pytest

from depgrowth.filters import (
    ClassifiedRelease,
    FilterReport,
    dedup_same_day,
    filter_ecosystems,
    filter_min_dependents,
    filter_name_match,
    filter_repo_quality,
    filter_semver,
    normalize_name,
    pre_release_date,
    run_filter_cascade,
)
from depgrowth.ingest import PackageRelease, RepoSnapshot
from depgrowth.semver import ReleaseType, Version

from compact_rows import repo_index

D = date.fromisoformat


def rel(pkg="libfoo", repo=None, eco="npm", day="2023-03-05", version="1.2.3", **kw):
    return PackageRelease(
        release_date=D(day),
        ecosystem=eco,
        package_name=pkg,
        owner=kw.pop("owner", "acme"),
        repo_name=repo if repo is not None else pkg,
        version_text=version,
        **kw,
    )


def item(**kw):
    """A release as the stages after semver take it; they read only its release."""
    return ClassifiedRelease(rel(**kw), Version(1, 2, 3), ReleaseType.PATCH)


def snap(owner="acme", name="libfoo", day="2023-03-05", stars=5, is_fork=False):
    return RepoSnapshot(
        snapshot_date=D(day),
        owner=owner,
        name=name,
        stars=stars,
        forks=0,
        is_fork=is_fork,
    )


class TestNormalizeName:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("My_Pkg", "my-pkg"),
            ("foo", "FOO"),
            ("a-b_c", "a-b-c"),
            ("a__b", "a-b"),
            ("a-_b", "a-b"),
        ],
    )
    def test_equivalent(self, a, b):
        assert normalize_name(a) == normalize_name(b)

    def test_distinct_names_stay_distinct(self):
        assert normalize_name("foo") != normalize_name("foolib")


class TestRepoQuality:
    def test_reasons(self):
        repos = repo_index(
            [
                snap(name="good", stars=5),
                snap(name="starless", stars=0),
                snap(name="forky", stars=9, is_fork=True),
                snap(name="forkless", stars=0, is_fork=True),
            ]
        )
        releases = [
            rel(pkg="good"),
            rel(pkg="starless"),
            rel(pkg="forky"),
            rel(pkg="forkless"),
            rel(pkg="ghost"),
        ]
        kept, report = filter_repo_quality(releases, repos)
        assert [r.package_name for r in kept] == ["good"]
        assert report.records_in == 5
        assert report.records_out == 1
        assert report.reasons == {
            "LowEngagement": 1,
            "ForkedRepo": 2,  # fork wins over starless when both apply
            "NoSnapshot": 1,
        }
        report.check()

    def test_join_uses_fallback_window(self):
        repos = repo_index([snap(day="2023-03-01")])
        kept, _ = filter_repo_quality([rel(day="2023-03-05")], repos)
        assert len(kept) == 1
        kept, report = filter_repo_quality([rel(day="2023-03-12")], repos)
        assert kept == []
        assert report.reasons == {"NoSnapshot": 1}


class TestSemverStage:
    def test_classification_attached(self):
        kept, report = filter_semver([rel(version="2.0.0"), rel(version="0.3.1")])
        assert [c.release_type for c in kept] == [
            ReleaseType.MAJOR,
            ReleaseType.ZERO_MINOR,
        ]
        assert report.records_out == 2

    def test_rejections_tallied_separately(self):
        kept, report = filter_semver(
            [
                rel(version="1.2.3"),
                rel(version="1.2.3-rc1"),
                rel(version="2021-04"),
                rel(version="1.2"),
            ]
        )
        assert len(kept) == 1
        assert report.reasons == {"PreReleaseExcluded": 1, "MalformedVersion": 2}
        report.check()

    def test_zero_split_mode_propagates(self):
        kept, _ = filter_semver([rel(version="0.4.0")], zero_split="folded")
        assert kept[0].release_type == ReleaseType.ZERO_MINOR


class TestNameMatch:
    def test_folded_separators_match(self):
        kept, report = filter_name_match(
            [item(pkg="My_Pkg", repo="my-pkg"), item(pkg="foo", repo="foolib")]
        )
        assert len(kept) == 1
        assert report.reasons == {"NameMismatch": 1}

    def test_works_on_classified_items(self):
        classified, _ = filter_semver([rel(pkg="a_b", repo="A-B")])
        kept, report = filter_name_match(classified)
        assert len(kept) == 1
        assert isinstance(kept[0], ClassifiedRelease)


class TestDedupSameDay:
    def test_removes_all_same_day_releases(self):
        items = [
            item(version="1.0.0", day="2023-03-05"),
            item(version="1.0.1", day="2023-03-05"),
            item(version="1.0.2", day="2023-03-06"),
        ]
        kept, report = dedup_same_day(items)
        assert [i.release.version_text for i in kept] == ["1.0.2"]
        assert report.reasons == {"SameDayMultiple": 2}

    def test_same_day_different_packages_kept(self):
        items = [item(pkg="a", day="2023-03-05"), item(pkg="b", day="2023-03-05")]
        kept, _ = dedup_same_day(items)
        assert len(kept) == 2

    def test_same_name_different_ecosystems_kept(self):
        items = [item(eco="npm"), item(eco="pypi")]
        kept, _ = dedup_same_day(items)
        assert len(kept) == 2

    def test_triple_release_removes_three(self):
        items = [item(version=f"1.0.{i}") for i in range(3)]
        kept, report = dedup_same_day(items)
        assert kept == []
        assert report.reasons == {"SameDayMultiple": 3}


class TestEcosystems:
    def test_default_allow_list(self):
        items = [item(eco="npm"), item(eco="pypi"), item(eco="rubygems"), item(eco="cargo")]
        kept, report = filter_ecosystems(items)
        assert [i.release.ecosystem for i in kept] == ["npm", "pypi", "rubygems"]
        assert report.reasons == {"EcosystemExcluded": 1}

    def test_custom_allow_list(self):
        items = [item(eco="npm"), item(eco="cargo")]
        kept, _ = filter_ecosystems(items, allowed={"cargo"})
        assert [i.release.ecosystem for i in kept] == ["cargo"]


class TestMinDependents:
    def test_threshold_boundary(self):
        counts = {"five": 5, "four": 4}
        items = [item(pkg="five"), item(pkg="four")]
        kept, report = filter_min_dependents(
            items, lambda pkg, eco, when: counts[pkg], threshold=5
        )
        assert [i.release.package_name for i in kept] == ["five"]
        assert report.reasons == {"FewDependents": 1}

    def test_zero_threshold_keeps_everything(self):
        items = [item(pkg="a"), item(pkg="b")]
        kept, report = filter_min_dependents(items, lambda pkg, eco, when: None, threshold=0)
        assert len(kept) == 2
        assert report.reasons == {}

    def test_missing_coverage_reported(self):
        kept, report = filter_min_dependents([item()], lambda pkg, eco, when: None, threshold=5)
        assert kept == []
        assert report.reasons == {"NoDependentData": 1}

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_min_dependents([], lambda pkg, eco, when: 0, threshold=-1)

    def test_pre_release_date_is_day_before(self):
        assert pre_release_date(rel(day="2023-03-05")) == D("2023-03-04")

    def test_the_count_is_asked_for_the_day_before_each_release(self):
        asked = []

        def dependent_count(pkg, eco, when):
            asked.append((pkg, eco, when))
            return 5

        items = [rel(pkg="a", day="2023-03-01"), rel(pkg="b", eco="pypi", day="2024-01-01")]
        classified, _ = filter_semver(items)
        kept, _ = filter_min_dependents(classified, dependent_count, threshold=5)
        assert kept == classified
        assert asked == [("a", "npm", D("2023-02-28")), ("b", "pypi", D("2023-12-31"))]
        # a threshold of 0 asks for no count
        filter_min_dependents(classified, dependent_count, threshold=0)
        assert len(asked) == 2


class TestReport:
    def test_check_raises_on_violation(self):
        broken = FilterReport("s", records_in=5, records_out=3, reasons={"X": 1})
        with pytest.raises(AssertionError):
            broken.check()


def _random_release(rng):
    pkg = rng.choice(["alpha", "Beta_x", "gamma", "delta-y"])
    return item(
        pkg=pkg,
        repo=rng.choice([pkg, pkg.lower(), "other"]),
        eco=rng.choice(["npm", "pypi", "rubygems", "cargo"]),
        day=(D("2023-03-01") + timedelta(days=rng.randint(0, 5))).isoformat(),
        version=rng.choice(["1.2.3", "0.4.0", "2.0.0-rc1", "not-a-version", "v3.1.4"]),
    )


class TestStageProperties:
    def test_idempotence(self):
        rng = random.Random(5)
        items = [_random_release(rng) for _ in range(120)]
        for stage in (
            filter_name_match,
            dedup_same_day,
            filter_ecosystems,
        ):
            once, _ = stage(items)
            twice, report2 = stage(once)
            assert twice == once
            assert report2.reasons == {}

    def test_conservation_on_random_data(self):
        rng = random.Random(6)
        items = [_random_release(rng) for _ in range(200)]
        for stage in (filter_name_match, dedup_same_day, filter_ecosystems):
            kept, report = stage(items)
            report.check()
            assert report.records_in == 200
            assert report.records_out == len(kept)

    def test_order_independent_stages_commute(self):
        rng = random.Random(7)
        items = [_random_release(rng) for _ in range(150)]
        ab, _ = filter_ecosystems(filter_name_match(items)[0])
        ba, _ = filter_name_match(filter_ecosystems(items)[0])
        assert ab == ba


class TestCascade:
    def test_full_cascade_order_and_conservation(self):
        repos = repo_index(
            [
                snap(name="good", stars=5),
                snap(name="dup", stars=5),
                snap(name="starless", stars=0),
                snap(name="Mismatch", stars=5),
                snap(name="cargopkg", stars=5),
                snap(name="lonely", stars=5),
            ]
        )
        releases = [
            rel(pkg="good", version="1.2.3"),
            rel(pkg="starless", version="1.0.0"),
            rel(pkg="good", repo="good", version="bad-version", day="2023-03-06"),
            rel(pkg="mismatched", repo="Mismatch", version="1.0.0"),
            rel(pkg="dup", version="1.0.0"),
            rel(pkg="dup", version="1.0.1"),
            rel(pkg="cargopkg", eco="cargo", version="1.0.0"),
            rel(pkg="lonely", version="1.0.0"),
            rel(pkg="ghost", version="1.0.0"),
        ]
        counts = {"good": 10, "lonely": 2}
        kept, reports = run_filter_cascade(
            releases,
            repos,
            dependent_count=lambda pkg, eco, when: counts.get(pkg),
            threshold=5,
        )
        assert [c.release.package_name for c in kept] == ["good"]
        stages = [r.stage for r in reports]
        assert stages == [
            "repo_quality",
            "semver",
            "name_match",
            "same_day_dedup",
            "ecosystems",
            "min_dependents",
        ]
        for report in reports:
            report.check()
        # chain conservation: stage n+1 reads exactly what stage n emitted
        for upstream, downstream in zip(reports, reports[1:]):
            assert downstream.records_in == upstream.records_out
        assert reports[0].reasons == {"LowEngagement": 1, "NoSnapshot": 1}
        assert reports[1].reasons == {"MalformedVersion": 1}
        assert reports[2].reasons == {"NameMismatch": 1}
        assert reports[3].reasons == {"SameDayMultiple": 2}
        assert reports[4].reasons == {"EcosystemExcluded": 1}
        assert reports[5].reasons == {"FewDependents": 1}

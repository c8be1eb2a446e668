"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``. The end-to-end criteria
build the full synthetic corpus (about 2,000 packages over two years of
daily snapshots) and compare the production pipeline against the
independent naive oracle in tests/oracles/naive_pipeline.py.
"""

import itertools
import json
import math
import random
import time
import tracemalloc
from datetime import date, timedelta

import pytest
import scipy.stats

from depgrowth.complexity import (
    SYSTEM_PROMPT,
    agreement_stats,
    build_prompt,
    parse_rating_response,
    render_rating,
    ComplexityRating,
    eligible_for_rating,
    MIN_NOTE_CHARS,
)
from depgrowth.filters import pre_release_date, run_filter_cascade
from depgrowth.ingest import (
    PackageRelease,
    RepoIndex,
    RepoSnapshot,
    StreamingDependentCounter,
    read_dependent_edges,
    read_releases,
    read_repo_snapshots,
)
from depgrowth.metrics import (
    METRICS,
    LogDiffSample,
    LookaheadGrid,
    SizeBin,
    build_release_records,
    log_diff_samples,
    log_difference,
    size_bin,
)
from depgrowth.report import summary_table
from depgrowth.semver import ReleaseType, Version, classify_release, parse_version, version_series
from depgrowth.stats import (
    anova_oneway,
    regularized_incomplete_beta,
    spearman,
    welch_t_test,
)
from depgrowth.synth import SynthConfig, build_world, synth_edge_stream, write_corpus

from compact_rows import compact_reader
from oracles import naive_pipeline
from oracles.semver_oracle import expected_series, expected_type

GRID = LookaheadGrid(365, 90)


# ---------------------------------------------------------------------------
# shared end-to-end fixtures (built once for criteria e and i)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_world():
    return build_world(SynthConfig())


@pytest.fixture(scope="module")
def corpus_dir(full_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance_corpus")
    write_corpus(full_world, path)
    return path


@pytest.fixture(scope="module")
def engine_run(corpus_dir):
    """Timed production pipeline over the full corpus, all stages in memory."""
    started = time.monotonic()
    releases = list(read_releases(corpus_dir / "releases.jsonl"))
    repos = RepoIndex()
    repos.extend(read_repo_snapshots(corpus_dir / "repo_snapshots.jsonl"))
    counter = StreamingDependentCounter(repos)
    for release in releases:
        counter.request(release.package_name, release.ecosystem, pre_release_date(release))
        for offset in (0,) + GRID.offsets:
            counter.request(
                release.package_name, release.ecosystem, release.release_date + timedelta(days=offset)
            )
    counter.feed(read_dependent_edges(corpus_dir / "dependent_edges.jsonl"))
    survivors, reports = run_filter_cascade(releases, repos, counter.count)
    records, skipped = build_release_records(survivors, repos, counter.count, GRID)
    samples = {}
    exclusions = {}
    for metric in METRICS:
        for offset in GRID.offsets:
            samples[(metric, offset)], exclusions[(metric, offset)] = log_diff_samples(
                records, metric, offset
            )
    elapsed = time.monotonic() - started
    return {
        "n_releases": len(releases),
        "reports": reports,
        "survivors": survivors,
        "records": records,
        "skipped": skipped,
        "samples": samples,
        "exclusions": exclusions,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def oracle_run(corpus_dir):
    return naive_pipeline.run_pipeline(
        naive_pipeline.iter_rows(corpus_dir / "repo_snapshots.jsonl"),
        naive_pipeline.iter_rows(corpus_dir / "releases.jsonl"),
        naive_pipeline.iter_rows(corpus_dir / "dependent_edges.jsonl"),
        offsets=GRID.offsets,
    )


# ---------------------------------------------------------------------------
# (a) original-scale reproduction is out of reach; the gate rests on the
# oracle and property suites over the deterministic synthetic corpus
# ---------------------------------------------------------------------------


def test_a_verification_strategy_in_place(full_world):
    """The upstream corpora are private and cannot be replayed here, so
    acceptance hangs on independent oracles and property suites over the
    deterministic synthetic corpus; this criterion pins that strategy in
    place by checking the compensating evidence exists."""
    import pathlib

    here = pathlib.Path(__file__).parent
    assert (here / "oracles" / "naive_pipeline.py").exists()
    assert (here / "oracles" / "semver_oracle.py").exists()
    assert (here / "golden" / "system_prompt.txt").exists()
    packages = [p for p in full_world.packages]
    assert 1900 <= len(packages) <= 2100
    assert full_world.config.days == 730
    assert 19_000 <= sum(len(p.releases) for p in packages) <= 22_000


# ---------------------------------------------------------------------------
# (b) release classifier versus the enumerated rule table
# ---------------------------------------------------------------------------


def test_b_classifier_matches_rule_table_oracle():
    started = time.monotonic()
    checked = 0
    for major, minor, patch in itertools.product(range(6), repeat=3):
        version = Version(major=major, minor=minor, patch=patch)
        assert classify_release(version).value == expected_type(major, minor, patch)
        assert version_series(version).value == expected_series(major)
        checked += 1
    assert checked == 216
    rng = random.Random(20260815)
    for _ in range(1000):
        major, minor, patch = (rng.randint(0, 400) for _ in range(3))
        parsed = parse_version(f"{major}.{minor}.{patch}")
        assert classify_release(parsed).value == expected_type(major, minor, patch)
        assert version_series(parsed).value == expected_series(major)
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# (c) statistics versus an independent reference implementation
# ---------------------------------------------------------------------------


def test_c_stats_match_reference_within_tolerance():
    started = time.monotonic()
    rng = random.Random(99)

    for _ in range(200):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 40))]
        b = [rng.gauss(rng.uniform(-1, 1), rng.uniform(0.5, 2)) for _ in range(rng.randint(3, 40))]
        ours = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert ours.t_stat == pytest.approx(ref.statistic, abs=1e-6)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-6)

    for _ in range(200):
        groups = [
            [rng.gauss(rng.uniform(-1, 1), 1) for _ in range(rng.randint(3, 25))]
            for _ in range(rng.randint(2, 5))
        ]
        ours = anova_oneway(groups)
        ref = scipy.stats.f_oneway(*groups)
        assert ours.f_stat == pytest.approx(ref.statistic, abs=1e-6)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-6)

    for _ in range(200):
        n = rng.randint(5, 40)
        # draw from a small integer alphabet so ties are routine
        x = [rng.randint(0, 6) for _ in range(n)]
        y = [rng.randint(0, 6) for _ in range(n)]
        if min(x) == max(x) or min(y) == max(y):
            continue
        ours = spearman(x, y)
        ref = scipy.stats.spearmanr(x, y)
        assert ours.rho == pytest.approx(ref.statistic, abs=1e-6)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-6)

    # exact permutation p for small n: enumerate the null by brute force
    for _ in range(30):
        n = rng.randint(4, 7)
        x = [rng.randint(0, 4) for _ in range(n)]
        y = [rng.randint(0, 4) for _ in range(n)]
        if min(x) == max(x) or min(y) == max(y):
            continue
        ours = spearman(x, y, exact=True)
        observed = abs(scipy.stats.spearmanr(x, y).statistic)
        hits = 0
        total = 0
        for perm in itertools.permutations(y):
            rho = scipy.stats.spearmanr(x, perm).statistic
            if abs(rho) >= observed - 1e-12:
                hits += 1
            total += 1
        assert ours.p_value == pytest.approx(hits / total, abs=1e-12)

    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# (d) algebraic identities
# ---------------------------------------------------------------------------


def test_d_algebraic_identities():
    rng = random.Random(4242)

    # two-group ANOVA F equals the square of the pooled-variance t statistic
    for _ in range(100):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 30))]
        b = [rng.gauss(0.5, 1.5) for _ in range(rng.randint(3, 30))]
        f_stat = anova_oneway([a, b]).f_stat
        pooled_t = scipy.stats.ttest_ind(a, b, equal_var=True).statistic
        assert f_stat == pytest.approx(pooled_t**2, abs=1e-10)

    # Welch antisymmetry: swapping the groups flips t and preserves p
    for _ in range(100):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 30))]
        b = [rng.gauss(1, 2) for _ in range(rng.randint(3, 30))]
        ab = welch_t_test(a, b)
        ba = welch_t_test(b, a)
        assert ab.t_stat == pytest.approx(-ba.t_stat, abs=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert ab.df == pytest.approx(ba.df, abs=1e-12)

    # log-difference identity, antisymmetry, additivity
    for _ in range(200):
        a, b, c = (rng.randint(1, 10**6) for _ in range(3))
        assert log_difference(a, a) == 0.0
        assert log_difference(a, b) == pytest.approx(-log_difference(b, a), abs=1e-12)
        assert log_difference(a, b) + log_difference(b, c) == pytest.approx(
            log_difference(a, c), abs=1e-12
        )

    # incomplete beta symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
    for _ in range(200):
        a = rng.uniform(0.1, 50)
        b = rng.uniform(0.1, 50)
        x = rng.random()
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# (e) end to end: production pipeline versus the naive oracle, full corpus
# ---------------------------------------------------------------------------


def test_e_pipeline_matches_naive_oracle(full_world, engine_run, oracle_run):
    config = full_world.config

    # fixture is the demanded scale and fully deterministic by seed
    assert config.seed == 7
    assert engine_run["n_releases"] == sum(len(p.releases) for p in full_world.packages) + len(
        full_world.cargo_clones
    )
    assert 19_000 <= engine_run["n_releases"] <= 22_000
    assert engine_run["elapsed"] < 120.0, f"pipeline took {engine_run['elapsed']:.1f}s"
    assert engine_run["skipped"] == {}

    # per-stage drop counts equal the corpus construction arithmetic
    by_stage = {r.stage: r.as_dict() for r in engine_run["reports"]}
    ecos = len(config.ecosystems)
    assert by_stage["repo_quality"]["reasons"] == {
        "ForkedRepo": config.n_forked * 2 * ecos,
        "LowEngagement": config.n_low_engagement * 2 * ecos,
        "NoSnapshot": config.n_ghost * 2 * ecos,
    }
    assert by_stage["semver"]["reasons"] == {
        "MalformedVersion": config.n_malformed_pkgs * config.malformed_per_pkg * ecos,
        "PreReleaseExcluded": config.n_prerelease_pkgs * config.prerelease_per_pkg * ecos,
    }
    assert by_stage["name_match"]["reasons"] == {"NameMismatch": config.n_name_mismatch * 2 * ecos}
    assert by_stage["same_day_dedup"]["reasons"] == {
        "SameDayMultiple": config.n_same_day_pairs * 2 * ecos
    }
    assert by_stage["ecosystems"]["reasons"] == {"EcosystemExcluded": config.n_cargo_clones}
    assert by_stage["min_dependents"]["reasons"] == {
        "FewDependents": config.n_few_dependents * ecos,
        "NoDependentData": config.n_orphans * ecos,
    }

    # every quirk-free release survives the whole cascade
    expected_survivors = sum(
        len(p.releases) for p in full_world.packages if p.quirk is None
    )
    assert by_stage["min_dependents"]["records_out"] == expected_survivors

    # stage reports match the oracle's literal recount exactly
    assert [r.as_dict() for r in engine_run["reports"]] == oracle_run["reports"]

    # survivor sets, pre-release dependent counts, bins, types, series
    # no survivor was skipped (above), so record i is survivor i's, whose
    # release keeps the version tag as published
    records = engine_run["records"]
    survivors = engine_run["survivors"]
    assert len(records) == len(survivors)
    keys = {}
    for record, survivor in zip(records, survivors):
        key = (
            record.ecosystem,
            record.package_name,
            record.release_date.isoformat(),
            survivor.release.version_text,
        )
        keys[id(record)] = key
    assert set(keys.values()) == oracle_run["survivor_keys"]
    for record in records:
        key = keys[id(record)]
        assert record.pre_dependents == oracle_run["pre_dependents"][key]
        assert record.bin.value == oracle_run["bins"][key]
        assert record.release_type.value == oracle_run["types"][key]
        assert record.series.value == oracle_run["series"][key]
        # every look-ahead metric value, dependents and stars and forks alike
        assert record.metric_values == oracle_run["metric_values"][key]

    # sample sets match exactly; each log-difference agrees within 1e-12
    tag_of = {key[:3]: key[3] for key in keys.values()}
    engine_samples = {}
    for (metric, offset), samples in engine_run["samples"].items():
        for sample in samples:
            triple = (sample.ecosystem, sample.package_name, sample.release_date.isoformat())
            engine_samples[((*triple, tag_of[triple]), metric, offset)] = sample.value
    assert set(engine_samples) == set(oracle_run["samples"])
    worst = max(
        abs(value - oracle_run["samples"][key]) for key, value in engine_samples.items()
    )
    assert worst <= 1e-12, f"worst log-difference deviation {worst:g}"
    for cell, tally in engine_run["exclusions"].items():
        assert tally == oracle_run["exclusions"][cell]


# ---------------------------------------------------------------------------
# (f) boundary values
# ---------------------------------------------------------------------------


def test_f_boundary_values_exact():
    assert size_bin(99) is SizeBin.SMALL
    assert size_bin(100) is SizeBin.MEDIUM
    assert size_bin(999) is SizeBin.MEDIUM
    assert size_bin(1000) is SizeBin.LARGE
    assert size_bin(9999) is SizeBin.LARGE
    assert size_bin(10000) is SizeBin.HUGE

    def release_with(notes):
        return PackageRelease(
            release_date=date(2024, 1, 1),
            ecosystem="npm",
            package_name="p",
            owner="o",
            repo_name="p",
            version_text="1.0.0",
            release_notes=notes,
        )

    assert not eligible_for_rating(release_with("x" * (MIN_NOTE_CHARS - 1)))
    assert eligible_for_rating(release_with("x" * MIN_NOTE_CHARS))


# ---------------------------------------------------------------------------
# (g) prompt templates byte-for-byte; response parser tolerance
# ---------------------------------------------------------------------------


def test_g_prompt_golden_and_parser_tolerance():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    assert SYSTEM_PROMPT.encode("utf-8") == (golden / "system_prompt.txt").read_bytes()

    notes = (
        "## 2.1.0\n"
        "\n"
        "This release reworks the scheduler so that <Widget> graphs with "
        "diamond-shaped dependency chains resolve in topological order && "
        "without duplicate builds.\n"
        "\n"
        + "- Caching: artifact fingerprints now include the toolchain version, "
        "so upgrading node no longer reuses stale outputs.\n" * 4
        + "\n"
        "Upgrade notes: run `turbo-widget migrate` once; the config schema "
        "gains a required `pipeline` block and drops `tasks`."
    )
    release = PackageRelease(
        release_date=date(2023, 5, 2),
        ecosystem="npm",
        package_name="turbo-widget",
        owner="acme",
        repo_name="turbo-widget",
        version_text="2.1.0",
        release_notes=notes,
    )
    repo = RepoSnapshot(
        snapshot_date=date(2023, 5, 1),
        owner="acme",
        name="turbo-widget",
        stars=412,
        forks=37,
        is_fork=False,
        description='Fast & "zero-config" widget <engine> for DAGs',
        topics=("widgets", "dag", "build-tools"),
        language="TypeScript",
    )
    bundle = build_prompt(release, repo)
    assert bundle.user_text.encode("utf-8") == (golden / "user_prompt_rendered.txt").read_bytes()

    # both documented closing tags and the null verdict must parse, always
    parsed = 0
    for closer in ("rating-response", "classification-response"):
        for rating in (None, 1, 2, 3, 4, 5, 6, 7):
            text = render_rating(
                ComplexityRating(
                    required_skills=("API design", "testing"),
                    reasoning=("touches several modules",),
                    rating=rating,
                ),
                closer=closer,
            )
            result = parse_rating_response(text)
            assert result.rating == rating
            parsed += 1
    assert parsed == 16


# ---------------------------------------------------------------------------
# (h) within-one-rank agreement on the fixed 200-pair fixture
# ---------------------------------------------------------------------------


def test_h_within_one_rank_exact():
    model = [(i % 7) + 1 for i in range(200)]
    human = []
    for i, rating in enumerate(model):
        if i < 137:
            human.append(rating + 1 if rating < 7 else rating - 1)
        else:
            human.append(rating + 2 if rating <= 5 else rating - 2)
    assert sum(1 for m, h in zip(model, human) if abs(m - h) <= 1) == 137
    stats = agreement_stats(model, human)
    assert stats.n == 200
    assert stats.within_one_rank_pct == 68.5


# ---------------------------------------------------------------------------
# (i) analysis tables: full stratification structure plus flag behavior
# ---------------------------------------------------------------------------


def test_i_summary_tables_structure_and_flags(engine_run):
    samples = engine_run["samples"][("dependents", GRID.final_offset)]

    bins_table = summary_table(samples, "bin", GRID.final_offset)
    bin_rows = {}
    for cell in bins_table:
        bin_rows.setdefault((cell.ecosystem, cell.stratum), set()).add(cell.release_type)
    assert set(bin_rows) == {
        (eco, stratum)
        for eco in ("npm", "pypi", "rubygems")
        for stratum in ("small", "medium", "large", "huge")
    }
    for types in bin_rows.values():
        assert types == {"major", "minor", "patch"}

    series_table = summary_table(samples, "series", GRID.final_offset)
    series_rows = {}
    for cell in series_table:
        series_rows.setdefault((cell.ecosystem, cell.stratum), set()).add(cell.release_type)
    assert set(series_rows) == {
        (eco, stratum)
        for eco in ("npm", "pypi", "rubygems")
        for stratum in ("zero_ver", "one_ver", "two_plus_ver")
    }
    for (eco, stratum), types in series_rows.items():
        if stratum == "zero_ver":
            # major = 0 admits no patch-level type, so the cell must be absent
            assert types == {"major", "minor"}
        else:
            assert types == {"major", "minor", "patch"}

    # flag behavior on a hand-computed case: one clearly separated group
    def sample(value, release_type, pkg):
        return LogDiffSample(
            ecosystem="npm",
            package_name=pkg,
            release_date=date(2024, 1, 1),
            version_text="1.0.0",
            release_type=release_type,
            series=None,
            bin=SizeBin.SMALL,
            metric="dependents",
            offset_days=90,
            value=value,
        )

    fixture = []
    for i, value in enumerate([2.0, 2.1, 1.9, 2.05, 1.95]):
        fixture.append(sample(value, ReleaseType.MAJOR, f"a{i}"))
    for i, value in enumerate([1.0, 1.1, 0.9, 1.05, 0.95]):
        fixture.append(sample(value, ReleaseType.MINOR, f"b{i}"))
    for i, value in enumerate([0.0, 0.1, -0.1, 0.05, -0.05]):
        fixture.append(sample(value, ReleaseType.PATCH, f"c{i}"))
    flags = {
        cell.release_type: cell.significantly_highest
        for cell in summary_table(fixture, "bin", 90)
    }
    assert flags == {"major": True, "minor": False, "patch": False}
    means = {cell.release_type: cell.mean for cell in summary_table(fixture, "bin", 90)}
    assert means["major"] == pytest.approx(2.0)
    assert means["minor"] == pytest.approx(1.0)
    assert means["patch"] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# (j) streaming ingestion and counting over a million edges, bounded memory
# ---------------------------------------------------------------------------


def test_j_streaming_million_edges_bounded():
    n_rows = 1_000_000
    n_packages = 2000
    base = date(2023, 1, 1)
    query_day = base + timedelta(days=7 * 50)

    # the index takes its rows after the feed, before the first count
    repos = RepoIndex()
    counter = StreamingDependentCounter(repos)
    for p in range(n_packages):
        counter.request(f"pkg-npm-{p:04d}", "npm", query_day)

    started = time.monotonic()
    tracemalloc.start()
    lines = (json.dumps(row) for row in synth_edge_stream(n_rows, n_packages=n_packages))
    counter.feed(read_dependent_edges(lines))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    elapsed = time.monotonic() - started

    assert elapsed < 300.0, f"feed took {elapsed:.1f}s"
    # working set stays proportional to the requested cells, nowhere near
    # what retaining a million parsed rows would need
    assert peak < 128 * 1024 * 1024, f"peak traced memory {peak / 1e6:.0f}MB"

    # independent recount of the same arithmetic stream at the query day
    expected = {p: set() for p in range(n_packages)}
    seed = 99
    target_week = 50
    for i in range(n_rows):
        if (i * 40503) % 104 == target_week:
            p = (i * 2654435761 + seed) % n_packages
            dep = (i * 69069 + seed * 7919) % 50000
            expected[p].add(dep)

    # dependents only count when their own repo passes the quality join
    repos.extend(
        compact_reader(
            RepoSnapshot(
                snapshot_date=query_day,
                owner=f"dep-{dep:05d}",
                name=f"lib-{dep:05d}",
                stars=3,
                forks=0,
                is_fork=False,
            )
            for dep in range(500)
        )
    )
    rng = random.Random(7)
    for p in rng.sample(range(n_packages), 50):
        got = counter.count(f"pkg-npm-{p:04d}", "npm", query_day)
        want = sum(1 for dep in expected[p] if dep < 500)
        assert got == want

"""Command line pipeline: stage handoff, determinism, exit codes."""

import csv
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgrowth import cli, complexity
from depgrowth.complexity import (
    SYSTEM_PROMPT,
    MockModelClient,
    RequestRejected,
    RetryPolicy,
    build_prompt,
    rate_many,
)
from depgrowth.config import ConfigError, resolve_config
from depgrowth.filters import pre_release_date
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
    LookaheadGrid,
    ReleaseRecord,
    SizeBin,
    log_diff_samples,
    log_difference,
)
from depgrowth.semver import ReleaseType, Version, VersionSeries, format_version
from depgrowth.synth import build_world, small_config, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(build_world(small_config()), path)
    return path


def _pipeline_args(corpus_dir, out_dir, *extra):
    return [
        "--releases",
        str(corpus_dir / "releases.jsonl"),
        "--repo-snapshots",
        str(corpus_dir / "repo_snapshots.jsonl"),
        "--dependent-edges",
        str(corpus_dir / "dependent_edges.jsonl"),
        "--out-dir",
        str(out_dir),
        "--grid",
        "180,45",
        *extra,
    ]


@pytest.fixture(scope="module")
def out_dir(corpus_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("out")
    assert cli.main(["all", *_pipeline_args(corpus_dir, path)]) == 0
    return path


def _rows(path):
    rows = []
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            obj = json.loads(line)
            if i == 0 and "schema" in obj:
                continue
            rows.append(obj)
    return rows


def _malformed_drops(out):
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    (stage,) = [stage for stage in report["stages"] if stage["stage"] == "semver"]
    return stage["reasons"]["MalformedVersion"]


def _header(path):
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())


class TestFilterStage:
    def test_filtered_file_rereadable(self, out_dir):
        reader = read_releases(out_dir / "filtered_releases.jsonl")
        releases = list(reader)
        assert releases
        assert reader.violations == []

    def test_header_schema_and_provenance(self, out_dir):
        header = _header(out_dir / "filtered_releases.jsonl")
        assert header["schema"] == "releases"
        prov = header["provenance"]
        assert set(prov) == {"tool_version", "keys", "inputs"}
        assert prov["keys"] == {"ecosystems": ["npm", "pypi", "rubygems"], "min_dependents": 5, "zero_split": "patch"}
        assert set(prov["inputs"]) == {"releases", "repo_snapshots", "dependent_edges"}
        assert all(len(d) == 64 for d in prov["inputs"].values())

    def test_report_stage_order_and_conservation(self, out_dir):
        report = json.load(open(out_dir / "filter_report.json"))
        stages = report["stages"]
        assert [s["stage"] for s in stages] == [
            "repo_quality",
            "semver",
            "name_match",
            "same_day_dedup",
            "ecosystems",
            "min_dependents",
        ]
        for stage in stages:
            assert stage["records_in"] == stage["records_out"] + sum(stage["reasons"].values())
        # stages chain: each stage consumes the previous stage's survivors
        for prev, cur in zip(stages, stages[1:]):
            assert cur["records_in"] == prev["records_out"]
        kept = len(_rows(out_dir / "filtered_releases.jsonl"))
        assert stages[-1]["records_out"] == kept


    def test_an_overflowing_count_is_a_violation_not_a_crash(self, corpus_dir, tmp_path):
        snapshots = tmp_path / "repo_snapshots.jsonl"
        shutil.copy(corpus_dir / "repo_snapshots.jsonl", snapshots)
        row = {"owner": "o", "name": "n", "stars": 2**63, "forks": 0, "is_fork": False}
        with open(snapshots, "a", encoding="utf-8") as handle:
            # a compact line as synth writes it, and a spaced one
            compact = json.dumps(row, separators=(",", ":"))[1:]
            handle.write('{"snapshot_date":"2023-01-01",' + compact + "\n")
            row.update(snapshot_date="2023-01-02", stars=1, forks=2**63)
            handle.write(json.dumps(row) + "\n")
        args = _pipeline_args(corpus_dir, tmp_path / "out")
        args[args.index(str(corpus_dir / "repo_snapshots.jsonl"))] = str(snapshots)
        assert cli.main(["filter", *args]) == 0
        report = json.load(open(tmp_path / "out" / "filter_report.json"))
        assert report["schema_violations"]["repo_snapshots"] == 2


class TestMetricsStage:
    def test_record_rows_shape(self, out_dir):
        rows = _rows(out_dir / "release_records.jsonl")
        assert rows
        row = rows[0]
        assert set(row) == {
            "release_date",
            "ecosystem",
            "package_name",
            "owner",
            "repo_name",
            "version",
            "release_type",
            "series",
            "pre_dependents",
            "bin",
            "metrics",
        }
        assert all(r["pre_dependents"] >= 5 for r in rows)
        assert {r["bin"] for r in rows} <= {"small", "medium", "large", "huge"}

    def test_metric_keys_cover_grid(self, out_dir):
        rows = _rows(out_dir / "release_records.jsonl")
        keys = set().union(*(r["metrics"] for r in rows))
        for metric in ("dependents", "stars", "forks"):
            for offset in (0, 45, 90, 135, 180):
                assert f"{metric}@{offset}" in keys

    def test_sample_rows_match_grid_offsets(self, out_dir):
        rows = _rows(out_dir / "log_diff_samples.jsonl")
        assert rows
        assert {r["offset_days"] for r in rows} <= {45, 90, 135, 180}
        assert {r["metric"] for r in rows} == {"dependents", "stars", "forks"}

    def test_exclusion_tallies_reported(self, out_dir):
        report = json.load(open(out_dir / "metrics_report.json"))
        tallies = report["exclusions"]["dependents@180"]
        assert set(tallies) == {
            "missing_v0",
            "missing_v1",
            "nonpositive_v0",
            "nonpositive_v1",
        }
        n_dep_180 = sum(
            1
            for r in _rows(out_dir / "log_diff_samples.jsonl")
            if r["metric"] == "dependents" and r["offset_days"] == 180
        )
        assert n_dep_180 + sum(tallies.values()) == report["records"]

    def test_release_record_rows_round_trip(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(build_world(small_config(seed=3)), corpus)
        paths = {name: str(corpus / f"{name}.jsonl") for name in cli.CORPUS_INPUTS}
        config = resolve_config(None, {**paths, "out_dir": str(tmp_path / "out")})
        cli.cmd_filter(config)
        records = cli.cmd_metrics(config)
        assert records
        for record in records:
            assert cli._release_record(json.loads(next(cli._record_lines([record])))) == record


class TestReleaseRecordRows:
    """``release_records.jsonl`` rows as one read parses them."""

    @pytest.fixture
    def row(self, out_dir):
        return _rows(out_dir / "release_records.jsonl")[0]

    @staticmethod
    def _with(row, key, value):
        return {**row, "metrics": {**row["metrics"], key: value}}

    @pytest.mark.parametrize(
        "key",
        [
            "dependents@090",
            "dependents@-1",
            "dependents@+1",
            "dependents@ 1",
            "dependents@1.0",
            "dependents@",
            "dependents@\u0663",  # ARABIC-INDIC DIGIT THREE: isdigit(), and int() reads it
            "dependents@" + "1" * 5000,  # past int()'s default digit limit
            "downloads@0",
        ],
    )
    def test_key_refused(self, row, key):
        with pytest.raises(ValueError, match=f"metrics key {re.escape(repr(key))} is not <metric>@<days>"):
            cli._release_record(self._with(row, key, 7))

    def test_offset_zero_accepted(self, row):
        record = cli._release_record(self._with(row, "dependents@0", 7))
        assert record.metric_values["dependents", 0] == 7

    def test_key_and_value_checked_after_the_cell_was_read(self, row):
        parse = cli._release_record
        assert parse(self._with(row, "dependents@90", 7)).metric_values["dependents", 90] == 7
        # another spelling of the cell, then a bad value under the same key
        with pytest.raises(ValueError, match="metrics key 'dependents@090' is not"):
            parse(self._with(row, "dependents@090", 7))
        for value in (-1, True, 7.0, "7"):
            with pytest.raises(ValueError, match="dependents@90 must be an integer from 0 to"):
                parse(self._with(row, "dependents@90", value))
        assert parse(self._with(row, "dependents@90", None)).metric_values["dependents", 90] is None


class TestAnalyzeStage:
    def test_tables_have_provenance_line(self, out_dir):
        for name in ("table_bins.txt", "table_series.txt", "table_bins.csv", "table_series.csv"):
            first = open(out_dir / name, encoding="utf-8").readline()
            assert first.startswith("# provenance: ")
            json.loads(first.split("# provenance: ", 1)[1])

    def test_csv_parses(self, out_dir):
        with open(out_dir / "table_bins.csv", encoding="utf-8") as handle:
            handle.readline()
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "ecosystem",
            "stratum",
            "release_type",
            "n",
            "mean",
            "std",
            "significantly_highest",
        ]
        assert len(rows) > 1

    def test_heatmaps_per_ecosystem(self, out_dir):
        for eco in ("npm", "pypi", "rubygems"):
            path = out_dir / f"heatmap_bins_{eco}.svg"
            text = open(path, encoding="utf-8").read()
            assert text.startswith("<!-- provenance: ")
            assert "<svg" in text and text.rstrip().endswith("</svg>")

    def test_timepoints_cover_both_stratifications(self, out_dir):
        rows = _rows(out_dir / "timepoints.jsonl")
        assert {r["strat_by"] for r in rows} == {"bin", "series"}
        for row in rows:
            assert row["minimum"] <= row["q1"] <= row["median"] <= row["q3"] <= row["maximum"]

    def test_demographics_five_type_columns(self, out_dir):
        demo = json.load(open(out_dir / "demographics.json"))["by_ecosystem"]
        assert set(demo) == {"npm", "pypi", "rubygems"}
        for counts in demo.values():
            assert set(counts) == {"major", "minor", "patch", "zero_major", "zero_minor"}

    def test_complexity_reports_present_after_all(self, out_dir):
        desc = json.load(open(out_dir / "complexity_descriptives.json"))
        assert desc["languages"]
        tests = json.load(open(out_dir / "complexity_type_tests.json"))
        assert set(tests) == {"provenance", "tests", "skipped"}

    def test_flagged_cell_reaches_every_writer(self, tmp_path):
        # one npm row, small bin: major releases grow their dependents about
        # tenfold in a year, minor and patch releases barely at all
        config = resolve_config(None, {"out_dir": str(tmp_path)})
        offsets = LookaheadGrid(*config.grid).offsets
        growth = {
            ReleaseType.MAJOR: [100, 110, 120, 130],
            ReleaseType.MINOR: [11, 12, 13, 14],
            ReleaseType.PATCH: [10, 11, 12, 13],
        }
        records = []
        for rtype, finals in growth.items():
            for i, final in enumerate(finals):
                version = Version(3, i, 0)
                records.append(
                    ReleaseRecord(
                        release_date=date(2020, 1, 1 + i),
                        ecosystem="npm",
                        package_name=f"pkg-{rtype.value}",
                        owner="owner",
                        repo_name=f"pkg-{rtype.value}",
                        version_text=format_version(version),
                        release_type=rtype,
                        series=VersionSeries.ONE_VER,
                        pre_dependents=10,
                        bin=SizeBin.SMALL,
                        metric_values={("dependents", 0): 10, **{("dependents", o): final for o in offsets}},
                    )
                )
        cli.cmd_analyze(config, records=records)

        text = (tmp_path / "table_bins.txt").read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split() for line in text] == [
            ["ecosystem", "stratum", "major", "minor", "patch"],
            ["npm", "small", "2.438", "±0.113*", "(n=4)", "0.219", "±0.104", "(n=4)", "0.135", "±0.113", "(n=4)"],
        ]
        csv_lines = (tmp_path / "table_bins.csv").read_text(encoding="utf-8").splitlines()[2:]
        by_type = {row[2]: row for row in csv.reader(csv_lines)}
        assert {rtype: row[6] for rtype, row in by_type.items()} == {"major": "True", "minor": "False", "patch": "False"}
        heatmap_lines = (tmp_path / "heatmap_bins.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        cell = {"ecosystem": "npm", "stratum": "small", "release_type": "major", "value": float(by_type["major"][4])}
        assert cell in [json.loads(line) for line in heatmap_lines]


# a faulty line 2 of the human ratings file, KEY standing for a rated key;
# None: a faulty ratings.jsonl instead
_BAD_HUMAN_LINES = {
    "ratings row without key": None,
    "non-JSON human line": "{not json",
    "human row without key": '{"rating": 4}',
    "human rating above the scale": '{"key": KEY, "rating": 12}',
    "human rating below the scale": '{"key": KEY, "rating": 0}',
    "human rating as a string": '{"key": KEY, "rating": "5"}',
    "human rating as a bool": '{"key": KEY, "rating": true}',
}


class TestComplexityStage:
    def test_rating_rows_shape(self, out_dir):
        rows = _rows(out_dir / "ratings.jsonl")
        assert rows
        for row in rows:
            assert set(row) == {
                "key",
                "rating",
                "required_skills",
                "reasoning",
                "prompt_sha256",
                "model_id",
                "timestamp",
                "language",
                "release_type",
            }
            assert 1 <= row["rating"] <= 7
            assert row["model_id"] == "mock-rater-v1"
        keys = [row["key"] for row in rows]
        assert keys == sorted(keys)

    def test_report_accounts_for_every_survivor(self, out_dir):
        report = json.load(open(out_dir / "complexity_report.json"))
        survivors = len(_rows(out_dir / "filtered_releases.jsonl"))
        assert (
            report["eligible"] + report["ineligible"] + report["missing_snapshot"] == survivors
        )
        assert report["rated"] == len(_rows(out_dir / "ratings.jsonl"))
        assert report["failures"] == {}

    def test_resume_skips_already_rated(self, corpus_dir, out_dir, tmp_path):
        resume_dir = tmp_path / "resume"
        resume_dir.mkdir()
        shutil.copy(out_dir / "filtered_releases.jsonl", resume_dir / "filtered_releases.jsonl")
        args = _pipeline_args(corpus_dir, resume_dir)
        assert cli.main(["complexity", *args]) == 0
        complete = (resume_dir / "ratings.jsonl").read_bytes()

        # simulate an interrupt: keep the header and the first half of the rows
        lines = complete.decode("utf-8").splitlines(keepends=True)
        half = 1 + (len(lines) - 1) // 2
        (resume_dir / "ratings.jsonl").write_bytes("".join(lines[:half]).encode("utf-8"))

        assert cli.main(["complexity", *args]) == 0
        assert (resume_dir / "ratings.jsonl").read_bytes() == complete

    def test_agreement_stats_when_human_file_supplied(self, corpus_dir, out_dir, tmp_path):
        work = tmp_path / "agree"
        work.mkdir()
        shutil.copy(out_dir / "filtered_releases.jsonl", work / "filtered_releases.jsonl")
        shutil.copy(out_dir / "ratings.jsonl", work / "ratings.jsonl")
        rows = _rows(out_dir / "ratings.jsonl")
        n = len(rows)
        assert n >= 3
        human_path = tmp_path / "human.jsonl"
        with open(human_path, "w", encoding="utf-8") as handle:
            for i, row in enumerate(rows):
                # first two disagree by two ranks, the rest agree exactly
                delta = 2 if i < 2 else 0
                rating = row["rating"] - delta if row["rating"] > 2 else row["rating"] + delta
                handle.write(json.dumps({"key": row["key"], "rating": rating}) + "\n")
        args = _pipeline_args(corpus_dir, work, "--human-ratings", str(human_path))
        assert cli.main(["complexity", *args]) == 0
        agreement = json.load(open(work / "agreement.json"))
        assert agreement["n"] == n
        assert agreement["within_one_rank_pct"] == pytest.approx(100.0 * (n - 2) / n)

    def test_each_prompt_is_built_once(self, corpus_dir, out_dir, tmp_path, monkeypatch):
        work = tmp_path / "prompts"
        work.mkdir()
        shutil.copy(out_dir / "filtered_releases.jsonl", work)
        built = Counter()

        def counted(release, repo):
            built[cli._release_key(release)] += 1
            return build_prompt(release, repo)

        monkeypatch.setattr(cli, "build_prompt", counted)
        monkeypatch.setattr(complexity, "build_prompt", counted)
        assert cli.main(["complexity", *_pipeline_args(corpus_dir, work)]) == 0
        eligible = json.load(open(work / "complexity_report.json"))["eligible"]
        assert eligible > 0
        assert len(built) == eligible
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("fault", list(_BAD_HUMAN_LINES))
    def test_bad_ratings_are_data_errors(self, corpus_dir, out_dir, tmp_path, capsys, fault):
        human_line = _BAD_HUMAN_LINES[fault]
        work = tmp_path / "bad"
        work.mkdir()
        for name in ("filtered_releases.jsonl", "ratings.jsonl"):
            shutil.copy(out_dir / name, work / name)
        ratings = work / "ratings.jsonl"
        lines = ratings.read_text(encoding="utf-8").splitlines(keepends=True)
        keys = [json.dumps(json.loads(line)["key"]) for line in lines[1:3]]
        extra = ()
        if human_line is None:
            row = json.loads(lines[1])
            del row["key"]
            lines[1] = json.dumps(row) + "\n"
            ratings.write_text("".join(lines), encoding="utf-8")
            bad_path = ratings
        else:
            # a good row, then the bad one on line 2
            bad_path = tmp_path / "human.jsonl"
            bad_path.write_text(
                f'{{"key": {keys[1]}, "rating": 3}}\n{human_line.replace("KEY", keys[0])}\n',
                encoding="utf-8",
            )
            extra = ("--human-ratings", str(bad_path))
        before = ratings.read_bytes()
        assert cli.main(["complexity", *_pipeline_args(corpus_dir, work, *extra)]) == 3
        assert f"{bad_path} line 2: " in capsys.readouterr().err
        assert ratings.read_bytes() == before
        assert sorted(p.name for p in work.iterdir()) == ["filtered_releases.jsonl", "ratings.jsonl"]


class TestDeterminism:
    def test_cold_rerun_is_byte_identical(self, corpus_dir, out_dir, tmp_path):
        rerun = out_dir.parent / "rerun"
        args = _pipeline_args(corpus_dir, rerun)
        assert cli.main(["all", *args]) == 0
        first = {p.name: p.read_bytes() for p in rerun.iterdir()}
        shutil.rmtree(rerun)
        assert cli.main(["all", *args]) == 0
        second = {p.name: p.read_bytes() for p in rerun.iterdir()}
        assert first == second

    def test_out_dir_workers_and_path_spelling_leave_every_byte(self, corpus_dir, tmp_path, monkeypatch):
        # provenance holds no path, out_dir or worker count; analyze run on its
        # own with no corpus flags rewrites the same bytes
        def tree(path):
            return {p.name: p.read_bytes() for p in path.iterdir()}

        def corpus_flags(root):
            return [f"--{name.replace('_', '-')}={root}/{name}.jsonl" for name in cli.CORPUS_INPUTS]

        assert cli.main(["all", *corpus_flags(corpus_dir), "--out-dir", str(tmp_path / "a")]) == 0
        monkeypatch.chdir(tmp_path)
        relative = os.path.relpath(corpus_dir, tmp_path)
        assert cli.main(["all", *corpus_flags(relative), "--out-dir", "b", "--workers", "2"]) == 0
        assert tree(tmp_path / "b") == tree(tmp_path / "a")
        assert cli.main(["analyze", "--out-dir", str(tmp_path / "b")]) == 0
        assert tree(tmp_path / "b") == tree(tmp_path / "a")

    def test_metrics_rerun_idempotent(self, corpus_dir, out_dir):
        before = (out_dir / "log_diff_samples.jsonl").read_bytes()
        assert cli.main(["metrics", *_pipeline_args(corpus_dir, out_dir)]) == 0
        assert (out_dir / "log_diff_samples.jsonl").read_bytes() == before

    # the base arguments hold --grid 180,45, so the other grid is 365,90
    @pytest.mark.parametrize(
        "extra", [(), ("--min-dependents", "0"), ("--zero-split", "folded"), ("--grid", "365,90")]
    )
    def test_all_matches_stages_run_one_by_one(self, corpus_dir, out_dir, extra):
        path = out_dir.parent / "staged"
        args = _pipeline_args(corpus_dir, path, *extra)
        assert cli.main(["all", *args]) == 0
        together = {p.name: p.read_bytes() for p in path.iterdir()}
        shutil.rmtree(path)
        for stage in ("filter", "metrics", "complexity", "analyze"):
            assert cli.main([stage, *args]) == 0
        staged = {p.name: p.read_bytes() for p in path.iterdir()}
        shutil.rmtree(path)
        assert staged == together

    def test_all_resumed_from_a_ratings_file_matches_a_run_without_one(self, corpus_dir, out_dir):
        path = out_dir.parent / "resumed"
        args = _pipeline_args(corpus_dir, path)
        assert cli.main(["all", *args]) == 0
        complete = {p.name: p.read_bytes() for p in path.iterdir()}
        shutil.rmtree(path)
        # an interrupted run's ratings: the header and the first half of the rows
        lines = complete["ratings.jsonl"].decode("utf-8").splitlines(keepends=True)
        path.mkdir()
        (path / "ratings.jsonl").write_text("".join(lines[: 1 + (len(lines) - 1) // 2]), encoding="utf-8")
        assert cli.main(["all", *args]) == 0
        resumed = {p.name: p.read_bytes() for p in path.iterdir()}
        shutil.rmtree(path)
        assert resumed == complete


def _without_provenance(path):
    """An artifact's content apart from its provenance."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return {k: v for k, v in json.loads(text).items() if k != "provenance"}
    first, _, rest = text.partition("\n")
    if path.suffix == ".jsonl":
        header = json.loads(first)
        del header["provenance"]
        return header, rest
    return rest  # a provenance comment line, then the body


class TestRowsThatNeverRepeat:
    def test_all_writes_the_same_results_without_the_body_memo(self, corpus_dir, tmp_path):
        # an ignored "crawl_id" set to the line number makes every snapshot
        # and edge body distinct, so the readers drop their memo
        crawled = tmp_path / "crawled"
        crawled.mkdir()
        shutil.copy(corpus_dir / "releases.jsonl", crawled / "releases.jsonl")
        for name in ("repo_snapshots.jsonl", "dependent_edges.jsonl"):
            header, *rows = (corpus_dir / name).read_text(encoding="utf-8").splitlines()
            lines = [header] + [row[:-1] + f',"crawl_id":{n}}}' for n, row in enumerate(rows, start=2)]
            (crawled / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        results = []
        for corpus in (corpus_dir, crawled):
            out = tmp_path / f"out-{corpus.name}"
            assert cli.main(["all", *_pipeline_args(corpus, out)]) == 0
            results.append({p.name: _without_provenance(p) for p in out.iterdir()})
        assert results[0] == results[1]
        assert {"ratings.jsonl", "release_records.jsonl", "heatmap_bins.jsonl"} <= results[0].keys()


class TestParseOnce:
    def test_all_reads_and_hashes_each_corpus_once(self, corpus_dir, tmp_path, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(arg):
                calls[name, str(arg)] += 1
                return fn(arg)

            return wrapper

        for name in ("read_repo_snapshots", "read_dependent_edges", "file_sha256"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        assert cli.main(["all", *_pipeline_args(corpus_dir, tmp_path / "out")]) == 0
        snapshots = str(corpus_dir / "repo_snapshots.jsonl")
        edges = str(corpus_dir / "dependent_edges.jsonl")
        releases = str(corpus_dir / "releases.jsonl")
        assert calls["read_repo_snapshots", snapshots] == 1
        assert calls["read_dependent_edges", edges] == 1
        assert sum(n for (name, _), n in calls.items() if name.startswith("read_")) == 2
        for path in (releases, snapshots, edges):
            assert calls["file_sha256", path] == 1

    @pytest.mark.parametrize("resumed", [False, True])
    def test_all_parses_no_artifact_it_wrote(self, corpus_dir, out_dir, tmp_path, monkeypatch, resumed):
        # filter's survivors and metrics' records reach the later stages in
        # memory; only the ratings file, which complexity merges, is read back
        out = tmp_path / "out"
        out.mkdir()
        if resumed:
            shutil.copy(out_dir / "ratings.jsonl", out / "ratings.jsonl")
        calls = Counter()

        def counted(name, fn):
            def wrapper(path):
                calls[name, os.path.basename(path)] += 1
                return fn(path)

            return wrapper

        for name in ("read_releases", "_read_record_lines"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        assert cli.main(["all", *_pipeline_args(corpus_dir, out)]) == 0
        assert calls == {
            ("read_releases", "releases.jsonl"): 1,
            ("_read_record_lines", "ratings.jsonl"): 2 if resumed else 1,
        }

    def test_each_record_version_is_rendered_once_per_stage(self, corpus_dir, tmp_path, monkeypatch):
        # a record's version text reaches its row and every one of its
        # samples, rendered once when the record is built or read
        renders = []

        def counted(version):
            renders.append(version)
            return format_version(version)

        for module in ("depgrowth.cli", "depgrowth.metrics"):
            monkeypatch.setattr(f"{module}.format_version", counted)
        out = tmp_path / "out"
        runs = {}
        for command in ("filter", "metrics", "analyze", "all"):
            renders.clear()
            assert cli.main([command, *_pipeline_args(corpus_dir, out)]) == 0
            runs[command] = len(renders)
        report = json.loads((out / "metrics_report.json").read_text(encoding="utf-8"))
        assert report["samples"] > report["records"] > 0
        assert runs == {"filter": 0, "metrics": report["records"], "analyze": report["records"], "all": report["records"]}

    def test_analyze_parses_records_not_samples(self, corpus_dir, out_dir, tmp_path, monkeypatch):
        # on its own, analyze builds its dependents samples from the release
        # records, as inside all
        work = tmp_path / "work"
        shutil.copytree(out_dir, work)
        calls = Counter()

        def counted(name, fn):
            def wrapper(path, *rest):
                calls[name, os.path.basename(path)] += 1
                return fn(path, *rest)

            return wrapper

        for name in ("RecordReader", "_read_record_lines"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        assert cli.main(["analyze", *_pipeline_args(corpus_dir, work)]) == 0
        assert calls == {
            (name, path): 1
            for name in ("RecordReader", "_read_record_lines")
            for path in ("release_records.jsonl", "ratings.jsonl")
        }


def _loaded(modules, *argv):
    """Which of ``modules`` a fresh interpreter without site (``-S``) holds
    after importing the CLI and, given ``argv``, running ``main(argv)``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys\n"
        "from depgrowth import cli\n"
        "if sys.argv[1:]:\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1]


class TestStartup:
    def test_importing_the_cli_leaves_unused_modules_unloaded(self):
        # the HTTP stack, dataclass machinery, digests and the corpus generator
        unused = ("http.client", "ssl", "email", "urllib.request", "dataclasses", "inspect", "hashlib", "depgrowth.synth")
        assert _loaded(unused) == "[]"

    def test_standalone_analyze_loads_no_hashlib(self, corpus_dir, out_dir, tmp_path):
        work = tmp_path / "work"
        shutil.copytree(out_dir, work)
        assert _loaded(("hashlib",), "analyze", *_pipeline_args(corpus_dir, work)) == "[]"

    def test_filter_loads_hashlib_to_digest_its_inputs(self, corpus_dir, tmp_path):
        assert _loaded(("hashlib",), "filter", *_pipeline_args(corpus_dir, tmp_path)) == "['hashlib']"


class TestExitCodes:
    def test_unknown_ecosystem_is_config_error(self, corpus_dir, tmp_path):
        out = tmp_path / "never"
        code = cli.main(
            ["filter", *_pipeline_args(corpus_dir, out, "--ecosystems", "npm,cargo")]
        )
        assert code == 2
        assert not out.exists()

    def test_bad_grid_is_config_error(self, corpus_dir, tmp_path):
        args = _pipeline_args(corpus_dir, tmp_path / "never")
        args[args.index("180,45")] = "100,7"
        assert cli.main(["filter", *args]) == 2

    def test_config_file_unknown_key(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": True}), encoding="utf-8")
        assert cli.main(["filter", "--config", str(cfg)]) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        code = cli.main(
            [
                "filter",
                "--releases",
                str(tmp_path / "absent.jsonl"),
                "--repo-snapshots",
                str(tmp_path / "absent2.jsonl"),
                "--dependent-edges",
                str(tmp_path / "absent3.jsonl"),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flag, other_schema",
        [
            ("--releases", "repo-snapshots"),
            ("--repo-snapshots", "dependent-edges"),
            ("--dependent-edges", "releases"),
        ],
    )
    def test_corpus_with_another_schema_header_names_the_file(
        self, corpus_dir, tmp_path, capsys, flag, other_schema
    ):
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text(json.dumps({"schema": other_schema, "version": 1}) + "\n", encoding="utf-8")
        args = _pipeline_args(corpus_dir, tmp_path / "out")
        args[args.index(flag) + 1] = str(wrong)
        assert cli.main(["filter", *args]) == 3
        err = capsys.readouterr().err
        assert f"{wrong}: expected schema" in err
        assert err.count(str(wrong)) == 1

    def test_artifact_with_another_schema_header_names_the_file_once(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        wrong = work / "filtered_releases.jsonl"
        wrong.write_text(json.dumps({"schema": "repo-snapshots", "version": 1}) + "\n", encoding="utf-8")
        assert cli.main(["complexity", *_pipeline_args(corpus_dir, work)]) == 3
        err = capsys.readouterr().err
        assert f"{wrong}: expected schema 'releases'" in err
        assert err.count(str(wrong)) == 1

    def test_with_bad_snapshots_and_bad_edges_the_edge_file_is_named(self, corpus_dir, tmp_path, capsys):
        # the edges are fed before the snapshots are read
        args = _pipeline_args(corpus_dir, tmp_path / "out")
        for flag in ("--repo-snapshots", "--dependent-edges"):
            wrong = tmp_path / f"wrong{flag}.jsonl"
            wrong.write_text(json.dumps({"schema": "releases", "version": 1}) + "\n", encoding="utf-8")
            args[args.index(flag) + 1] = str(wrong)
        assert cli.main(["filter", *args]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'wrong--dependent-edges.jsonl'}: expected schema 'dependent-edges'" in err
        assert "wrong--repo-snapshots" not in err

    @pytest.mark.parametrize("stage", ["metrics", "complexity", "analyze"])
    def test_a_stage_without_its_upstream_makes_no_out_dir(self, corpus_dir, tmp_path, capsys, stage):
        out = tmp_path / f"fresh-{stage}"
        assert cli.main([stage, *_pipeline_args(corpus_dir, out)]) == 3
        assert "does not exist; run the" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["filter", "metrics", "complexity", "analyze"])
    def test_an_out_dir_that_names_a_file_is_a_config_error(self, corpus_dir, tmp_path, capsys, stage):
        out = tmp_path / "a-file"
        out.write_text("", encoding="utf-8")
        assert cli.main([stage, *_pipeline_args(corpus_dir, out)]) == 2
        assert "cannot make out_dir" in capsys.readouterr().err

    def test_metrics_before_filter_is_data_error(self, corpus_dir, tmp_path):
        assert cli.main(["metrics", *_pipeline_args(corpus_dir, tmp_path / "fresh")]) == 3

    def test_analyze_before_metrics_is_data_error(self, corpus_dir, tmp_path):
        assert cli.main(["analyze", *_pipeline_args(corpus_dir, tmp_path / "fresh2")]) == 3

    # a faulty field of the first release_records.jsonl row, a key with "@"
    # standing for a key of its metrics object
    _BAD_RECORD_FIELDS = {
        "unknown release type": ("release_type", "mega"),
        # dates are YYYY-MM-DD on every Python, not as 3.11's fromisoformat reads them
        "basic-format record date": ("release_date", "20230101"),
        "week record date": ("release_date", "2023-W01-1"),
        "unparsable version": ("version", "1.2"),
        "string metric value": ("dependents@0", "12"),
        "float metric value": ("dependents@0", 12.0),
        "negative metric value": ("dependents@0", -12),
        "true metric value": ("dependents@0", True),
        "metrics not an object": ("metrics", [12]),
        "metrics key without days": ("dependents@later", 12),
        "metrics key of no metric": ("downloads@0", 12),
        # no leading zero, so no second key names the cell of dependents@90
        "zero-padded metrics key": ("dependents@090", 999999),
        "zero-padded zero offset": ("stars@00", 999999),
        # analyze names heatmap files after the ecosystem
        "path as record ecosystem": ("ecosystem", "../../escaped"),
        "uppercase record ecosystem": ("ecosystem", "NPM"),
    }

    @pytest.mark.parametrize(
        "fault",
        [
            "other grid",
            "finer grid",
            "cut-short records line",
            "samples over records",
            "zero-padded key after its cell was read",
            *_BAD_RECORD_FIELDS,
        ],
    )
    def test_analyze_on_mismatched_metrics_is_data_error(
        self, corpus_dir, out_dir, tmp_path, capsys, fault
    ):
        # analyze needs no other metrics artifact than the records
        work = tmp_path / "regrid"
        work.mkdir()
        records = work / "release_records.jsonl"
        shutil.copy(out_dir / "release_records.jsonl", records)
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        args = _pipeline_args(corpus_dir, work)
        named = f"{records} line 2: "
        if fault == "other grid":
            args[args.index("180,45")] = "365,90"
            named = f"{records} was built with grid [180, 45], not [365, 90]"
        elif fault == "finer grid":
            # a 365,90 build measures 180, the final offset of 180,45, but
            # not 45 or 135
            shutil.copy(out_dir / "filtered_releases.jsonl", work)
            coarse = _pipeline_args(corpus_dir, work)
            coarse[coarse.index("180,45")] = "365,90"
            assert cli.main(["metrics", *coarse]) == 0
            named = f"{records} was built with grid [365, 90], not [180, 45]"
        elif fault == "cut-short records line":
            records.write_bytes(records.read_bytes()[:-20])
            named = f"{records} line {len(lines)}: "
        elif fault == "samples over records":
            shutil.copy(out_dir / "log_diff_samples.jsonl", records)
            named = f"{records}: expected schema 'release-records'"
        elif fault == "zero-padded key after its cell was read":
            # line 2 maps dependents@45 to its cell; line 3 spells it 045
            row = json.loads(lines[2])
            row["metrics"]["dependents@045"] = row["metrics"].pop("dependents@45")
            lines[2] = json.dumps(row) + "\n"
            records.write_text("".join(lines), encoding="utf-8")
            named = f"{records} line 3: metrics key 'dependents@045'"
        else:
            field, value = self._BAD_RECORD_FIELDS[fault]
            row = json.loads(lines[1])
            (row["metrics"] if "@" in field else row)[field] = value
            lines[1] = json.dumps(row) + "\n"
            records.write_text("".join(lines), encoding="utf-8")
        assert cli.main(["analyze", *args]) == 3
        err = capsys.readouterr().err
        assert "rerun depgrowth metrics" in err
        assert named in err
        assert not (work / "table_bins.txt").exists()

    def test_a_path_in_every_records_ecosystem_writes_nothing(self, corpus_dir, out_dir, tmp_path, capsys):
        # before the check, analyze built heatmap file names from the
        # ecosystem and ended in a traceback (exit 1) opening one
        work = tmp_path / "nested" / "work"
        work.mkdir(parents=True)
        records = work / "release_records.jsonl"
        lines = (out_dir / "release_records.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            row = json.loads(line)
            if row["ecosystem"] == "npm":
                row["ecosystem"] = "../../escaped"
                lines[i] = json.dumps(row) + "\n"
        records.write_text("".join(lines), encoding="utf-8")
        first = next(i for i, line in enumerate(lines) if "escaped" in line) + 1
        assert cli.main(["analyze", *_pipeline_args(corpus_dir, work)]) == 3
        err = capsys.readouterr().err
        assert f"{records} line {first}: ecosystem must be a lowercase identifier, got '../../escaped'" in err
        assert "rerun depgrowth metrics" in err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["release_records.jsonl"]

    @pytest.mark.parametrize("stage", ["metrics", "complexity"])
    def test_bad_filtered_row_is_data_error(self, corpus_dir, out_dir, tmp_path, capsys, stage):
        # one row cut short, a later one with a bad date: the first is named
        work = tmp_path / "work"
        work.mkdir()
        filtered = work / "filtered_releases.jsonl"
        lines = (out_dir / "filtered_releases.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3][:40] + "\n"
        row = json.loads(lines[5])
        row["release_date"] = "2023-02-30"
        lines[5] = json.dumps(row) + "\n"
        filtered.write_text("".join(lines), encoding="utf-8")
        assert cli.main([stage, *_pipeline_args(corpus_dir, work)]) == 3
        err = capsys.readouterr().err
        assert f"{filtered} line 4: " in err
        assert "rerun depgrowth filter" in err
        assert [p.name for p in work.iterdir()] == ["filtered_releases.jsonl"]

    @pytest.mark.parametrize("stage", ["metrics", "complexity"])
    def test_an_escaped_lone_surrogate_in_filtered_releases_is_data_error(
        self, corpus_dir, out_dir, tmp_path, capsys, stage
    ):
        work = tmp_path / "work"
        work.mkdir()
        filtered = work / "filtered_releases.jsonl"
        lines = (out_dir / "filtered_releases.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row["release_notes"] = (row.get("release_notes") or "") + "\ud800"
        lines[1] = json.dumps(row) + "\n"  # ASCII: the surrogate as a JSON escape
        filtered.write_text("".join(lines), encoding="utf-8")
        assert cli.main([stage, *_pipeline_args(corpus_dir, work)]) == 3
        err = capsys.readouterr().err
        assert f"{filtered} line 2: invalid UTF-8: lone surrogate U+D800; remove it and rerun depgrowth filter" in err
        assert [p.name for p in work.iterdir()] == ["filtered_releases.jsonl"]

    def test_an_escaped_lone_surrogate_in_a_release_is_one_violation(self, corpus_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        releases = corpus / "releases.jsonl"
        lines = releases.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row["release_notes"] = (row.get("release_notes") or "") + " \ud800"
        lines[1] = json.dumps(row) + "\n"
        releases.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["all", *_pipeline_args(corpus, out)]) == 0
        report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
        assert report["schema_violations"]["releases"] == 1

    @staticmethod
    def _malformed_drops_with_version(corpus_dir, tmp_path, version_text):
        """The semver stage's MalformedVersion drops of a filter run whose
        second release line has ``version_text``."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        releases = corpus / "releases.jsonl"
        lines = releases.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row["version_text"] = version_text
        lines[1] = json.dumps(row) + "\n"
        releases.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["filter", *_pipeline_args(corpus, out)]) == 0
        return _malformed_drops(out)

    def test_a_version_component_too_long_to_convert_is_a_malformed_drop(self, corpus_dir, out_dir, tmp_path):
        # 5,000 digits: more than int() converts under the default limit
        version_text = "1" * 5000 + ".0.0"
        assert self._malformed_drops_with_version(corpus_dir, tmp_path, version_text) == _malformed_drops(out_dir) + 1

    def test_a_version_with_a_trailing_newline_is_a_malformed_drop(self, corpus_dir, out_dir, tmp_path):
        # the grammar matches the whole text: "$" alone would let the newline by
        assert self._malformed_drops_with_version(corpus_dir, tmp_path, "1.2.3\n") == _malformed_drops(out_dir) + 1

    def test_a_non_ascii_metrics_offset_is_data_error(self, corpus_dir, out_dir, tmp_path, capsys):
        # int() reads "9\u0660" (ARABIC-INDIC DIGIT ZERO) as 90; an offset
        # follows the version components' integer rule, which is ASCII
        work = tmp_path / "work"
        work.mkdir()
        records = work / "release_records.jsonl"
        lines = (out_dir / "release_records.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row["metrics"]["dependents@9\u0660"] = 7
        lines[1] = json.dumps(row) + "\n"
        records.write_text("".join(lines), encoding="utf-8")
        assert cli.main(["analyze", *_pipeline_args(corpus_dir, work)]) == 3
        err = capsys.readouterr().err
        assert f"{records} line 2: metrics key 'dependents@9\u0660' is not <metric>@<days>" in err

    @pytest.mark.parametrize("stage", ["complexity", "all"])
    @pytest.mark.parametrize("token", ["abc\ndef", "abc\rdef", "abc€def"], ids=["newline", "return", "euro"])
    def test_a_token_no_header_carries_is_config_error(self, corpus_dir, tmp_path, capsys, monkeypatch, stage, token):
        monkeypatch.setenv(cli.MODEL_TOKEN_ENV, token)
        out = tmp_path / "never"
        args = _pipeline_args(corpus_dir, out, "--model-endpoint", "http://127.0.0.1:9/")
        assert cli.main([stage, *args]) == 2
        err = capsys.readouterr().err
        assert cli.MODEL_TOKEN_ENV in err
        assert token not in err and "abc" not in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["complexity", "all"])
    def test_a_model_id_without_an_endpoint_is_config_error(self, corpus_dir, tmp_path, capsys, stage):
        out = tmp_path / "never"
        assert cli.main([stage, *_pipeline_args(corpus_dir, out, "--model-id", "gpt-x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model_id 'gpt-x' needs a model endpoint")
        assert not out.exists()

    @pytest.mark.parametrize("token", ["", "sekrit", "caf\xe9 \xff~"])
    def test_a_latin_1_token_without_control_characters_passes(self, token):
        assert cli.HttpModelClient("http://127.0.0.1:9/", "m", token=token).model_id == "m"

    def test_a_direct_complexity_call_refuses_the_token_first(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.MODEL_TOKEN_ENV, "abc\ndef")
        out = tmp_path / "never"
        paths = {name: str(corpus_dir / f"{name}.jsonl") for name in cli.CORPUS_INPUTS}
        config = resolve_config(None, {**paths, "out_dir": str(out), "model_endpoint": "http://127.0.0.1:9/"})
        with pytest.raises(ConfigError, match=cli.MODEL_TOKEN_ENV):
            cli.cmd_complexity(config)
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["filter", "metrics", "complexity", "analyze", "all"])
    def test_an_out_dir_naming_a_file_is_config_error(self, corpus_dir, tmp_path, capsys, stage):
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        assert cli.main([stage, *_pipeline_args(corpus_dir, taken)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot make out_dir {taken}: ")
        assert taken.read_text(encoding="utf-8") == "a file\n"

    @pytest.mark.parametrize("fault", ["byte not UTF-8", "deeply nested header"])
    def test_an_unreadable_records_line_is_data_error(self, corpus_dir, out_dir, tmp_path, capsys, fault):
        work = tmp_path / "work"
        work.mkdir()
        records = work / "release_records.jsonl"
        lines = (out_dir / "release_records.jsonl").read_bytes().splitlines(keepends=True)
        if fault == "byte not UTF-8":
            lines[1] = lines[1].replace(b'"release_date"', b'"release\xff_date"', 1)
            named = f"{records} line 2: invalid UTF-8; "
        else:
            lines[0] = b"[" * 200_000 + b"\n"
            named = f"{records} line 1: invalid JSON: "
        records.write_bytes(b"".join(lines))
        assert cli.main(["analyze", *_pipeline_args(corpus_dir, work)]) == 3
        err = capsys.readouterr().err
        assert named in err and "rerun depgrowth metrics" in err
        assert [p.name for p in work.iterdir()] == ["release_records.jsonl"]

    def test_a_deeply_nested_resume_header_is_data_error(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        ratings = work / "ratings.jsonl"
        ratings.write_text("[" * 200_000 + "\n", encoding="utf-8")
        assert cli.main(["all", *_pipeline_args(corpus_dir, work)]) == 3
        assert f"{ratings} has no provenance keys and inputs; remove it to rate afresh" in capsys.readouterr().err
        assert [p.name for p in work.iterdir()] == ["ratings.jsonl"]

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestStaleUpstream:
    """A stage refuses an upstream artifact built under other config values
    or from another input file than the stage reads, and writes nothing.
    The --grid cases are in TestExitCodes."""

    _UPSTREAM = {
        "metrics": ("filtered_releases.jsonl",),
        "complexity": ("filtered_releases.jsonl",),
        "analyze": ("release_records.jsonl", "ratings.jsonl"),
    }

    @pytest.mark.parametrize(
        "stage, change",
        [
            ("metrics", "min-dependents"),
            ("metrics", "snapshots"),
            ("complexity", "min-dependents"),
            ("complexity", "snapshots"),
            ("analyze", "min-dependents"),
            ("analyze", "whole-config hash"),
        ],
    )
    def test_stale_upstream_is_data_error(self, corpus_dir, out_dir, tmp_path, capsys, stage, change):
        work = tmp_path / "work"
        work.mkdir()
        for name in self._UPSTREAM[stage]:
            shutil.copy(out_dir / name, work / name)
        args = _pipeline_args(corpus_dir, work)
        if change == "min-dependents":
            args += ["--min-dependents", "50"]
        elif change == "whole-config hash":
            # a header of the earlier format, which hashed the whole config
            records = work / "release_records.jsonl"
            header, *rows = records.read_text(encoding="utf-8").splitlines(keepends=True)
            header = json.loads(header)
            header["provenance"] = {"config_sha256": "0" * 64, "inputs": header["provenance"]["inputs"]}
            records.write_text(json.dumps(header) + "\n" + "".join(rows), encoding="utf-8")
        else:
            snapshots = tmp_path / "repo_snapshots.jsonl"
            text = (corpus_dir / "repo_snapshots.jsonl").read_text(encoding="utf-8")
            snapshots.write_text(text + text.splitlines(keepends=True)[-1], encoding="utf-8")
            args[args.index("--repo-snapshots") + 1] = str(snapshots)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main([stage, *args]) == 3
        err = capsys.readouterr().err
        upstream = self._UPSTREAM[stage][0]
        stale = "has no provenance keys and inputs" if change == "whole-config hash" else "was built "
        assert f"{work / upstream} {stale}" in err
        assert f"rerun depgrowth {cli.ARTIFACTS[upstream].stage}" in err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before


class TestStaleResumeState:
    """complexity refuses a ratings.jsonl, its resume state, built under
    other config values or from other inputs, and writes nothing."""

    def test_ratings_of_another_min_dependents_are_refused(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "work"
        args = _pipeline_args(corpus_dir, work)
        assert cli.main(["all", *args]) == 0
        assert cli.main(["filter", *args, "--min-dependents", "50"]) == 0
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        capsys.readouterr()
        stale = f"{work / 'ratings.jsonl'} was built with min_dependents 5, not 50; remove it to rate afresh"
        for command in ("complexity", "all"):  # all refuses before filter writes
            assert cli.main([command, *args, "--min-dependents", "50"]) == 3
            assert stale in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in work.iterdir()} == before
        # removed, the file is rated afresh, as in a directory of its own
        (work / "ratings.jsonl").unlink()
        assert cli.main(["complexity", *args, "--min-dependents", "50"]) == 0
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        shutil.copy(work / "filtered_releases.jsonl", fresh)
        assert cli.main(["complexity", *_pipeline_args(corpus_dir, fresh), "--min-dependents", "50"]) == 0
        assert (work / "ratings.jsonl").read_bytes() == (fresh / "ratings.jsonl").read_bytes()

    @pytest.mark.parametrize("change", ["input", "no provenance"])
    def test_ratings_from_other_inputs_are_refused(self, corpus_dir, out_dir, tmp_path, capsys, change):
        work = tmp_path / "work"
        work.mkdir()
        for name in ("filtered_releases.jsonl", "ratings.jsonl"):
            shutil.copy(out_dir / name, work / name)
        ratings = work / "ratings.jsonl"
        header, rest = ratings.read_text(encoding="utf-8").split("\n", 1)
        header = json.loads(header)
        if change == "input":
            header["provenance"]["inputs"]["dependent_edges"] = "0" * 64
            stale = "was built from another dependent_edges"
        else:
            del header["provenance"]
            stale = "has no provenance keys and inputs"
        ratings.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main(["complexity", *_pipeline_args(corpus_dir, work)]) == 3
        assert f"{ratings} {stale}; remove it to rate afresh" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before


class TestAtomicWrites:
    def test_failed_writer_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        cli._write_records(path, "rows", {}, ['{"n":1}', '{"n":2}'])
        before = path.read_bytes()

        def rows():
            yield '{"n":3}'
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            cli._write_records(path, "rows", {}, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    def test_failed_metrics_stage_keeps_previous_samples(
        self, corpus_dir, out_dir, tmp_path, monkeypatch
    ):
        for name in ("filtered_releases.jsonl", "log_diff_samples.jsonl"):
            shutil.copy(out_dir / name, tmp_path / name)
        before = (tmp_path / "log_diff_samples.jsonl").read_bytes()
        calls = []
        samples = cli.log_diff_samples

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("killed mid-write")
            return samples(*args)

        monkeypatch.setattr(cli, "log_diff_samples", failing)
        with pytest.raises(RuntimeError):
            cli.main(["metrics", *_pipeline_args(corpus_dir, tmp_path)])
        assert (tmp_path / "log_diff_samples.jsonl").read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_a_stage_removes_the_temp_files_of_dead_writers_only(self, corpus_dir, tmp_path):
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert cli.main(["filter", *_pipeline_args(corpus_dir, clean)]) == 0
        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()
        out.mkdir()
        left = [out / f".filtered_releases.jsonl.{pid}.tmp" for pid in (dead.pid, os.getppid())]
        for path in left:
            path.write_text('{"schema": "releases"', encoding="utf-8")
        assert cli.main(["filter", *_pipeline_args(corpus_dir, out)]) == 0
        assert [path.exists() for path in left] == [False, True]
        left[1].unlink()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {p.name: p.read_bytes() for p in clean.iterdir()}


class TestIngestOrder:
    @pytest.mark.parametrize("command", ["filter", "all"])
    def test_the_edges_are_fed_before_the_snapshots_are_read(self, corpus_dir, tmp_path, monkeypatch, command):
        order = []
        for name in ("read_repo_snapshots", "read_dependent_edges"):
            read = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda path, name=name, read=read: order.append(name) or read(path))
        assert cli.main([command, *_pipeline_args(corpus_dir, tmp_path / "out")]) == 0
        assert order == ["read_dependent_edges", "read_repo_snapshots"]

    def test_a_counter_fed_before_its_index_is_filled_counts_as_one_fed_after(self, corpus_dir):
        # every snapshot row shuffled, so the first lookup rebuilds each timeline
        header, *rows = (corpus_dir / "repo_snapshots.jsonl").read_text(encoding="utf-8").splitlines()
        random.Random(3).shuffle(rows)
        snapshots = [header, *rows]
        releases = list(read_releases(corpus_dir / "releases.jsonl"))
        offsets = (0,) + LookaheadGrid(180, 45).offsets
        cells = {(r.package_name, r.ecosystem, pre_release_date(r)) for r in releases}
        cells |= {(r.package_name, r.ecosystem, r.release_date + timedelta(days=o)) for r in releases for o in offsets}
        cells = sorted(cells)
        counts = []
        for fed_first in (True, False):
            index = RepoIndex() if fed_first else RepoIndex.build(read_repo_snapshots(snapshots))
            counter = StreamingDependentCounter(index)
            for cell in cells:
                counter.request(*cell)
            counter.feed(read_dependent_edges(corpus_dir / "dependent_edges.jsonl"))
            if fed_first:
                index.extend(read_repo_snapshots(snapshots))
            counts.append([counter.count(*cell) for cell in cells])
        assert counts[0] == counts[1]
        assert sum(1 for count in counts[0] if count) > len(cells) // 4


class TestEmptyInputs:
    def test_empty_files_make_empty_outputs(self, tmp_path):
        for name in ("releases", "repos", "edges"):
            (tmp_path / f"{name}.jsonl").write_text("", encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(
            [
                "all",
                "--releases",
                str(tmp_path / "releases.jsonl"),
                "--repo-snapshots",
                str(tmp_path / "repos.jsonl"),
                "--dependent-edges",
                str(tmp_path / "edges.jsonl"),
                "--out-dir",
                str(out),
                "--grid",
                "180,45",
            ]
        )
        assert code == 0
        report = json.load(open(out / "filter_report.json"))
        assert all(s["records_in"] == 0 and s["reasons"] == {} for s in report["stages"])
        assert _rows(out / "filtered_releases.jsonl") == []
        assert _rows(out / "log_diff_samples.jsonl") == []
        assert _rows(out / "ratings.jsonl") == []


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out-dir", str(out), "--scale", "small", "--seed", "3"]) == 0
        for name in ("repo_snapshots.jsonl", "releases.jsonl", "dependent_edges.jsonl"):
            assert (out / name).exists()


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class TestHttpModelClient:
    def _client(self, **kwargs):
        return cli.HttpModelClient("http://model.test/v1", "remote-model", **kwargs)

    def test_payload_and_auth_header(self, monkeypatch):
        seen = {}

        def fake_urlopen(request, timeout=None):
            seen["request"] = request
            return _FakeResponse(json.dumps({"text": "ok"}).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = self._client(token="sekrit")
        assert client.complete("sys", "user") == "ok"
        request = seen["request"]
        body = json.loads(request.data.decode("utf-8"))
        assert body == {"model": "remote-model", "system": "sys", "user": "user"}
        assert request.get_header("Authorization") == "Bearer sekrit"

    def test_no_token_no_header(self, monkeypatch):
        seen = {}

        def fake_urlopen(request, timeout=None):
            seen["request"] = request
            return _FakeResponse(json.dumps({"text": "ok"}).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert self._client().complete("a", "b") == "ok"
        assert seen["request"].get_header("Authorization") is None

    def _rate(self, monkeypatch, statuses):
        """Rate one release through the client; ``statuses`` are the endpoint's
        replies in order, 200 answering with a valid rating. Returns the
        rating or the failure message, the number of requests and the
        backoff sleeps."""
        release = PackageRelease(
            release_date=date(2023, 5, 2),
            ecosystem="npm",
            package_name="widget",
            owner="acme",
            repo_name="widget",
            version_text="2.1.0",
            release_notes="Reworked the scheduler. " * 40,
        )
        repo = RepoSnapshot(date(2023, 5, 1), "acme", "widget", 3, 1, False)
        answer = MockModelClient().complete(SYSTEM_PROMPT, build_prompt(release, repo).user_text)
        replies = list(statuses)
        requests = []

        def fake_urlopen(request, timeout=None):
            requests.append(request)
            status = replies.pop(0)
            if status != 200:
                raise urllib.error.HTTPError(request.full_url, status, "refused", {}, None)
            return _FakeResponse(json.dumps({"text": answer}).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        sleeps = []
        policy = RetryPolicy(max_attempts=3, backoff=0.5, sleeper=sleeps.append)
        ratings, failures = rate_many([("one", release, build_prompt(release, repo))], self._client(), policy)
        return ratings["one"] if ratings else failures["one"], len(requests), sleeps

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_fails_fast(self, monkeypatch, status):
        outcome, requests, sleeps = self._rate(monkeypatch, [status])
        assert outcome.startswith(f"{RequestRejected.__name__}: ")
        assert f"HTTP {status}" in outcome
        assert requests == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 500, 408, 429])
    def test_server_error_and_throttling_are_retried(self, monkeypatch, status):
        outcome, requests, sleeps = self._rate(monkeypatch, [status, 200])
        assert 1 <= outcome.rating <= 7
        assert requests == 2
        assert sleeps == [0.5]

    @pytest.mark.parametrize(
        "body",
        # the last holds an integer literal longer than the interpreter converts
        [b"[]", b'{"no_text": 1}', b'{"text": 5}', b"{bad", b"\xff", b'{"text": ' + b"7" * 5000 + b"}"],
    )
    def test_malformed_envelope_raises_oserror(self, monkeypatch, body):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda request, timeout=None: _FakeResponse(body)
        )
        with pytest.raises(OSError):
            self._client().complete("a", "b")


    def test_a_deeply_nested_reply_raises_oserror(self, monkeypatch):
        reply = _FakeResponse(b'{"text": ' + b"[" * 200_000)
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None: reply)
        with pytest.raises(OSError, match="invalid JSON"):
            self._client().complete("a", "b")


class TestMockParity:
    def test_cli_default_model_id_matches_mock(self):
        from depgrowth.config import PipelineConfig

        assert PipelineConfig().model_id == MockModelClient.model_id


def _record_row(record):
    """A ``release_records.jsonl`` row as a dict, the generic encoder's input."""
    return {
        "release_date": record.release_date.isoformat(),
        "ecosystem": record.ecosystem,
        "package_name": record.package_name,
        "owner": record.owner,
        "repo_name": record.repo_name,
        "version": record.version_text,
        "release_type": record.release_type.value,
        "series": record.series.value,
        "pre_dependents": record.pre_dependents,
        "bin": record.bin.value,
        "metrics": {
            f"{metric}@{offset}": value
            for (metric, offset), value in sorted(record.metric_values.items())
        },
    }


def _sample_row(sample):
    """A ``log_diff_samples.jsonl`` row as a dict, the generic encoder's input."""
    return dict(
        sample._asdict(),
        release_date=sample.release_date.isoformat(),
        release_type=sample.release_type.value,
        series=sample.series.value,
        bin=sample.bin.value,
    )


def _compact(row):
    return json.dumps(row, separators=(",", ":"))


_GRID = LookaheadGrid(180, 45)
_CELLS = [(metric, offset) for metric in METRICS for offset in (0, *_GRID.offsets)]
# short strings, so that records often share fields, with the characters JSON
# escapes (quote, backslash, control characters) and others it writes as \u
# escapes (non-ASCII, U+2028)
_TEXT = st.text(st.one_of(st.sampled_from('a"\\\x00\x1f\x7f é\U0001f600'), st.characters()), max_size=4)
_COUNT = st.one_of(st.none(), st.sampled_from([0, 1, 2**63 - 1]), st.integers(0, 2**63 - 1))
_NUMBER = st.integers(0, 2**70)


@st.composite
def _records(draw):
    records = []
    for _ in range(draw(st.integers(0, 5))):
        cells = draw(st.lists(st.sampled_from(_CELLS), unique=True))
        version = Version(draw(_NUMBER), draw(_NUMBER), draw(_NUMBER))
        records.append(
            ReleaseRecord(
                release_date=draw(st.dates()),
                ecosystem=draw(_TEXT),
                package_name=draw(_TEXT),
                owner=draw(_TEXT),
                repo_name=draw(_TEXT),
                version_text=format_version(version),
                release_type=draw(st.sampled_from(ReleaseType)),
                series=draw(st.sampled_from(VersionSeries)),
                pre_dependents=draw(st.integers(0, 2**63 - 1)),
                bin=draw(st.sampled_from(SizeBin)),
                metric_values={cell: draw(_COUNT) for cell in cells},
            )
        )
    # records that share the fields of another's samples but for a type, a
    # series or a bin, and records repeated whole
    if records:
        for record in draw(st.lists(st.sampled_from(records), max_size=3)):
            records.append(
                record._replace(
                    release_type=draw(st.sampled_from(ReleaseType)),
                    series=draw(st.sampled_from(VersionSeries)),
                    bin=draw(st.sampled_from(SizeBin)),
                )
            )
        records += draw(st.lists(st.sampled_from(records), max_size=2))
    return records


class TestRowEncoders:
    @given(_records())
    @settings(max_examples=300, deadline=None)
    def test_record_and_sample_lines_are_the_generic_encoding(self, records):
        assert list(cli._record_lines(records)) == [_compact(_record_row(record)) for record in records]
        exclusions: dict = {}
        lines = list(cli._sample_lines(records, _GRID, exclusions))
        expected, tallies = [], {}
        for metric in METRICS:
            for offset in _GRID.offsets:
                samples, tallies[f"{metric}@{offset}"] = log_diff_samples(records, metric, offset)
                expected += [_compact(_sample_row(sample)) for sample in samples]
        assert lines == expected
        assert exclusions == tallies

    @given(st.integers(1, 2**63 - 1), st.integers(1, 2**63 - 1))
    def test_repr_of_a_log_difference_is_its_json_text(self, v0, v1):
        value = log_difference(v0, v1)
        assert repr(value) == json.dumps(value)

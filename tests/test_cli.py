"""Command line pipeline: stage handoff, determinism, exit codes."""

import io
import json
import os
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from collections import Counter
from datetime import date

import pytest

from depgrowth import cli
from depgrowth.complexity import (
    SYSTEM_PROMPT,
    MockModelClient,
    RequestRejected,
    RetryPolicy,
    build_prompt,
    rate_release,
)
from depgrowth.ingest import PackageRelease, RepoSnapshot, read_releases
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
        assert set(prov) == {"tool_version", "config_sha256", "inputs"}
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


class TestAnalyzeStage:
    def test_tables_have_provenance_line(self, out_dir):
        for name in ("table_bins.txt", "table_series.txt", "table_bins.csv", "table_series.csv"):
            first = open(out_dir / name, encoding="utf-8").readline()
            assert first.startswith("# provenance: ")
            json.loads(first.split("# provenance: ", 1)[1])

    def test_csv_parses(self, out_dir):
        import csv

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
        # same out_dir path, fresh contents: config hash matches the first run
        rerun = out_dir.parent / "rerun"
        args = _pipeline_args(corpus_dir, rerun)
        assert cli.main(["all", *args]) == 0
        first = {p.name: p.read_bytes() for p in rerun.iterdir()}
        shutil.rmtree(rerun)
        assert cli.main(["all", *args]) == 0
        second = {p.name: p.read_bytes() for p in rerun.iterdir()}
        assert first == second

    def test_metrics_rerun_idempotent(self, corpus_dir, out_dir):
        before = (out_dir / "log_diff_samples.jsonl").read_bytes()
        assert cli.main(["metrics", *_pipeline_args(corpus_dir, out_dir)]) == 0
        assert (out_dir / "log_diff_samples.jsonl").read_bytes() == before

    @pytest.mark.parametrize("extra", [(), ("--min-dependents", "0")])
    def test_all_matches_stages_run_one_by_one(self, corpus_dir, out_dir, extra):
        # same out_dir path for both runs, so the config hash matches
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


class TestStartup:
    def test_importing_the_cli_leaves_the_http_stack_unloaded(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys, depgrowth.cli; "
            "print(sorted(m for m in ('http.client', 'ssl', 'email', 'urllib.request') "
            "if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


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

    def test_metrics_before_filter_is_data_error(self, corpus_dir, tmp_path):
        assert cli.main(["metrics", *_pipeline_args(corpus_dir, tmp_path / "fresh")]) == 3

    def test_analyze_before_metrics_is_data_error(self, corpus_dir, tmp_path):
        assert cli.main(["analyze", *_pipeline_args(corpus_dir, tmp_path / "fresh2")]) == 3

    @pytest.mark.parametrize(
        "fault",
        [
            "other grid",
            "finer grid",
            "truncated report",
            "exclusions not a mapping",
            "cut-short samples line",
            "records over samples",
            "unknown release type",
        ],
    )
    def test_analyze_on_mismatched_metrics_is_data_error(
        self, corpus_dir, out_dir, tmp_path, capsys, fault
    ):
        work = tmp_path / "regrid"
        work.mkdir()
        for name in ("log_diff_samples.jsonl", "release_records.jsonl", "metrics_report.json"):
            shutil.copy(out_dir / name, work / name)
        args = _pipeline_args(corpus_dir, work)
        if fault == "other grid":
            args[args.index("180,45")] = "365,90"
        elif fault == "finer grid":
            # a 365,90 build measures 180, the final offset of 180,45, but
            # not 45 or 135
            shutil.copy(out_dir / "filtered_releases.jsonl", work)
            coarse = _pipeline_args(corpus_dir, work)
            coarse[coarse.index("180,45")] = "365,90"
            assert cli.main(["metrics", *coarse]) == 0
        elif fault == "truncated report":
            report = work / "metrics_report.json"
            report.write_bytes(report.read_bytes()[:40])
        elif fault == "exclusions not a mapping":
            (work / "metrics_report.json").write_text('{"exclusions": 5}')
        elif fault == "cut-short samples line":
            samples = work / "log_diff_samples.jsonl"
            samples.write_bytes(samples.read_bytes()[:-20])
        elif fault == "records over samples":
            shutil.copy(out_dir / "release_records.jsonl", work / "log_diff_samples.jsonl")
        else:
            records = work / "release_records.jsonl"
            lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[1] = json.dumps({**json.loads(lines[1]), "release_type": "mega"}) + "\n"
            records.write_text("".join(lines), encoding="utf-8")
        assert cli.main(["analyze", *args]) == 3
        assert "rerun depgrowth metrics" in capsys.readouterr().err
        assert not (work / "table_bins.txt").exists()

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestAtomicWrites:
    def test_failed_writer_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        cli._write_records(path, "rows", {}, [{"n": 1}, {"n": 2}])
        before = path.read_bytes()

        def rows():
            yield {"n": 3}
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
        outcome, the number of requests and the backoff sleeps."""
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
        try:
            outcome = rate_release(release, repo, self._client(), policy)
        except RequestRejected as exc:
            outcome = exc
        return outcome, len(requests), sleeps

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_fails_fast(self, monkeypatch, status):
        outcome, requests, sleeps = self._rate(monkeypatch, [status])
        assert isinstance(outcome, RequestRejected)
        assert f"HTTP {status}" in str(outcome)
        assert requests == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 500, 408, 429])
    def test_server_error_and_throttling_are_retried(self, monkeypatch, status):
        outcome, requests, sleeps = self._rate(monkeypatch, [status, 200])
        assert 1 <= outcome.rating <= 7
        assert requests == 2
        assert sleeps == [0.5]

    @pytest.mark.parametrize("body", [b"[]", b'{"no_text": 1}', b'{"text": 5}', b"{bad"])
    def test_malformed_envelope_raises_oserror(self, monkeypatch, body):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda request, timeout=None: _FakeResponse(body)
        )
        with pytest.raises(OSError):
            self._client().complete("a", "b")


class TestMockParity:
    def test_cli_default_model_id_matches_mock(self):
        from depgrowth.config import PipelineConfig

        assert PipelineConfig().model_id == MockModelClient.model_id

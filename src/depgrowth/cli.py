"""Command line pipeline: filter, metrics, analyze, complexity, all, synth.

Each stage reads files, writes files, and can be re-run idempotently; later
stages consume earlier stages' outputs from the configured output directory.
Every output carries a provenance header (tool version, config hash, input
digests) and no wall-clock values, so a rerun over identical inputs is
byte-identical.

Artifacts a stage reads back are checked against their schema header and
row fields; a bad one is a data error naming the stage to rerun.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
from datetime import timedelta
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import __version__
from .complexity import (
    MIN_NOTE_CHARS,
    MockModelClient,
    RequestRejected,
    RetryPolicy,
    agreement_stats,
    build_prompt,
    rate_many,
    rating_record,
)
from .config import (
    ConfigError,
    PipelineConfig,
    config_sha256,
    file_sha256,
    load_config,
    resolve_config,
)
from .filters import ClassifiedRelease, filter_semver, pre_release_date, run_filter_cascade
from .ingest import (
    DateOutOfRange,
    PackageRelease,
    RecordReader,
    RepoIndex,
    SchemaHeaderError,
    SourceUnavailable,
    StreamingDependentCounter,
    _opt_str,
    _parse_date,
    _req_int,
    _req_str,
    read_dependent_edges,
    read_releases,
    read_repo_snapshots,
    write_records,
)
from .metrics import (
    METRICS,
    LogDiffSample,
    LookaheadGrid,
    ReleaseRecord,
    SizeBin,
    build_release_records,
    log_diff_samples,
)
from .report import (
    complexity_descriptives,
    complexity_vs_type_tests,
    fold_release_type,
    format_summary_table_text,
    heatmap_matrix,
    release_demographics,
    render_heatmap_svg,
    summary_table,
    summary_table_rows,
    timepoint_distributions,
)
from .semver import ReleaseType, VersionSeries, format_version
from .stats import DegenerateInput

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

MODEL_TOKEN_ENV = "DEPGROWTH_MODEL_TOKEN"


class DataError(RuntimeError):
    """Input data is missing or unusable; distinct from config mistakes."""


# ---------------------------------------------------------------------------
# provenance and output helpers
# ---------------------------------------------------------------------------


def _file_digest(name: str, path: str | Path) -> str:
    try:
        return file_sha256(path)
    except OSError as exc:
        raise DataError(f"cannot read input {name} at {path}: {exc}") from exc


def _provenance(
    config: PipelineConfig, inputs: Mapping[str, str | Path], corpus: Corpus | None = None
) -> dict:
    digest = corpus.digest if corpus is not None else _file_digest
    return {
        "tool_version": __version__,
        "config_sha256": config_sha256(config),
        "inputs": {name: digest(name, inputs[name]) for name in sorted(inputs)},
    }


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """A text handle on a temp file beside ``path``, moved onto ``path`` once
    closed, so a stage that fails or is killed mid-write leaves the previous
    artifact (or none) in place, never a truncated one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_records(path: Path, schema: str, provenance: dict, rows: Iterable[Mapping]) -> int:
    with _replacing(path) as handle:
        return write_records(handle, schema, rows, provenance)


def _write_json(path: Path, payload: dict) -> None:
    with _replacing(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_text(path: Path, provenance: dict, body: str) -> None:
    with _replacing(path) as handle:
        handle.write(f"# provenance: {json.dumps(provenance, sort_keys=True)}\n")
        handle.write(body)


# ---------------------------------------------------------------------------
# artifacts: the rows later stages read back, and the table of every artifact
# ---------------------------------------------------------------------------


def _sample(row: dict) -> LogDiffSample:
    value = row.get("value")
    if type(value) is not float and type(value) is not int:
        raise ValueError("value must be a number")
    return LogDiffSample(
        ecosystem=_req_str(row, "ecosystem"),
        package_name=_req_str(row, "package_name"),
        release_date=_parse_date(row.get("release_date"), "release_date"),
        version_text=_req_str(row, "version_text"),
        release_type=ReleaseType(row.get("release_type")),
        series=VersionSeries(row.get("series")),
        bin=SizeBin(row.get("bin")),
        metric=_req_str(row, "metric"),
        offset_days=_req_int(row, "offset_days"),
        value=value,
    )


def _demographic(row: dict) -> tuple[str, str]:
    """A release record as ``release_demographics`` counts it."""
    return _req_str(row, "ecosystem"), ReleaseType(row.get("release_type")).value


def _rating_row(row: dict) -> dict:
    """A ``ratings.jsonl`` row, checked on the fields later stages read."""
    _req_str(row, "key")
    if row.get("rating") is not None:  # null: the model declined to rate
        _req_int(row, "rating", 1, 7)
    _opt_str(row, "language")
    if row.get("release_type") is not None:
        ReleaseType(row["release_type"])
    return row


def _human_rating(row: dict) -> tuple[str, int]:
    return _req_str(row, "key"), _req_int(row, "rating", 1, 7)


class _Artifact(NamedTuple):
    stage: str  # the stage that writes it
    schema: str | None = None  # the header schema of a JSONL artifact
    parse: Callable[[dict], object] | None = None  # a row, as a later stage reads it


# the artifacts a stage writes under a schema header or a later stage needs
ARTIFACTS = {
    "filtered_releases.jsonl": _Artifact("filter", "releases"),
    "release_records.jsonl": _Artifact("metrics", "release-records", _demographic),
    "log_diff_samples.jsonl": _Artifact("metrics", "log-diff-samples", _sample),
    "metrics_report.json": _Artifact("metrics"),
    "ratings.jsonl": _Artifact("complexity", "complexity-ratings", _rating_row),
    "heatmap_bins.jsonl": _Artifact("analyze", "heatmap-cells"),
    "heatmap_series.jsonl": _Artifact("analyze", "heatmap-cells"),
    "timepoints.jsonl": _Artifact("analyze", "timepoint-distributions"),
}


def _checked_rows(path: Path, schema: str, parse: Callable[[dict], object], remedy: str) -> Iterator:
    """``parse`` of each row of ``path``; a header naming another schema, or
    the first bad row, is a DataError that ends with ``remedy``."""
    reader = RecordReader(path, schema, parse)
    try:
        for row in reader:
            if reader.violations:
                break
            yield row
    except SchemaHeaderError as exc:
        raise DataError(f"{exc}; {remedy}") from exc
    if reader.violations:
        raise DataError(f"{path} {reader.violations[0]}; {remedy}")


def _remedy(name: str) -> str:
    return f"remove it and rerun depgrowth {ARTIFACTS[name].stage}"


def _read_record_lines(path: Path) -> Iterator:
    """The rows of the artifact at ``path``, checked as its table entry says."""
    artifact = ARTIFACTS[path.name]
    return _checked_rows(path, artifact.schema, artifact.parse, _remedy(path.name))


def _load_samples(path: Path) -> list[LogDiffSample]:
    return list(_read_record_lines(path))


def _write_artifact(out: Path, name: str, provenance: dict, rows: Iterable[Mapping]) -> int:
    return _write_records(out / name, ARTIFACTS[name].schema, provenance, rows)


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _require(out: Path, name: str) -> Path:
    path = out / name
    if not path.exists():
        stage = ARTIFACTS[name].stage
        raise DataError(f"{path} does not exist; run the {stage} stage first (depgrowth {stage})")
    return path


def _load_survivors(
    path: Path, config: PipelineConfig
) -> tuple[list[PackageRelease], list[ClassifiedRelease], int]:
    """The filter stage's survivors, classified again, and the file's violation count."""
    reader = read_releases(path)
    try:
        releases = list(reader)
    except SchemaHeaderError as exc:
        raise DataError(f"{exc}; {_remedy(path.name)}") from exc
    classified, report = filter_semver(releases, zero_split=config.zero_split)
    if report.reasons:
        raise DataError(
            f"{path} contains rows that no longer parse as semver: {dict(report.reasons)}"
        )
    return releases, classified, len(reader.violations)


CORPUS_INPUTS = ("releases", "repo_snapshots", "dependent_edges")


class Corpus:
    """The input corpora of one command, each hashed and parsed at most once.

    ``all`` builds one and hands it to every stage; a standalone stage builds
    its own. Artifacts in ``out_dir`` change between stages, so their digests
    are never memoized.
    """

    def __init__(self, config: PipelineConfig, offsets: Sequence[int] = ()) -> None:
        self._config = config
        self._offsets = tuple(offsets)
        self._digests: dict[str, str] = {}
        self._repos: tuple[RepoIndex, int] | None = None
        self._counter: tuple[StreamingDependentCounter, int] | None = None

    def digest(self, name: str, path: str | Path) -> str:
        if name not in CORPUS_INPUTS:
            return _file_digest(name, path)
        if name not in self._digests:
            self._digests[name] = _file_digest(name, path)
        return self._digests[name]

    def repos(self) -> tuple[RepoIndex, int]:
        """Repo index over every snapshot row, and the snapshot violation count."""
        if self._repos is None:
            reader = read_repo_snapshots(self._config.repo_snapshots)
            self._repos = RepoIndex.build(reader), len(reader.violations)
        return self._repos

    def counter(self, releases: Sequence[PackageRelease]) -> tuple[StreamingDependentCounter, int]:
        """Dependent counter fed once from the edge file, and the edge violation count.

        The first caller's releases each register the pre-release day plus
        ``offsets`` days after the release date; later callers get the same
        counter, so their releases must be among the first caller's.
        Registering more cells than a stage needs gives the same counts:
        ``feed`` keeps or drops a row on its (package, date) and the
        requested dates alone, so extra requests only keep more buckets
        whole, and ``count`` resolves coverage from every row whatever was
        requested.
        """
        if self._counter is None:
            counter = StreamingDependentCounter()
            one_day = timedelta(days=1)
            for release in releases:
                name, eco, day = release.package_name, release.ecosystem, release.release_date
                counter.request(name, eco, day - one_day)
                for offset in self._offsets:
                    counter.request(name, eco, day + timedelta(days=offset))
            reader = read_dependent_edges(self._config.dependent_edges)
            counter.feed(reader)
            self._counter = counter, len(reader.violations)
        return self._counter


def _count_provider(
    counter: StreamingDependentCounter, repos: RepoIndex
) -> Callable[[str, str, object], int | None]:
    def count(package_name: str, ecosystem: str, when) -> int | None:
        try:
            return counter.count(package_name, ecosystem, when, repos)
        except DateOutOfRange:
            return None

    return count


def _release_row(release: PackageRelease) -> dict:
    # the row's keys are the dataclass's fields, in their order
    row = dict(vars(release), release_date=release.release_date.isoformat())
    if release.release_notes is None:
        del row["release_notes"]
    return row


def _release_key(release: PackageRelease) -> str:
    return (
        f"{release.ecosystem}:{release.package_name}:"
        f"{release.release_date.isoformat()}:{release.version_text}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_filter(config: PipelineConfig, corpus: Corpus | None = None) -> int:
    corpus = corpus or Corpus(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(
        config, {name: getattr(config, name) for name in CORPUS_INPUTS}, corpus
    )
    reader = read_releases(config.releases)
    releases = list(reader)
    repos, repo_violations = corpus.repos()
    counter, edge_violations = corpus.counter(releases)
    count = _count_provider(counter, repos)

    def pre_count(item: ClassifiedRelease) -> int | None:
        release = item.release
        return count(release.package_name, release.ecosystem, pre_release_date(item))

    survivors, reports = run_filter_cascade(
        releases,
        repos,
        pre_count,
        allowed=config.ecosystems,
        threshold=config.min_dependents,
        zero_split=config.zero_split,
    )
    n = _write_artifact(
        out, "filtered_releases.jsonl", provenance, (_release_row(item.release) for item in survivors)
    )
    _write_json(
        out / "filter_report.json",
        {
            "provenance": provenance,
            "schema_violations": {
                "releases": len(reader.violations),
                "repo_snapshots": repo_violations,
                "dependent_edges": edge_violations,
            },
            "stages": [report.as_dict() for report in reports],
        },
    )
    print(f"filter: {len(releases)} releases in, {n} kept -> {out / 'filtered_releases.jsonl'}")
    return EXIT_OK


def _record_row(record: ReleaseRecord) -> dict:
    return {
        "release_date": record.release_date.isoformat(),
        "ecosystem": record.ecosystem,
        "package_name": record.package_name,
        "owner": record.owner,
        "repo_name": record.repo_name,
        "version": format_version(record.version),
        "release_type": record.release_type.value,
        "series": record.series.value,
        "pre_dependents": record.pre_dependents,
        "bin": record.bin.value,
        "metrics": {
            f"{metric}@{offset}": value
            for (metric, offset), value in sorted(record.metric_values.items())
        },
    }


def _sample_row(sample: LogDiffSample) -> dict:
    # the row's keys are the dataclass's fields, in their order
    return dict(
        vars(sample),
        release_date=sample.release_date.isoformat(),
        release_type=sample.release_type.value,
        series=sample.series.value,
        bin=sample.bin.value,
    )


def cmd_metrics(config: PipelineConfig, corpus: Corpus | None = None) -> int:
    grid = LookaheadGrid(*config.grid)
    corpus = corpus or Corpus(config, offsets=(0,) + grid.offsets)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    filtered = _require(out, "filtered_releases.jsonl")
    inputs = {"filtered_releases": filtered, "repo_snapshots": config.repo_snapshots}
    provenance = _provenance(config, {**inputs, "dependent_edges": config.dependent_edges}, corpus)
    releases, classified, rel_violations = _load_survivors(filtered, config)
    repos, repo_violations = corpus.repos()
    counter, edge_violations = corpus.counter(releases)
    count = _count_provider(counter, repos)
    records, skipped = build_release_records(classified, repos, count, grid)
    n_records = _write_artifact(
        out, "release_records.jsonl", provenance, (_record_row(record) for record in records)
    )
    exclusions: dict[str, dict[str, int]] = {}

    def sample_rows() -> Iterator[dict]:
        # streamed: one grid cell's samples at a time, its tallies as it goes
        for metric in METRICS:
            for offset in grid.offsets:
                samples, tallies = log_diff_samples(records, metric, offset)
                exclusions[f"{metric}@{offset}"] = tallies
                yield from map(_sample_row, samples)

    n_samples = _write_artifact(out, "log_diff_samples.jsonl", provenance, sample_rows())
    _write_json(
        out / "metrics_report.json",
        {
            "provenance": provenance,
            "schema_violations": {
                "filtered_releases": rel_violations,
                "repo_snapshots": repo_violations,
                "dependent_edges": edge_violations,
            },
            "records": n_records,
            "skipped": skipped,
            "samples": n_samples,
            "exclusions": exclusions,
        },
    )
    print(f"metrics: {n_records} records, {n_samples} samples -> {out / 'log_diff_samples.jsonl'}")
    return EXIT_OK


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_analyze(config: PipelineConfig) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples_path = _require(out, "log_diff_samples.jsonl")
    records_path = _require(out, "release_records.jsonl")
    report_path = _require(out, "metrics_report.json")
    grid = LookaheadGrid(*config.grid)
    offset = grid.final_offset
    try:
        with open(report_path, encoding="utf-8") as handle:
            built_on = json.load(handle)["exclusions"]
        unmeasured = [o for o in grid.offsets if f"dependents@{o}" not in built_on]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{report_path} is unreadable ({exc!r}); rerun depgrowth metrics") from exc
    if unmeasured:
        raise DataError(
            f"{samples_path} was built on another look-ahead grid than "
            f"{grid.horizon_days},{grid.step_days}; rerun depgrowth metrics with the same --grid"
        )
    provenance = _provenance(config, {"log_diff_samples": samples_path, "release_records": records_path})
    # every artifact is read, and so checked, before the first write
    samples = _load_samples(samples_path)
    dependents = [s for s in samples if s.metric == "dependents"]
    demographics = list(_read_record_lines(records_path))
    ratings_path = out / "ratings.jsonl"
    ratings = list(_read_record_lines(ratings_path)) if ratings_path.exists() else None

    for strat_by, stem in (("bin", "table_bins"), ("series", "table_series")):
        summaries = summary_table(
            dependents, strat_by, offset, alpha=config.alpha, fold_zero=config.fold_zero
        )
        _write_text(out / f"{stem}.txt", provenance, format_summary_table_text(summaries))
        header, rows = summary_table_rows(summaries)
        _write_text(out / f"{stem}.csv", provenance, _csv_text(header, rows))
        bundle = heatmap_matrix(summaries)
        cell_rows: list[dict] = []
        for eco in sorted(bundle.matrices):
            matrix = bundle.matrices[eco]
            svg = render_heatmap_svg(
                [list(row) for row in matrix],
                list(bundle.row_labels),
                list(bundle.col_labels),
                (bundle.vmin, bundle.vmax),
                title=eco,
            )
            svg_path = out / f"heatmap_{stem[len('table_'):]}_{eco}.svg"
            with _replacing(svg_path) as handle:
                handle.write(f"<!-- provenance: {json.dumps(provenance, sort_keys=True)} -->\n")
                handle.write(svg)
            cell_rows += (
                {"ecosystem": eco, "stratum": stratum, "release_type": rtype, "value": value}
                for stratum, row in zip(bundle.row_labels, matrix)
                for rtype, value in zip(bundle.col_labels, row)
            )
        _write_artifact(out, f"heatmap_{stem[len('table_'):]}.jsonl", provenance, cell_rows)

    timepoint_rows = [
        {**dataclasses.asdict(dist), "strat_by": strat_by}
        for strat_by in ("bin", "series")
        for dist in timepoint_distributions(dependents, grid, strat_by=strat_by, fold_zero=config.fold_zero)
    ]
    _write_artifact(out, "timepoints.jsonl", provenance, timepoint_rows)

    _write_json(
        out / "demographics.json",
        {"provenance": provenance, "by_ecosystem": release_demographics(demographics)},
    )
    if ratings is not None:
        _write_complexity_reports(out, provenance, ratings, config)

    print(f"analyze: tables, heatmaps, timepoints -> {out}")
    return EXIT_OK


def _write_complexity_reports(
    out: Path, provenance: dict, ratings: Iterable[dict], config: PipelineConfig
) -> None:
    by_language: dict[str, list[int]] = {}
    by_language_type: dict[str, dict[str, list[int]]] = {}
    for row in ratings:
        rating = row.get("rating")
        if rating is None:
            continue
        language = row.get("language") or "unknown"
        by_language.setdefault(language, []).append(rating)
        raw_type = row.get("release_type")
        if raw_type is None:
            continue
        folded = fold_release_type(ReleaseType(raw_type), config.fold_zero)
        by_language_type.setdefault(language, {}).setdefault(folded, []).append(rating)

    descriptives = [dataclasses.asdict(d) for d in complexity_descriptives(by_language)]
    _write_json(
        out / "complexity_descriptives.json",
        {"provenance": provenance, "languages": descriptives},
    )
    try:
        result = complexity_vs_type_tests(by_language_type, fold_zero=config.fold_zero)
        tests = {
            f"{lang}:{a}:{b}": dataclasses.asdict(test)
            for (lang, a, b), test in sorted(result.tests.items())
        }
        skipped = {f"{lang}:{a}:{b}": reason for (lang, a, b), reason in sorted(result.skipped.items())}
    except DegenerateInput as exc:
        tests, skipped = {}, {"all": str(exc)}
    _write_json(
        out / "complexity_type_tests.json",
        {"provenance": provenance, "tests": tests, "skipped": skipped},
    )


class HttpModelClient:
    """Minimal JSON-over-HTTP completion client.

    POSTs ``{"model", "system", "user"}`` and expects ``{"text": ...}``
    back. The auth token, when present in the environment, rides in an
    Authorization header. Network and envelope failures surface as OSError
    so the retry policy treats them as transient; a 4xx other than 408
    (timeout) and 429 (throttled) surfaces as RequestRejected, never retried.
    """

    def __init__(self, endpoint: str, model_id: str, token: str | None = None, timeout: float = 60.0) -> None:
        self.endpoint = endpoint
        self.model_id = model_id
        self._token = token
        self._timeout = timeout

    def complete(self, system_text: str, user_text: str) -> str:
        payload = json.dumps(
            {"model": self.model_id, "system": system_text, "user": user_text}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        import http.client  # on use, so other commands skip the HTTP stack
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self.endpoint, data=payload, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                body = json.load(response)
        except urllib.error.HTTPError as exc:
            if 400 <= exc.code < 500 and exc.code not in (408, 429):
                raise RequestRejected(f"model endpoint refused the request: HTTP {exc.code}") from exc
            raise
        except http.client.HTTPException as exc:
            # IncompleteRead, BadStatusLine: a broken exchange, not an OSError
            raise OSError(f"model endpoint broke off the response: {exc!r}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise OSError(f"model endpoint returned invalid JSON: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(body.get("text"), str):
            raise OSError("model endpoint response lacks a text field")
        return body["text"]


def cmd_complexity(config: PipelineConfig, corpus: Corpus | None = None) -> int:
    corpus = corpus or Corpus(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    filtered = _require(out, "filtered_releases.jsonl")
    inputs: dict[str, str | Path] = {"filtered_releases": filtered, "repo_snapshots": config.repo_snapshots}
    if config.human_ratings:
        inputs["human_ratings"] = config.human_ratings
    provenance = _provenance(config, inputs, corpus)
    # the resume state and the human ratings are checked before any rating
    ratings_path = out / "ratings.jsonl"
    existing_rows: dict[str, dict] = {}
    if ratings_path.exists():
        existing_rows = {row["key"]: row for row in _read_record_lines(ratings_path)}
    if config.human_ratings:
        human_rows = dict(
            _checked_rows(
                Path(config.human_ratings),
                "human-ratings",
                _human_rating,
                "each row needs a key and an integer rating from 1 to 7",
            )
        )
    _, classified, _ = _load_survivors(filtered, config)
    repos, _ = corpus.repos()

    items = []
    meta: dict[str, dict] = {}
    ineligible = 0
    missing_snapshot = 0
    for item in classified:
        release = item.release
        notes = release.release_notes or ""
        if len(notes.strip()) < MIN_NOTE_CHARS:
            ineligible += 1
            continue
        snap = repos.nearest(release.owner, release.repo_name, release.release_date)
        if snap is None:
            missing_snapshot += 1
            continue
        key = _release_key(release)
        items.append((key, release, snap))
        meta[key] = {
            "language": snap.language,
            "release_type": item.release_type.value,
            "bundle": build_prompt(release, snap),
        }

    if config.model_endpoint:
        client = HttpModelClient(
            config.model_endpoint, config.model_id, token=os.environ.get(MODEL_TOKEN_ENV)
        )
    else:
        client = MockModelClient()
    ratings, failures = rate_many(
        items,
        client,
        RetryPolicy(),
        max_workers=config.workers,
        rate_per_sec=config.rate_per_sec,
        skip_keys=existing_rows.keys(),
    )

    merged = dict(existing_rows)
    for key, rating in ratings.items():
        info = meta[key]
        row = dict(
            rating_record(key, rating, info["bundle"], getattr(client, "model_id", config.model_id), config.timestamp)
        )
        row["language"] = info["language"]
        row["release_type"] = info["release_type"]
        merged[key] = row
    n = _write_artifact(out, "ratings.jsonl", provenance, (merged[k] for k in sorted(merged)))
    # totals, not per-run deltas, so a resumed run writes the same report
    _write_json(
        out / "complexity_report.json",
        {
            "provenance": provenance,
            "eligible": len(items),
            "ineligible": ineligible,
            "missing_snapshot": missing_snapshot,
            "rated": n,
            "failures": {key: message for key, message in sorted(failures.items())},
        },
    )

    if config.human_ratings:
        model_scores, human_scores = [], []
        for key in sorted(merged):
            model_rating = merged[key].get("rating")
            human_rating = human_rows.get(key)
            if model_rating is None or human_rating is None:
                continue
            model_scores.append(model_rating)
            human_scores.append(human_rating)
        try:
            stats = agreement_stats(model_scores, human_scores)
            agreement = dataclasses.asdict(stats)
        except (ValueError, DegenerateInput) as exc:
            agreement = {"error": str(exc), "n": len(model_scores)}
        _write_json(out / "agreement.json", {"provenance": provenance, **agreement})

    print(f"complexity: {n} ratings ({len(ratings)} new) -> {ratings_path}")
    return EXIT_OK


def cmd_all(config: PipelineConfig) -> int:
    # one corpus for every stage: filter's counter feed also registers the
    # cells metrics reads, for every input release (see Corpus.counter)
    corpus = Corpus(config, offsets=(0,) + LookaheadGrid(*config.grid).offsets)
    cmd_filter(config, corpus)
    cmd_metrics(config, corpus)
    cmd_complexity(config, corpus)
    del corpus  # analyze reads no corpus; free the index and counter first
    cmd_analyze(config)
    return EXIT_OK


def cmd_synth(out_dir: str, scale: str, seed: int) -> int:
    from .synth import SynthConfig, build_world, small_config, write_corpus

    if scale == "small":
        synth_config = small_config(seed=seed)
    else:
        synth_config = SynthConfig(seed=seed)
    world = build_world(synth_config)
    counts = write_corpus(world, out_dir)
    print(f"synth: {counts} -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must look like 365,90")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must be two integers") from exc


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--releases", help="release records file")
    parser.add_argument("--repo-snapshots", dest="repo_snapshots", help="repository snapshots file")
    parser.add_argument("--dependent-edges", dest="dependent_edges", help="dependent edge file")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--ecosystems", help="comma-separated ecosystem ids")
    parser.add_argument("--min-dependents", dest="min_dependents", type=int)
    parser.add_argument("--grid", type=_parse_grid, help="horizon,step e.g. 365,90")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--zero-split", dest="zero_split", choices=("patch", "folded"))
    parser.add_argument(
        "--no-fold-zero", dest="fold_zero", action="store_const", const=False, default=None
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--model-id", dest="model_id")
    parser.add_argument("--model-endpoint", dest="model_endpoint")
    parser.add_argument("--rate-per-sec", dest="rate_per_sec", type=float)
    parser.add_argument("--human-ratings", dest="human_ratings")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depgrowth", description="Release adoption and complexity pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("filter", "apply the release filter cascade"),
        ("metrics", "compute look-ahead records and log-difference samples"),
        ("analyze", "produce tables, heatmaps, and distribution artifacts"),
        ("complexity", "rate release notes with the configured model"),
        ("all", "run filter, metrics, complexity, analyze in order"),
    ):
        command = sub.add_parser(name, help=text)
        _add_pipeline_flags(command)
    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--out-dir", dest="out_dir", required=True)
    synth.add_argument("--scale", choices=("small", "full"), default="small")
    synth.add_argument("--seed", type=int, default=7)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    # every flag of _add_pipeline_flags but --config names a config key;
    # resolve_config drops the unset (None) ones
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.ecosystems is not None:
        overrides["ecosystems"] = tuple(part.strip() for part in args.ecosystems.split(",") if part.strip())
    return overrides


_COMMANDS = {
    "filter": cmd_filter,
    "metrics": cmd_metrics,
    "analyze": cmd_analyze,
    "complexity": cmd_complexity,
    "all": cmd_all,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.out_dir, args.scale, args.seed)
        config = resolve_config(args.config, _overrides_from_args(args))
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SourceUnavailable, SchemaHeaderError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Command line pipeline: filter, metrics, analyze, complexity, all, synth.

Each stage reads files, writes files, and can be re-run idempotently; later
stages consume earlier stages' outputs from the configured output directory.
``all`` writes the same artifacts but hands each stage's results to the next
in memory: filter's classified survivors to metrics and complexity, and
metrics' release records to analyze, which a standalone analyze reads from
``release_records.jsonl``; analyze never parses ``log_diff_samples.jsonl``.
Every output carries a provenance header (tool version, the config values
and input digests its chain of stages depends on, as ``STAGES`` declares
them) and no path or wall-clock value, so a rerun over identical inputs is
byte-identical wherever it runs.

Artifacts a stage reads back are checked against their schema header and
row fields, and an upstream artifact's provenance against the stage's own
config and inputs; a bad or stale one is a data error naming the stage to
rerun.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import re
import sys
from datetime import timedelta
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import __version__
from .complexity import (
    MODEL_TOKEN_ENV,
    RATINGS,
    HttpModelClient,
    MockModelClient,
    ModelClient,
    RetryPolicy,
    agreement_stats,
    build_prompt,
    eligible_for_rating,
    human_rating_row,
    rate_many,
    rating_record,
    rating_row,
)
from .config import ConfigError, PipelineConfig, file_sha256, resolve_config
from .filters import ClassifiedRelease, filter_semver, pre_release_date, run_filter_cascade
from .ingest import (
    MAX_COUNT,
    PackageRelease,
    RecordReader,
    RepoIndex,
    SchemaHeaderError,
    SourceUnavailable,
    StreamingDependentCounter,
    compact_json,
    package_release,
    parse_date,
    read_dependent_edges,
    read_releases,
    read_repo_snapshots,
    release_line,
    req_ecosystem,
    req_int,
    req_str,
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
from .semver import NUMBER, ZERO_SPLITS, ReleaseType, VersionSeries, format_version, parse_version
from .stats import DegenerateInput

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class DataError(RuntimeError):
    """Input data is missing or unusable; distinct from config mistakes."""


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """A text handle on a temp file beside ``path``, moved onto ``path`` once
    closed, so a stage that fails or is killed mid-write leaves the previous
    artifact (or none) in place, never a truncated one."""
    prefix = f".{path.name}."
    for name in os.listdir(path.parent):  # a killed writer's temp file, when its pid runs nothing
        pid = name[len(prefix) : -len(".tmp")]
        try:
            if os.name == "posix" and name == f"{prefix}{pid}.tmp" and re.fullmatch("[0-9]{1,9}", pid):
                os.kill(int(pid), 0)  # signal 0 only probes
        except ProcessLookupError:
            (path.parent / name).unlink(missing_ok=True)
        except PermissionError:
            pass  # another user's process
    tmp = path.with_name(f"{prefix}{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _out_dir(config: PipelineConfig, make: bool = True) -> Path:
    """The output directory, made when missing unless ``make`` is false (a
    stage about to read its upstream artifacts there); one that cannot be
    made (a file by that name, say) is a ConfigError."""
    out = Path(config.out_dir)
    try:
        if make or out.exists():
            out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make out_dir {config.out_dir}: {exc}") from exc
    return out


def _write_records(path: Path, schema: str, provenance: dict, lines: Iterable[str]) -> int:
    with _replacing(path) as handle:
        return write_records(handle, schema, lines, provenance)


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


def _record_lines(records: Iterable[ReleaseRecord]) -> Iterator[str]:
    """``release_records.jsonl`` rows as compact JSON lines, the metrics keys
    in ``(metric, offset)`` order. A metric name needs no JSON escape, and a
    value is an int (never a bool) or None."""
    for record in records:
        cells = ",".join(
            f'"{metric}@{offset}":{"null" if value is None else value}'
            for (metric, offset), value in sorted(record.metric_values.items())
        )
        head = compact_json(
            {
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
            }
        )
        yield f'{head[:-1]},"metrics":{{{cells}}}}}'


@functools.lru_cache(maxsize=256)
def _metric_cell(key: str) -> tuple[str, int]:
    """The ``(metric, offset)`` cell a ``release_records.jsonl`` metrics key
    names. Its offset is a semver ``NUMBER``, so no two keys name one cell
    and int() reads it under any PYTHONINTMAXSTRDIGITS."""
    metric, _, offset = key.partition("@")
    if metric not in METRICS or not NUMBER.fullmatch(offset):
        raise ValueError(f"metrics key {key!r} is not <metric>@<days>")
    return metric, int(offset)


def _release_record(row: dict) -> ReleaseRecord:
    """A ``release_records.jsonl`` row, the inverse of ``_record_lines``."""
    metrics = row.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be an object")
    values: dict[tuple[str, int], int | None] = {}
    for key, value in metrics.items():
        cell = _metric_cell(key)
        if value is not None and (type(value) is not int or not 0 <= value <= MAX_COUNT):
            value = req_int(metrics, key)  # refuses it, with the field's message
        values[cell] = value
    # the fields are checked in their order, the first bad one named
    return ReleaseRecord(
        release_date=parse_date(row.get("release_date"), "release_date"),
        ecosystem=req_ecosystem(row),
        package_name=req_str(row, "package_name"),
        owner=req_str(row, "owner"),
        repo_name=req_str(row, "repo_name"),
        version_text=format_version(parse_version(req_str(row, "version"))),
        release_type=ReleaseType(row.get("release_type")),
        series=VersionSeries(row.get("series")),
        pre_dependents=req_int(row, "pre_dependents"),
        bin=SizeBin(row.get("bin")),
        metric_values=values,
    )


class _Artifact(NamedTuple):
    stage: str  # the stage that writes it
    schema: str  # its header schema
    # gives a row as a later stage reads it
    parser: Callable[[dict], object] | None = None


# the artifacts a stage writes under a schema header
ARTIFACTS = {
    "filtered_releases.jsonl": _Artifact("filter", "releases", package_release),
    "release_records.jsonl": _Artifact("metrics", "release-records", _release_record),
    "log_diff_samples.jsonl": _Artifact("metrics", "log-diff-samples"),
    "ratings.jsonl": _Artifact("complexity", "complexity-ratings", rating_row),
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


def _read_record_lines(path: Path) -> Iterator:
    """The rows of the artifact at ``path``, checked as its table entry says."""
    stage, schema, parser = ARTIFACTS[path.name]
    if not path.exists():
        raise DataError(f"{path} does not exist; run the {stage} stage first (depgrowth {stage})")
    return _checked_rows(path, schema, parser, f"remove it and rerun depgrowth {stage}")


_load_samples = _read_record_lines  # perfbench/tracer.py wraps it; remove with ROADMAP item 1


def _write_artifact(out: Path, name: str, provenance: dict, lines: Iterable[str]) -> int:
    return _write_records(out / name, ARTIFACTS[name].schema, provenance, lines)


# ---------------------------------------------------------------------------
# provenance: what each stage reads, parses and depends on
# ---------------------------------------------------------------------------


class _Stage(NamedTuple):
    reads: tuple[str, ...]  # the config keys naming the input files it reads
    parses: tuple[str, ...]  # the upstream artifacts it parses, when present
    keys: tuple[str, ...]  # the config keys its rows depend on


CORPUS_INPUTS = ("releases", "repo_snapshots", "dependent_edges")

STAGES = {
    "filter": _Stage(CORPUS_INPUTS, (), ("ecosystems", "min_dependents", "zero_split")),
    "metrics": _Stage(("repo_snapshots", "dependent_edges"), ("filtered_releases.jsonl",), ("grid",)),
    "complexity": _Stage(("repo_snapshots", "human_ratings"), ("filtered_releases.jsonl",), ("model_id",)),
    "analyze": _Stage((), ("release_records.jsonl", "ratings.jsonl"), ("alpha", "fold_zero")),
}


def _chain_keys(stage: str) -> list[str]:
    """The config keys of ``stage`` and of every stage upstream of it."""
    keys = set(STAGES[stage].keys)
    for name in STAGES[stage].parses:
        keys.update(_chain_keys(ARTIFACTS[name].stage))
    return sorted(keys)


def _keys(config: PipelineConfig, stage: str) -> dict:
    """The values of the config keys of ``stage``'s chain, as JSON reads them back."""
    return json.loads(json.dumps({key: getattr(config, key) for key in _chain_keys(stage)}))


def _header_provenance(path: Path, remedy: str) -> tuple[dict, dict]:
    """The ``keys`` and ``inputs`` of the provenance in ``path``'s header."""
    try:
        with open(path, encoding="utf-8") as handle:
            built = json.loads(handle.readline())["provenance"]
        return dict(built["keys"]), dict(built["inputs"])
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        raise DataError(f"{path} has no provenance keys and inputs; {remedy}") from None


def _check_keys(path: Path, built: Mapping, keys: Mapping, remedy: str) -> None:
    """A DataError ending with ``remedy`` unless ``built`` holds each value of ``keys``."""
    for key, value in keys.items():
        if built.get(key) != value:
            raise DataError(
                f"{path} was built with {key} {json.dumps(built.get(key))}, not {json.dumps(value)}; {remedy}"
            )


def _provenance(config: PipelineConfig, stage: str, corpus: Corpus) -> dict:
    """``stage``'s provenance: the tool version, the values of its chain's
    config keys and the digests of its chain's input files.

    The digests of files the stage does not read come from the header of each
    upstream artifact present, checked first: a key value other than
    ``config``'s, or a digest other than that of a file the stage reads (or
    that an earlier upstream recorded), is a DataError naming the stage to
    rerun. A stage run on its own has read its upstream rows by then.
    """
    keys = _keys(config, stage)
    inputs = {name: corpus.digest(name) for name in STAGES[stage].reads if getattr(config, name)}
    for name in STAGES[stage].parses:
        path = Path(config.out_dir) / name
        if not path.exists():
            continue
        upstream = ARTIFACTS[name].stage
        remedy = f"rerun depgrowth {upstream}"
        built_keys, built_inputs = _header_provenance(path, remedy)
        _check_keys(path, built_keys, {key: keys[key] for key in _chain_keys(upstream)}, remedy)
        for input_name, digest in built_inputs.items():
            if inputs.setdefault(input_name, digest) != digest:
                raise DataError(f"{path} was built from another {input_name}; {remedy}")
    return {"tool_version": __version__, "keys": keys, "inputs": dict(sorted(inputs.items()))}


def _check_resume(path: Path, keys: Mapping, inputs: Mapping[str, str]) -> None:
    """A DataError unless complexity's resume state at ``path`` was built
    under ``keys`` and from ``inputs``. ``human_ratings`` is left out: no
    rating depends on it, and each run recomputes the agreement from it."""
    remedy = "remove it to rate afresh"
    built_keys, built_inputs = _header_provenance(path, remedy)
    _check_keys(path, built_keys, keys, remedy)
    for name in sorted((inputs.keys() | built_inputs.keys()) - {"human_ratings"}):
        if built_inputs.get(name) != inputs.get(name):
            raise DataError(f"{path} was built from another {name}; {remedy}")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


# the filter stage's survivors, classified
Survivors = Sequence[ClassifiedRelease]


def _load_survivors(path: Path, config: PipelineConfig) -> Survivors:
    """The filter stage's survivors, read back and classified again."""
    classified, report = filter_semver(_read_record_lines(path), zero_split=config.zero_split)
    if report.reasons:
        raise DataError(
            f"{path} contains rows that no longer parse as semver: {dict(report.reasons)}"
        )
    return classified


class Corpus:
    """The input files of one command, each hashed and parsed at most once.

    ``all`` builds one and hands it to every stage; a standalone stage builds
    its own. :meth:`counter` feeds the edge file to a counter over an empty
    index before the snapshot file fills that index, so the edge reader's
    peak never sits on a finished index; ``complexity`` builds the index alone.
    The index keeps only the repositories the command can look up (see
    :meth:`repos`).
    """

    def __init__(self, config: PipelineConfig, offsets: Sequence[int] = ()) -> None:
        self._config = config
        self._offsets = tuple(offsets)
        self._digests: dict[str, str] = {}
        self._index = RepoIndex()
        self._repo_violations: int | None = None  # None until the snapshots are read
        self._counter: tuple[StreamingDependentCounter, int] | None = None

    def digest(self, name: str) -> str:
        """The sha256 of the input file that config key ``name`` names."""
        if name not in self._digests:
            path = getattr(self._config, name)
            try:
                self._digests[name] = file_sha256(path)
            except OSError as exc:
                raise DataError(f"cannot read input {name} at {path}: {exc}") from exc
        return self._digests[name]

    def repos(self, releases: Iterable[PackageRelease]) -> tuple[RepoIndex, int]:
        """Repo index over the snapshot rows of the repositories the command
        can look up, and the violation count of every snapshot row.

        The first caller's releases decide them: each release's repository,
        and each dependent the counter interned when it was fed first. Later
        callers get the same index, so their releases must be among the
        first caller's; a lookup of another repository raises KeyError.
        """
        if self._repo_violations is None:
            keep = {(release.owner, release.repo_name) for release in releases}
            if self._counter is not None:
                keep.update(self._counter[0].dependents())
            reader = read_repo_snapshots(self._config.repo_snapshots)
            self._index.extend(reader, keep)
            self._repo_violations = len(reader.violations)
        return self._index, self._repo_violations

    def counter(self, releases: Sequence[PackageRelease]) -> tuple[StreamingDependentCounter, int]:
        """Dependent counter over :meth:`repos`'s index, fed once from the
        edge file before that index is filled, and the edge violation count.

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
            counter = StreamingDependentCounter(self._index)
            for release in releases:
                name, eco, day = release.package_name, release.ecosystem, release.release_date
                counter.request(name, eco, pre_release_date(release))
                for offset in self._offsets:
                    counter.request(name, eco, day + timedelta(days=offset))
            reader = read_dependent_edges(self._config.dependent_edges)
            counter.feed(reader)
            self._counter = counter, len(reader.violations)
            self.repos(releases)
        return self._counter


def _release_key(release: PackageRelease) -> str:
    return (
        f"{release.ecosystem}:{release.package_name}:"
        f"{release.release_date.isoformat()}:{release.version_text}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_filter(config: PipelineConfig, corpus: Corpus | None = None) -> Survivors:
    corpus = corpus or Corpus(config)
    out = _out_dir(config)
    provenance = _provenance(config, "filter", corpus)
    reader = read_releases(config.releases)
    releases = list(reader)
    counter, edge_violations = corpus.counter(releases)
    repos, repo_violations = corpus.repos(releases)
    survivors, reports = run_filter_cascade(
        releases,
        repos,
        counter.count,
        allowed=config.ecosystems,
        threshold=config.min_dependents,
        zero_split=config.zero_split,
    )
    n = _write_artifact(
        out, "filtered_releases.jsonl", provenance, (release_line(item.release) for item in survivors)
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
    return survivors


def _sample_lines(records: Sequence[ReleaseRecord], grid: LookaheadGrid, exclusions: dict) -> Iterator[str]:
    """``log_diff_samples.jsonl`` rows as compact JSON lines, a grid cell at a
    time, each cell's exclusion tallies put in ``exclusions``. A row joins its
    record's prefix (the seven fields its samples share, encoded once), its
    cell's text and ``repr`` of the value, the JSON text of a finite float."""
    prefixes: dict[tuple, str] = {}
    for metric in METRICS:
        for offset in grid.offsets:
            samples, tallies = log_diff_samples(records, metric, offset)
            exclusions[f"{metric}@{offset}"] = tallies
            cell = compact_json({"metric": metric, "offset_days": offset})[1:-1] + ',"value":'
            for sample in samples:
                shared = sample[:7]
                prefix = prefixes.get(shared)
                if prefix is None:
                    fields = (*shared[:2], shared[2].isoformat(), shared[3], *(field.value for field in shared[4:]))
                    prefix = prefixes[shared] = compact_json(dict(zip(LogDiffSample._fields, fields)))[:-1] + ","
                yield prefix + cell + repr(sample.value) + "}"


def cmd_metrics(
    config: PipelineConfig, corpus: Corpus | None = None, survivors: Survivors | None = None
) -> list[ReleaseRecord]:
    grid = LookaheadGrid(*config.grid)
    corpus = corpus or Corpus(config, offsets=(0,) + grid.offsets)
    out = _out_dir(config, make=survivors is not None)
    if survivors is None:
        survivors = _load_survivors(out / "filtered_releases.jsonl", config)
    provenance = _provenance(config, "metrics", corpus)
    releases = [item.release for item in survivors]
    counter, edge_violations = corpus.counter(releases)
    repos, repo_violations = corpus.repos(releases)
    records, skipped = build_release_records(survivors, repos, counter.count, grid)
    n_records = _write_artifact(out, "release_records.jsonl", provenance, _record_lines(records))
    exclusions: dict[str, dict[str, int]] = {}
    n_samples = _write_artifact(
        out, "log_diff_samples.jsonl", provenance, _sample_lines(records, grid, exclusions)
    )
    _write_json(
        out / "metrics_report.json",
        {
            "provenance": provenance,
            "schema_violations": {
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
    return records


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_analyze(config: PipelineConfig, records: Sequence[ReleaseRecord] | None = None) -> None:
    out = _out_dir(config, make=records is not None)
    grid = LookaheadGrid(*config.grid)
    offset = grid.final_offset
    # every artifact is read, and so checked, before the first write
    if records is None:
        records = list(_read_record_lines(out / "release_records.jsonl"))
    ratings_path = out / "ratings.jsonl"
    ratings = list(_read_record_lines(ratings_path)) if ratings_path.exists() else None
    provenance = _provenance(config, "analyze", Corpus(config))
    dependents = [s for o in grid.offsets for s in log_diff_samples(records, "dependents", o)[0]]
    demographics = [(record.ecosystem, record.release_type) for record in records]

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
            svg = render_heatmap_svg(bundle, eco)
            svg_path = out / f"heatmap_{stem[len('table_'):]}_{eco}.svg"
            with _replacing(svg_path) as handle:
                handle.write(f"<!-- provenance: {json.dumps(provenance, sort_keys=True)} -->\n")
                handle.write(svg)
            cell_rows += (
                {"ecosystem": eco, "stratum": stratum, "release_type": rtype, "value": value}
                for stratum, row in zip(bundle.row_labels, bundle.matrices[eco])
                for rtype, value in zip(bundle.col_labels, row)
            )
        _write_artifact(out, f"heatmap_{stem[len('table_'):]}.jsonl", provenance, map(compact_json, cell_rows))

    timepoint_rows = [
        {**dist._asdict(), "strat_by": strat_by}
        for strat_by in ("bin", "series")
        for dist in timepoint_distributions(dependents, grid, strat_by=strat_by, fold_zero=config.fold_zero)
    ]
    _write_artifact(out, "timepoints.jsonl", provenance, map(compact_json, timepoint_rows))

    _write_json(
        out / "demographics.json",
        {"provenance": provenance, "by_ecosystem": release_demographics(demographics)},
    )
    if ratings is not None:
        _write_complexity_reports(out, provenance, ratings, config)

    print(f"analyze: tables, heatmaps, timepoints -> {out}")


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

    descriptives = [d._asdict() for d in complexity_descriptives(by_language)]
    _write_json(
        out / "complexity_descriptives.json",
        {"provenance": provenance, "languages": descriptives},
    )
    result = complexity_vs_type_tests(by_language_type, fold_zero=config.fold_zero)
    tests = {
        f"{lang}:{a}:{b}": test._asdict()
        for (lang, a, b), test in sorted(result.tests.items())
    }
    skipped = {f"{lang}:{a}:{b}": reason for (lang, a, b), reason in sorted(result.skipped.items())}
    _write_json(
        out / "complexity_type_tests.json",
        {"provenance": provenance, "tests": tests, "skipped": skipped},
    )


def _model_client(config: PipelineConfig) -> ModelClient:
    """The client that rates; without an endpoint the mock rates, so a
    model_id other than the mock's is a ConfigError, not a false stamp."""
    if config.model_endpoint:
        return HttpModelClient(config.model_endpoint, config.model_id, token=os.environ.get(MODEL_TOKEN_ENV))
    if config.model_id != MockModelClient.model_id:
        raise ConfigError(
            f"model_id {config.model_id!r} needs a model endpoint; without one the mock rates as "
            f"{MockModelClient.model_id!r}"
        )
    return MockModelClient()


def cmd_complexity(
    config: PipelineConfig,
    corpus: Corpus | None = None,
    survivors: Survivors | None = None,
    client: ModelClient | None = None,
) -> None:
    client = client or _model_client(config)  # a bad token is refused before any read or write
    corpus = corpus or Corpus(config)
    out = _out_dir(config, make=survivors is not None)
    # the resume state and the human ratings are checked before any rating
    ratings_path = out / "ratings.jsonl"
    existing_rows: dict[str, dict] = {}
    if ratings_path.exists():
        existing_rows = {row["key"]: row for row in _read_record_lines(ratings_path)}
    if config.human_ratings:
        remedy = f"each row needs a key and an integer rating from {RATINGS[0]} to {RATINGS[-1]}"
        human_rows = dict(_checked_rows(Path(config.human_ratings), "human-ratings", human_rating_row, remedy))
    if survivors is None:
        survivors = _load_survivors(out / "filtered_releases.jsonl", config)
    provenance = _provenance(config, "complexity", corpus)
    if ratings_path.exists():
        _check_resume(ratings_path, provenance["keys"], provenance["inputs"])
    repos, _ = corpus.repos(item.release for item in survivors if eligible_for_rating(item.release))

    items = []
    meta: dict[str, tuple] = {}  # key -> the prompt, repository language and release type it rates
    ineligible = 0
    missing_snapshot = 0
    for item in survivors:
        release = item.release
        if not eligible_for_rating(release):
            ineligible += 1
            continue
        snap = repos.nearest(release.owner, release.repo_name, release.release_date)
        if snap is None:
            missing_snapshot += 1
            continue
        key = _release_key(release)
        bundle = build_prompt(release, snap)
        items.append((key, release, bundle))
        meta[key] = bundle, snap.language, item.release_type

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
        merged[key] = rating_record(key, rating, client.model_id, *meta[key])
    n = _write_artifact(out, "ratings.jsonl", provenance, (compact_json(merged[k]) for k in sorted(merged)))
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
            agreement = stats._asdict()
        except (ValueError, DegenerateInput) as exc:
            agreement = {"error": str(exc), "n": len(model_scores)}
        _write_json(out / "agreement.json", {"provenance": provenance, **agreement})

    print(f"complexity: {n} ratings ({len(ratings)} new) -> {ratings_path}")


def cmd_all(config: PipelineConfig) -> None:
    client = _model_client(config)
    # one corpus for every stage: filter's counter feed also registers the
    # cells metrics reads, for every input release (see Corpus.counter)
    corpus = Corpus(config, offsets=(0,) + LookaheadGrid(*config.grid).offsets)
    # a stale resume state is refused before filter and metrics write
    ratings_path = Path(config.out_dir) / "ratings.jsonl"
    if ratings_path.exists():
        inputs = {name: corpus.digest(name) for name in CORPUS_INPUTS if getattr(config, name)}
        _check_resume(ratings_path, _keys(config, "complexity"), inputs)
    survivors = cmd_filter(config, corpus)
    records = cmd_metrics(config, corpus, survivors)
    cmd_complexity(config, corpus, survivors, client)
    del corpus, survivors  # analyze needs only the records; free the rest first
    cmd_analyze(config, records)


def cmd_synth(out_dir: str, scale: str, seed: int) -> int:
    from .synth import SynthConfig, build_world, small_config, write_corpus

    synth_config = small_config(seed=seed) if scale == "small" else SynthConfig(seed=seed)
    counts = write_corpus(build_world(synth_config), out_dir)
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
    parser.add_argument("--zero-split", dest="zero_split", choices=ZERO_SPLITS)
    parser.add_argument(
        "--no-fold-zero", dest="fold_zero", action="store_const", const=False, default=None
    )
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
        _COMMANDS[args.command](config)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SourceUnavailable, SchemaHeaderError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

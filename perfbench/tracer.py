"""Layer spans and counts for one in-process ``depgrowth`` run.

Run as ``python3 perfbench/tracer.py --out trace.json -- <depgrowth args>``
with ``src`` on PYTHONPATH. It wraps, from outside the package, the names
``depgrowth.cli`` calls into each layer, runs ``depgrowth.cli.main`` and
writes every span (name, start, end, parent) and count to ``--out`` when
the run ends. ``layer_metrics`` turns that file into the per-layer metrics.

Calls made millions of times are counted on every call but timed at a
coarser boundary: reader rows are parsed in batches of ``BATCH_ROWS`` under
one span, so the consumer's time (``RepoIndex.add``, the edge feed) is the
reader span's self time; ``RepoIndex.quality_ok`` is timed on every
``SAMPLE_EVERY``-th call and scaled to all calls.
"""

from __future__ import annotations

import argparse
import builtins
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

BATCH_ROWS = 4096
SAMPLE_EVERY = 16


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.prompts: set[str] = set()
        # RepoIndex.quality_ok: calls, timed calls, timed seconds
        self.quality_ok_samples = [0, 0, 0.0]
        # parent for spans opened on threads with no open span of their own
        self.thread_parent: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.thread_parent
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent])
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        stack = self._stack()
        # generators can close out of order; drop exactly this span
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == sid:
                del stack[i]
                break

    def inside(self, name: str) -> bool:
        return any(self.spans[sid][0] == name for sid in self._stack())

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _batched(tracer: Tracer, rows, batch_span: str, count_key: str | None):
    while True:
        sid = tracer.begin(batch_span)
        batch = list(itertools.islice(rows, BATCH_ROWS))
        tracer.end(sid)
        if not batch:
            return
        if count_key:
            tracer.counts[count_key] += len(batch)
        yield from batch


class _CountedReader:
    """Wraps an ingest ``RecordReader``: rows counted, parsing timed per batch."""

    def __init__(self, tracer: Tracer, reader, kind: str) -> None:
        self._tracer = tracer
        self._reader = reader
        self._kind = kind

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def __iter__(self):
        tracer, kind = self._tracer, self._kind
        sid = tracer.begin(f"ingest.{kind}_read")
        try:
            yield from _batched(tracer, iter(self._reader), f"ingest.{kind}_parse", f"ingest.{kind}_rows_parsed")
        finally:
            tracer.end(sid)
            tracer.counts["ingest.schema_violations"] += len(self._reader.violations)


class _WriteProxy:
    """A file the CLI opened for writing: times writes made outside its helpers."""

    def __init__(self, tracer: Tracer, handle, path) -> None:
        self._tracer = tracer
        self._handle = handle
        self._path = path

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _timed(self, fn, *args):
        if self._tracer.inside("cli.artifact_write"):
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._tracer.add("cli.direct_write_s", perf_counter() - start)

    def write(self, text):
        return self._timed(self._handle.write, text)

    def close(self) -> None:
        if self._handle.closed:
            return
        self._timed(self._handle.close)
        self._tracer.add("cli.artifact_bytes", os.path.getsize(self._path))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points ``depgrowth.cli`` reaches."""
    from depgrowth import cli, complexity, filters, ingest, report

    def reader(kind, fn):
        @functools.wraps(fn)
        def wrapper(source):
            return _CountedReader(tracer, fn(source), kind)

        return wrapper

    cli.read_repo_snapshots = reader("snapshot", cli.read_repo_snapshots)
    cli.read_dependent_edges = reader("edge", cli.read_dependent_edges)
    cli.read_releases = reader("release", cli.read_releases)

    index = ingest.RepoIndex
    index.nearest = _spanned(tracer, "ingest.nearest", index.nearest)
    quality_ok = index.quality_ok
    sampled = tracer.quality_ok_samples

    @functools.wraps(quality_ok)
    def quality_ok_counted(self, owner, name, when):
        sampled[0] += 1
        if sampled[0] % SAMPLE_EVERY:
            return quality_ok(self, owner, name, when)
        start = perf_counter()
        try:
            return quality_ok(self, owner, name, when)
        finally:
            sampled[1] += 1
            sampled[2] += perf_counter() - start

    index.quality_ok = quality_ok_counted
    counter = ingest.StreamingDependentCounter
    counter.count = _spanned(tracer, "ingest.count", counter.count)
    counter.feed = _spanned(tracer, "ingest.edge_feed", counter.feed)

    filters.parse_version = _spanned(tracer, "semver.parse", filters.parse_version)

    def survivors(result, _args):
        tracer.counts["filters.survivors"] += len(result[0])

    cli.run_filter_cascade = _spanned(tracer, "filters.cascade", cli.run_filter_cascade, survivors)

    def records(result, _args):
        tracer.counts["metrics.records"] += len(result[0])

    def samples(result, _args):
        tracer.counts["metrics.samples"] += len(result[0])

    cli.build_release_records = _spanned(tracer, "metrics.records", cli.build_release_records, records)
    cli.log_diff_samples = _spanned(tracer, "metrics.samples", cli.log_diff_samples, samples)

    for name in ("mean", "pairwise_welch", "sample_variance", "welch_t_test"):
        setattr(report, name, _spanned(tracer, "stats", getattr(report, name)))
    for span, names in (
        (
            "report.summary",
            (
                "summary_table",
                "format_summary_table_text",
                "summary_table_rows",
                "release_demographics",
                "complexity_descriptives",
                "complexity_vs_type_tests",
            ),
        ),
        ("report.timepoints", ("timepoint_distributions",)),
        ("report.svg", ("heatmap_matrix", "render_heatmap_svg")),
    ):
        for name in names:
            setattr(cli, name, _spanned(tracer, span, getattr(cli, name)))

    cli.build_prompt = _spanned(tracer, "complexity.prompt", cli.build_prompt)
    rate_many = cli.rate_many

    @functools.wraps(rate_many)
    def rate_many_traced(*args, **kwargs):
        sid = tracer.begin("complexity.rate")
        tracer.thread_parent = sid
        try:
            result = rate_many(*args, **kwargs)
        finally:
            tracer.thread_parent = None
            tracer.end(sid)
        tracer.counts["complexity.ratings"] += len(result[0])
        return result

    cli.rate_many = rate_many_traced

    def request(cls):
        complete = cls.complete

        @functools.wraps(complete)
        def complete_traced(self, system_text, user_text):
            digest = hashlib.sha256(user_text.encode("utf-8")).hexdigest()
            with tracer._lock:
                tracer.prompts.add(digest)
            sid = tracer.begin("complexity.request")
            try:
                return complete(self, system_text, user_text)
            finally:
                tracer.end(sid)

        cls.complete = complete_traced

    request(cli.HttpModelClient)
    request(complexity.MockModelClient)

    def hashed(_result, args):
        tracer.counts["config.hash_bytes"] += os.path.getsize(args[0])

    cli.file_sha256 = _spanned(tracer, "config.hash", cli.file_sha256, hashed)

    for stage in ("filter", "metrics", "complexity", "analyze"):
        wrapped = _spanned(tracer, f"cli.stage.{stage}", getattr(cli, f"cmd_{stage}"))
        setattr(cli, f"cmd_{stage}", wrapped)
        cli._COMMANDS[stage] = wrapped
    for name in ("_write_records", "_write_json", "_write_text"):
        setattr(cli, name, _spanned(tracer, "cli.artifact_write", getattr(cli, name)))
    cli._load_samples = _spanned(tracer, "cli.artifact_read", cli._load_samples)
    read_lines = cli._read_record_lines

    @functools.wraps(read_lines)
    def read_lines_traced(path):
        return _batched(tracer, iter(read_lines(path)), "cli.artifact_read", None)

    cli._read_record_lines = read_lines_traced

    def traced_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if "w" in mode or "a" in mode:
            return _WriteProxy(tracer, handle, file)
        return handle

    cli.open = traced_open


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(sid)
    out = []
    for sid, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(sid, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def outermost_total(spans: list[list], name: str) -> float:
    """Summed duration of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))]


def layer_metrics(trace: dict, stub_arrivals: list | None = None) -> dict[str, float]:
    """Per-layer numbers from a trace file's spans and counts."""
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_by: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for sid, span in enumerate(spans):
        calls[span[0]] += 1
        self_by[span[0]] += selfs[sid]
        durations[span[0]].append(span[2] - span[1])

    def incl(name: str) -> float:
        return outermost_total(spans, name)

    qcalls, qtimed, qseconds = trace["quality_ok"]
    request_ms = [1000.0 * d for d in durations["complexity.request"]]
    if stub_arrivals is not None:
        requests = len(stub_arrivals)
        retries = requests - len({digest for _t, digest, _status in stub_arrivals})
    else:
        requests = calls["complexity.request"]
        retries = requests - trace["distinct_prompts"]
    ratings = counts["complexity.ratings"]
    return {
        "ingest.snapshot_rows_parsed": counts["ingest.snapshot_rows_parsed"],
        "ingest.edge_rows_parsed": counts["ingest.edge_rows_parsed"],
        "ingest.release_rows_parsed": counts["ingest.release_rows_parsed"],
        "ingest.snapshot_parse_s": incl("ingest.snapshot_parse"),
        "ingest.edge_parse_s": incl("ingest.edge_parse"),
        "ingest.schema_violations": counts["ingest.schema_violations"],
        "ingest.repo_index_add_s": self_by["ingest.snapshot_read"],
        "ingest.edge_feed_s": self_by["ingest.edge_feed"] + self_by["ingest.edge_read"],
        "ingest.count_calls": calls["ingest.count"],
        "ingest.count_s": incl("ingest.count"),
        "ingest.quality_ok_calls": qcalls,
        "ingest.quality_ok_s": qseconds * qcalls / qtimed if qtimed else 0.0,
        "ingest.nearest_calls": calls["ingest.nearest"],
        "ingest.nearest_s": incl("ingest.nearest"),
        "semver.parse_calls": calls["semver.parse"],
        "semver.parse_s": incl("semver.parse"),
        "filters.cascade_s": self_by["filters.cascade"],
        "filters.survivors": counts["filters.survivors"],
        "metrics.records_s": self_by["metrics.records"],
        "metrics.records": counts["metrics.records"],
        "metrics.samples_s": self_by["metrics.samples"],
        "metrics.samples": counts["metrics.samples"],
        "stats.calls": calls["stats"],
        "stats.s": incl("stats"),
        "report.summary_s": self_by["report.summary"],
        "report.timepoints_s": self_by["report.timepoints"],
        "report.svg_s": self_by["report.svg"],
        "complexity.prompts": calls["complexity.prompt"],
        "complexity.prompt_s": incl("complexity.prompt"),
        "complexity.requests": requests,
        "complexity.retries": retries,
        "complexity.useful_ratio": ratings / requests if requests else 0.0,
        "complexity.request_ms.p50": _quantile(request_ms, 0.50),
        "complexity.request_ms.p99": _quantile(request_ms, 0.99),
        "complexity.rate_s": incl("complexity.rate"),
        "config.hash_bytes": counts["config.hash_bytes"],
        "config.hash_s": incl("config.hash"),
        "cli.stage_s.filter": incl("cli.stage.filter"),
        "cli.stage_s.metrics": incl("cli.stage.metrics"),
        "cli.stage_s.complexity": incl("cli.stage.complexity"),
        "cli.stage_s.analyze": incl("cli.stage.analyze"),
        "cli.artifact_write_s": incl("cli.artifact_write") + counts["cli.direct_write_s"],
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
        "cli.artifact_read_s": incl("cli.artifact_read"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="trace file to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the depgrowth arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    install(tracer)
    from depgrowth import cli

    code = cli.main(cli_args)
    open_spans = [span[0] for span in tracer.spans if span[2] is None]
    if open_spans:
        print(f"tracer: spans left open: {sorted(set(open_spans))}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "exit_code": code,
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
                "quality_ok": tracer.quality_ok_samples,
                "distinct_prompts": len(tracer.prompts),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The pipeline against the naive oracle over reshaped copies of one world.

The small synthetic world comes in one shape: snapshots repository by
repository with a row for every day, edges package by package, most row
bodies repeating an earlier one, and no malformed line. This module builds
the seed 3 world and rewrites its snapshot and edge files into other shapes:
shuffled rows, repository-major order by name, dropped days with gaps past
the 7-day join window, late same-day re-crawls that change a repository's
counts or fork flag, exact re-crawls days late, duplicated and dropped edges,
bodies that never repeat, malformed lines, CRLF line ends and no final
newline. For each shape it runs the CLI's ``all`` and
``naive_pipeline.run_pipeline`` over the valid rows, and compares every
filter stage report, the survivors, each record and every log-difference
sample. For three of the shapes it also runs the four stages
one by one, each of which indexes only the repositories it can look up, and
compares every file with what ``all`` wrote.
"""

import json
import random
from datetime import date

import pytest

from depgrowth import cli
from depgrowth.synth import build_world, small_config, write_corpus

from oracles import naive_pipeline

GRID = "180,45"
OFFSETS = (45, 90, 135, 180)
SNAPSHOTS, RELEASES, EDGES = "repo_snapshots", "releases", "dependent_edges"
# the shapes whose stages are also run one by one
STAGED = ("shuffled", "malformed_lines", "bodies_never_repeat")


def _rows(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        return header, [json.loads(line) for line in handle]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The path, header and parsed rows of each corpus file of small seed 3."""
    path = tmp_path_factory.mktemp("world")
    write_corpus(build_world(small_config(seed=3)), path)
    return {name: (path / f"{name}.jsonl", *_rows(path / f"{name}.jsonl")) for name in (SNAPSHOTS, RELEASES, EDGES)}


# ---------------------------------------------------------------------------
# shapes: each takes the snapshot and edge rows and a seeded Random, and
# returns the rows to write, all of them valid
# ---------------------------------------------------------------------------


def _repo(row):
    return row["owner"], row["name"]


def _ordinal(row):
    return date.fromisoformat(row["snapshot_date"]).toordinal()


def shuffled(snapshots, edges, rng):
    snapshots, edges = snapshots[:], edges[:]
    rng.shuffle(snapshots)
    rng.shuffle(edges)
    return snapshots, edges


def repository_major(snapshots, edges, rng):
    # repositories in name order, not the writer's; edges by dependent repository
    snapshots = sorted(snapshots, key=_repo)
    edges = sorted(edges, key=lambda row: (row["dependent_owner"], row["dependent_repo"]))
    return snapshots, edges


# lengths of the runs of days a repository's timeline loses: shorter than,
# equal to and longer than the join window
_GAP_LENGTHS = (1, 2, 5, 6, 7, 8, 9, 12, 30)


def dropped_days(snapshots, edges, rng):
    days = sorted({_ordinal(row) for row in snapshots})
    lost = {}  # repository -> ordinals it has no row for
    for repo in dict.fromkeys(map(_repo, snapshots)):
        gone = lost[repo] = set()
        for _ in range(rng.randint(2, 6)):
            start = rng.choice(days)
            gone.update(range(start, start + rng.choice(_GAP_LENGTHS)))
    snapshots = [row for row in snapshots if _ordinal(row) not in lost[_repo(row)]]
    # every third day of edge coverage goes, the two of a close pair with it
    coverage = sorted({_ordinal(row) for row in edges})
    gone = {day for i, day in enumerate(coverage) if i % 3 == 1}
    gone |= {day + 1 for day in gone} | {day - 1 for day in gone}
    return snapshots, [row for row in edges if _ordinal(row) not in gone]


def _recrawl(row, rng):
    """``row`` crawled again on its day, with its stars, forks or fork flag changed."""
    field = rng.choice(("stars", "forks", "is_fork", "stars"))
    if field == "is_fork":
        return {**row, "is_fork": not row["is_fork"]}
    return {**row, field: rng.choice((0, row[field] + 1 + rng.randrange(50)))}


def recrawls(snapshots, edges, rng):
    """Re-crawls of one row in twenty: half right after the row they
    follow, half at the end of the file; the file's last row for a day wins."""
    out, late = [], []
    for row in snapshots:
        out.append(row)
        if rng.random() < 0.05:
            (out if rng.random() < 0.5 else late).append(_recrawl(row, rng))
    rng.shuffle(late)
    return out + late, edges


def _repeated_late(rows, rng):
    """``rows`` date-major, with an exact copy of one row in twenty after
    the rows of the date 1 to 5 dates on, as a daily dump re-crawls them."""
    by_day = {}
    for row in rows:
        by_day.setdefault(row["snapshot_date"], []).append(row)
    days = sorted(by_day)
    out, late = [], {}
    for i, day in enumerate(days):
        for row in by_day[day]:
            out.append(row)
            if rng.random() < 0.05:
                late.setdefault(min(i + rng.randint(1, 5), len(days)), []).append(row)
        out.extend(late.pop(i, ()))
    return out + late.pop(len(days), [])


def late_repeats(snapshots, edges, rng):
    return _repeated_late(snapshots, rng), _repeated_late(edges, rng)


def edges_duplicated_and_dropped(snapshots, edges, rng):
    """One edge in ten dropped and one in seven copied: half the copies right
    after their edge, half at the end of the file."""
    out, late = [], []
    for row in edges:
        draw = rng.random()
        if draw < 0.1:
            continue
        out.append(row)
        if draw > 6 / 7:
            (out if rng.random() < 0.5 else late).append(row)
    rng.shuffle(late)
    return snapshots, out + late


def bodies_never_repeat(snapshots, edges, rng):
    snapshots = [{**row, "crawl_id": i} for i, row in enumerate(snapshots, 2)]
    edges = [{**row, "crawl_id": i} for i, row in enumerate(edges, 2)]
    return snapshots, edges


def malformed_lines(snapshots, edges, rng):
    return snapshots, edges  # the lines are injected as the files are written


def crlf_line_ends(snapshots, edges, rng):
    return snapshots, edges  # every line ends in CRLF as the files are written


def no_final_newline(snapshots, edges, rng):
    return snapshots, edges  # the files are written without their last "\n"


SHAPES = {
    shape.__name__: shape
    for shape in (
        shuffled,
        repository_major,
        dropped_days,
        recrawls,
        late_repeats,
        edges_duplicated_and_dropped,
        bodies_never_repeat,
        malformed_lines,
        crlf_line_ends,
        no_final_newline,
    )
}


def _line(row):
    return json.dumps(row, ensure_ascii=False, separators=(",", ":"))


def _broken(row):
    """Lines the reader refuses, each as one schema violation; some share a
    valid row's body so the body memo sees them."""
    line = _line(row)
    body = line[line.index(",") :]
    field = next(key for key in row if key != "snapshot_date")
    return [
        "not json",
        "{",
        "[]",
        "{}",
        '{"snapshot_date":"2023-02-30"' + body,
        '{"snapshot_date":"2023-1-05"' + body,
        _line({**row, field: None}),
        _line({**row, field: 7}),
        _line({key: value for key, value in row.items() if key != field}),
        line.replace(row[field], "\\ud800", 1),
        line + " x",
    ]


def _write(path, header, rows, rng, name):
    """Write ``header`` and ``rows`` as the shape ``name`` has them: for
    ``malformed_lines``, malformed lines go in at random places; for
    ``crlf_line_ends`` every line ends in CRLF, and for
    ``no_final_newline`` the last has no line end. Returns the number of
    malformed lines."""
    lines = [_line(row) for row in rows]
    broken = []
    if name == "malformed_lines":
        broken = [line for row in rng.sample(rows, 4) for line in _broken(row)]
        for line in broken:
            lines.insert(rng.randrange(len(lines) + 1), line)
    text = header + "\n".join(lines) + ("" if name == "no_final_newline" else "\n")
    path.write_bytes(text.replace("\n", "\r\n" if name == "crlf_line_ends" else "\n").encode("utf-8"))
    return len(broken)


def _keyed(row):
    return row["ecosystem"], row["package_name"], row["release_date"]


@pytest.mark.parametrize("name", SHAPES)
def test_reshaped_world_matches_oracle(world, tmp_path, name):
    rng = random.Random(f"reshape {name}")
    snapshots, edges = SHAPES[name](world[SNAPSHOTS][2], world[EDGES][2], rng)
    releases_path, _, releases = world[RELEASES]
    injected = {
        SNAPSHOTS: _write(tmp_path / "snapshots.jsonl", world[SNAPSHOTS][1], snapshots, rng, name),
        EDGES: _write(tmp_path / "edges.jsonl", world[EDGES][1], edges, rng, name),
    }
    if name == "dropped_days":  # the shape holds gaps past the join window
        days = {}
        for row in snapshots:
            days.setdefault(_repo(row), []).append(_ordinal(row))
        assert any(max((b - a for a, b in zip(d, d[1:])), default=0) > 8 for d in days.values())
        coverage = sorted({_ordinal(row) for row in edges})
        assert max(b - a for a, b in zip(coverage, coverage[1:])) > 8

    out = tmp_path / "out"
    args = [
        "all",
        f"--releases={releases_path}",
        f"--repo-snapshots={tmp_path / 'snapshots.jsonl'}",
        f"--dependent-edges={tmp_path / 'edges.jsonl'}",
        "--grid",
        GRID,
        "--workers",
        "1",
        "--out-dir",
        str(out),
    ]
    assert cli.main(args) == 0
    if name in STAGED:
        staged = tmp_path / "staged"
        for stage in ("filter", "metrics", "complexity", "analyze"):
            assert cli.main([stage, *args[1:-1], str(staged)]) == 0
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert sorted(path.name for path in staged.iterdir()) == sorted(written)
        assert [file for file, data in written.items() if (staged / file).read_bytes() != data] == []
    oracle = naive_pipeline.run_pipeline(snapshots, releases, edges, offsets=OFFSETS)

    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    assert report["schema_violations"] == {**injected, RELEASES: 0}
    assert report["stages"] == oracle["reports"]

    survivors = _rows(out / "filtered_releases.jsonl")[1]
    keys = [(*_keyed(row), row["version_text"]) for row in survivors]
    assert len(set(keys)) == len(keys)
    assert set(keys) == oracle["survivor_keys"]

    # the cascade keeps only releases with a day-before count, so every
    # survivor has a record, in survivor order
    records = _rows(out / "release_records.jsonl")[1]
    assert len(records) == len(keys)
    for key, record in zip(keys, records):
        assert record["pre_dependents"] == oracle["pre_dependents"][key]
        assert record["bin"] == oracle["bins"][key]
        assert record["release_type"] == oracle["types"][key]
        assert record["series"] == oracle["series"][key]
        values = {tuple(cell.split("@")): value for cell, value in record["metrics"].items()}
        assert values == {(metric, str(offset)): value for (metric, offset), value in oracle["metric_values"][key].items()}

    tag_of = {key[:3]: key[3] for key in keys}
    samples = {}
    for row in _rows(out / "log_diff_samples.jsonl")[1]:
        key = (*_keyed(row), tag_of[_keyed(row)])
        samples[(key, row["metric"], row["offset_days"])] = row["value"]
    assert samples.keys() == oracle["samples"].keys()
    worst = max(abs(value - oracle["samples"][cell]) for cell, value in samples.items())
    assert worst <= 1e-12, f"worst log-difference deviation {worst:g}"

    exclusions = json.loads((out / "metrics_report.json").read_text(encoding="utf-8"))["exclusions"]
    assert exclusions == {f"{metric}@{offset}": tally for (metric, offset), tally in oracle["exclusions"].items()}

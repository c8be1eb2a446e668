import gc
import json
import random
import sys
import tracemalloc
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgrowth import ingest
from depgrowth.ingest import (
    DependentEdge,
    PackageRelease,
    RecordReader,
    RepoIndex,
    RepoSnapshot,
    SchemaHeaderError,
    SourceUnavailable,
    StreamingDependentCounter,
    compact_json,
    read_dependent_edges,
    read_releases,
    read_repo_snapshots,
    write_records,
)
from compact_rows import compact_line, compact_reader, repo_index
from oracles.brute_force import naive_dependent_count

D = date.fromisoformat


def snap_line(**kw):
    base = {
        "snapshot_date": "2023-03-01",
        "owner": "acme",
        "name": "libfoo",
        "stars": 10,
        "forks": 2,
        "is_fork": False,
    }
    base.update(kw)
    return json.dumps(base)


def release_line(**kw):
    base = {
        "release_date": "2023-03-05",
        "ecosystem": "npm",
        "package_name": "libfoo",
        "owner": "acme",
        "repo_name": "libfoo",
        "version_text": "1.2.3",
    }
    base.update(kw)
    return json.dumps(base)


def edge_line(**kw):
    base = {
        "snapshot_date": "2023-03-01",
        "dependent_owner": "user1",
        "dependent_repo": "app1",
        "ecosystem": "npm",
        "package_name": "libfoo",
    }
    base.update(kw)
    return json.dumps(base)


class TestReaders:
    def test_repo_snapshot_happy_path(self, tmp_path):
        path = tmp_path / "repos.ndjson"
        path.write_text(
            json.dumps({"schema": "repo-snapshots", "version": 1})
            + "\n"
            + snap_line(description="a lib", topics=["x", "y"], language="Python")
            + "\n",
            encoding="utf-8",
        )
        reader = read_repo_snapshots(path)
        records = list(reader)
        assert reader.violations == []
        assert records == [
            RepoSnapshot(
                snapshot_date=D("2023-03-01"),
                owner="acme",
                name="libfoo",
                stars=10,
                forks=2,
                is_fork=False,
                description="a lib",
                topics=("x", "y"),
                language="Python",
            )
        ]

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("", encoding="utf-8")
        reader = read_repo_snapshots(path)
        assert list(reader) == []
        assert reader.violations == []

    def test_missing_field_is_per_record_violation(self):
        bad = json.dumps(
            {
                "snapshot_date": "2023-03-01",
                "owner": "acme",
                "name": "libfoo",
                "forks": 2,
                "is_fork": False,
            }
        )
        reader = read_repo_snapshots([snap_line(), bad, snap_line(owner="zed")])
        records = list(reader)
        assert len(records) == 2
        assert records[1].owner == "zed"
        assert len(reader.violations) == 1
        assert reader.violations[0].line_no == 2
        assert "stars" in reader.violations[0].message

    def test_invalid_json_and_non_object(self):
        reader = read_releases([release_line(), "{not json", "[1,2,3]", release_line()])
        assert len(list(reader)) == 2
        assert [v.line_no for v in reader.violations] == [2, 3]

    def test_blank_lines_skipped(self):
        reader = read_releases([release_line(), "", "   ", release_line()])
        assert len(list(reader)) == 2
        assert reader.violations == []

    def test_header_wrong_schema_aborts(self):
        lines = [json.dumps({"schema": "releases", "version": 1}), snap_line()]
        with pytest.raises(SchemaHeaderError):
            list(read_repo_snapshots(lines))

    def test_header_wrong_version_aborts(self):
        lines = [json.dumps({"schema": "releases", "version": 99}), release_line()]
        with pytest.raises(SchemaHeaderError):
            list(read_releases(lines))

    def test_missing_file_is_source_unavailable(self, tmp_path):
        with pytest.raises(SourceUnavailable):
            list(read_releases(tmp_path / "nope.ndjson"))

    @pytest.mark.parametrize(
        "mutation",
        [
            {"stars": -1},
            {"stars": True},
            {"stars": "10"},
            {"is_fork": "no"},
            {"snapshot_date": "03/01/2023"},
            {"snapshot_date": 20230301},
            {"owner": ""},
            {"topics": "x"},
            {"topics": [1, 2]},
            {"description": 7},
        ],
    )
    def test_snapshot_field_validation(self, mutation):
        reader = read_repo_snapshots([snap_line(**mutation)])
        assert list(reader) == []
        assert len(reader.violations) == 1

    @pytest.mark.parametrize(
        "mutation",
        [{"ecosystem": "NPM"}, {"ecosystem": ""}, {"ecosystem": "0bad"}, {"version_text": ""}],
    )
    def test_release_field_validation(self, mutation):
        reader = read_releases([release_line(**mutation)])
        assert list(reader) == []
        assert len(reader.violations) == 1

    def test_ecosystem_with_a_trailing_newline_is_refused(self):
        message = "ecosystem must be a lowercase identifier, got 'npm\\n'"
        for reader in (
            read_releases([release_line(ecosystem="npm\n")]),
            read_dependent_edges([edge_line(ecosystem="npm\n")]),
        ):
            assert list(reader) == []
            assert [(v.line_no, v.message) for v in reader.violations] == [(1, message)]

    def test_release_notes_optional(self):
        with_notes = release_line(release_notes="Fixed a bug")
        null_notes = release_line(release_notes=None)
        records = list(read_releases([with_notes, null_notes, release_line()]))
        assert [r.release_notes for r in records] == ["Fixed a bug", None, None]

    @pytest.mark.parametrize("notes", ["Fixed a \"bug\" é\n", None])
    def test_release_line_round_trips(self, notes):
        release = PackageRelease(D("2023-03-05"), "npm", "libfoo", "acme", "libfoo", "1.2.3", notes)
        line = ingest.release_line(release)
        # the fields in their order, and no notes key when there are none
        assert line == compact_json(json.loads(release_line() if notes is None else release_line(release_notes=notes)))
        assert ingest.package_release(json.loads(line)) == release
        assert list(read_releases([line])) == [release]

    def test_unknown_fields_ignored(self):
        records = list(read_releases([release_line(extra_field="whatever")]))
        assert len(records) == 1

    def test_edge_happy_path(self):
        records = list(read_dependent_edges([edge_line()]))
        assert records == [
            DependentEdge(
                snapshot_date=D("2023-03-01"),
                dependent_owner="user1",
                dependent_repo="app1",
                ecosystem="npm",
                package_name="libfoo",
            )
        ]

    def test_rereading_is_deterministic(self, tmp_path):
        path = tmp_path / "releases.ndjson"
        path.write_text(
            "\n".join(release_line(version_text=f"1.0.{i}") for i in range(20)) + "\n",
            encoding="utf-8",
        )
        first = list(read_releases(path))
        second = list(read_releases(path))
        assert first == second


def make_snap(owner, name, day, stars=5, forks=1, is_fork=False, **kw):
    return RepoSnapshot(
        snapshot_date=D(day) if isinstance(day, str) else day,
        owner=owner,
        name=name,
        stars=stars,
        forks=forks,
        is_fork=is_fork,
        **kw,
    )


# The helper chain alone, field by field: the reference the readers' one-pass
# checks must agree with on every row.
def _snapshot_by_helpers(obj):
    return RepoSnapshot(
        snapshot_date=ingest.parse_date(obj.get("snapshot_date"), "snapshot_date"),
        owner=ingest.req_str(obj, "owner"),
        name=ingest.req_str(obj, "name"),
        stars=ingest.req_int(obj, "stars"),
        forks=ingest.req_int(obj, "forks"),
        is_fork=ingest._req_bool(obj, "is_fork"),
        description=ingest.opt_str(obj, "description"),
        topics=ingest._topics(obj),
        language=ingest.opt_str(obj, "language"),
    )


def _edge_by_helpers(obj):
    return DependentEdge(
        snapshot_date=ingest.parse_date(obj.get("snapshot_date"), "snapshot_date"),
        dependent_owner=ingest.req_str(obj, "dependent_owner"),
        dependent_repo=ingest.req_str(obj, "dependent_repo"),
        ecosystem=ingest.req_ecosystem(obj),
        package_name=ingest.req_str(obj, "package_name"),
    )


_MISSING = object()
_DATE = [_MISSING, None, "", "2023-02-30", "03/01/2023", "2023-3-1", 20230301, True]
_REQ_STR = [_MISSING, None, "", 5, True, ["acme"], "x"]
_COUNT = [_MISSING, None, -1, True, False, 1.5, "10", 0, 2**40, 2**63 - 1, 2**63]
_BOOL = [_MISSING, None, 0, 1, "false", True]
_OPT_STR = [_MISSING, None, "", 7, False, ["a"], "text"]
_TOPICS = [_MISSING, None, "x", [], [1], ["a", None], ["a", True], ["a", "b"], {"a": "b"}]
_ECOSYSTEM = [_MISSING, None, "", "NPM", "0bad", "npm\n", "pypi", 5]
_SNAPSHOT_MUTATIONS = {
    "snapshot_date": _DATE,
    "owner": _REQ_STR,
    "name": _REQ_STR,
    "stars": _COUNT,
    "forks": _COUNT,
    "is_fork": _BOOL,
    "description": _OPT_STR,
    "topics": _TOPICS,
    "language": _OPT_STR,
}
_EDGE_MUTATIONS = {
    "snapshot_date": _DATE,
    "dependent_owner": _REQ_STR,
    "dependent_repo": _REQ_STR,
    "ecosystem": _ECOSYSTEM,
    "package_name": _REQ_STR,
}


def _mutated_lines(line_fn, mutations):
    """Lines of valid rows, each with up to three fields dropped or replaced."""
    edit = st.sampled_from([(f, v) for f, values in mutations.items() for v in values])
    row = st.lists(edit, max_size=3).map(lambda edits: _edited(line_fn(), edits))
    return st.lists(row, min_size=1, max_size=8)


def _edited(line, edits):
    obj = json.loads(line)
    for field, value in edits:
        if value is _MISSING:
            obj.pop(field, None)
        else:
            obj[field] = value
    return json.dumps(obj)


def _read(reader):
    rows = list(reader)
    return rows, [(v.line_no, v.message) for v in reader.violations]


def _same(row):
    return row


def _read_compiled(reader):
    """``_read`` through a dated reader's memoized ``compiled``: each value
    is the row its body first compiled to, rebuilt with the date it came
    with."""
    rows = [row._replace(snapshot_date=date.fromordinal(day)) for day, row in reader.compiled(_same)]
    return rows, [(v.line_no, v.message) for v in reader.violations]


class TestLeanValidation:
    @settings(max_examples=300, deadline=None)
    @given(_mutated_lines(snap_line, _SNAPSHOT_MUTATIONS))
    def test_snapshot_rows_match_the_helper_chain(self, lines):
        assert _read(read_repo_snapshots(lines)) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )

    @settings(max_examples=300, deadline=None)
    @given(_mutated_lines(edge_line, _EDGE_MUTATIONS))
    def test_edge_rows_match_the_helper_chain(self, lines):
        assert _read(read_dependent_edges(lines)) == _read(
            RecordReader(lines, "dependent-edges", _edge_by_helpers)
        )

    def test_first_bad_field_in_field_order_is_reported(self):
        reader = read_repo_snapshots([snap_line(stars=-1, owner="", topics=[1])])
        assert list(reader) == []
        assert [(v.line_no, v.message) for v in reader.violations] == [
            (1, "owner must be a non-empty string")
        ]

    @pytest.mark.parametrize(
        "line, rows, violation",
        [
            ("  " + snap_line() + " \t", 1, None),
            ("\ufeff" + snap_line(), 0, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ("{} {}", 0, "invalid JSON: Extra data"),
            ("1,2", 0, "invalid JSON: Extra data"),
            (snap_line()[:25], 0, "invalid JSON: Unterminated string starting at"),
            ("[1", 0, "invalid JSON: Expecting ',' delimiter"),
            ("[]", 0, "record must be an object"),
            ("", 0, None),
            (" \t ", 0, None),
        ],
    )
    def test_decoding_matches_json_loads(self, line, rows, violation):
        reader = read_repo_snapshots([snap_line(), line])
        assert len(list(reader)) == 1 + rows
        expected = [] if violation is None else [(2, violation)]
        assert [(v.line_no, v.message) for v in reader.violations] == expected
        if line.strip():
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                assert violation == f"invalid JSON: {exc.msg}"
            else:
                assert (violation is None) == isinstance(obj, dict)


def _dated(day, body):
    """A compact line with ``snapshot_date`` first, as synth writes it."""
    return '{"snapshot_date":' + json.dumps(day) + "," + body


def _body(line, edits):
    """The compact text after the date of an edited row.

    An edit of ``snapshot_date`` puts a second date key into the body.
    """
    obj = json.loads(line)
    del obj["snapshot_date"]
    for field, value in edits:
        if value is _MISSING:
            obj.pop(field, None)
        else:
            obj[field] = value
    return json.dumps(obj, separators=(",", ":"))[1:]


_MEMO_DATES = ["2023-03-01", "2023-03-02", "2023-02-30", "2023-W01-1", ""]


@st.composite
def _dated_lines(draw, line_fn, mutations):
    """A few bodies, some edited, on a few dates each, in one of three orders."""
    edits = [(f, v) for f, values in mutations.items() for v in values]
    # a valid date inside the body too: the body's own date then wins
    edit = st.sampled_from(edits + [("snapshot_date", "2023-03-09")])
    body = st.lists(edit, max_size=2).map(lambda edits: _body(line_fn(), edits))
    bodies = draw(st.lists(body, min_size=1, max_size=4))
    days = draw(st.lists(st.sampled_from(_MEMO_DATES), min_size=1, max_size=3))
    order = draw(st.sampled_from(["date-major", "body-major", "shuffled"]))
    if order == "date-major":
        return [_dated(day, b) for day in days for b in bodies]
    lines = [_dated(day, b) for b in bodies for day in days]
    return lines if order == "body-major" else draw(st.permutations(lines))


_BODY = _body(snap_line(), [])
_OTHER_BODY = _body(snap_line(), [("owner", "other")])

# 28-character heads: valid dates, a bad day, a space, an escape, a trailing
# backslash, another key before a valid date; then what may follow them at
# 28, and bodies to follow that
_HEADS = [
    '{"snapshot_date":"2023-03-01',
    '{"snapshot_date":"2023-03-02',
    '{"snapshot_date":"2023-02-30',
    '{"snapshot_date": "2023-3-01',
    '{"snapshot_date":"2023\\u002d',
    '{"snapshot_date":"2023-03-0\\',
    '{"snapshot_date":"20230301  ',
    '{"snapshot_dat":"x2023-03-01',
]
_SEPARATORS = ['",', '" ,', '"', ",", '",",', '",  ']
_RESTS = [
    _BODY,
    _OTHER_BODY,
    _BODY[:-1] + ',"snapshot_date":"2023-03-09"}',
    _BODY[:-1] + ',"stars":-1}',
    '"snapshot_date":"2023-03-01",' + _BODY,
    "}",
]

# dates docs/DATA_FORMAT.md does not allow, which date.fromisoformat takes
# from Python 3.11 on (as 2023-01-01 and 2023-01-02)
_NOT_YYYY_MM_DD = ["20230101", "2023-W01-1"]
_DATED_READERS = [
    (read_repo_snapshots, snap_line, "snapshot_date"),
    (read_dependent_edges, edge_line, "snapshot_date"),
    (read_releases, release_line, "release_date"),
]


class TestIsoDates:
    @pytest.mark.parametrize("day", _NOT_YYYY_MM_DD)
    @pytest.mark.parametrize("layout", ["compact", "spaced"])
    @pytest.mark.parametrize("read, line_fn, field", _DATED_READERS)
    def test_a_date_not_yyyy_mm_dd_is_a_violation(self, read, line_fn, field, layout, day):
        separators = (",", ":") if layout == "compact" else None
        line = json.dumps(json.loads(line_fn(**{field: day})), separators=separators)
        assert _read(read([line])) == ([], [(1, f"{field} is not a valid ISO date: {day!r}")])

    @pytest.mark.parametrize("day", _NOT_YYYY_MM_DD)
    @pytest.mark.parametrize("read, line_fn, field", _DATED_READERS[:2])
    def test_a_known_body_on_such_a_date_is_a_violation(self, read, line_fn, field, day):
        body = _body(line_fn(), [])
        lines = [_dated("2023-01-01", body), _dated(day, body), _dated("2023-01-03", body)]
        for rows, violations in (_read(read(lines)), _read_compiled(read(lines))):
            assert [row.snapshot_date for row in rows] == [D("2023-01-01"), D("2023-01-03")]
            assert violations == [(2, f"{field} is not a valid ISO date: {day!r}")]


class TestBodyMemo:
    @settings(max_examples=300, deadline=None)
    @given(_dated_lines(snap_line, _SNAPSHOT_MUTATIONS))
    def test_snapshot_rows_match_the_memo_free_reader(self, lines):
        assert _read_compiled(read_repo_snapshots(lines)) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )

    @settings(max_examples=300, deadline=None)
    @given(_dated_lines(edge_line, _EDGE_MUTATIONS))
    def test_edge_rows_match_the_memo_free_reader(self, lines):
        assert _read_compiled(read_dependent_edges(lines)) == _read(
            RecordReader(lines, "dependent-edges", _edge_by_helpers)
        )

    @pytest.mark.parametrize(
        "lines",
        [
            # a body that sets snapshot_date again: its own date wins
            [
                _dated("2023-03-01", _BODY[:-1] + ',"snapshot_date":"2023-03-09"}'),
                _dated("2023-03-02", _BODY[:-1] + ',"snapshot_date":"2023-03-09"}'),
                _dated("2023-03-02", _BODY),
            ],
            [
                _dated("2023-03-01", _BODY[:-1] + ',"snapshot\\u005fdate":"2023-03-09"}'),
                _dated("2023-03-02", _BODY[:-1] + ',"snapshot\\u005fdate":"2023-03-09"}'),
                _dated("2023-03-02", _BODY),
            ],
            # an escape in the body, and the key's text as a value
            [_dated("2023-03-01", _BODY[:-1] + ',"description":"caf\\u00e9"}')] * 2,
            [_dated("2023-03-01", _BODY[:-1] + ',"description":"\\"snapshot_date\\""}')] * 2,
            # trailing commas after the date
            [_dated("2023-01-01", _BODY), '{"snapshot_date":"2023-01-01",}'],
            [_dated("2023-01-01", _BODY), '{"snapshot_date":"2023-01-01", }'],
            # whitespace after the value: read by json.loads, memoized with it
            [_dated("2023-03-01", _BODY), _dated("2023-03-01", _BODY + " ")],
            [_dated("2023-03-01", _BODY + " \t")] * 2,
            # a date ending in a backslash escapes the quote after it
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023-03-0\\",' + _BODY],
            [
                _dated("2023-03-01", _BODY),
                '{"snapshot_date":"2023-03-0\\",",' + _dated("2023-03-01", _BODY)[1:],
            ],
            # a bad date on a known body, also after a line with that date
            # that yields a row because its body sets a date of its own
            [_dated("2023-03-01", _BODY), _dated("2023-02-30", _BODY)],
            [
                _dated("2023-03-01", _BODY),
                _dated("2023-02-30", _BODY[:-1] + ',"snapshot_date":"2023-03-09"}'),
                _dated("2023-02-30", _BODY),
            ],
            [_dated("2023-03-01", _BODY), _dated("2023-03-1", _BODY)],
        ],
    )
    def test_adversarial_lines_match_the_memo_free_reader(self, lines):
        # repeats of another repository's row first, so the memo is still
        # in use when the adversarial lines arrive
        lines = [_dated("2023-03-01", _OTHER_BODY)] * 4 + lines
        assert _read_compiled(read_repo_snapshots(lines)) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )

    @pytest.mark.parametrize(
        "lines",
        [
            # a known head with an unknown rest
            [_dated("2023-03-01", _BODY), _dated("2023-03-01", _BODY[:-1] + ',"language":"go"}')],
            # a known rest after a head with a space, an escaped date or a bad date
            [_dated("2023-03-01", _BODY), '{"snapshot_date": "2023-3-01",' + _BODY],
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023\\u002d",' + _BODY],
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023\\u002d03-01",' + _BODY],
            [_dated("2023-03-01", _BODY), _dated("2023-02-30", _BODY)],
            [_dated("2023-03-01", _BODY), '{"snapshot_dat":"x2023-03-01",' + _BODY],
            # no '"' or no '",' at 28
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023-03-01 ",' + _BODY],
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023-03-01" ,' + _BODY],
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023-03-01"' + _BODY],
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023-03-01,' + _BODY],
            # a rest with a "snapshot_date" of its own, after a known head
            [_dated("2023-03-01", _BODY)] + [_dated("2023-03-01", _BODY[:-1] + ',"snapshot_date":"2023-03-09"}')] * 2,
            # a line as long as a head, and one shorter
            [_dated("2023-03-01", _BODY), '{"snapshot_date":"2023-03-01', '{"snapshot_date":"2023'],
        ],
    )
    def test_lines_near_the_slice_keys_match_the_memo_free_reader(self, lines):
        lines = [_dated("2023-03-01", _OTHER_BODY)] * 4 + lines
        assert _read_compiled(read_repo_snapshots(lines)) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_HEADS), st.sampled_from(_SEPARATORS), st.sampled_from(_RESTS)),
            min_size=1,
            max_size=12,
        )
    )
    def test_spliced_heads_and_rests_match_the_memo_free_reader(self, parts):
        lines = [head + separator + rest for head, separator, rest in parts]
        assert _read_compiled(read_repo_snapshots(lines)) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )

    def test_a_header_on_line_1_is_skipped_and_the_same_text_later_is_a_row(self):
        lines = [_dated("2023-03-01", '"schema":"repo-snapshots","version":1,' + _BODY)] * 2
        assert _read_compiled(read_repo_snapshots(lines)) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )

    def test_a_known_body_is_not_decoded_again(self, monkeypatch):
        decoded = _count_decodes(monkeypatch)
        days = ("2023-03-01", "2023-03-02", "2023-03-02", "2023-03-01")
        lines = [_dated(day, _BODY) for day in days]
        rows, _ = _read_compiled(read_repo_snapshots(lines))
        assert rows == [make_snap("acme", "libfoo", day, stars=10, forks=2) for day in days]
        assert decoded == [lines[0]]

    def test_the_memo_keeps_one_body_per_repository(self, monkeypatch):
        # three repositories over 30 days, date-major; each one's stars
        # change every third day, so a new body replaces the last one
        lines = [
            _dated(
                (date(2023, 3, 1) + timedelta(days=d)).isoformat(),
                _body(snap_line(), [("owner", owner), ("stars", d // 3)]),
            )
            for d in range(30)
            for owner in ("a", "b", "c")
        ]
        reader = read_repo_snapshots(lines)
        rows, sizes = _read_with_memo_sizes(reader)
        assert (rows, reader.violations) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )
        assert max(sizes) == 3 and None not in sizes
        # a body that was replaced is decoded again when it comes back
        decoded = _count_decodes(monkeypatch)
        _read_compiled(read_repo_snapshots(lines[:3] + lines[9:12] + lines[:3]))
        assert decoded.count(lines[0]) == 2

    @pytest.mark.parametrize("reorder, bodies", [(False, 4), (True, 5)], ids=["four-texts", "one-reordered"])
    def test_the_edge_memo_keeps_one_body_per_edge(self, reorder, bodies):
        edges = [_body(edge_line(), [("package_name", f"lib{i}")]) for i in range(4)]
        # key order differs, the edge is the same: a text of its own, kept
        # beside the first one
        reordered = json.dumps(
            dict(reversed(json.loads("{" + edges[0]).items())), separators=(",", ":")
        )[1:]
        days = [(date(2023, 3, 1) + timedelta(days=d)).isoformat() for d in range(5)]
        lines = [_dated(day, b) for day in days for b in edges + [reordered] * reorder]
        rows, sizes = _read_with_memo_sizes(read_dependent_edges(lines))
        assert rows == list(RecordReader(lines, "dependent-edges", _edge_by_helpers))
        assert max(sizes) == bodies and None not in sizes

    def test_a_memoized_edge_is_the_value_its_body_first_compiled_to(self):
        bodies = [_body(edge_line(), []), _body(edge_line(), [("package_name", "libbar")])]
        lines = [_dated("2023-03-01", body) for body in bodies * 2]
        first, second, third, fourth = (row for _, row in read_dependent_edges(lines).compiled(_same))
        assert third is first and fourth is second

    @pytest.mark.parametrize("order", ["date-major", "repository-major"])
    def test_the_memo_is_dropped_when_bodies_do_not_repeat(self, order, monkeypatch):
        # an ignored field that changes on every line: each body is new
        owners = [f"o{i}" for i in range(20)]
        pairs = [(d, o) for d in range(30) for o in owners]
        if order == "repository-major":
            pairs.sort(key=lambda pair: pair[1])
        lines = [
            _dated(
                (date(2023, 3, 1) + timedelta(days=d)).isoformat(),
                _body(snap_line(), [("owner", o), ("updated_at", f"{d}:{o}")]),
            )
            for d, o in pairs
        ]
        decoded = _count_decodes(monkeypatch)
        reader = read_repo_snapshots(lines)
        rows, sizes = _read_with_memo_sizes(reader)
        monkeypatch.undo()
        assert (rows, reader.violations) == _read(
            RecordReader(lines, "repo-snapshots", _snapshot_by_helpers)
        )
        # dropped once the first row of the third date is read, at the
        # latest, having held no more bodies than there are repositories
        assert sizes[2 * len(owners) + 1] is None
        assert max(size for size in sizes if size is not None) <= len(owners)
        # memoized bodies were never decoded again to check them
        assert len(decoded) == len(lines)

    def test_the_memo_stays_when_most_bodies_repeat(self, monkeypatch):
        # one repository of ten changes every day, date-major and
        # repository-major: the other nine are decoded once each. (Sorted
        # by repository, the reader judges from the rows read so far, so
        # this one is not the first: see the dropped-memo test.)
        for major in (0, 1):
            pairs = sorted(((d, i) for d in range(30) for i in range(10)), key=lambda p: p[major])
            lines = [
                _dated(
                    (date(2023, 3, 1) + timedelta(days=d)).isoformat(),
                    _body(snap_line(), [("owner", f"o{i}"), ("stars", d if i == 9 else 1)]),
                )
                for d, i in pairs
            ]
            with monkeypatch.context() as patch:
                decoded = _count_decodes(patch)
                rows, sizes = _read_with_memo_sizes(read_repo_snapshots(lines))
            assert rows == list(RecordReader(lines, "repo-snapshots", _snapshot_by_helpers))
            assert None not in sizes
            # one line of each stable repository is decoded
            assert len([text for text in decoded if '"owner":"o9"' not in text]) == 9


def _count_decodes(monkeypatch):
    """Record every text ``ingest._raw_decode`` is given."""
    decoded = []
    decode = ingest._raw_decode
    monkeypatch.setattr(ingest, "_raw_decode", lambda text: decoded.append(text) or decode(text))
    return decoded


def _read_with_memo_sizes(reader):
    """The rows as ``_read_compiled`` rebuilds them, and after each one the
    number of bodies in the reader's memo.

    The size is None once the reader has dropped its memo.
    """
    rows, sizes = [], []
    scan = reader.compiled(_same)
    for day, row in scan:
        rows.append(row._replace(snapshot_date=date.fromordinal(day)))
        bodies = scan.gi_frame.f_locals["bodies"]  # a local of the scan
        sizes.append(None if bodies is None else len(bodies))
    return rows, sizes


def _brute_nearest(snaps, when):
    best = None
    for snap in snaps:  # arrival order, so a later same-day row wins
        if 0 <= (when - snap.snapshot_date).days <= 7:
            if best is None or snap.snapshot_date >= best.snapshot_date:
                best = snap
    return best


def _runs(index, key):
    """The runs of ``key``'s timeline in a closed index: lists of first
    ordinals, steps, row counts and state ids."""
    repo = index._timelines[key]
    low, high = index._bounds[repo], index._bounds[repo + 1]
    return [list(column[low:high]) for column in index._runs]


def _assert_lookups_match_a_scan(index, snaps, start, offsets=range(-2, 50)):
    for offset in offsets:
        when = start + timedelta(days=offset)
        expected = _brute_nearest(snaps, when)
        assert index.nearest("a", "r", when) == expected
        quality = expected is not None and not expected.is_fork and expected.stars >= 1
        assert index.quality_ok("a", "r", when) == quality


class TestRepoIndex:
    def test_exact_day_match(self):
        index = repo_index([make_snap("a", "r", "2023-03-10", stars=7)])
        snap = index.nearest("a", "r", D("2023-03-10"))
        assert snap is not None and snap.stars == 7

    def test_fallback_to_latest_within_window(self):
        index = repo_index(
            [
                make_snap("a", "r", "2023-03-01", stars=1),
                make_snap("a", "r", "2023-03-08", stars=9),
            ]
        )
        snap = index.nearest("a", "r", D("2023-03-12"))
        assert snap is not None
        assert snap.snapshot_date == D("2023-03-08")
        assert snap.stars == 9

    def test_window_boundary_is_seven_days(self):
        index = repo_index([make_snap("a", "r", "2023-03-01")])
        assert index.nearest("a", "r", D("2023-03-08")) is not None
        assert index.nearest("a", "r", D("2023-03-09")) is None

    def test_future_snapshots_never_used(self):
        index = repo_index([make_snap("a", "r", "2023-03-10")])
        assert index.nearest("a", "r", D("2023-03-09")) is None

    def test_unknown_repo(self):
        index = RepoIndex()
        assert index.nearest("a", "r", D("2023-03-10")) is None

    def test_same_day_duplicate_last_wins(self):
        index = repo_index(
            [
                make_snap("a", "r", "2023-03-10", stars=1),
                make_snap("a", "r", "2023-03-10", stars=8),
            ]
        )
        snap = index.nearest("a", "r", D("2023-03-10"))
        assert snap is not None and snap.stars == 8

    def test_quality_rules(self):
        index = repo_index(
            [
                make_snap("ok", "r", "2023-03-10", stars=1, is_fork=False),
                make_snap("starless", "r", "2023-03-10", stars=0, is_fork=False),
                make_snap("fork", "r", "2023-03-10", stars=50, is_fork=True),
            ]
        )
        when = D("2023-03-10")
        assert index.quality_ok("ok", "r", when)
        assert not index.quality_ok("starless", "r", when)
        assert not index.quality_ok("fork", "r", when)
        assert not index.quality_ok("absent", "r", when)

    def test_out_of_order_input(self):
        index = repo_index(
            [
                make_snap("a", "r", "2023-03-10", stars=3),
                make_snap("a", "r", "2023-03-02", stars=1),
                make_snap("a", "r", "2023-03-06", stars=2),
            ]
        )
        snap = index.nearest("a", "r", D("2023-03-07"))
        assert snap is not None and snap.stars == 2

    def test_metadata_comes_from_the_joined_row(self):
        index = repo_index(
            [
                make_snap("a", "r", "2023-03-01", description="old", topics=("x",), language="Go"),
                make_snap("a", "r", "2023-03-05", description="new", language="Rust"),
            ]
        )
        old = index.nearest("a", "r", D("2023-03-04"))
        new = index.nearest("a", "r", D("2023-03-06"))
        assert (old.description, old.topics, old.language) == ("old", ("x",), "Go")
        assert (new.description, new.topics, new.language) == ("new", (), "Rust")

    # shape -> (rows as (day offset, state) in arrival order, the timeline's
    # runs once the first lookup has sorted it)
    _RUN_SHAPES = {
        "one state daily": ([(d, 0) for d in range(60)], 1),
        "weekly": ([(d, 0) for d in range(0, 60, 7)], 1),
        "daily then weekly": ([(d, 0) for d in range(20)] + [(d, 0) for d in range(26, 60, 7)], 2),
        # a step wider than the join window: days 8 and 9 of each step join nothing
        "every 10 days": ([(d, 0) for d in range(0, 60, 10)], 1),
        "a state that returns": ([(d, d // 10 % 2) for d in range(30)], 3),
        # an equal repeat of the last row is dropped; a changed one replaces it
        "same-day repeats": (
            [(d, 0) for d in range(10)] + [(9, 0)] + [(d, 0) for d in range(10, 16)] + [(15, 1)]
            + [(d, 0) for d in range(16, 20)],
            3,
        ),
        "late rows inside a run": ([(d, 0) for d in range(30)] + [(5, 1), (12, 0)], 5),
    }

    @pytest.mark.parametrize("shape", ["in-order", "out-of-order", "same-day duplicates", *_RUN_SHAPES])
    def test_lookups_match_a_brute_force_scan(self, shape):
        rng = random.Random(shape)
        start = D("2023-03-01")
        if shape in self._RUN_SHAPES:
            rows, runs = self._RUN_SHAPES[shape]
            snaps = [
                make_snap("a", "r", start + timedelta(days=offset), stars=state, description=f"state {state}")
                for offset, state in rows
            ]
        else:
            offsets = sorted(rng.sample(range(40), 15))
            if shape == "out-of-order":
                rng.shuffle(offsets)
            elif shape == "same-day duplicates":
                offsets = sorted(offsets + rng.sample(offsets, 5))
            snaps = [
                make_snap(
                    "a",
                    "r",
                    start + timedelta(days=offset),
                    stars=rng.randrange(3),
                    is_fork=rng.random() < 0.2,
                    description=f"row {i}",
                )
                for i, offset in enumerate(offsets)
            ]
            runs = len(set(offsets))  # each row has a state of its own
        index = repo_index(snaps)
        _assert_lookups_match_a_scan(index, snaps, start, range(-2, 72))
        assert len(_runs(index, ("a", "r"))[0]) == runs

    def test_an_equal_same_day_repeat_leaves_the_timeline_in_order(self):
        start = D("2023-03-01")
        snaps = [make_snap("a", "r", start + timedelta(days=d)) for d in (0, 1, 1, 2)]
        index = repo_index(snaps)
        assert not index._timelines[("a", "r")].unsorted  # so the first lookup sorts nothing
        _assert_lookups_match_a_scan(index, snaps, start)
        assert _runs(index, ("a", "r")) == [[start.toordinal()], [1], [3], [0]]

    @pytest.mark.parametrize(
        "offsets, unsorted, runs",
        [
            # unchanged rows re-crawled 1 to 5 days late, as a daily dump has them
            ([0, 1, 2, 3, 4, 5, 6, 2, 7, 1, 8, 3], False, 1),
            ([0, 7, 14, 21, 7, 28, 14], False, 1),
            # a day between two of the run's days: a row of its own
            ([0, 7, 14, 21, 10, 28], True, 3),
        ],
        ids=["daily", "weekly", "weekly-off-step"],
    )
    def test_a_late_repeat_inside_the_open_run_is_dropped(self, offsets, unsorted, runs):
        start = D("2023-03-01")
        snaps = [make_snap("a", "r", start + timedelta(days=d)) for d in offsets]
        index = repo_index(snaps)
        assert index._timelines[("a", "r")].unsorted == unsorted
        _assert_lookups_match_a_scan(index, snaps, start)
        assert len(_runs(index, ("a", "r"))[0]) == runs

    @pytest.mark.parametrize(
        "offsets, runs",
        [
            # the widest step a run holds, then one a day wider
            ([0, 0xFFFF, 2 * 0xFFFF], 1),
            ([0, 0x10000, 2 * 0x10000], 3),
            # the longest run, then one row more
            (range(0x10000), 2),
        ],
        ids=["65,535-day steps", "65,536-day steps", "65,536 daily rows"],
    )
    def test_a_run_splits_before_its_step_or_count_overflows(self, offsets, runs):
        start = D("2023-03-01")
        snaps = [make_snap("a", "r", start + timedelta(days=offset)) for offset in offsets]
        index = repo_index(snaps)
        around = {offset + k for offset in (offsets[0], offsets[-1], 0xFFFE, 0xFFFF, 0x10000) for k in range(-2, 10)}
        _assert_lookups_match_a_scan(index, snaps, start, sorted(around))
        assert len(_runs(index, ("a", "r"))[0]) == runs

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda index, when: index.nearest("a", "r", when),
            lambda index, when: index.quality_ok("a", "r", when),
            lambda index, when: index.nearest("absent", "r", when),
            lambda index, when: index.quality_ok("absent", "r", when),
            lambda index, when: count_one("lib", "npm", when, _edges_of_a_and_absent(when), index),
        ],
        ids=["nearest", "quality_ok", "nearest-absent", "quality_ok-absent", "count"],
    )
    def test_no_row_is_taken_after_a_lookup(self, lookup):
        start = D("2023-03-01")
        index = repo_index([make_snap("a", "r", start)])
        index.extend(compact_reader([make_snap("b", "r", start)]))  # before any lookup
        lookup(index, start)
        for snap in (make_snap("a", "r", start, stars=0), make_snap("absent", "r", start)):
            with pytest.raises(RuntimeError, match="after its first lookup"):
                index.extend(compact_reader([snap]))
        # the refused rows left every answer as it was
        assert index.quality_ok("a", "r", start) and index.nearest("a", "r", start).stars == 5
        assert index.nearest("absent", "r", start) is None
        assert count_one("lib", "npm", start, _edges_of_a_and_absent(start), index) == 1

    @pytest.mark.parametrize("order", ["in-order", "out-of-order"])
    def test_counts_up_to_the_largest_round_trip(self, order):
        start = D("2023-03-01")
        wide = [0, 1, 2**31 - 1, 2**31, 2**32 + 5, ingest.MAX_COUNT, 7, 2**31]
        snaps = [
            make_snap("a", "r", start + timedelta(days=2 * i), stars=stars, forks=forks)
            for i, (stars, forks) in enumerate(zip(wide, reversed(wide)))
        ]
        if order == "out-of-order":
            # late rows, one replacing a same-day row: the sort path
            late = ((5, 2**40, 0), (0, 2**31, 2**31 - 1), (6, 0, ingest.MAX_COUNT))
            snaps += [
                make_snap("a", "r", start + timedelta(days=offset), stars=stars, forks=forks)
                for offset, stars, forks in late
            ]
        _assert_lookups_match_a_scan(repo_index(snaps), snaps, start)

    def test_a_row_shares_only_its_repositorys_last_state(self):
        start = D("2023-03-01")
        snaps = [
            make_snap("a", "r", start, stars=3),
            make_snap("a", "r", start + timedelta(days=1), stars=3),
            # a same-day duplicate with another state replaces the row before it
            make_snap("a", "r", start + timedelta(days=1), stars=4, is_fork=True),
            # the first state again, after another one: a state of its own
            make_snap("a", "r", start + timedelta(days=2), stars=3),
            # equal to the last state: shares it
            make_snap("a", "r", start + timedelta(days=9), stars=3),
        ]
        index = repo_index(snaps)
        # equal to another repository's last state: a state of its own
        index.extend(compact_reader([make_snap("b", "r", start + timedelta(days=9), stars=3)]))
        _assert_lookups_match_a_scan(index, snaps, start)  # the first lookup takes the sort path
        firsts, steps, counts, states = _runs(index, ("a", "r"))
        assert states == [0, 1, 2]
        day = start.toordinal()
        assert (firsts, steps, counts) == ([day, day + 1, day + 2], [1, 1, 7], [1, 1, 2])
        assert _runs(index, ("b", "r"))[3] == [3]
        assert (list(index._stars), list(index._forked)) == ([3, 4, 3, 3], [0, 1, 0, 0])

    @pytest.mark.parametrize("order", ["interleaved", "shuffled"])
    def test_interleaved_repositories_match_a_brute_force_scan(self, order):
        # 60 repositories whose runs share one set of columns, each with runs
        # of states that return, same-day repeats with and without a changed
        # state and, for every third one, late rows inside a run; interleaved
        # keeps each repository's arrival order, shuffled mixes every row
        rng = random.Random(order)
        start = D("2023-03-01")
        arrivals = []  # per repository, (day offset, state) in arrival order
        for i in range(60):
            width = rng.randint(2, 9)
            rows = [(d, d // width % 3) for d in range(0, 40, rng.randint(1, 3))]
            for _ in range(3):
                pos = rng.randrange(len(rows))
                day, state = rows[pos]
                rows.insert(pos + 1, (day, state if rng.random() < 0.5 else 3))
            if i % 3 == 0:
                rows += [(rng.randrange(40), rng.randrange(4)) for _ in range(3)]
            arrivals.append(rows)
        snaps = [
            make_snap(f"o{i}", "r", start + timedelta(days=day), stars=state, is_fork=state == 2, description=f"{state}")
            for pos in range(max(map(len, arrivals)))
            for i, rows in enumerate(arrivals)
            if pos < len(rows)
            for day, state in [rows[pos]]
        ]
        if order == "shuffled":
            rng.shuffle(snaps)
        index = repo_index(snaps)
        unsorted = [timeline.unsorted for timeline in index._timelines.values()]
        assert any(unsorted) and (order == "shuffled" or not all(unsorted))
        for i in range(60):
            own = [snap for snap in snaps if snap.owner == f"o{i}"]
            for offset in range(-2, 50):
                when = start + timedelta(days=offset)
                expected = _brute_nearest(own, when)
                assert index.nearest(f"o{i}", "r", when) == expected
                assert index.quality_ok(f"o{i}", "r", when) == (expected is not None and expected.stars % 2 == 1)

    @pytest.mark.parametrize("stars", [2**31, ingest.MAX_COUNT])
    def test_a_wide_count_round_trips_through_a_shared_state(self, stars):
        start = D("2023-03-01")
        snaps = [make_snap("a", "r", start + timedelta(days=d), stars=stars) for d in range(3)]
        index = repo_index(snaps)
        _assert_lookups_match_a_scan(index, snaps, start)
        assert index.nearest("a", "r", start + timedelta(days=9)).stars == stars
        # one run of three rows over one state
        assert _runs(index, ("a", "r")) == [[start.toordinal()], [1], [3], [0]]
        assert list(index._stars) == [stars]


def _daily_snapshots(path, days, stars, repos=200):
    """Write ``days`` daily rows for each of ``repos`` repositories, date-major
    and date-first as synth writes them, the row of day ``d`` with
    ``stars(d)`` stars; return ``path``."""
    start = date(2023, 1, 1)
    rows = (
        {"snapshot_date": (start + timedelta(days=d)).isoformat(), "owner": f"o{i}", "name": "r",
         "stars": stars(d), "forks": 1, "is_fork": False}
        for d in range(days)
        for i in range(repos)
    )
    with open(path, "w", encoding="utf-8") as handle:
        write_records(handle, "repo-snapshots", map(compact_json, rows))
    return path


def _traced_index_bytes(path):
    """Bytes traced as held once a RepoIndex read from ``path`` has closed."""
    gc.collect()
    tracemalloc.start()
    try:
        index = RepoIndex()
        index.extend(read_repo_snapshots(path))
        index.nearest("o0", "r", date(2023, 1, 1))  # the first lookup closes it
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


class TestRepoIndexMemory:
    def test_rows_of_one_state_cost_almost_nothing(self, tmp_path):
        # the rows past each repository's first, 364 of one state each, hold
        # less than a tenth of the 8 B a row costs as a row of its own
        first = _traced_index_bytes(_daily_snapshots(tmp_path / "first.jsonl", 1, lambda d: 5))
        year = _traced_index_bytes(_daily_snapshots(tmp_path / "year.jsonl", 365, lambda d: 5))
        assert year - first < 0.1 * 8 * 200 * 364

    def test_rows_that_each_carry_a_new_state_cost_at_most_15_percent_more(self, tmp_path):
        # 20,000 rows, each a run of its own over a state of its own: 33 B a
        # row (12 B of run, 21 B of state) against the 29 B of an index of
        # rows (8 B of row, 21 B of state), which held 736,957 B for this
        # file (Python 3.11)
        held = _traced_index_bytes(_daily_snapshots(tmp_path / "changing.jsonl", 100, lambda d: d))
        assert held <= 1.15 * 736_957

    def test_a_repository_costs_little_past_its_run_and_state(self, tmp_path):
        # one row each: 10,000 more repositories cost their keys, ids, bounds,
        # runs and states, about 231 B each, against 627 B while each held four run
        # arrays of its own (Python 3.11)
        few = _traced_index_bytes(_daily_snapshots(tmp_path / "few.jsonl", 1, lambda d: 5, repos=1_000))
        many = _traced_index_bytes(_daily_snapshots(tmp_path / "many.jsonl", 1, lambda d: 5, repos=11_000))
        assert (many - few) / 10_000 <= 320


# the repositories a restricted index keeps: four of _kept_world's eight, and
# one with no rows
_KEEP = {("o0", "r"), ("o2", "r"), ("o5", "r"), ("o7", "r"), ("kept-absent", "r")}
_KEPT_START = D("2023-03-01")


def _kept_world(order):
    """Rows of eight repositories over 30 days, in ``order``: states that hold
    for some days and return, so bodies repeat, a gap a week in, and
    same-day re-crawls and rows 1 to 5 days late that change the state."""
    rng = random.Random(order)
    snaps = []
    for d in range(30):
        for i in range(8):
            if (d + i) % 7 == 6:
                continue
            state = d // (i + 2) % 3
            snaps.append(
                make_snap(f"o{i}", "r", _KEPT_START + timedelta(days=d), stars=state, is_fork=state == 2, description=f"s{state}")
            )
            if rng.random() < 0.1:
                late = d - rng.randint(0, 5)
                snaps.append(make_snap(f"o{i}", "r", _KEPT_START + timedelta(days=late), stars=7, description="late"))
    if order == "repository-major":
        snaps.sort(key=lambda snap: snap.owner)
    elif order == "shuffled":
        rng.shuffle(snaps)
    return snaps


def _compiles_by_owner(monkeypatch):
    """Count every ``RepoIndex._compile`` call by the row's owner."""
    calls = {}
    compile = RepoIndex._compile

    def counted(self, snap):
        calls[snap.owner] = calls.get(snap.owner, 0) + 1
        return compile(self, snap)

    monkeypatch.setattr(RepoIndex, "_compile", counted)
    return calls


class TestKeptRepositories:
    @pytest.mark.parametrize("order", ["date-major", "repository-major", "shuffled"])
    def test_a_kept_lookup_answers_as_an_unrestricted_index(self, order):
        snaps = _kept_world(order)
        index, every = repo_index(snaps, _KEEP), repo_index(snaps)
        for owner, name in _KEEP:
            for offset in range(-2, 40):
                when = _KEPT_START + timedelta(days=offset)
                assert index.nearest(owner, name, when) == every.nearest(owner, name, when)
                assert index.quality_ok(owner, name, when) == every.quality_ok(owner, name, when)
        assert set(index._timelines) == _KEEP - {("kept-absent", "r")}

    @pytest.mark.parametrize("order", ["date-major", "repository-major", "shuffled"])
    def test_a_skipped_repository_holds_no_timeline_or_state(self, order, monkeypatch):
        snaps = _kept_world(order)
        calls = _compiles_by_owner(monkeypatch)
        every = repo_index(snaps)
        unrestricted = dict(calls)
        calls.clear()
        index = repo_index(snaps, _KEEP)
        # the memo hands a skipped repository's repeated body over as it does a kept one's
        assert calls == unrestricted
        if order != "shuffled":
            assert sum(calls.values()) < len(snaps)
        alone = repo_index([snap for snap in snaps if (snap.owner, snap.name) in _KEEP])
        for built in (index, alone, every):
            built.nearest("o0", "r", _KEPT_START)  # the first lookup closes it
        assert index._timelines == alone._timelines
        assert list(map(list, index._runs)) == list(map(list, alone._runs))
        assert list(index._bounds) == list(alone._bounds)
        for column in ("_stars", "_forks", "_forked", "_state_metas"):
            assert list(getattr(index, column)) == list(getattr(alone, column))
        assert index._metas == alone._metas
        assert len(index._runs[0]) < len(every._runs[0]) and len(index._stars) < len(every._stars)

    def test_a_skipped_repositorys_malformed_rows_are_violations(self):
        snaps = _kept_world("date-major")
        lines = list(map(compact_line, snaps))
        skipped = next(line for line, snap in zip(lines, snaps) if snap.owner == "o1")
        body = skipped[skipped.index(",") :]
        # a bad date before a known body, a field of the wrong type, and no JSON
        bad = {
            12: '{"snapshot_date":"2023-02-30"' + body,
            40: skipped.replace('"is_fork":false', '"is_fork":null'),
            95: "not json",
        }
        for pos in sorted(bad):
            lines.insert(pos, bad[pos])
        reader, expected = read_repo_snapshots(lines), read_repo_snapshots(lines)
        RepoIndex().extend(reader, _KEEP)
        list(expected)
        assert [v.line_no for v in reader.violations] == [pos + 1 for pos in sorted(bad)]
        assert [(v.line_no, v.message) for v in reader.violations] == [
            (v.line_no, v.message) for v in expected.violations
        ]

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda index, owner, when: index.nearest(owner, "r", when),
            lambda index, owner, when: index.quality_ok(owner, "r", when),
            lambda index, owner, when: count_one("lib", "npm", when, [make_edge("lib", f"{owner}/r", when)], index),
        ],
        ids=["nearest", "quality_ok", "count"],
    )
    @pytest.mark.parametrize("owner", ["o1", "nowhere"])
    def test_a_lookup_outside_the_kept_set_raises(self, lookup, owner):
        index = repo_index(_kept_world("date-major"), _KEEP)
        with pytest.raises(KeyError, match=f"repository {owner}/r is not one"):
            lookup(index, owner, _KEPT_START)
        # a kept repository without rows has no snapshot
        assert index.nearest("kept-absent", "r", _KEPT_START) is None
        assert not index.quality_ok("kept-absent", "r", _KEPT_START)


def make_edge(pkg, dep, day, eco="npm"):
    owner, _, repo = dep.partition("/")
    return DependentEdge(
        snapshot_date=D(day) if isinstance(day, str) else day,
        dependent_owner=owner,
        dependent_repo=repo,
        ecosystem=eco,
        package_name=pkg,
    )


def quality_repo_index(dep_names, day="2023-03-01", days=None):
    snaps = []
    for day_ in days or [day]:
        for dep in dep_names:
            owner, _, repo = dep.partition("/")
            snaps.append(make_snap(owner, repo, day_, stars=3))
    return repo_index(snaps)


def count_one(pkg, eco, when, edges, repos):
    """The count of one cell from a counter over ``repos`` that requested it
    and was fed ``edges``."""
    counter = StreamingDependentCounter(repos)
    counter.request(pkg, eco, when)
    counter.feed(compact_reader(edges))
    return counter.count(pkg, eco, when)


def _edges_of_a_and_absent(when):
    """Edges of "lib" from a/r, which has snapshots, and absent/r, which has none."""
    return [make_edge("lib", "a/r", when), make_edge("lib", "absent/r", when)]


class TestCountDependents:
    def test_small_fixture(self):
        edges = [
            make_edge("libfoo", "u1/a", "2023-03-01"),
            make_edge("libfoo", "u2/b", "2023-03-01"),
            make_edge("libfoo", "u1/a", "2023-03-01"),  # duplicate row
            make_edge("other", "u3/c", "2023-03-01"),
        ]
        repos = quality_repo_index(["u1/a", "u2/b", "u3/c"])
        assert count_one("libfoo", "npm", D("2023-03-01"), edges, repos) == 2

    def test_quality_filters_inside_count(self):
        edges = [
            make_edge("libfoo", "good/a", "2023-03-01"),
            make_edge("libfoo", "starless/b", "2023-03-01"),
            make_edge("libfoo", "forky/c", "2023-03-01"),
            make_edge("libfoo", "ghost/d", "2023-03-01"),  # no snapshot at all
        ]
        repos = repo_index(
            [
                make_snap("good", "a", "2023-03-01", stars=1),
                make_snap("starless", "b", "2023-03-01", stars=0),
                make_snap("forky", "c", "2023-03-01", stars=9, is_fork=True),
            ]
        )
        assert count_one("libfoo", "npm", D("2023-03-01"), edges, repos) == 1

    def test_ecosystem_disambiguates(self):
        edges = [
            make_edge("lib", "u1/a", "2023-03-01", eco="npm"),
            make_edge("lib", "u2/b", "2023-03-01", eco="pypi"),
        ]
        repos = quality_repo_index(["u1/a", "u2/b"])
        assert count_one("lib", "npm", D("2023-03-01"), edges, repos) == 1

    def test_coverage_fallback_to_previous_date(self):
        edges = [
            make_edge("lib", "u1/a", "2023-03-01"),
            make_edge("lib", "u2/b", "2023-03-08"),
        ]
        repos = quality_repo_index(["u1/a", "u2/b"], days=["2023-03-01", "2023-03-08"])
        # 03-05 is uncovered; falls back to 03-01 rows
        assert count_one("lib", "npm", D("2023-03-05"), edges, repos) == 1
        # exact hit on 03-08
        assert count_one("lib", "npm", D("2023-03-08"), edges, repos) == 1

    def test_covered_date_with_no_rows_for_package_is_zero(self):
        edges = [make_edge("other", "u1/a", "2023-03-01")]
        repos = quality_repo_index(["u1/a"])
        assert count_one("lib", "npm", D("2023-03-01"), edges, repos) == 0

    def test_out_of_coverage_is_none(self):
        edges = [make_edge("lib", "u1/a", "2023-03-10")]
        repos = quality_repo_index(["u1/a"], day="2023-03-10")
        assert count_one("lib", "npm", D("2023-03-09"), edges, repos) is None
        assert count_one("lib", "npm", D("2023-03-18"), edges, repos) is None
        assert count_one("lib", "npm", D("2023-03-17"), edges, repos) == 1

    def test_a_row_is_kept_for_a_date_0_to_7_days_after_it(self):
        when = D("2023-03-20")
        repos = quality_repo_index(["u1/a"], days=[when - timedelta(days=d) for d in range(9)])
        counter = StreamingDependentCounter(repos)
        counter.request("lib", "npm", when)
        # 8 and 7 days before the requested date, on it, and a day after it;
        # each dropped cell is remembered, its rows held by no bucket
        days = (-8, -7, 0, 1, -8, 1)
        counter.feed(compact_reader([make_edge("lib", "u1/a", when + timedelta(days=d)) for d in days]))
        rows = {day - when.toordinal(): len(cell) for day, cell in counter._buckets[("npm", "lib")].items()}
        assert rows == {-8: 0, -7: 1, 0: 1, 1: 0}
        assert counter.count("lib", "npm", when) == 1
        # the row 7 days back is the one the requested date joins to
        assert count_one("lib", "npm", when, [make_edge("lib", "u1/a", when - timedelta(days=7))], repos) == 1

    def test_monotone_in_edge_set(self):
        rng = random.Random(42)
        base_day = D("2023-03-01")
        deps = [f"u{i}/r{i}" for i in range(12)]
        repos = quality_repo_index(deps)
        edges = [make_edge("lib", rng.choice(deps), base_day) for _ in range(60)]
        # growing prefixes of one edge stream, each fed to a fresh counter
        counts = [count_one("lib", "npm", base_day, edges[:n], repos) for n in range(1, len(edges) + 1)]
        assert counts == sorted(counts)
        assert counts[-1] == len({(e.dependent_owner, e.dependent_repo) for e in edges})

    def test_re_crawled_rows_count_once(self):
        days = ["2023-03-01", "2023-03-02"]
        lines = [
            _dated(day, _body(edge_line(), [("dependent_repo", f"app{i}")]))
            for day in days
            for i in range(4)
        ]
        # every row of the second day crawled again, late and out of order
        dump = lines + lines[:4] + lines[4:][::-1] + lines[5:7]
        counter = StreamingDependentCounter(quality_repo_index([f"user1/app{i}" for i in range(4)], days=days))
        for day in days:
            counter.request("libfoo", "npm", D(day))
        counter.feed(read_dependent_edges(dump))
        assert [counter.count("libfoo", "npm", D(day)) for day in days] == [4, 4]


def _assert_counts_match_the_oracle(edges, repo_rows, queries):
    """Each ``(pkg, eco, when)`` query counts as the naive oracle does, None
    where it finds no coverage."""
    counter = StreamingDependentCounter(repo_index(repo_rows))
    for pkg, eco, when in queries:
        counter.request(pkg, eco, when)
    counter.feed(compact_reader(edges))
    _assert_counts_match(counter, edges, repo_rows, queries)


def _assert_counts_match(counter, edges, repo_rows, queries):
    """Each query counts on the fed ``counter``, whose index holds
    ``repo_rows``, as the naive oracle does."""
    for pkg, eco, when in queries:
        assert counter.count(pkg, eco, when) == naive_dependent_count(edges, repo_rows, pkg, eco, when)


_BASE = D("2023-03-01")
_PKGS = ["lib", "app"]
_ECOS = ["npm", "pypi"]
_DEPS = [f"u{i}/r{j}" for i in range(3) for j in range(2)]


@st.composite
def _counting_world(draw):
    """Edges, snapshots and queries over a 40-day span, in any row order.

    Rows fall on a few days of the span, so same-day duplicates are common
    and coverage has gaps; queries reach 10 days past either end of the
    span, so some have no coverage in the join window.
    """
    offsets = draw(st.lists(st.integers(0, 39), min_size=1, max_size=6, unique=True))
    day = st.sampled_from(offsets).map(lambda d: _BASE + timedelta(days=d))
    pkg, dep, eco = st.sampled_from(_PKGS), st.sampled_from(_DEPS), st.sampled_from(_ECOS)
    edges = draw(st.lists(st.builds(make_edge, pkg, dep, day, eco), max_size=40))
    snap = st.builds(
        lambda dep, when, stars, fork: make_snap(*dep.split("/"), when, stars=stars, is_fork=fork),
        dep,
        day,
        st.integers(0, 2),
        st.booleans(),
    )
    repo_rows = draw(st.lists(snap, max_size=40))
    query_day = st.integers(-10, 49).map(lambda d: _BASE + timedelta(days=d))
    query = st.tuples(pkg, eco, query_day)
    queries = draw(st.lists(query, min_size=1, max_size=12))
    return edges, repo_rows, queries


class TestStreamingCounter:
    def test_matches_in_memory_index(self):
        rng = random.Random(777)
        days = [D("2023-03-01") + timedelta(days=7 * k) for k in range(10)]
        deps = [f"u{i}/r{i}" for i in range(25)]
        pkgs = [f"pkg{i}" for i in range(6)]
        edges = [
            make_edge(rng.choice(pkgs), rng.choice(deps), rng.choice(days))
            for _ in range(400)
        ]
        repo_rows = [make_snap(*dep.split("/"), day, stars=3) for day in days for dep in deps]
        queries = [
            (rng.choice(pkgs), "npm", rng.choice(days) + timedelta(days=rng.randint(0, 9)))
            for _ in range(80)
        ]
        _assert_counts_match_the_oracle(edges, repo_rows, queries)

    @settings(max_examples=300, deadline=None)
    @given(_counting_world())
    def test_matches_the_naive_oracle_on_random_worlds(self, world):
        _assert_counts_match_the_oracle(*world)

    def test_unrequested_cell_rejected(self):
        counter = StreamingDependentCounter(RepoIndex())
        counter.feed(compact_reader([make_edge("lib", "u1/a", "2023-03-01")]))
        with pytest.raises(KeyError):
            counter.count("lib", "npm", D("2023-03-01"))

    def test_a_request_after_the_feed_raises(self):
        counter = StreamingDependentCounter(quality_repo_index(["u1/a"]))
        counter.request("lib", "npm", D("2023-03-01"))
        counter.feed(compact_reader([make_edge("lib", "u1/a", "2023-03-01")]))
        with pytest.raises(RuntimeError, match="no requests after its feed"):
            counter.request("lib", "npm", D("2023-03-02"))
        with pytest.raises(KeyError):
            counter.count("lib", "npm", D("2023-03-02"))

    def test_a_second_feed_raises(self):
        counter = StreamingDependentCounter(quality_repo_index(["u1/a", "u2/b"]))
        counter.request("lib", "npm", D("2023-03-01"))
        counter.feed(compact_reader([make_edge("lib", "u1/a", "2023-03-01")]))
        with pytest.raises(RuntimeError, match="fed once"):
            counter.feed(compact_reader([make_edge("lib", "u2/b", "2023-03-01")]))
        # the refused rows were not counted
        assert counter.count("lib", "npm", D("2023-03-01")) == 1

    def test_a_count_before_the_feed_raises(self):
        counter = StreamingDependentCounter(RepoIndex())
        counter.request("lib", "npm", D("2023-03-01"))
        with pytest.raises(RuntimeError, match="only after its feed"):
            counter.count("lib", "npm", D("2023-03-01"))

    def test_feed_memory_follows_the_rows_not_the_requested_dates(self):
        # a tenth of the paper's shape: 3,300 packages, 10 release days each
        # over two years, and the default grid's 6 dates per release (the
        # day before, the day itself and 90, 180, 270 and 360 days after)
        rng = random.Random(3300)
        start = D("2021-01-01")
        offsets = (-1, 0, 90, 180, 270, 360)
        requested = {
            f"pkg{i}": [
                start + timedelta(days=day + offset) for day in rng.sample(range(730), 10) for offset in offsets
            ]
            for i in range(3300)
        }
        # the index takes its rows after the feed, before the first count
        repos = RepoIndex()
        counter = StreamingDependentCounter(repos)
        for pkg, days in requested.items():
            for when in days:
                counter.request(pkg, "npm", when)
        # a small stream: rows for 20 packages, each 0 to 9 days before one
        # of 5 of its requested dates, so some rows serve no requested date
        deps = [f"u{i}/r{i}" for i in range(30)]
        queries = [(f"pkg{i}", "npm", when) for i in range(20) for when in rng.sample(requested[f"pkg{i}"], 5)]
        edges = [
            make_edge(pkg, rng.choice(deps), when - timedelta(days=rng.randint(0, 9)), eco)
            for pkg, eco, when in queries
            for _ in range(4)
        ]
        reader = compact_reader(edges)
        tracemalloc.start()
        try:
            counter.feed(reader)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        edge_days = sorted({edge.snapshot_date for edge in edges})
        repo_rows = [
            make_snap(*dep.split("/"), day, stars=rng.randrange(3), is_fork=rng.random() < 0.1)
            for day in edge_days
            for dep in deps
        ]
        repos.extend(compact_reader(repo_rows))
        _assert_counts_match(counter, edges, repo_rows, queries)


@st.composite
def _dump_lines(draw, line_fn, mutations):
    """Compact date-first lines (see _dated_lines) and lines json.dumps writes."""
    lines = draw(_dated_lines(line_fn, mutations)) + draw(_mutated_lines(line_fn, mutations))
    return draw(st.permutations(lines)) if draw(st.booleans()) else lines


# every date the lines above hold, and a week past the latest
_LOOKUP_DAYS = [D("2023-02-27") + timedelta(days=d) for d in range(20)]


class _Wrapped:
    """A reader behind a proxy that forwards attributes, as a tracer wraps one."""

    def __init__(self, reader):
        self._reader = reader

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def __iter__(self):
        raise AssertionError("the consumer built rows instead of taking compiled bodies")


def _unmemoized(lines):
    """The lines, each behind a leading space: no body memo takes one, so a
    reader decodes every line into its row, the same row as without it."""
    return [" " + line for line in lines]


class TestFusedIngest:
    @settings(max_examples=200, deadline=None)
    @given(_dump_lines(snap_line, _SNAPSHOT_MUTATIONS))
    def test_a_reader_fed_index_answers_as_one_built_from_rows(self, lines):
        rows, violations = _read(read_repo_snapshots(lines))
        reader = read_repo_snapshots(lines)
        index = RepoIndex()
        index.extend(_Wrapped(reader))
        assert [(v.line_no, v.message) for v in reader.violations] == violations
        assert list(read_repo_snapshots(_unmemoized(lines))) == rows
        expected = RepoIndex()
        expected.extend(read_repo_snapshots(_unmemoized(lines)))
        assert set(index._timelines) == set(expected._timelines)
        for owner, name in {(row.owner, row.name) for row in rows} | {("acme", "libfoo")}:
            for when in _LOOKUP_DAYS:
                assert index.nearest(owner, name, when) == expected.nearest(owner, name, when)
                assert index.quality_ok(owner, name, when) == expected.quality_ok(owner, name, when)

    @settings(max_examples=200, deadline=None)
    @given(_dump_lines(edge_line, _EDGE_MUTATIONS), st.data())
    def test_a_reader_fed_counter_matches_one_fed_rows(self, lines, data):
        rows, violations = _read(read_dependent_edges(lines))
        cells = {("libfoo", "npm")} | {(row.package_name, row.ecosystem) for row in rows}
        days = data.draw(st.lists(st.sampled_from(_LOOKUP_DAYS), min_size=1, max_size=4))
        deps = sorted({(row.dependent_owner, row.dependent_repo) for row in rows})
        repo_rows = [
            make_snap(owner, repo, when, stars=i % 3, is_fork=i % 4 == 3)
            for i, (owner, repo) in enumerate(deps)
            for when in _LOOKUP_DAYS[::3]
        ]
        repos = repo_index(repo_rows)
        fed, expected = StreamingDependentCounter(repos), StreamingDependentCounter(repos)
        for counter in (fed, expected):
            for package, ecosystem in cells:
                for when in days:
                    counter.request(package, ecosystem, when)
        reader = read_dependent_edges(lines)
        fed.feed(_Wrapped(reader))
        assert list(read_dependent_edges(_unmemoized(lines))) == rows
        expected.feed(read_dependent_edges(_unmemoized(lines)))
        assert [(v.line_no, v.message) for v in reader.violations] == violations
        assert fed._buckets == expected._buckets
        assert fed._coverage == expected._coverage
        for package, ecosystem in cells:
            for when in days:
                want = naive_dependent_count(rows, repo_rows, package, ecosystem, when)
                assert fed.count(package, ecosystem, when) == expected.count(package, ecosystem, when) == want

    @pytest.mark.parametrize("order", ["date-major", "repository-major"])
    def test_an_index_fed_past_a_dropped_memo_matches_rows(self, order):
        # ten repositories, of which the last seven change every day: the
        # memo is dropped partway, and the rest is read row by row
        pairs = [(d, i) for d in range(12) for i in range(10)]
        if order == "repository-major":
            pairs.sort(key=lambda pair: pair[1])
        lines = [
            _dated(
                (date(2023, 3, 1) + timedelta(days=d)).isoformat(),
                _body(snap_line(), [("owner", f"o{i}"), ("stars", d if i >= 3 else 1)]),
            )
            for d, i in pairs
        ]
        _rows, sizes = _read_with_memo_sizes(read_repo_snapshots(lines))
        assert sizes[-1] is None
        index, expected = RepoIndex(), RepoIndex()
        index.extend(read_repo_snapshots(lines))
        expected.extend(read_repo_snapshots(_unmemoized(lines)))
        for i in range(10):
            for when in _LOOKUP_DAYS:
                assert index.nearest(f"o{i}", "libfoo", when) == expected.nearest(f"o{i}", "libfoo", when)

    def test_a_known_body_is_compiled_once(self, monkeypatch):
        decoded = _count_decodes(monkeypatch)
        days = ("2023-03-01", "2023-03-02", "2023-03-03")
        lines = [_dated(day, body) for day in days for body in (_BODY, _OTHER_BODY)]
        compiled = []
        pairs = list(read_repo_snapshots(lines).compiled(lambda row: compiled.append(row) or row.owner))
        assert pairs == [(D(day).toordinal(), owner) for day in days for owner in ("acme", "other")]
        assert [row.owner for row in compiled] == ["acme", "other"]
        assert decoded == lines[:2]


# an integer literal longer than int() converts by default (4,300 digits)
_HUGE = "7" * 5000


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer conversion limit"
)
class TestOversizedIntegers:
    @pytest.mark.parametrize(
        "line",
        [
            snap_line(stars=0).replace('"stars": 0', '"stars": ' + _HUGE),
            _dated("2023-03-01", _BODY.replace('"stars":10', '"stars":' + _HUGE)),
        ],
    )
    def test_a_snapshot_line_with_a_huge_integer_is_one_violation(self, line):
        reader = read_repo_snapshots([line])
        assert list(reader) == []
        [(line_no, message)] = [(v.line_no, v.message) for v in reader.violations]
        assert line_no == 1 and message.startswith("invalid JSON: ")
        # the rows after it still parse, also through the index
        lines = [_dated("2023-03-01", _BODY), line, _dated("2023-03-02", _BODY), snap_line()]
        rows, violations = _read(read_repo_snapshots(lines))
        assert len(rows) == 3 and [n for n, _ in violations] == [2]
        reader = read_repo_snapshots(lines)
        index = RepoIndex()
        index.extend(reader)
        assert [(v.line_no, v.message) for v in reader.violations] == violations
        assert index.nearest("acme", "libfoo", D("2023-03-02")) == rows[1]

    @pytest.mark.parametrize(
        "line",
        [
            edge_line(stars=0).replace('"stars": 0', '"stars": ' + _HUGE),
            _dated("2023-03-01", _body(edge_line(), [("stars", 0)]).replace('"stars":0', '"stars":' + _HUGE)),
        ],
    )
    def test_an_edge_line_with_a_huge_integer_is_one_violation(self, line):
        reader = read_dependent_edges([line])
        assert list(reader) == []
        [(line_no, message)] = [(v.line_no, v.message) for v in reader.violations]
        assert line_no == 1 and message.startswith("invalid JSON: ")
        lines = [line, edge_line(), edge_line(dependent_repo="app2")]
        rows, violations = _read(read_dependent_edges(lines))
        assert len(rows) == 2 and [n for n, _ in violations] == [1]
        counter = StreamingDependentCounter(quality_repo_index(["user1/app1", "user1/app2"]))
        counter.request("libfoo", "npm", D("2023-03-01"))
        reader = read_dependent_edges(lines)
        counter.feed(reader)
        assert [(v.line_no, v.message) for v in reader.violations] == violations
        assert counter.count("libfoo", "npm", D("2023-03-01")) == 2


class TestCountBound:
    @pytest.mark.parametrize("field", ["stars", "forks"])
    @pytest.mark.parametrize("layout", ["compact", "spaced"])
    def test_a_count_past_the_index_columns_is_one_violation(self, field, layout):
        if layout == "compact":
            line = _dated("2023-03-01", _body(snap_line(), [(field, 2**63)]))
        else:
            line = snap_line(**{field: 2**63})
        reader = read_repo_snapshots([line, snap_line(**{field: 2**63 - 1})])
        index = RepoIndex()
        index.extend(reader)
        [(line_no, message)] = [(v.line_no, v.message) for v in reader.violations]
        assert line_no == 1 and message.startswith(field)
        snap = index.nearest("acme", "libfoo", D("2023-03-01"))
        assert getattr(snap, field) == 2**63 - 1


# deeper than any recursion limit the JSON decoder runs under
_DEEP = "[" * 200_000
_READERS = {
    "snapshots": (read_repo_snapshots, snap_line),
    "edges": (read_dependent_edges, edge_line),
    "releases": (read_releases, release_line),
}


class TestUnreadableLines:
    @pytest.mark.parametrize("kind", _READERS)
    def test_a_line_that_is_not_utf_8_is_one_violation(self, tmp_path, kind):
        read, line_fn = _READERS[kind]
        good = line_fn().encode("utf-8")
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join([good, good.replace(b"libfoo", b"lib\xfffoo"), good]) + b"\n")
        rows, violations = _read(read(path))
        assert len(rows) == 2 and violations == [(2, "invalid UTF-8")]

    # the six ASCII characters of a JSON escape, in a string value or a key
    _SURROGATES = {
        "high in a value": ('"libfoo"', '"lib\\ud800foo"', "U+D800"),
        "low in a value": ('"libfoo"', '"lib\\uDC00foo"', "U+DC00"),
        "in a key": ('"libfoo"', '"libfoo","\\ud83d":1', "U+D83D"),
    }

    @pytest.mark.parametrize("kind", _READERS)
    @pytest.mark.parametrize("where", _SURROGATES)
    def test_an_escaped_lone_surrogate_is_one_violation(self, kind, where):
        read, line_fn = _READERS[kind]
        old, new, code_point = self._SURROGATES[where]
        good = line_fn()
        bad = good.replace(old, new, 1)
        rows, violations = _read(read([good, bad, good]))
        assert len(rows) == 2 and violations == [(2, f"invalid UTF-8: lone surrogate {code_point}")]

    @pytest.mark.parametrize("kind", ["snapshots", "edges"])
    def test_the_body_memo_refuses_an_escaped_lone_surrogate(self, kind):
        read, line_fn = _READERS[kind]
        good = _body(line_fn(), [])
        bad = good.replace('"libfoo"', '"lib\\ud800foo"', 1)
        days = ("2023-03-01", "2023-03-02", "2023-03-03", "2023-03-04")
        lines = [_dated(days[0], good), _dated(days[1], bad), _dated(days[2], bad), _dated(days[3], good)]
        rows, violations = _read_compiled(read(lines))
        assert [row.snapshot_date for row in rows] == [D(days[0]), D(days[3])]
        assert violations == [(2, "invalid UTF-8: lone surrogate U+D800"), (3, "invalid UTF-8: lone surrogate U+D800")]

    @pytest.mark.parametrize("kind", _READERS)
    def test_an_escaped_surrogate_pair_is_read(self, kind):
        read, line_fn = _READERS[kind]
        rows, violations = _read(read([line_fn().replace('"libfoo"', '"lib\\ud83d\\ude00foo"', 1)]))
        assert violations == [] and "lib\U0001f600foo" in repr(rows[0])

    @pytest.mark.parametrize("bad", [(b"libfoo", b"lib\xfffoo"), (b"2023-03-02", b"2023-03-\xff2")], ids=["body", "date"])
    def test_the_index_and_the_counter_refuse_it_past_the_body_memo(self, tmp_path, bad):
        days = ("2023-03-01", "2023-03-02", "2023-03-03")

        def spoiled(name, body):
            lines = [_dated(day, body).encode("utf-8") for day in days]
            lines[1] = lines[1].replace(*bad)
            path = tmp_path / name
            path.write_bytes(b"\n".join(lines) + b"\n")
            return path

        reader = read_repo_snapshots(spoiled("snapshots.jsonl", _BODY))
        index = RepoIndex()
        index.extend(reader)
        assert [(v.line_no, v.message) for v in reader.violations] == [(2, "invalid UTF-8")]
        assert index.nearest("acme", "libfoo", D("2023-03-02")).snapshot_date == D("2023-03-01")
        counter = StreamingDependentCounter(quality_repo_index(["user1/app1"], days=days))
        for day in days:
            counter.request("libfoo", "npm", D(day))
        reader = read_dependent_edges(spoiled("edges.jsonl", _body(edge_line(), [])))
        counter.feed(reader)
        assert [(v.line_no, v.message) for v in reader.violations] == [(2, "invalid UTF-8")]
        # the refused line's day is uncovered, so it joins the day before
        assert counter._coverage == [D(days[0]).toordinal(), D(days[2]).toordinal()]
        assert [counter.count("libfoo", "npm", D(day)) for day in days] == [1, 1, 1]

    @pytest.mark.parametrize("kind", _READERS)
    @pytest.mark.parametrize("deep", [_DEEP, '{"x": ' + _DEEP, _DEEP + "]"], ids=["bare", "in-object", "closed-once"])
    def test_a_deeply_nested_line_is_one_violation(self, kind, deep):
        read, line_fn = _READERS[kind]
        rows, violations = _read(read([line_fn(), deep, line_fn()]))
        assert len(rows) == 2
        [(line_no, message)] = violations
        assert line_no == 2 and message.startswith("invalid JSON: ")

    def test_the_index_reads_past_a_deeply_nested_line(self):
        lines = [_dated("2023-03-01", _BODY), _dated("2023-03-02", '"x":' + _DEEP), _dated("2023-03-03", _BODY)]
        reader = read_repo_snapshots(lines)
        index = RepoIndex()
        index.extend(reader)
        assert [v.line_no for v in reader.violations] == [2]
        assert index.nearest("acme", "libfoo", D("2023-03-03")).snapshot_date == D("2023-03-03")

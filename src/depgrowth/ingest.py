"""Snapshot ingestion: record model, line-delimited reader and writer, join indexes.

Input files are line-delimited JSON (one record per line, UTF-8, ISO-8601
dates). The first line of a file may be a schema header of the form
``{"schema": "<name>", "version": 1}``; readers validate it when present,
and :func:`write_records` always writes it.
Malformed records are surfaced as per-record :class:`SchemaViolation` entries
on the reader, never as stream aborts, so one bad row cannot poison a
multi-gigabyte ingest. Field-level details live in docs/DATA_FORMAT.md.

Join rule: a lookup at date D uses the same-day snapshot when one exists,
otherwise the latest snapshot strictly before D but at most 7 days older.
The same staleness bound applies to dependent-edge coverage dates.
:class:`RepoIndex` and :class:`StreamingDependentCounter` compute that join,
and each reads a snapshot or edge reader's lines (directly or through a
proxy that forwards its attributes) in one loop of its own, which decodes
only the lines whose body a :class:`_BodyMemo` does not know.
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from contextlib import contextmanager
from datetime import date
from itertools import accumulate, islice
from pathlib import Path
from typing import IO, Callable, Container, Iterable, Iterator, KeysView, NamedTuple, Sequence, Union

__all__ = [
    "DependentEdge",
    "PackageRelease",
    "RepoIndex",
    "RepoSnapshot",
    "SchemaHeaderError",
    "SchemaViolation",
    "SourceUnavailable",
    "StreamingDependentCounter",
    "compact_json",
    "read_dependent_edges",
    "read_releases",
    "read_repo_snapshots",
    "write_records",
]

SCHEMA_VERSION = 1
JOIN_WINDOW_DAYS = 7
# the largest stars or forks value (docs/DATA_FORMAT.md): the largest a
# RepoIndex state column (8-byte "q") holds
MAX_COUNT = 2**63 - 1

_ECOSYSTEM_RE = re.compile(r"[a-z][a-z0-9_-]*")  # applied with fullmatch
_raw_decode = json.JSONDecoder().raw_decode
# raw_decode without its frame: (value, end) of the value at an index, or
# StopIteration when none starts there
_scan_once = json.JSONDecoder().scan_once
# json.dumps(value, separators=(",", ":")), the text of each row write_records writes
compact_json = json.JSONEncoder(separators=(",", ":")).encode
# the start of a compact snapshot or edge line with its date first, as synth
# writes them; see _BodyMemo
DATED_PREFIX = '{"snapshot_date":"'

Source = Union[str, Path, IO[str], Iterable[str]]


class SourceUnavailable(OSError):
    """The underlying file could not be read."""


class SchemaHeaderError(ValueError):
    """The file-level schema header names a different schema or version.

    The message starts with the file's path when the source is a path."""


class SchemaViolation(ValueError):
    """One record failed validation; carries its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


# Record types are NamedTuples: snapshot and edge rows number in the
# millions, and a NamedTuple is cheap to build, and to declare at import.
class RepoSnapshot(NamedTuple):
    snapshot_date: date
    owner: str
    name: str
    stars: int
    forks: int
    is_fork: bool
    description: str | None = None
    topics: tuple[str, ...] = ()
    language: str | None = None


class PackageRelease(NamedTuple):
    release_date: date
    ecosystem: str
    package_name: str
    owner: str
    repo_name: str
    version_text: str
    release_notes: str | None = None


class DependentEdge(NamedTuple):
    snapshot_date: date
    dependent_owner: str
    dependent_repo: str
    ecosystem: str
    package_name: str


# ---------------------------------------------------------------------------
# line sources
# ---------------------------------------------------------------------------


@contextmanager
def _lines(source: Source) -> Iterator[Iterator[str]]:
    """The source's lines, each with its line end when it has one (see
    :func:`_text`). A file's bytes that are not UTF-8 come through as lone
    surrogates, for the reader to refuse line by line."""
    if isinstance(source, (str, Path)):
        try:
            handle = open(source, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise SourceUnavailable(f"cannot open {source}: {exc}") from exc
        with handle:
            # text mode reads "\r\n" and "\r" as "\n"
            yield handle
        return
    # an open handle or any other iterable of lines
    yield iter(source)


def _text(line: str) -> str:
    """A line of :func:`_lines` without its "\\n", then an iterable's "\\r"."""
    return line.rstrip("\n").rstrip("\r")


# ---------------------------------------------------------------------------
# record parsing
# ---------------------------------------------------------------------------


def _iso_date(text: str) -> date:
    """The date of a ``YYYY-MM-DD`` text; from Python 3.11 on,
    ``date.fromisoformat`` also takes ``20230101`` and ``2023-W01-1``."""
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return date.fromisoformat(text)


def parse_date(raw: object, field: str) -> date:
    if not isinstance(raw, str):
        raise ValueError(f"{field} must be an ISO date string")
    try:
        return _iso_date(raw)
    except ValueError:
        raise ValueError(f"{field} is not a valid ISO date: {raw!r}") from None


def req_str(obj: dict, field: str) -> str:
    value = obj.get(field)
    if not isinstance(value, str) or not value:
        raise ValueError(f"{field} must be a non-empty string")
    return value


def opt_str(obj: dict, field: str) -> str | None:
    value = obj.get(field)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string or null")
    return value


def req_int(obj: dict, field: str, low: int = 0, high: int = MAX_COUNT) -> int:
    value = obj.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ValueError(f"{field} must be an integer from {low} to {high}")
    return value


def _req_bool(obj: dict, field: str) -> bool:
    value = obj.get(field)
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be a boolean")
    return value


def req_ecosystem(obj: dict) -> str:
    value = req_str(obj, "ecosystem")
    if not _ECOSYSTEM_RE.fullmatch(value):
        raise ValueError(f"ecosystem must be a lowercase identifier, got {value!r}")
    return value


def _topics(obj: dict) -> tuple[str, ...]:
    value = obj.get("topics", [])
    if not isinstance(value, list) or any(not isinstance(t, str) for t in value):
        raise ValueError("topics must be a list of strings")
    return tuple(value)


def _snapshot_fields(obj: dict) -> tuple:
    """The snapshot row's plain fields in :class:`RepoSnapshot`'s order: the
    schema's one field rule, which raises ValueError naming the first bad one."""
    # One pass over the fields, in field order: each is read once and tested
    # inline, and one that fails its test takes its helper's return. For a
    # JSON-decoded row (no subclass of str or int but bool) each test admits
    # what its helper admits, so the helper raises that field's message; on
    # another dict it may return a value the test was stricter on.
    get = obj.get
    snapshot_date = parse_date(get("snapshot_date"), "snapshot_date")
    owner = get("owner")
    if type(owner) is not str or not owner:
        owner = req_str(obj, "owner")
    name = get("name")
    if type(name) is not str or not name:
        name = req_str(obj, "name")
    stars = get("stars")
    if type(stars) is not int or not 0 <= stars <= MAX_COUNT:
        stars = req_int(obj, "stars")
    forks = get("forks")
    if type(forks) is not int or not 0 <= forks <= MAX_COUNT:
        forks = req_int(obj, "forks")
    is_fork = get("is_fork")
    if type(is_fork) is not bool:
        is_fork = _req_bool(obj, "is_fork")
    description = get("description")
    if description is not None and type(description) is not str:
        description = opt_str(obj, "description")
    topics = get("topics", [])
    if type(topics) is not list or (topics and not all(type(topic) is str for topic in topics)):
        topics = _topics(obj)
    language = get("language")
    if language is not None and type(language) is not str:
        language = opt_str(obj, "language")
    return snapshot_date, owner, name, stars, forks, is_fork, description, tuple(topics), language


def package_release(obj: dict) -> PackageRelease:
    return PackageRelease(
        release_date=parse_date(obj.get("release_date"), "release_date"),
        ecosystem=req_ecosystem(obj),
        package_name=req_str(obj, "package_name"),
        owner=req_str(obj, "owner"),
        repo_name=req_str(obj, "repo_name"),
        version_text=req_str(obj, "version_text"),
        release_notes=opt_str(obj, "release_notes"),
    )


def release_line(release: PackageRelease) -> str:
    """The compact JSON line of a ``releases`` row, the inverse of
    :func:`package_release`; the notes are left out when None."""
    row = dict(release._asdict(), release_date=release.release_date.isoformat())
    if release.release_notes is None:
        del row["release_notes"]
    return compact_json(row)


def _edge_fields(obj: dict) -> tuple:
    """The edge row's plain fields in :class:`DependentEdge`'s order, as :func:`_snapshot_fields`."""
    get = obj.get
    snapshot_date = parse_date(get("snapshot_date"), "snapshot_date")
    owner = get("dependent_owner")
    if type(owner) is not str or not owner:
        owner = req_str(obj, "dependent_owner")
    repo = get("dependent_repo")
    if type(repo) is not str or not repo:
        repo = req_str(obj, "dependent_repo")
    ecosystem = get("ecosystem")
    if type(ecosystem) is not str or not _ECOSYSTEM_RE.fullmatch(ecosystem):
        ecosystem = req_ecosystem(obj)
    package = get("package_name")
    if type(package) is not str or not package:
        package = req_str(obj, "package_name")
    return snapshot_date, owner, repo, ecosystem, package


class RecordReader:
    """Single-use iterator over one line-delimited file.

    Yields parsed records; per-record failures are appended to
    ``violations`` (with their 1-based line numbers) and iteration
    continues. A schema header naming the wrong schema aborts with
    :class:`SchemaHeaderError` since nothing after it can be trusted.
    Iteration decodes every line; :meth:`RepoIndex.extend` and
    :meth:`StreamingDependentCounter.feed` read a snapshot or edge reader's
    lines themselves and send each line they do not accept to :meth:`_row`.
    """

    def __init__(self, source: Source, schema: str, parse: Callable[[dict], object]) -> None:
        self._source = source
        self._schema = schema
        self._parse = parse
        self.violations: list[SchemaViolation] = []

    def __iter__(self) -> Iterator[object]:
        with _lines(self._source) as lines:
            for line_no, line in enumerate(lines, start=1):
                row = self._row(line_no, _text(line))
                if row is not None:
                    yield row

    def _row(self, line_no: int, line: str) -> object | None:
        """The row parsed from one line; None for a blank line, the header
        or a violation, which is recorded."""
        # a str holds only code points below 128 exactly when isascii(), an
        # O(1) check; only a line with others can hold a lone surrogate
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                self.violations.append(SchemaViolation(line_no, "invalid UTF-8"))
                return None
        # json.loads(line) rejects a leading BOM, runs raw_decode(line, idx)
        # with idx past any leading whitespace, and rejects anything but
        # whitespace after the value. When raw_decode at 0 consumes the whole
        # line, the line has no BOM, no leading whitespace and nothing after
        # the value, so json.loads returns the same object. Both raise a
        # plain ValueError, not a JSONDecodeError, for an integer literal
        # longer than the interpreter converts, and a RecursionError for
        # nesting deeper than the interpreter's recursion limit.
        try:
            obj, end = _raw_decode(line)
        except (ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                return None
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                message = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                self.violations.append(SchemaViolation(line_no, f"invalid JSON: {message}"))
                return None
        if not isinstance(obj, dict):
            self.violations.append(SchemaViolation(line_no, "record must be an object"))
            return None
        if line_no == 1 and "schema" in obj:
            name = obj.get("schema")
            version = obj.get("version")
            where = f"{self._source}: " if isinstance(self._source, (str, Path)) else ""
            if name != self._schema:
                raise SchemaHeaderError(
                    f"{where}expected schema {self._schema!r}, file declares {name!r}"
                )
            if version != SCHEMA_VERSION:
                raise SchemaHeaderError(
                    f"{where}unsupported {name} schema version {version!r}"
                )
            return None
        # a JSON escape spells a lone surrogate in ASCII, past the check above;
        # only a line with "\u" can hold one
        if "\\u" in line:
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                surrogate = ord(exc.object[exc.start])
                self.violations.append(SchemaViolation(line_no, f"invalid UTF-8: lone surrogate U+{surrogate:04X}"))
                return None
        try:
            return self._parse(obj)
        except ValueError as exc:
            self.violations.append(SchemaViolation(line_no, str(exc)))
            return None


class _BodyMemo:
    """One read's memo of the value its consumer built from the first row of
    each distinct body of a compact, date-first line, for the later lines
    that repeat it; and the read of each line that misses it."""

    # A line that starts with DATED_PREFIX and has '",' at 28-29 splits into
    # a date D = line[18:28] and a body B = line[30:].
    # - A D that _iso_date accepts holds no '"', '\' or control character, so
    #   the string literal ends at index 28.
    # - After the ',' the scanner is where it is after the '{' of "{" + B,
    #   except that a '}' there is a trailing comma. So the line is one valid
    #   object exactly when "{" + B is a non-empty one, and
    #   json(line) == {"snapshot_date": D} | json("{" + B).
    # - When that object has no "snapshot_date" of its own, the row is
    #   date(D) followed by fields of B alone, validated when B first gave a
    #   row. A later line with a known B and a D that parses takes the value
    #   built from that row without a decode. (A header is only ever line 1,
    #   which no known body precedes.)
    # The memo is keyed on the two slices of the line as read, line end and
    # all: days on the head line[:28], bodies on the rest line[28:] = '",' +
    # B and the line end, which leaves B as it is. A head goes in only when
    # it starts with DATED_PREFIX and its D parses (head), and a rest only
    # when it starts with '",' (learn), so both probes hit exactly when the
    # line passes all four tests above; a line shorter than 28 has a head no
    # key equals. Every other line misses, and its consumer decodes it.
    # The memo keeps one rest per subject, its last, when the consumer names
    # one (a snapshot's repository), and otherwise one per distinct rest (an
    # edge's body is all of its edge). The rows of the first date have little
    # before them to repeat, so they are allowed for: once the later rows
    # that missed the memo outnumber its hits plus those first rows, bodies
    # do not repeat here, and the memo is dropped for the rest of the read.

    def __init__(self, reader: RecordReader, rule: Callable[[dict], tuple]) -> None:
        self.reader, self.rule = reader, rule  # the schema's field rule
        self.days = {}  # head -> ordinal of date(D), for each D that parsed
        self.bodies = {}  # rest -> the value its first row gave
        self.subjects = {}  # a subject -> its rest
        self.first_day = None
        self.first_rows = self.missed = 0  # rows of the first date, and later rows, that missed
        self.misses = 0  # lines that missed
        self.dropped = False

    def head(self, line: str) -> int | None:
        """The ordinal of D of a line whose head ``days`` lacks, learned if
        it parses; otherwise None, and the consumer's decode reports it."""
        if self.dropped or not line.startswith(DATED_PREFIX):
            return None
        try:
            day = self.days[line[:28]] = _iso_date(line[18:28]).toordinal()
        except ValueError:
            return None
        return day

    def miss(self, line_no: int, line: str) -> tuple | None:
        """The fields of a line that missed, or None for a line the reader's
        ``_row`` refuses; ``_row`` decides every line but one it would read with
        no check of its own (ASCII, no JSON escape, one object, not the header)."""
        self.misses += 1
        if line.isascii() and "\\u" not in line:
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                obj = None
            if type(obj) is dict and (end == len(line) or line[end:] == "\n") and (line_no > 1 or "schema" not in obj):
                try:
                    return self.rule(obj)
                except ValueError:
                    pass
        return self.reader._row(line_no, _text(line))

    def learn(self, line_no: int, line: str, value: object, subject: object = None) -> None:
        """After a miss that gave a row: count it for the drop rule, and keep
        ``value`` for its rest when that is a body; ``subject`` is the row's,
        if it has one."""
        if self.dropped or line[28:30] != '",' or not line.startswith(DATED_PREFIX):
            return
        raw_day = line[18:28]
        if self.first_day is None:
            self.first_day = raw_day
        if raw_day == self.first_day:
            self.first_rows += 1
        else:
            self.missed += 1
            # the lines before this one that did not miss hit
            if self.missed > line_no - self.misses + self.first_rows:
                self.dropped = True
                self.days.clear()
                self.bodies.clear()
                self.subjects.clear()
                return
        if line[:28] not in self.days:
            return  # D did not parse: it may end in '\', and B is then no body
        # D parsed and the line decoded, so "{" + B is an object (see above).
        # Without a '\' in B, a "snapshot_date" key of its own would show as
        # that text.
        body = line[30:]
        if '"snapshot_date"' in body:
            return
        if "\\" in body:
            try:
                if "snapshot_date" in _raw_decode("{" + body)[0]:
                    return
            except ValueError:
                return
        rest = line[28:]
        if subject is not None:
            old = self.subjects.get(subject)
            if old is not None:
                del self.bodies[old]
            self.subjects[subject] = rest
        self.bodies[rest] = value


def read_repo_snapshots(source: Source) -> RecordReader:
    """Reader for repository snapshot records (schema ``repo-snapshots``)."""
    return RecordReader(source, "repo-snapshots", lambda obj: RepoSnapshot._make(_snapshot_fields(obj)))


def read_releases(source: Source) -> RecordReader:
    """Reader for package release records (schema ``releases``)."""
    return RecordReader(source, "releases", package_release)


def read_dependent_edges(source: Source) -> RecordReader:
    """Reader for dependent edge records (schema ``dependent-edges``)."""
    return RecordReader(source, "dependent-edges", lambda obj: DependentEdge._make(_edge_fields(obj)))


def write_records(handle: IO[str], schema: str, lines: Iterable[str], provenance: dict | None = None) -> int:
    """Write a sorted-key schema header, with ``provenance`` when given, then
    one line per row of ``lines``, each encoded as by :func:`compact_json`; returns the row count."""
    header: dict = {"schema": schema, "version": SCHEMA_VERSION}
    if provenance is not None:
        header["provenance"] = provenance
    handle.write(json.dumps(header, sort_keys=True) + "\n")
    n = 0
    lines = iter(lines)
    # one write per batch of lines: a text handle's write costs more than a join
    while batch := list(islice(lines, 128)):
        n += len(batch)
        batch.append("")
        handle.write("\n".join(batch))
    return n


# ---------------------------------------------------------------------------
# indexes and joins
# ---------------------------------------------------------------------------


def _intern(ids: dict, values: list, value: object) -> int:
    """``value``'s id: its index in ``values``, which ``ids`` maps it to; added if new."""
    found = ids.get(value)
    if found is None:
        found = ids[value] = len(values)
        values.append(value)
    return found


# the shared run columns: repository id, first ordinal date, step and row
# count (2 bytes each, so a run closes before either passes _MAX_RUN) and state id
_RUN_COLUMNS = "iiHHi"
_MAX_RUN = 0xFFFF


class _Timeline:
    """One repository's open run as its rows stream in, which a row of its
    state one step after its last row extends (the second row sets the step;
    ``next`` is None until it does, and once the run is full). A repeat of
    the run's state on one of its days, as a late re-crawl brings, is
    dropped; any other row closes the run onto the shared ``runs`` columns
    and opens one, and a row on or before the last row's day leaves the
    timeline ``unsorted``."""

    __slots__ = ("runs", "repo", "first", "step", "count", "state", "next", "unsorted")

    def __init__(self, repo: int, runs: tuple) -> None:
        self.runs = runs
        self.repo = repo
        self.count = 0  # rows in the open run; 0 before the first row
        self.state = self.next = None
        self.unsorted = False

    def add(self, ordinal: int, state: int) -> None:
        if ordinal == self.next and state == self.state:
            self.count += 1
            self.next = ordinal + self.step if self.count < _MAX_RUN else None
            return
        if self.count:
            gap = ordinal - self.first - (self.count - 1) * self.step  # days after the last row
            if state == self.state:
                if -(self.count - 1) * self.step <= gap <= 0 and gap % self.step == 0:
                    return
                if self.count == 1 and 0 < gap <= _MAX_RUN:
                    self.step, self.count, self.next = gap, 2, ordinal + gap
                    return
            self.unsorted = self.unsorted or gap <= 0
            self.close_run()
        # a run of one row has step 1, so a lookup needs no case of its own
        self.first, self.step, self.count, self.state, self.next = ordinal, 1, 1, state, None

    def close_run(self) -> None:
        for column, value in zip(self.runs, (self.repo, self.first, self.step, self.count, self.state)):
            column.append(value)


def _grouped(repos: array, dropped: int) -> tuple[list[int], list[int]]:
    """Run positions stably sorted by repository id, so each id's keep their
    arrival order: those of the ids below ``dropped``, and the bounds of each
    id's, its start and the next's."""
    bounds = list(accumulate(map(Counter(repos).__getitem__, range(dropped + 1)), initial=0))
    order = sorted(range(len(repos)), key=repos.__getitem__)
    del order[bounds[dropped] :]
    return order, bounds[:-1]


# the memo value of a snapshot row of a repository the index does not keep
_SKIPPED = (None, None)


class RepoIndex:
    """Per-repository snapshot timeline with nearest-date lookup.

    A repository's timeline is a list of runs, rows of one state at a
    constant step. Every repository's runs share four columns of first
    ordinal date, step and row count (2 bytes each) and state id, 12 B a
    run; a lookup bisects the run starts within the repository's bounds and
    takes the run's row ``min((t - first) // step, count - 1)``. States
    (stars and forks, 8 bytes each, a 1-byte fork flag and a 4-byte metadata
    id, 21 B a state) are four shared arrays too, and a row whose state
    equals its repository's last one shares its id. So a repository whose
    counts seldom change costs a few runs and states however many rows it
    has, and one whose state changes with every row, the worst case, 33 B a
    row. A repository of one row with a short key costs about 230 B in all,
    most of it its key and id, 4 B its bound. Each distinct metadata tuple
    is held once. Every count up to ``MAX_COUNT`` is held as itself.

    Rows come from snapshot readers through :meth:`extend`, all before the
    first lookup, which closes the index, so a counter over an empty index
    may be fed first and the snapshots read after, as the CLI does; a row
    after it raises RuntimeError. A row extends its repository's open run
    (see ``_Timeline``), and a closed run goes to the columns with its
    repository's id, 16 B a run, until the first lookup rebuilds the
    timelines of rows that arrived out of order, keeping each day's last
    row, and groups the runs by repository. A repeated body's line costs
    two memo probes and the open run's extension in place; any other line's
    plain fields go straight to the state columns.

    An index may keep only the repositories its caller can look up (the
    ``keep`` of :meth:`extend`). Another repository's rows are still read,
    validated and counted by the reader, but cost no timeline, state,
    metadata id or run, and a lookup of it raises KeyError.
    """

    def __init__(self) -> None:
        # the repositories kept, then those of them without rows; None keeps every one
        self._keep: Container[tuple[str, str]] | None = None
        # key -> _Timeline, then its repository id from the first lookup on
        self._timelines: dict[tuple[str, str], _Timeline | int] = {}
        self._closed = False  # set by the first lookup
        # the run columns (see _RUN_COLUMNS), then grouped without ids, id's in _bounds[id]:_bounds[id + 1]
        self._runs = tuple(map(array, _RUN_COLUMNS))
        self._bounds = array("i")
        self._stars, self._forks, self._forked, self._state_metas = map(array, "qqbi")
        # metadata tuples by id, and each one's id
        self._metas: list[tuple] = []
        self._meta_ids: dict[tuple, int] = {}

    def extend(self, snapshots: RecordReader, keep: Container[tuple[str, str]] | None = None) -> None:
        """Add the rows of a snapshot reader, or of a proxy that forwards its
        attributes, in one pass over its lines.

        ``keep``, when given, holds the ``(owner, name)`` keys of the
        repositories the index keeps; every extend of one index takes the
        same ``keep``. A row of any other repository gives one shared skip
        value, so a repeat of its body costs one memo hit.
        """
        if self._closed:
            raise RuntimeError("RepoIndex takes no rows after its first lookup")
        self._keep = keep
        timelines, runs = self._timelines, self._runs
        columns = stars, forks, forked, state_metas = self._stars, self._forks, self._forked, self._state_metas
        memo = _BodyMemo(snapshots, _snapshot_fields)
        days, bodies, head, miss, learn = memo.days, memo.bodies, memo.head, memo.miss, memo.learn
        with _lines(snapshots._source) as lines:
            for line_no, line in enumerate(lines, start=1):
                day = days.get(line[:28])
                if day is None:
                    day = head(line)
                if day is None or (value := bodies.get(line[28:])) is None:
                    fields = miss(line_no, line)
                    if fields is None:
                        continue
                    # the row's timeline and state id, its state appended
                    # unless it equals the repository's last one
                    when, owner, name, star_count, fork_count, is_fork, description, topics, language = fields
                    day, key = when.toordinal(), (owner, name)
                    timeline = timelines.get(key)
                    if timeline is None and (keep is None or key in keep):
                        timeline = timelines[key] = _Timeline(len(timelines), runs)
                    if timeline is None:
                        value = _SKIPPED
                    else:
                        meta = _intern(self._meta_ids, self._metas, (description, topics, language))
                        state, new = timeline.state, (star_count, fork_count, is_fork, meta)
                        if state is None or (stars[state], forks[state], forked[state], state_metas[state]) != new:
                            state = len(stars)
                            for column, field in zip(columns, new):
                                column.append(field)
                        value = timeline, state
                    learn(line_no, line, value, key)
                timeline, state = value
                if timeline is None:
                    continue
                if day == timeline.next and state == timeline.state:
                    count = timeline.count = timeline.count + 1
                    timeline.next = day + timeline.step if count < _MAX_RUN else None
                else:
                    timeline.add(day, state)

    def _close(self) -> None:
        """Close every open run, rebuild the unsorted timelines, group the runs by repository."""
        self._closed = True
        timelines, runs = self._timelines, self._runs
        if self._keep is not None:  # only the kept repositories without rows remain to be told apart
            self._keep = frozenset(key for key in self._keep if key not in timelines)
        repos, firsts, steps, counts, states = runs
        unsorted = [timeline.repo for timeline in timelines.values() if timeline.unsorted]
        for key, timeline in timelines.items():
            timeline.close_run()
            timelines[key] = timeline.repo
        dropped = len(timelines)  # no repository's id: a rebuilt timeline's old runs take it
        order, bounds = _grouped(repos, dropped)
        if unsorted:
            for repo in unsorted:  # one at a time, its runs in arrival order
                last = {}  # ordinal -> state id; a later same-day row wins
                for pos in order[bounds[repo] : bounds[repo + 1]]:
                    first, step = firsts[pos], steps[pos]
                    last.update(dict.fromkeys(range(first, first + counts[pos] * step, step), states[pos]))
                    repos[pos] = dropped
                timeline = _Timeline(repo, runs)
                for ordinal in sorted(last):
                    timeline.add(ordinal, last[ordinal])
                timeline.close_run()
            order, bounds = _grouped(repos, dropped)
        self._runs = tuple(array(column.typecode, map(column.__getitem__, order)) for column in runs[1:])
        self._bounds = array("i", bounds)

    def _joined(self, key: tuple[str, str], target: int) -> tuple[int, int] | None:
        """(ordinal date, state id) of the repository's row joined to
        ordinal ``target`` (the join rule), or None."""
        if not self._closed:
            self._close()
        repo = self._timelines.get(key)
        if repo is None:
            if self._keep is not None and key not in self._keep:
                raise KeyError(f"repository {key[0]}/{key[1]} is not one this RepoIndex keeps")
            return None
        firsts, steps, counts, states = self._runs
        low = self._bounds[repo]
        pos = bisect_right(firsts, target, low, self._bounds[repo + 1]) - 1
        if pos < low:
            return None
        first, step = firsts[pos], steps[pos]
        ordinal = first + min((target - first) // step, counts[pos] - 1) * step
        if target - ordinal > JOIN_WINDOW_DAYS:
            return None
        return ordinal, states[pos]

    def _quality(self, key: tuple[str, str], target: int) -> bool:
        joined = self._joined(key, target)
        return joined is not None and not self._forked[joined[1]] and self._stars[joined[1]] != 0

    def nearest(self, owner: str, name: str, when: date) -> RepoSnapshot | None:
        """Snapshot joined to ``when``: same day, else latest within 7 days
        back; KeyError for a repository the index does not keep."""
        joined = self._joined((owner, name), when.toordinal())
        if joined is None:
            return None
        ordinal, state = joined
        description, topics, language = self._metas[self._state_metas[state]]
        return RepoSnapshot(
            snapshot_date=date.fromordinal(ordinal),
            owner=owner,
            name=name,
            stars=self._stars[state],
            forks=self._forks[state],
            is_fork=bool(self._forked[state]),
            description=description,
            topics=topics,
            language=language,
        )

    def quality_ok(self, owner: str, name: str, when: date) -> bool:
        """True when the joined snapshot exists, is not a fork, and has >= 1
        star; KeyError for a repository the index does not keep."""
        return self._quality((owner, name), when.toordinal())


def resolve_coverage(coverage: Sequence[int], target: int) -> int | None:
    """Latest coverage ordinal at or before ``target`` within the join window."""
    pos = bisect_right(coverage, target) - 1
    if pos < 0 or target - coverage[pos] > JOIN_WINDOW_DAYS:
        return None
    return coverage[pos]


# the memo value of an edge whose package has no requested dates
_UNREQUESTED = (None, None, None)
# the typecode of a counted bucket, whose ids are distinct: as wide as the
# "i" of a bucket not yet counted, so the typecode alone tells count whether
# to deduplicate
_DISTINCT = "I"
# a cell whose rows serve no requested date: kept in its package's cells so
# the bisection runs once per (package, date); its append discards
_DROPPED = deque(maxlen=0)
# a dependent's quality verdict on one date (0: not yet computed)
_FAIL, _PASS = 1, 2


class StreamingDependentCounter:
    """Single-pass distinct-dependent counting for requested package-dates,
    of the dependents that pass the quality join on one :class:`RepoIndex`.

    Register every (ecosystem, package, date) cell of interest up front, then
    feed one edge reader once, then count. A request after the feed, a
    second feed or a count before it raises RuntimeError. A row serves a
    requested date when it lies 0 to 7 days before it, so the feed holds
    each requested package's requested dates as one sorted list, and the
    first row of a (package, date) cell decides, by a bisection, whether
    the cell serves a requested date; a cell that serves none is remembered
    as dropped. A kept cell's row costs 4 B, its dependent's id appended to
    a bucket, until that bucket is first counted and deduplicated; a
    dropped cell's row costs nothing. Each dependent of a requested
    package's edge has its ``(owner, repo)`` key held once. Working memory
    is proportional to the requested cells, one entry per (requested
    package, date) in the stream, the kept rows and their dependents; never
    to the total edge row count. A repeated body's line costs two memo
    probes, its day added to the coverage and its dependent's id appended.
    """

    def __init__(self, repos: RepoIndex) -> None:
        self._repos = repos
        # (eco, pkg) -> requested ordinals: a set until the feed, then sorted
        self._requests: dict[tuple[str, str], set[int] | list[int]] = {}
        # (eco, pkg) -> row ordinal -> dependent ids, one per kept row until
        # counted, then distinct (see _DISTINCT); or _DROPPED
        self._buckets: dict[tuple[str, str], dict[int, array | deque]] = {}
        # every row's ordinal date, sorted; None until the feed
        self._coverage: list[int] | None = None
        # each dependent's (owner, repo) key -> its id, and the keys by id
        self._ids: dict[tuple[str, str], int] = {}
        self._names: list[tuple[str, str]] = []
        # per target ordinal each dependent's verdict (see _PASS), one byte each;
        # judged once per (dependent, date), not once per package it depends on:
        # with them count takes a third to two thirds of the CPU it takes without
        self._verdicts: dict[int, bytearray] = {}

    def request(self, package_name: str, ecosystem: str, when: date) -> None:
        if self._coverage is not None:
            raise RuntimeError("StreamingDependentCounter takes no requests after its feed")
        self._requests.setdefault((ecosystem, package_name), set()).add(when.toordinal())

    def feed(self, edges: RecordReader) -> None:
        """Take the rows of an edge reader, or of a proxy that forwards its
        attributes, in one pass over its lines."""
        if self._coverage is not None:
            raise RuntimeError("StreamingDependentCounter is fed once")
        buckets = self._buckets
        requested = self._requests = {key: sorted(ordinals) for key, ordinals in self._requests.items()}
        ids, names = self._ids, self._names
        coverage = set()
        cover = coverage.add
        memo = _BodyMemo(edges, _edge_fields)
        days, bodies, head, miss, learn = memo.days, memo.bodies, memo.head, memo.miss, memo.learn
        with _lines(edges._source) as lines:
            for line_no, line in enumerate(lines, start=1):
                day = days.get(line[:28])
                if day is None:
                    day = head(line)
                if day is None or (value := bodies.get(line[28:])) is None:
                    fields = miss(line_no, line)
                    if fields is None:
                        continue
                    # the package's requested dates and buckets, and the dependent's id
                    when, owner, repo, ecosystem, package = fields
                    day, key = when.toordinal(), (ecosystem, package)
                    dates = requested.get(key)
                    if dates is None:
                        value = _UNREQUESTED
                    else:
                        value = dates, buckets.setdefault(key, {}), _intern(ids, names, (owner, repo))
                    learn(line_no, line, value)
                cover(day)
                dates, cells, dep = value
                if dates is None:
                    continue
                cell = cells.get(day)
                if cell is None:
                    # the first row of its cell: keep the cell only when the first
                    # requested date on or after it lies at most 7 days after it
                    pos = bisect_left(dates, day)
                    if pos < len(dates) and dates[pos] - day <= JOIN_WINDOW_DAYS:
                        cell = cells[day] = array("i")
                    else:
                        cell = cells[day] = _DROPPED
                cell.append(dep)
        self._coverage = sorted(coverage)

    def dependents(self) -> KeysView[tuple[str, str]]:
        """The ``(owner, repo)`` key of each dependent of a requested
        package's edge fed: the repositories :meth:`count` may join."""
        return self._ids.keys()

    def count(self, package_name: str, ecosystem: str, when: date) -> int | None:
        """Quality-dependent count for a previously requested cell, or None
        when no edge row lies within the join window of ``when``.

        Raises:
            KeyError: the cell was never requested.
            RuntimeError: the counter has not been fed.
        """
        if self._coverage is None:
            raise RuntimeError("StreamingDependentCounter counts only after its feed")
        target = when.toordinal()
        key = (ecosystem, package_name)
        dates = self._requests.get(key, ())
        pos = bisect_left(dates, target)
        if pos == len(dates) or dates[pos] != target:
            raise KeyError(f"cell ({ecosystem}, {package_name}, {when}) was not requested")
        effective = resolve_coverage(self._coverage, target)
        if effective is None:
            return None
        # effective lies 0 to 7 days before the requested target, so the feed
        # kept its cell
        cells = self._buckets.get(key, {})
        cell = cells.get(effective)
        if cell is None:
            return 0
        if cell.typecode != _DISTINCT:
            cell = cells[effective] = array(_DISTINCT, set(cell))
        verdicts = self._verdicts.get(target)
        if verdicts is None:
            verdicts = self._verdicts[target] = bytearray(len(self._names))
        names, quality = self._names, self._repos._quality
        count = 0
        for dep in cell:
            verdict = verdicts[dep]
            if not verdict:
                verdict = verdicts[dep] = _PASS if quality(names[dep], target) else _FAIL
            if verdict == _PASS:
                count += 1
        return count

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
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from operator import lt
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "DateOutOfRange",
    "DependentEdge",
    "PackageRelease",
    "RepoIndex",
    "RepoSnapshot",
    "SchemaHeaderError",
    "SchemaViolation",
    "SourceUnavailable",
    "StreamingDependentCounter",
    "read_dependent_edges",
    "read_releases",
    "read_repo_snapshots",
    "write_records",
]

SCHEMA_VERSION = 1
JOIN_WINDOW_DAYS = 7
# the largest stars or forks value (docs/DATA_FORMAT.md); RepoIndex keeps one
# too large for its 4-byte columns in a side table, exactly
MAX_COUNT = 2**63 - 1

_ECOSYSTEM_RE = re.compile(r"[a-z][a-z0-9_-]*")  # applied with fullmatch
_raw_decode = json.JSONDecoder().raw_decode
# json.dumps(row, separators=(",", ":")), without an encoder built per call
_compact = json.JSONEncoder(separators=(",", ":")).encode
# the start of a compact snapshot or edge line with its date first, as synth
# writes them; see RecordReader.__iter__
_DATED_PREFIX = '{"snapshot_date":"'

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


class DateOutOfRange(LookupError):
    """A dependent-count lookup has no edge coverage within the join window."""


# Snapshot and edge rows number in the millions, so they are NamedTuples
# (cheap to build); the few thousand releases stay a frozen dataclass.
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


@dataclass(frozen=True)
class PackageRelease:
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
    """The source's lines, each without its line end."""
    if isinstance(source, (str, Path)):
        try:
            handle = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise SourceUnavailable(f"cannot open {source}: {exc}") from exc
        with handle:
            # text mode reads "\r\n" and "\r" as "\n"
            yield map(str.rstrip, handle, repeat("\n"))
        return
    # an open handle or any other iterable of lines
    yield map(str.rstrip, map(str.rstrip, source, repeat("\n")), repeat("\r"))


# ---------------------------------------------------------------------------
# record parsing
# ---------------------------------------------------------------------------


def _parse_date(raw: object, field: str) -> date:
    if not isinstance(raw, str):
        raise ValueError(f"{field} must be an ISO date string")
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"{field} is not a valid ISO date: {raw!r}") from None


def _req_str(obj: dict, field: str) -> str:
    value = obj.get(field)
    if not isinstance(value, str) or not value:
        raise ValueError(f"{field} must be a non-empty string")
    return value


def _opt_str(obj: dict, field: str) -> str | None:
    value = obj.get(field)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string or null")
    return value


def _req_int(obj: dict, field: str, low: int = 0, high: int = MAX_COUNT) -> int:
    value = obj.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ValueError(f"{field} must be an integer from {low} to {high}")
    return value


def _req_bool(obj: dict, field: str) -> bool:
    value = obj.get(field)
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be a boolean")
    return value


def _req_ecosystem(obj: dict) -> str:
    value = _req_str(obj, "ecosystem")
    if not _ECOSYSTEM_RE.fullmatch(value):
        raise ValueError(f"ecosystem must be a lowercase identifier, got {value!r}")
    return value


def _topics(obj: dict) -> tuple[str, ...]:
    value = obj.get("topics", [])
    if not isinstance(value, list) or any(not isinstance(t, str) for t in value):
        raise ValueError("topics must be a list of strings")
    return tuple(value)


def _repo_snapshot(obj: dict) -> RepoSnapshot:
    # One pass over the fields with the helpers' rules (at most stricter);
    # any row it refuses goes through the helper chain, which writes the
    # message for the first bad field or builds the row after all.
    get = obj.get
    raw_date = get("snapshot_date")
    owner = get("owner")
    name = get("name")
    stars = get("stars")
    forks = get("forks")
    is_fork = get("is_fork")
    description = get("description")
    topics = get("topics", [])
    language = get("language")
    if (
        type(raw_date) is str
        and type(owner) is str
        and owner
        and type(name) is str
        and name
        and type(stars) is int
        and 0 <= stars <= MAX_COUNT
        and type(forks) is int
        and 0 <= forks <= MAX_COUNT
        and type(is_fork) is bool
        and (description is None or type(description) is str)
        and type(topics) is list
        and (not topics or all(type(topic) is str for topic in topics))
        and (language is None or type(language) is str)
    ):
        try:
            return RepoSnapshot(
                date.fromisoformat(raw_date),
                owner,
                name,
                stars,
                forks,
                is_fork,
                description,
                tuple(topics),
                language,
            )
        except ValueError:
            pass  # a bad date: the chain below reports it
    return RepoSnapshot(
        snapshot_date=_parse_date(obj.get("snapshot_date"), "snapshot_date"),
        owner=_req_str(obj, "owner"),
        name=_req_str(obj, "name"),
        stars=_req_int(obj, "stars"),
        forks=_req_int(obj, "forks"),
        is_fork=_req_bool(obj, "is_fork"),
        description=_opt_str(obj, "description"),
        topics=_topics(obj),
        language=_opt_str(obj, "language"),
    )


def _package_release(obj: dict) -> PackageRelease:
    return PackageRelease(
        release_date=_parse_date(obj.get("release_date"), "release_date"),
        ecosystem=_req_ecosystem(obj),
        package_name=_req_str(obj, "package_name"),
        owner=_req_str(obj, "owner"),
        repo_name=_req_str(obj, "repo_name"),
        version_text=_req_str(obj, "version_text"),
        release_notes=_opt_str(obj, "release_notes"),
    )


def _dependent_edge(obj: dict) -> DependentEdge:
    # the same fast check as _repo_snapshot's, with the same fallback
    get = obj.get
    raw_date = get("snapshot_date")
    owner = get("dependent_owner")
    repo = get("dependent_repo")
    ecosystem = get("ecosystem")
    package = get("package_name")
    if (
        type(raw_date) is str
        and type(owner) is str
        and owner
        and type(repo) is str
        and repo
        and type(ecosystem) is str
        and _ECOSYSTEM_RE.fullmatch(ecosystem)
        and type(package) is str
        and package
    ):
        try:
            return DependentEdge(date.fromisoformat(raw_date), owner, repo, ecosystem, package)
        except ValueError:
            pass
    return DependentEdge(
        snapshot_date=_parse_date(obj.get("snapshot_date"), "snapshot_date"),
        dependent_owner=_req_str(obj, "dependent_owner"),
        dependent_repo=_req_str(obj, "dependent_repo"),
        ecosystem=_req_ecosystem(obj),
        package_name=_req_str(obj, "package_name"),
    )


class RecordReader:
    """Single-use iterator over one line-delimited file.

    Yields parsed records; per-record failures are appended to
    ``violations`` (with their 1-based line numbers) and iteration
    continues. A schema header naming the wrong schema aborts with
    :class:`SchemaHeaderError` since nothing after it can be trusted.

    Given the ``row_type`` that ``parse`` builds (a tuple whose first field
    is the ``snapshot_date``) and the number of fields after the date that
    name a row's subject (``key_fields``), the reader decodes each distinct
    row body of a compact, date-first line once; see :meth:`compiled`.
    """

    def __init__(
        self,
        source: Source,
        schema: str,
        parse: Callable[[dict], object],
        row_type: type[tuple] | None = None,
        key_fields: int = 0,
    ) -> None:
        self._source = source
        self._schema = schema
        self._parse = parse
        self._row_type = row_type
        self._key_fields = key_fields
        self.violations: list[SchemaViolation] = []

    def __iter__(self) -> Iterator[object]:
        row_type = self._row_type
        if row_type is None:
            for _, row in self.compiled(_same, _same):
                yield row
            return
        # a memoized body keeps the fields after its date, the subject's
        # strings shared across bodies
        key_fields = self._key_fields
        strings: dict[str, str] = {}

        def fields(row: tuple) -> tuple:
            key = tuple([strings.setdefault(v, v) for v in row[1 : 1 + key_fields]])
            return key + row[1 + key_fields :]

        rebuild = tuple.__new__
        scan = self.compiled(fields, _same)
        for day, tail in scan:
            yield rebuild(row_type, (day, *tail))

    def compiled(
        self, compile: Callable[[tuple], object], day_of: Callable[[date], object] = date.toordinal
    ) -> Iterator[tuple[object, object]]:
        """Yield ``(day_of(row date), compile(row))`` for each row.

        A row whose body is memoized gets the value ``compile`` built from
        that body's first row, so a consumer that does its per-body work in
        ``compile`` (which must not return None) does it once per distinct
        body. Readers without a ``row_type`` yield None for the day.
        """
        # Body memo. A line that starts with _DATED_PREFIX and has '",' at
        # 28-29 splits into a date D = line[18:28] and a body B = line[30:].
        # - A D that date.fromisoformat accepts holds no '"', '\' or control
        #   character, so the string literal ends at index 28.
        # - After the ',' the scanner is where it is after the '{' of
        #   "{" + B, except that a '}' there is a trailing comma. So the line
        #   is one valid object exactly when "{" + B is a non-empty one, and
        #   json(line) == {"snapshot_date": D} | json("{" + B).
        # - When that object has no "snapshot_date" of its own, the row is
        #   date(D) followed by fields of B alone, validated when B first
        #   yielded a row. A later line with a known B and a D that parses
        #   yields the value compiled from that row without a decode. (A
        #   header is only ever line 1, which no known body precedes.)
        # Any other line takes the full path below, which writes every
        # violation.
        # The memo keeps the last body of each subject (the first key_fields
        # fields after the date: a repository, or a whole edge), so it never
        # holds more bodies than the input has subjects. The rows of the
        # first date have little before them to repeat, so they are allowed
        # for: once the later rows that missed the memo outnumber its hits
        # plus those first rows, bodies do not repeat here, and the memo is
        # dropped for the rest of the read.
        row_type = self._row_type
        key_fields = self._key_fields
        days: dict[str, object] = {}  # D -> day_of(date(D)), for each D that parsed
        # B -> compile(its first row); None once the memo is dropped
        bodies: dict[str, object] | None = None if row_type is None else {}
        subjects: dict[tuple, str] = {}  # a row's key fields -> its B
        strings: dict[str, str] = {}  # one copy of each key field string
        first_day = None
        first_rows = missed = hits = 0
        with _lines(self._source) as lines:
            for line_no, line in enumerate(lines, start=1):
                if bodies is not None and line[28:30] == '",' and line.startswith(_DATED_PREFIX):
                    raw_day = line[18:28]
                    body = line[30:]
                    value = bodies.get(body)
                    if value is not None:
                        day = days.get(raw_day)
                        if day is None:
                            try:
                                day = days[raw_day] = day_of(date.fromisoformat(raw_day))
                            except ValueError:
                                pass  # the full path reports the date
                        if day is not None:
                            hits += 1
                            yield day, value
                            continue
                else:
                    body = None
                # json.loads(line) rejects a leading BOM, runs raw_decode(line,
                # idx) with idx past any leading whitespace, and rejects anything
                # but whitespace after the value. When raw_decode at 0 consumes
                # the whole line, the line has no BOM, no leading whitespace and
                # nothing after the value, so json.loads returns the same object.
                # Both raise a plain ValueError, not a JSONDecodeError, for an
                # integer literal longer than the interpreter converts.
                try:
                    obj, end = _raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except ValueError as exc:
                        message = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                        self.violations.append(SchemaViolation(line_no, f"invalid JSON: {message}"))
                        continue
                if not isinstance(obj, dict):
                    self.violations.append(SchemaViolation(line_no, "record must be an object"))
                    continue
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
                    continue
                try:
                    row = self._parse(obj)
                except ValueError as exc:
                    self.violations.append(SchemaViolation(line_no, str(exc)))
                    continue
                value = compile(row)
                yield (None if row_type is None else day_of(row[0])), value
                if body is None:
                    continue
                if first_day is None:
                    first_day = raw_day
                if raw_day == first_day:
                    first_rows += 1
                else:
                    missed += 1
                    if missed > hits + first_rows:
                        bodies = None
                        subjects.clear()
                        strings.clear()
                        continue
                if raw_day not in days:
                    try:
                        days[raw_day] = day_of(date.fromisoformat(raw_day))
                    except ValueError:
                        continue  # D may end in '\', and B is then no body
                # D parsed and the line decoded, so "{" + B is an object (see
                # above). Without a '\' in B, a "snapshot_date" key of its own
                # would show as that text.
                if '"snapshot_date"' in body:
                    continue
                if "\\" in body:
                    try:
                        if "snapshot_date" in _raw_decode("{" + body)[0]:
                            continue
                    except ValueError:
                        continue
                # the key fields' strings are shared across subjects, and their
                # table is bounded as the memo is: by the input's subjects
                key = tuple([strings.setdefault(v, v) for v in row[1 : 1 + key_fields]])
                old = subjects.get(key)
                if old is not None:
                    del bodies[old]
                subjects[key] = body
                bodies[body] = value


def _same(value: object) -> object:
    return value


def _compiled(
    rows: Iterable[tuple], compile: Callable[[tuple], object]
) -> Iterator[tuple[int, object]]:
    """``(ordinal date, compile(row))`` for each dated row.

    A reader compiles each memoized body once (see
    :meth:`RecordReader.compiled`); any other iterable of rows is compiled
    row by row. A reader is known by its ``compiled`` method, so one behind
    a proxy that forwards attributes takes the same path.
    """
    compiled = getattr(rows, "compiled", None)
    if compiled is not None:
        return compiled(compile)
    return ((row.snapshot_date.toordinal(), compile(row)) for row in rows)


def read_repo_snapshots(source: Source) -> RecordReader:
    """Reader for repository snapshot records (schema ``repo-snapshots``)."""
    return RecordReader(source, "repo-snapshots", _repo_snapshot, RepoSnapshot, 2)


def read_releases(source: Source) -> RecordReader:
    """Reader for package release records (schema ``releases``)."""
    return RecordReader(source, "releases", _package_release)


def read_dependent_edges(source: Source) -> RecordReader:
    """Reader for dependent edge records (schema ``dependent-edges``)."""
    return RecordReader(source, "dependent-edges", _dependent_edge, DependentEdge, 4)


def write_records(handle: IO[str], schema: str, rows: Iterable[Mapping], provenance: dict | None = None) -> int:
    """Write a sorted-key schema header, with ``provenance`` when given, then
    one compact JSON row per line; returns the row count."""
    header: dict = {"schema": schema, "version": SCHEMA_VERSION}
    if provenance is not None:
        header["provenance"] = provenance
    handle.write(json.dumps(header, sort_keys=True) + "\n")
    n = 0
    for n, row in enumerate(rows, start=1):
        handle.write(_compact(row) + "\n")
    return n


# ---------------------------------------------------------------------------
# indexes and joins
# ---------------------------------------------------------------------------


def _joined(ordinals: Sequence[int], target: int) -> int:
    """Position of the row joined to ordinal ``target`` (the join rule), or -1."""
    pos = bisect_right(ordinals, target) - 1
    if pos < 0 or target - ordinals[pos] > JOIN_WINDOW_DAYS:
        return -1
    return pos


def _quality(timeline: tuple | None, target: int) -> bool:
    if timeline is None:
        return False
    ordinals, stars, _forks, fork_flags, _metas = timeline
    pos = _joined(ordinals, target)
    # counts are >= 0 and a wide one is stored negative, so any stored value
    # but 0 is at least one star
    return pos >= 0 and not fork_flags[pos] and stars[pos] != 0


def _intern(ids: dict, values: list, value: object) -> int:
    """``value``'s id: its index in ``values``, which ``ids`` maps it to; added if new."""
    found = ids.get(value)
    if found is None:
        found = ids[value] = len(values)
        values.append(value)
    return found


# RepoIndex's column types: ordinal date, stars, forks, fork flag, metadata id
_COLUMNS = "iiibi"
# the largest count a 4-byte column holds as itself
_NARROW_MAX = 2**31 - 1
# count_quality's verdicts (0: not yet computed), and a dependent whose
# timeline it has not yet resolved
_FAIL, _PASS = 1, 2
_UNRESOLVED = object()


class RepoIndex:
    """Per-repository snapshot timeline with nearest-date lookup.

    Rows are stored as parallel arrays per repository: 4-byte ordinal date,
    stars, forks and metadata id, and a 1-byte fork flag, 17 B a row. Each
    distinct description/topics/language tuple is held once, and a row holds
    its id. A stars or forks value past 2^31 - 1 is held once in a side table
    of wide counts, and its column holds ``~i`` (negative, where counts are
    not) for its position ``i`` there.
    """

    def __init__(self) -> None:
        # key -> columns (see _COLUMNS); appended in arrival order, then
        # sorted and frozen on the first lookup
        self._rows: dict[tuple[str, str], tuple] = {}
        self._frozen: dict[tuple[str, str], tuple] = {}
        # metadata tuples and wide counts by id, and each one's id
        self._metas: list[tuple] = []
        self._meta_ids: dict[tuple, int] = {}
        self._wide: list[int] = []
        self._wide_ids: dict[int, int] = {}
        # count_quality's memos, indexed by dependent id and emptied whenever
        # a repository's timeline opens or thaws, or the ids index other
        # names: each dependent's frozen timeline (None when absent), and per
        # target ordinal each dependent's verdict (see _PASS), one byte each
        self._dep_names: Sequence[str] = ()
        self._dep_timelines: list = []
        self._verdicts: dict[int, bytearray] = {}

    @classmethod
    def build(cls, snapshots: Iterable[RepoSnapshot]) -> "RepoIndex":
        index = cls()
        index.extend(snapshots)
        return index

    def add(self, snap: RepoSnapshot) -> None:
        self.extend((snap,))

    def extend(self, snapshots: Iterable[RepoSnapshot]) -> None:
        """Add rows; a snapshot reader hands over each distinct body once."""
        for ordinal, (
            ordinals,
            star_counts,
            fork_counts,
            fork_flags,
            metas,
            stars,
            forks,
            flag,
            meta,
        ) in _compiled(snapshots, self._compile):
            ordinals.append(ordinal)
            star_counts.append(stars)
            fork_counts.append(forks)
            fork_flags.append(flag)
            metas.append(meta)

    def _compile(self, snap: RepoSnapshot) -> tuple:
        """The row's timeline columns and the values to append to them."""
        store = self._store((snap.owner, snap.name))
        meta = _intern(self._meta_ids, self._metas, (snap.description, snap.topics, snap.language))
        return store + (self._narrow(snap.stars), self._narrow(snap.forks), int(snap.is_fork), meta)

    def _narrow(self, count: int) -> int:
        return count if count <= _NARROW_MAX else ~_intern(self._wide_ids, self._wide, count)

    def _widen(self, stored: int) -> int:
        return stored if stored >= 0 else self._wide[~stored]

    def _store(self, key: tuple[str, str]) -> tuple:
        store = self._rows.get(key)
        if store is None:
            # a frozen timeline thaws so late additions land in it
            frozen = self._frozen.pop(key, ((),) * len(_COLUMNS))
            store = self._rows[key] = tuple(map(array, _COLUMNS, frozen))
            self._dep_timelines.clear()
            self._verdicts.clear()
        return store

    def __len__(self) -> int:
        return len(self._rows) + len(self._frozen)

    def _timeline(self, key: tuple[str, str]) -> tuple | None:
        frozen = self._frozen.get(key)
        if frozen is not None:
            return frozen
        store = self._rows.get(key)
        if store is None:
            return None
        ordinals = store[0]
        if all(map(lt, ordinals, ordinals[1:])):
            # strictly increasing: already sorted with no same-day duplicates
            # (_store thaws by copying, so these arrays are never appended to)
            frozen = store
        else:
            # each day's last row (a later same-day row wins), in date order
            last = dict(zip(ordinals, range(len(ordinals))))
            kept = sorted(last.values(), key=ordinals.__getitem__)
            frozen = tuple(array(column.typecode, [column[i] for i in kept]) for column in store)
        self._frozen[key] = frozen
        del self._rows[key]
        return frozen

    def nearest(self, owner: str, name: str, when: date) -> RepoSnapshot | None:
        """Snapshot joined to ``when``: same day, else latest within 7 days back."""
        timeline = self._timeline((owner, name))
        if timeline is None:
            return None
        ordinals, stars, forks, fork_flags, metas = timeline
        pos = _joined(ordinals, when.toordinal())
        if pos < 0:
            return None
        description, topics, language = self._metas[metas[pos]]
        return RepoSnapshot(
            snapshot_date=date.fromordinal(ordinals[pos]),
            owner=owner,
            name=name,
            stars=self._widen(stars[pos]),
            forks=self._widen(forks[pos]),
            is_fork=bool(fork_flags[pos]),
            description=description,
            topics=topics,
            language=language,
        )

    def quality_ok(self, owner: str, name: str, when: date) -> bool:
        """True when the joined snapshot exists, is not a fork, and has >= 1 star."""
        return _quality(self._timeline((owner, name)), when.toordinal())

    def count_quality(self, deps: Iterable[int], names: Sequence[str], target: int) -> int:
        """How many dependents in ``deps`` pass :meth:`quality_ok` on ordinal ``target``.

        ``deps`` are ids into ``names``, whose entries are ``owner/name``
        keys; ids already seen must keep their names. Each dependent's
        timeline is resolved once, and each verdict is computed once per
        target date.
        """
        if names is not self._dep_names:
            self._dep_names = names
            self._dep_timelines.clear()
            self._verdicts.clear()
        timelines = self._dep_timelines
        if len(timelines) < len(names):
            timelines.extend([_UNRESOLVED] * (len(names) - len(timelines)))
        verdicts = self._verdicts.get(target)
        if verdicts is None:
            verdicts = self._verdicts[target] = bytearray(len(names))
        elif len(verdicts) < len(names):
            verdicts.extend(bytes(len(names) - len(verdicts)))
        count = 0
        for dep in deps:
            verdict = verdicts[dep]
            if not verdict:
                timeline = timelines[dep]
                if timeline is _UNRESOLVED:
                    owner, _, name = names[dep].partition("/")
                    timeline = timelines[dep] = self._timeline((owner, name))
                verdict = verdicts[dep] = _PASS if _quality(timeline, target) else _FAIL
            if verdict == _PASS:
                count += 1
        return count


def _resolve_coverage(coverage: Sequence[int], target: int) -> int | None:
    """Latest coverage ordinal at or before ``target`` within the join window."""
    pos = _joined(coverage, target)
    return None if pos < 0 else coverage[pos]


# the compiled value of an edge whose package has no requested dates
_UNREQUESTED = (None, None, None)
# the typecode of a counted bucket, whose ids are distinct: as wide as the
# "i" of a bucket not yet counted, so the typecode alone tells count whether
# to deduplicate
_DISTINCT = "I"


class StreamingDependentCounter:
    """Single-pass distinct-dependent counting for requested package-dates.

    Register every (ecosystem, package, date) cell of interest up front, then
    feed the edge stream once. A row kept for some cell costs 4 B, its
    dependent's id appended to a bucket, until that bucket is first counted
    and deduplicated; each kept dependent's ``owner/repo`` key is held once.
    Working memory is proportional to the requested cells plus the rows kept
    for them, never to the total edge row count.
    """

    def __init__(self) -> None:
        # (eco, pkg) -> sorted list of requested ordinals is built lazily
        self._requests: dict[tuple[str, str], set[int]] = {}
        self._windows: dict[tuple[str, str], list[int]] | None = None
        # (eco, pkg) -> candidate ordinal -> dependent ids, one per kept row
        # until counted, then distinct (see _DISTINCT)
        self._buckets: dict[tuple[str, str], dict[int, array]] = {}
        self._coverage: set[int] = set()
        self._sorted_coverage: list[int] | None = None
        # each kept dependent's "owner/repo" key -> its id, and the keys by id
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def request(self, package_name: str, ecosystem: str, when: date) -> None:
        self._requests.setdefault((ecosystem, package_name), set()).add(when.toordinal())
        self._windows = None

    def _window_lists(self) -> dict[tuple[str, str], list[int]]:
        if self._windows is None:
            self._windows = {k: sorted(v) for k, v in self._requests.items()}
        return self._windows

    def feed(self, edges: Iterable[DependentEdge]) -> None:
        windows = self._window_lists()
        buckets = self._buckets
        # a counted bucket that rows may join is counted afresh
        for cells in buckets.values():
            for ordinal, cell in cells.items():
                if cell.typecode == _DISTINCT:
                    cells[ordinal] = array("i", cell)

        def compile(edge: DependentEdge) -> tuple:
            # the package's requested dates and buckets, and the dependent
            key = (edge.ecosystem, edge.package_name)
            requested = windows.get(key)
            if not requested:
                return _UNREQUESTED
            dep = f"{edge.dependent_owner}/{edge.dependent_repo}"
            return requested, buckets.setdefault(key, {}), dep

        coverage = self._coverage
        ids = self._ids
        self._sorted_coverage = None
        for ordinal, (requested, cells, dep) in _compiled(edges, compile):
            coverage.add(ordinal)
            if requested is None:
                continue
            # keep the row only if its date can serve some requested date:
            # candidate iff requested ordinal in [ordinal, ordinal + window]
            pos = bisect_left(requested, ordinal)
            if pos == len(requested) or requested[pos] - ordinal > JOIN_WINDOW_DAYS:
                continue
            # ids only for dependents of kept rows: one no request needs
            # costs no int object
            dep_id = ids.get(dep)
            if dep_id is None:
                dep_id = _intern(ids, self._names, dep)
            cell = cells.get(ordinal)
            if cell is None:
                cell = cells[ordinal] = array("i")
            cell.append(dep_id)

    def count(
        self, package_name: str, ecosystem: str, when: date, repos: RepoIndex
    ) -> int:
        """Quality-dependent count for a previously requested cell.

        Raises:
            KeyError: the cell was never requested.
            DateOutOfRange: no edge coverage within the join window.
        """
        target = when.toordinal()
        key = (ecosystem, package_name)
        if target not in self._requests.get(key, ()):
            raise KeyError(f"cell ({ecosystem}, {package_name}, {when}) was not requested")
        if self._sorted_coverage is None:
            self._sorted_coverage = sorted(self._coverage)
        effective = _resolve_coverage(self._sorted_coverage, target)
        if effective is None:
            raise DateOutOfRange(f"no edge coverage within {JOIN_WINDOW_DAYS} days of {when}")
        cells = self._buckets.get(key, {})
        cell = cells.get(effective)
        if cell is None:
            return 0
        if cell.typecode != _DISTINCT:
            cell = cells[effective] = array(_DISTINCT, set(cell))
        return repos.count_quality(cell, self._names, target)

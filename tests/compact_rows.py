"""Test rows as synth writes them, read back through the package's readers.

``RepoIndex`` and ``StreamingDependentCounter`` take rows only by reading a
reader's lines in a loop of their own, so a test that builds one from
``RepoSnapshot`` or ``DependentEdge`` rows writes them as compact, date-first
lines and reads those: the lines take the read's body memo, as the corpus
files do.
"""

from depgrowth.ingest import (
    DependentEdge,
    RepoIndex,
    compact_json,
    read_dependent_edges,
    read_repo_snapshots,
)


def compact_line(row):
    """A snapshot or edge row as ``compact_json`` of its fields in order, so
    its date comes first, the date in ISO form and topics as a list."""
    fields = row._asdict()
    fields["snapshot_date"] = row.snapshot_date.isoformat()
    if "topics" in fields:
        fields["topics"] = list(row.topics)
    return compact_json(fields)


def compact_reader(rows):
    """A snapshot or edge reader over ``rows``, all of one type, each written
    as its :func:`compact_line`.

    Before it is returned, a first read of the lines is checked to give
    back ``rows`` and no violation.
    """
    rows = list(rows)
    read = read_dependent_edges if rows and isinstance(rows[0], DependentEdge) else read_repo_snapshots
    lines = list(map(compact_line, rows))
    check = read(lines)
    assert list(check) == rows and check.violations == []
    return read(lines)


def repo_index(snapshots, keep=None):
    """A ``RepoIndex`` of ``snapshots``, read through :func:`compact_reader`,
    that keeps the repositories of ``keep`` (every one when None)."""
    index = RepoIndex()
    index.extend(compact_reader(snapshots), keep)
    return index

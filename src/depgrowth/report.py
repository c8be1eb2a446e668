"""Aggregation of log-difference samples and ratings into report shapes.

Everything here is a pure fold over immutable inputs: stratified summary
tables with significance flags, shared-scale heatmap matrices, box-plot
quartile records, demographic tallies, and a deterministic SVG renderer
for the heatmaps. Row and column orderings are fixed (ecosystem
lexicographic, strata and release types in their documented enum order)
so emitted files are byte-stable.

Zero-major and zero-minor releases fold into the major and minor columns
by default; pass fold_zero=False to keep all five raw types as columns.
"""

from __future__ import annotations

import itertools
import math
from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence

from .complexity import xml_escape
from .metrics import LogDiffSample, LookaheadGrid, SizeBin
from .semver import ReleaseType, VersionSeries
from .stats import (
    DegenerateInput,
    TTestResult,
    mean,
    pairwise_welch,
    sample_variance,
    welch_t_test,
)

__all__ = [
    "FOLDED_TYPE_ORDER",
    "RAW_TYPE_ORDER",
    "BIN_ORDER",
    "SERIES_ORDER",
    "StratumSummary",
    "HeatmapBundle",
    "TimepointDistribution",
    "LanguageDescriptives",
    "ComplexityTypeTests",
    "fold_release_type",
    "summary_table",
    "format_summary_table_text",
    "summary_table_rows",
    "heatmap_matrix",
    "timepoint_distributions",
    "release_demographics",
    "complexity_descriptives",
    "complexity_vs_type_tests",
    "render_heatmap_svg",
    "tukey_quartiles",
]

RAW_TYPE_ORDER = tuple(t.value for t in ReleaseType)
FOLDED_TYPE_ORDER = RAW_TYPE_ORDER[:3]
BIN_ORDER = tuple(b.value for b in SizeBin)
SERIES_ORDER = tuple(s.value for s in VersionSeries)

_STRATUM_ORDERS = {"bin": BIN_ORDER, "series": SERIES_ORDER}


# the column each release type folds into: zero_major into major, zero_minor into minor
_FOLDED = {t: t.value.removeprefix("zero_") for t in ReleaseType}


def fold_release_type(release_type: ReleaseType, fold_zero: bool = True) -> str:
    """Column label for a release type: its value, or with ``fold_zero``
    the major or minor label for a zero-major or zero-minor type."""
    return _FOLDED[release_type] if fold_zero else release_type.value


class StratumSummary(NamedTuple):
    """One table cell: a (ecosystem, stratum, release-type) sample group.

    std is None for single-sample cells. significantly_highest marks the
    release type whose mean beats every other type in the same row under
    pairwise Welch tests at the table's alpha; at most one cell per row
    carries it.
    """

    ecosystem: str
    stratum: str
    release_type: str
    n: int
    mean: float
    std: Optional[float]
    significantly_highest: bool


def _cells(
    samples: Iterable[LogDiffSample], strat_by: str, fold_zero: bool, offsets: Container[int]
) -> dict[tuple[str, str, str, int], list[float]]:
    """Values of the samples whose offset is in ``offsets``, grouped by
    (ecosystem, stratum, folded type, offset) in table order: ecosystem
    ascending, stratum and type in their documented order, then offset.

    Raises:
        ValueError: unknown strat_by.
    """
    if strat_by not in _STRATUM_ORDERS:
        raise ValueError(f"strat_by must be 'bin' or 'series', got {strat_by!r}")
    cells: dict[tuple[str, str, str, int], list[float]] = {}
    for sample in samples:
        if sample.offset_days in offsets:
            stratum = sample.bin.value if strat_by == "bin" else sample.series.value
            key = (sample.ecosystem, stratum, fold_release_type(sample.release_type, fold_zero), sample.offset_days)
            cells.setdefault(key, []).append(sample.value)
    stratum_order = {name: i for i, name in enumerate(_STRATUM_ORDERS[strat_by])}
    type_order = {name: i for i, name in enumerate(RAW_TYPE_ORDER)}
    order = sorted(cells, key=lambda k: (k[0], stratum_order[k[1]], type_order[k[2]], k[3]))
    return {key: cells[key] for key in order}


def summary_table(
    samples: Sequence[LogDiffSample],
    strat_by: str,
    offset_days: int,
    *,
    alpha: float = 0.05,
    fold_zero: bool = True,
) -> list[StratumSummary]:
    """Stratified mean/std table over one metric at one look-ahead offset.

    One row per (ecosystem, stratum) with a cell per release type present;
    empty cells are simply absent from the list. Rows and cells come out
    in deterministic order (ecosystem asc, stratum and type in documented
    order). Cell flags follow stats.pairwise_welch: a unique strict-max
    mean whose Welch test against every other type in the row exists and
    rejects at alpha, with no multiple-comparison correction.

    Raises:
        ValueError: unknown strat_by, or samples mixing metrics.
    """
    cells = _cells(samples, strat_by, fold_zero, (offset_days,))
    metrics_seen = {s.metric for s in samples}
    if len(metrics_seen) > 1:
        raise ValueError(f"samples mix metrics {sorted(metrics_seen)}; summarize one at a time")

    rows: dict[tuple[str, str], dict[str, list[float]]] = {}
    for (eco, stratum, label, _), values in cells.items():
        rows.setdefault((eco, stratum), {})[label] = values
    summaries: list[StratumSummary] = []
    for (eco, stratum), groups in rows.items():
        # every cell holds a value, so pairwise_welch's input checks pass
        winner = pairwise_welch(groups, alpha=alpha) if len(groups) >= 2 else None
        for label, values in groups.items():
            std = math.sqrt(sample_variance(values)) if len(values) >= 2 else None
            summaries.append(
                StratumSummary(
                    ecosystem=eco,
                    stratum=stratum,
                    release_type=label,
                    n=len(values),
                    mean=mean(values),
                    std=std,
                    significantly_highest=label == winner,
                )
            )
    return summaries


def _cell_text(summary: StratumSummary) -> str:
    flag = "*" if summary.significantly_highest else ""
    if summary.std is None:
        return f"{summary.mean:.3f}{flag} (n={summary.n})"
    return f"{summary.mean:.3f} ±{summary.std:.3f}{flag} (n={summary.n})"


def format_summary_table_text(summaries: Sequence[StratumSummary]) -> str:
    """Aligned plain-text rendering; '*' marks the flagged cell of a row."""
    if not summaries:
        return "(no data)\n"
    type_labels = [t for t in RAW_TYPE_ORDER if any(s.release_type == t for s in summaries)]
    rows: dict[tuple[str, str], dict[str, str]] = {}
    for summary in summaries:
        rows.setdefault((summary.ecosystem, summary.stratum), {})[summary.release_type] = _cell_text(summary)

    header = ["ecosystem", "stratum", *type_labels]
    table = [header]
    for (eco, stratum) in rows:  # dict preserves the summary ordering
        cells = rows[(eco, stratum)]
        table.append([eco, stratum, *(cells.get(t, "-") for t in type_labels)])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def summary_table_rows(summaries: Sequence[StratumSummary]) -> tuple[list[str], list[list[object]]]:
    """(header, rows) for CSV emission; std empty string when absent."""
    header = ["ecosystem", "stratum", "release_type", "n", "mean", "std", "significantly_highest"]
    rows: list[list[object]] = []
    for s in summaries:
        rows.append([
            s.ecosystem,
            s.stratum,
            s.release_type,
            s.n,
            repr(s.mean),
            "" if s.std is None else repr(s.std),
            s.significantly_highest,
        ])
    return header, rows


class HeatmapBundle(NamedTuple):
    """Per-ecosystem mean matrices on one shared color scale.

    matrices maps ecosystem -> row-major tuples (stratum x release type);
    absent cells are None. vmin/vmax are the global extrema over all
    ecosystems, widened symmetrically when degenerate so a linear ramp
    always has a positive span.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrices: dict[str, tuple[tuple[Optional[float], ...], ...]]
    vmin: float
    vmax: float


_DEGENERATE_SPAN_EPS = 1e-9


def heatmap_matrix(summaries: Sequence[StratumSummary]) -> HeatmapBundle:
    """Pivot summaries into per-ecosystem matrices plus global scale bounds."""
    strata_seen = {s.stratum for s in summaries}
    types_seen = {s.release_type for s in summaries}
    stratum_order = [*BIN_ORDER, *SERIES_ORDER]
    row_labels = tuple(name for name in stratum_order if name in strata_seen)
    col_labels = tuple(name for name in RAW_TYPE_ORDER if name in types_seen)

    by_eco: dict[str, dict[tuple[str, str], float]] = {}
    for s in summaries:
        by_eco.setdefault(s.ecosystem, {})[(s.stratum, s.release_type)] = s.mean

    matrices: dict[str, tuple[tuple[Optional[float], ...], ...]] = {}
    for eco in sorted(by_eco):
        cells = by_eco[eco]
        matrices[eco] = tuple(
            tuple(cells.get((row, col)) for col in col_labels) for row in row_labels
        )

    means = [s.mean for s in summaries]
    if not means:
        vmin, vmax = 0.0, 1.0
    else:
        vmin, vmax = min(means), max(means)
        if vmin == vmax:
            vmin -= _DEGENERATE_SPAN_EPS
            vmax += _DEGENERATE_SPAN_EPS
    return HeatmapBundle(
        row_labels=row_labels, col_labels=col_labels, matrices=matrices, vmin=vmin, vmax=vmax
    )


def _median_of_sorted(values: Sequence[float]) -> float:
    n = len(values)
    mid = n // 2
    if n % 2:
        return float(values[mid])
    return 0.5 * (values[mid - 1] + values[mid])


def tukey_quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive median-of-halves rule.

    For odd n the median element belongs to both halves. Examples:
    1..8 -> (2.5, 4.5, 6.5); 1..7 -> (2.5, 4.0, 5.5); a single value is
    its own three quartiles.

    Raises:
        ValueError: empty input.
    """
    if not values:
        raise ValueError("quartiles of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    med = _median_of_sorted(ordered)
    if n == 1:
        return float(ordered[0]), med, float(ordered[0])
    half = (n + 1) // 2
    return _median_of_sorted(ordered[:half]), med, _median_of_sorted(ordered[n - half:])


class TimepointDistribution(NamedTuple):
    """Box-plot record for one (ecosystem, stratum, type, offset) cell.

    Carries raw extrema and 1.5*IQR fences so a renderer can choose either
    whisker convention.
    """

    ecosystem: str
    stratum: str
    release_type: str
    offset_days: int
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    lower_fence: float
    upper_fence: float


def timepoint_distributions(
    samples: Sequence[LogDiffSample],
    grid: LookaheadGrid,
    strat_by: str = "bin",
    *,
    fold_zero: bool = True,
) -> list[TimepointDistribution]:
    """Quartile records per cell and per grid offset, for box plots.

    Only samples whose offset is on the grid contribute; empty cells are
    omitted. Output order is (ecosystem, stratum, type, offset).
    """
    out: list[TimepointDistribution] = []
    for (eco, stratum, rtype, offset), values in _cells(samples, strat_by, fold_zero, set(grid.offsets)).items():
        q1, med, q3 = tukey_quartiles(values)
        iqr = q3 - q1
        out.append(
            TimepointDistribution(
                ecosystem=eco,
                stratum=stratum,
                release_type=rtype,
                offset_days=offset,
                n=len(values),
                minimum=min(values),
                q1=q1,
                median=med,
                q3=q3,
                maximum=max(values),
                lower_fence=q1 - 1.5 * iqr,
                upper_fence=q3 + 1.5 * iqr,
            )
        )
    return out


def release_demographics(records: Iterable[tuple[str, ReleaseType]]) -> dict[str, dict[str, int]]:
    """Release counts per ecosystem with all five raw types as columns.

    Takes ``(ecosystem, release type)`` pairs and counts each under its
    type's value. Ecosystems sort ascending; zero counts are kept explicit.
    """
    counts: dict[str, dict[str, int]] = {}
    for eco, release_type in records:
        counts.setdefault(eco, dict.fromkeys(RAW_TYPE_ORDER, 0))[release_type.value] += 1
    return {eco: counts[eco] for eco in sorted(counts)}


class LanguageDescriptives(NamedTuple):
    language: str
    n: int
    mean: float
    std: Optional[float]
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def complexity_descriptives(
    ratings_by_language: Mapping[str, Sequence[int]],
) -> list[LanguageDescriptives]:
    """n/mean/std/quartile table of ratings per language, languages asc.

    Callers pass integer ratings only (null verdicts excluded upstream);
    empty groups are omitted.
    """
    out: list[LanguageDescriptives] = []
    for language in sorted(ratings_by_language):
        ratings = [float(r) for r in ratings_by_language[language]]
        if not ratings:
            continue
        q1, med, q3 = tukey_quartiles(ratings)
        std = math.sqrt(sample_variance(ratings)) if len(ratings) >= 2 else None
        out.append(
            LanguageDescriptives(
                language=language,
                n=len(ratings),
                mean=mean(ratings),
                std=std,
                minimum=min(ratings),
                q1=q1,
                median=med,
                q3=q3,
                maximum=max(ratings),
            )
        )
    return out


class ComplexityTypeTests(NamedTuple):
    """Pairwise Welch results between release-type rating groups.

    tests maps (language, type_a, type_b); pairs that cannot run (missing
    group, too few ratings, twin zero variances) land in skipped with a
    reason instead of failing the whole report.
    """

    tests: dict[tuple[str, str, str], TTestResult]
    skipped: dict[tuple[str, str, str], str]


def complexity_vs_type_tests(
    ratings: Mapping[str, Mapping[str, Sequence[int]]],
    *,
    fold_zero: bool = True,
) -> ComplexityTypeTests:
    """Welch t-tests between release types' ratings, per language."""
    type_order = FOLDED_TYPE_ORDER if fold_zero else RAW_TYPE_ORDER
    tests: dict[tuple[str, str, str], TTestResult] = {}
    skipped: dict[tuple[str, str, str], str] = {}
    for language in sorted(ratings):
        groups = ratings[language]
        for type_a, type_b in itertools.combinations(type_order, 2):
            key = (language, type_a, type_b)
            a = groups.get(type_a)
            b = groups.get(type_b)
            if not a or not b:
                missing = type_a if not a else type_b
                skipped[key] = f"no {missing} ratings"
                continue
            try:
                tests[key] = welch_t_test([float(v) for v in a], [float(v) for v in b])
            except DegenerateInput as exc:
                skipped[key] = str(exc)
    return ComplexityTypeTests(tests=tests, skipped=skipped)


# Heatmap rendering. Fixed geometry and a two-color linear ramp keep the
# output byte-stable for golden comparison.
_RAMP_LOW = (247, 251, 255)
_RAMP_HIGH = (8, 48, 107)
_CELL_W = 84
_CELL_H = 44
_MARGIN_LEFT = 140
_MARGIN_TOP = 56
_MARGIN = 16


def _ramp_color(value: float, vmin: float, vmax: float) -> tuple[str, float]:
    t = (value - vmin) / (vmax - vmin)
    t = min(max(t, 0.0), 1.0)
    channels = tuple(
        round(lo + t * (hi - lo)) for lo, hi in zip(_RAMP_LOW, _RAMP_HIGH)
    )
    return "#{:02x}{:02x}{:02x}".format(*channels), t


def render_heatmap_svg(bundle: HeatmapBundle, ecosystem: str) -> str:
    """Deterministic standalone SVG of one ecosystem's matrix in ``bundle``,
    titled with the ecosystem.

    Cells map linearly onto the low->high ramp over the bundle's shared
    bounds (values outside clamp); labels print with three decimals and
    flip to white on dark cells; None cells render hatched with no label.

    Raises:
        ValueError: empty bounds.
    """
    vmin, vmax = bundle.vmin, bundle.vmax
    if not vmax > vmin:
        raise ValueError(f"bounds must satisfy vmin < vmax, got ({vmin}, {vmax})")
    matrix, row_labels, col_labels = bundle.matrices[ecosystem], bundle.row_labels, bundle.col_labels
    n_rows, n_cols = len(row_labels), len(col_labels)

    width = _MARGIN_LEFT + n_cols * _CELL_W + _MARGIN
    height = _MARGIN_TOP + n_rows * _CELL_H + _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse">',
        '<rect width="6" height="6" fill="#f2f2f2"/>',
        '<path d="M0 6 L6 0" stroke="#999999" stroke-width="1"/>',
        "</pattern>",
        "</defs>",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="8" y="24" font-size="14">{xml_escape(ecosystem)}</text>',
    ]
    for j, label in enumerate(col_labels):
        cx = _MARGIN_LEFT + j * _CELL_W + _CELL_W // 2
        parts.append(
            f'<text x="{cx}" y="{_MARGIN_TOP - 10}" text-anchor="middle">{xml_escape(label)}</text>'
        )
    for i, label in enumerate(row_labels):
        cy = _MARGIN_TOP + i * _CELL_H + _CELL_H // 2 + 4
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{cy}" text-anchor="end">{xml_escape(label)}</text>'
        )
    for i in range(n_rows):
        for j in range(n_cols):
            x = _MARGIN_LEFT + j * _CELL_W
            y = _MARGIN_TOP + i * _CELL_H
            value = matrix[i][j]
            if value is None:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                    f'fill="url(#hatch)" stroke="#ffffff"/>'
                )
                continue
            fill, t = _ramp_color(value, vmin, vmax)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                f'fill="{fill}" stroke="#ffffff"/>'
            )
            text_fill = "#ffffff" if t > 0.6 else "#1a1a1a"
            parts.append(
                f'<text x="{x + _CELL_W // 2}" y="{y + _CELL_H // 2 + 4}" '
                f'text-anchor="middle" fill="{text_fill}">{value:.3f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


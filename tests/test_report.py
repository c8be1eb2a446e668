"""Tests for stratified tables, heatmaps, box-plot records, and SVG output."""

from __future__ import annotations

import math
import pathlib
import statistics
import xml.etree.ElementTree as ET
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from depgrowth.metrics import LogDiffSample, LookaheadGrid, SizeBin
from depgrowth.report import (
    BIN_ORDER,
    FOLDED_TYPE_ORDER,
    RAW_TYPE_ORDER,
    SERIES_ORDER,
    HeatmapBundle,
    StratumSummary,
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
    tukey_quartiles,
)
from depgrowth.semver import ReleaseType, VersionSeries
from depgrowth.stats import pairwise_welch

GOLDEN = pathlib.Path(__file__).parent / "golden"

_SERIES_FOR_TYPE = {
    ReleaseType.MAJOR: VersionSeries.ONE_VER,
    ReleaseType.MINOR: VersionSeries.ONE_VER,
    ReleaseType.PATCH: VersionSeries.ONE_VER,
    ReleaseType.ZERO_MAJOR: VersionSeries.ZERO_VER,
    ReleaseType.ZERO_MINOR: VersionSeries.ZERO_VER,
}


def _sample(
    value,
    *,
    eco="npm",
    rtype=ReleaseType.MAJOR,
    bin_=SizeBin.SMALL,
    series=None,
    offset=360,
    metric="dependents",
    package="pkg",
):
    return LogDiffSample(
        ecosystem=eco,
        package_name=package,
        release_date=date(2023, 1, 1),
        version_text="1.0.0",
        release_type=rtype,
        series=series or _SERIES_FOR_TYPE[rtype],
        bin=bin_,
        metric=metric,
        offset_days=offset,
        value=float(value),
    )


def _cells(values_by_type, **kwargs):
    samples = []
    for rtype, values in values_by_type.items():
        samples.extend(_sample(v, rtype=rtype, **kwargs) for v in values)
    return samples


# ---------------------------------------------------------------------------
# fold_release_type


def test_fold_maps_zero_types_into_release_columns():
    assert fold_release_type(ReleaseType.ZERO_MAJOR) == "major"
    assert fold_release_type(ReleaseType.ZERO_MINOR) == "minor"
    assert fold_release_type(ReleaseType.MAJOR) == "major"
    assert fold_release_type(ReleaseType.MINOR) == "minor"
    assert fold_release_type(ReleaseType.PATCH) == "patch"


def test_fold_can_be_disabled():
    assert fold_release_type(ReleaseType.ZERO_MAJOR, fold_zero=False) == "zero_major"
    assert fold_release_type(ReleaseType.ZERO_MINOR, fold_zero=False) == "zero_minor"


# ---------------------------------------------------------------------------
# summary_table


def test_summary_means_match_naive_recomputation():
    values_by_type = {
        ReleaseType.MAJOR: [0.9, 1.1, 1.0, 1.3],
        ReleaseType.MINOR: [0.2, 0.4, 0.3],
        ReleaseType.PATCH: [0.05, 0.1],
    }
    got = summary_table(_cells(values_by_type), "bin", 360)
    assert [s.release_type for s in got] == ["major", "minor", "patch"]
    for summary in got:
        raw = values_by_type[ReleaseType(summary.release_type)]
        assert summary.n == len(raw)
        assert summary.mean == pytest.approx(statistics.mean(raw), abs=1e-12)
        assert summary.std == pytest.approx(statistics.stdev(raw), abs=1e-12)
        assert summary.ecosystem == "npm"
        assert summary.stratum == "small"


def test_zero_types_fold_into_major_minor_cells():
    samples = _cells({
        ReleaseType.MAJOR: [1.0, 1.2],
        ReleaseType.ZERO_MAJOR: [2.0, 2.2],
        ReleaseType.ZERO_MINOR: [0.5],
        ReleaseType.MINOR: [0.1],
    })
    got = summary_table(samples, "bin", 360)
    by_type = {s.release_type: s for s in got}
    assert set(by_type) == {"major", "minor"}
    assert by_type["major"].n == 4
    assert by_type["major"].mean == pytest.approx(statistics.mean([1.0, 1.2, 2.0, 2.2]))
    assert by_type["minor"].n == 2


def test_fold_zero_false_keeps_five_columns():
    samples = _cells({rtype: [1.0, 2.0] for rtype in ReleaseType})
    got = summary_table(samples, "bin", 360, fold_zero=False)
    assert [s.release_type for s in got] == list(RAW_TYPE_ORDER)


def test_single_sample_cell_has_no_std():
    got = summary_table(_cells({ReleaseType.PATCH: [0.7]}), "bin", 360)
    (cell,) = got
    assert cell.n == 1 and cell.mean == 0.7 and cell.std is None


def test_zero_ver_series_rows_have_no_patch_cell():
    samples = _cells({
        ReleaseType.ZERO_MAJOR: [1.0, 1.5],
        ReleaseType.ZERO_MINOR: [0.2, 0.3],
    }) + _cells({
        ReleaseType.MAJOR: [1.0],
        ReleaseType.MINOR: [0.5],
        ReleaseType.PATCH: [0.1],
    })
    got = summary_table(samples, "series", 360)
    zero_rows = [s for s in got if s.stratum == "zero_ver"]
    assert {s.release_type for s in zero_rows} == {"major", "minor"}
    one_rows = [s for s in got if s.stratum == "one_ver"]
    assert {s.release_type for s in one_rows} == {"major", "minor", "patch"}


def test_offset_filter_and_empty_result():
    samples = _cells({ReleaseType.MAJOR: [1.0, 2.0]}, offset=90)
    assert summary_table(samples, "bin", 360) == []
    assert len(summary_table(samples, "bin", 90)) == 1


def test_mixed_metrics_rejected():
    samples = [_sample(1.0, metric="stars"), _sample(2.0, metric="forks")]
    with pytest.raises(ValueError):
        summary_table(samples, "bin", 360)


def test_unknown_strat_by_rejected():
    with pytest.raises(ValueError):
        summary_table([_sample(1.0)], "language", 360)


def test_row_and_cell_ordering_is_deterministic():
    samples = []
    for eco in ("rubygems", "npm", "pypi"):
        for bin_ in (SizeBin.HUGE, SizeBin.SMALL, SizeBin.MEDIUM, SizeBin.LARGE):
            samples.extend(_cells(
                {ReleaseType.PATCH: [0.1, 0.2], ReleaseType.MAJOR: [1.0, 1.1]},
                eco=eco, bin_=bin_,
            ))
    got = summary_table(samples, "bin", 360)
    keys = [(s.ecosystem, s.stratum, s.release_type) for s in got]
    bin_rank = {name: i for i, name in enumerate(BIN_ORDER)}
    type_rank = {name: i for i, name in enumerate(FOLDED_TYPE_ORDER)}
    assert keys == sorted(keys, key=lambda k: (k[0], bin_rank[k[1]], type_rank[k[2]]))
    assert [s.ecosystem for s in got[:8]] == ["npm"] * 8


def test_flag_set_for_clearly_separated_top_group():
    samples = _cells({
        ReleaseType.MAJOR: [5.0, 5.1, 4.9, 5.2],
        ReleaseType.MINOR: [1.0, 1.1, 0.9],
        ReleaseType.PATCH: [0.1, 0.2, 0.15],
    })
    got = summary_table(samples, "bin", 360)
    flags = {s.release_type: s.significantly_highest for s in got}
    assert flags == {"major": True, "minor": False, "patch": False}


def test_flag_blocked_when_top_pair_is_degenerate():
    # top group has n=1, so its pairwise tests cannot run
    samples = _cells({
        ReleaseType.MAJOR: [9.0],
        ReleaseType.MINOR: [1.0, 1.1, 0.9],
        ReleaseType.PATCH: [0.1, 0.2],
    })
    got = summary_table(samples, "bin", 360)
    assert all(not s.significantly_highest for s in got)


def test_flag_absent_for_single_type_row():
    got = summary_table(_cells({ReleaseType.MINOR: [1.0, 2.0]}), "bin", 360)
    assert [s.significantly_highest for s in got] == [False]


def test_flags_agree_with_pairwise_welch_cell_by_cell():
    values_by_type = {
        ReleaseType.MAJOR: [3.0, 3.2, 2.8],
        ReleaseType.MINOR: [2.9, 3.1, 3.0],
        ReleaseType.PATCH: [0.1, 0.2, 0.3],
    }
    got = summary_table(_cells(values_by_type), "bin", 360)
    oracle = pairwise_welch(
        {rtype.value: [float(v) for v in vals] for rtype, vals in values_by_type.items()},
        alpha=0.05,
    )
    for summary in got:
        assert summary.significantly_highest == (summary.release_type == oracle)


@given(
    data=st.dictionaries(
        keys=st.tuples(
            st.sampled_from(["npm", "pypi"]),
            st.sampled_from(list(SizeBin)),
            st.sampled_from(list(ReleaseType)),
        ),
        values=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_every_summary_reproducible_from_underlying_rows(data):
    samples = []
    for (eco, bin_, rtype), values in data.items():
        samples.extend(_sample(v, eco=eco, bin_=bin_, rtype=rtype) for v in values)
    got = summary_table(samples, "bin", 360)
    # independent regrouping straight from the sample rows
    regrouped = {}
    for s in samples:
        key = (s.ecosystem, s.bin.value, fold_release_type(s.release_type))
        regrouped.setdefault(key, []).append(s.value)
    assert {(s.ecosystem, s.stratum, s.release_type) for s in got} == set(regrouped)
    for summary in got:
        values = regrouped[(summary.ecosystem, summary.stratum, summary.release_type)]
        assert summary.n == len(values)
        assert summary.mean == pytest.approx(statistics.mean(values), abs=1e-9)
        if len(values) >= 2:
            assert summary.std == pytest.approx(statistics.stdev(values), abs=1e-9)
        else:
            assert summary.std is None


# ---------------------------------------------------------------------------
# text/csv emission


def test_text_table_alignment_flags_and_absent_cells():
    samples = _cells({
        ReleaseType.MAJOR: [5.0, 5.1, 4.9, 5.2],
        ReleaseType.MINOR: [1.0, 1.1, 0.9],
    }) + _cells({ReleaseType.PATCH: [0.25]}, eco="pypi")
    text = format_summary_table_text(summary_table(samples, "bin", 360))
    lines = text.splitlines()
    assert lines[0].split() == ["ecosystem", "stratum", "major", "minor", "patch"]
    npm_line = next(line for line in lines if line.startswith("npm"))
    assert "*" in npm_line and "5.050" in npm_line
    pypi_line = next(line for line in lines if line.startswith("pypi"))
    assert "0.250 (n=1)" in pypi_line
    assert pypi_line.split()[2:4] == ["-", "-"]


def test_text_table_empty():
    assert format_summary_table_text([]) == "(no data)\n"


def test_csv_rows_shape_and_none_std():
    summaries = [
        StratumSummary("npm", "small", "major", 2, 1.5, 0.1, True),
        StratumSummary("npm", "small", "patch", 1, 0.5, None, False),
    ]
    header, rows = summary_table_rows(summaries)
    assert header[:3] == ["ecosystem", "stratum", "release_type"]
    assert rows[0] == ["npm", "small", "major", 2, repr(1.5), repr(0.1), True]
    assert rows[1][5] == ""


# ---------------------------------------------------------------------------
# heatmap_matrix


def _grid_summaries():
    out = []
    for e, eco in enumerate(("npm", "pypi", "rubygems")):
        for b, bin_name in enumerate(BIN_ORDER):
            for t, rtype in enumerate(FOLDED_TYPE_ORDER):
                out.append(StratumSummary(eco, bin_name, rtype, 5, float(e + b + t), 0.1, False))
    return out


def test_heatmap_shapes_and_global_bounds():
    bundle = heatmap_matrix(_grid_summaries())
    assert sorted(bundle.matrices) == ["npm", "pypi", "rubygems"]
    assert bundle.row_labels == BIN_ORDER
    assert bundle.col_labels == FOLDED_TYPE_ORDER
    for matrix in bundle.matrices.values():
        assert len(matrix) == 4 and all(len(row) == 3 for row in matrix)
    # extrema: e=b=t=0 -> 0, e=2,b=3,t=2 -> 7
    assert bundle.vmin == 0.0 and bundle.vmax == 7.0
    assert bundle.matrices["pypi"][1][2] == 1 + 1 + 2


def test_heatmap_missing_cell_is_none():
    summaries = [
        StratumSummary("npm", "small", "major", 3, 1.0, 0.2, False),
        StratumSummary("npm", "medium", "minor", 3, 2.0, 0.2, False),
    ]
    bundle = heatmap_matrix(summaries)
    assert bundle.row_labels == ("small", "medium")
    assert bundle.col_labels == ("major", "minor")
    assert bundle.matrices["npm"][0] == (1.0, None)
    assert bundle.matrices["npm"][1] == (None, 2.0)


def test_heatmap_degenerate_bounds_widened():
    summaries = [
        StratumSummary("npm", "small", "major", 3, 0.4, 0.1, False),
        StratumSummary("pypi", "small", "major", 3, 0.4, 0.1, False),
    ]
    bundle = heatmap_matrix(summaries)
    assert bundle.vmin < 0.4 < bundle.vmax


def test_heatmap_empty_input():
    bundle = heatmap_matrix([])
    assert bundle.matrices == {} and bundle.row_labels == ()
    assert bundle.vmin < bundle.vmax


def test_heatmap_series_rows_use_series_order():
    summaries = [
        StratumSummary("npm", "two_plus_ver", "major", 3, 1.0, 0.1, False),
        StratumSummary("npm", "zero_ver", "major", 3, 2.0, 0.1, False),
    ]
    bundle = heatmap_matrix(summaries)
    assert bundle.row_labels == ("zero_ver", "two_plus_ver")


# ---------------------------------------------------------------------------
# quartiles


def test_quartiles_of_one_through_eight():
    assert tukey_quartiles([float(v) for v in range(1, 9)]) == (2.5, 4.5, 6.5)


def test_quartiles_of_one_through_seven_include_median_in_both_halves():
    assert tukey_quartiles([float(v) for v in range(1, 8)]) == (2.5, 4.0, 5.5)


def test_quartiles_small_inputs():
    assert tukey_quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert tukey_quartiles([1.0, 5.0]) == (1.0, 3.0, 5.0)
    assert tukey_quartiles([1.0, 2.0, 9.0]) == (1.5, 2.0, 5.5)


def test_quartiles_ignore_input_order():
    shuffled = [6.0, 1.0, 8.0, 3.0, 2.0, 7.0, 4.0, 5.0]
    assert tukey_quartiles(shuffled) == (2.5, 4.5, 6.5)


def test_quartiles_empty_rejected():
    with pytest.raises(ValueError):
        tukey_quartiles([])


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40))
def test_quartiles_ordered_and_bounded(values):
    q1, med, q3 = tukey_quartiles(values)
    assert min(values) <= q1 <= med <= q3 <= max(values)
    assert med == statistics.median(values)


# ---------------------------------------------------------------------------
# timepoint_distributions


def test_timepoint_records_per_offset():
    grid = LookaheadGrid(365, 90)
    samples = []
    for offset in (90, 180, 270, 360):
        samples.extend(_cells({ReleaseType.MAJOR: [1.0, 2.0, 3.0, float(offset)]}, offset=offset))
    samples.extend(_cells({ReleaseType.MAJOR: [99.0]}, offset=100))  # off-grid, ignored
    got = timepoint_distributions(samples, grid)
    assert [r.offset_days for r in got] == [90, 180, 270, 360]
    for record in got:
        assert record.n == 4
        assert (record.ecosystem, record.stratum, record.release_type) == ("npm", "small", "major")


def test_timepoint_quartiles_and_fences():
    grid = LookaheadGrid(365, 90)
    values = [float(v) for v in range(1, 9)]
    got = timepoint_distributions(_cells({ReleaseType.MINOR: values}, offset=90), grid)
    (record,) = got
    assert (record.q1, record.median, record.q3) == (2.5, 4.5, 6.5)
    assert (record.minimum, record.maximum) == (1.0, 8.0)
    iqr = 6.5 - 2.5
    assert record.lower_fence == 2.5 - 1.5 * iqr
    assert record.upper_fence == 6.5 + 1.5 * iqr


def test_timepoint_ordering_and_stratification():
    grid = LookaheadGrid(180, 45)
    samples = (
        _cells({ReleaseType.PATCH: [0.1, 0.2]}, eco="pypi", bin_=SizeBin.LARGE, offset=45)
        + _cells({ReleaseType.MAJOR: [1.0, 1.5]}, eco="npm", bin_=SizeBin.SMALL, offset=90)
        + _cells({ReleaseType.MAJOR: [0.9, 1.4]}, eco="npm", bin_=SizeBin.SMALL, offset=45)
    )
    got = timepoint_distributions(samples, grid)
    keys = [(r.ecosystem, r.stratum, r.release_type, r.offset_days) for r in got]
    assert keys == [
        ("npm", "small", "major", 45),
        ("npm", "small", "major", 90),
        ("pypi", "large", "patch", 45),
    ]


def test_timepoint_series_stratification():
    grid = LookaheadGrid(365, 90)
    samples = _cells({ReleaseType.ZERO_MINOR: [0.1, 0.4, 0.2]}, offset=90)
    (record,) = timepoint_distributions(samples, grid, strat_by="series")
    assert record.stratum == "zero_ver"
    assert record.release_type == "minor"


# ---------------------------------------------------------------------------
# demographics


def test_demographics_counts_match_literal_tally():
    records = (
        [("npm", ReleaseType.MAJOR)] * 3
        + [("npm", ReleaseType.PATCH)] * 5
        + [("pypi", ReleaseType.ZERO_MINOR)] * 2
    )
    got = release_demographics(records)
    assert got == {
        "npm": {"major": 3, "minor": 0, "patch": 5, "zero_major": 0, "zero_minor": 0},
        "pypi": {"major": 0, "minor": 0, "patch": 0, "zero_major": 0, "zero_minor": 2},
    }


def test_demographics_all_five_types_present_even_at_zero():
    got = release_demographics([("npm", ReleaseType.MINOR)])
    assert list(got["npm"]) == list(RAW_TYPE_ORDER)


def test_demographics_empty():
    assert release_demographics([]) == {}


def test_demographics_ecosystems_sorted():
    records = [(e, ReleaseType.PATCH) for e in ("rubygems", "npm", "pypi")]
    assert list(release_demographics(records)) == ["npm", "pypi", "rubygems"]


# ---------------------------------------------------------------------------
# complexity descriptives and tests


def test_descriptives_hand_computed():
    got = complexity_descriptives({"JavaScript": [1, 2, 3, 4, 5, 6, 7]})
    (row,) = got
    assert row.language == "JavaScript"
    assert row.n == 7
    assert row.mean == pytest.approx(4.0)
    assert row.std == pytest.approx(statistics.stdev([1, 2, 3, 4, 5, 6, 7]))
    assert (row.q1, row.median, row.q3) == (2.5, 4.0, 5.5)
    assert (row.minimum, row.maximum) == (1.0, 7.0)


def test_descriptives_constant_ratings_have_zero_std():
    (row,) = complexity_descriptives({"Python": [4, 4, 4, 4]})
    assert row.std == 0.0
    assert (row.q1, row.median, row.q3) == (4.0, 4.0, 4.0)


def test_descriptives_single_rating_has_no_std():
    (row,) = complexity_descriptives({"Ruby": [6]})
    assert row.n == 1 and row.std is None and row.mean == 6.0


def test_descriptives_empty_group_omitted_and_sorted():
    got = complexity_descriptives({"Ruby": [1, 2], "Python": [], "JavaScript": [3]})
    assert [row.language for row in got] == ["JavaScript", "Ruby"]


def test_type_tests_separated_fixture_rejects_hard():
    ratings = {
        "JavaScript": {
            "major": [6, 7, 6, 7, 6, 7, 6, 7, 6, 7],
            "minor": [4, 4, 5, 4, 5, 4, 5, 4, 5, 4],
            "patch": [1, 2, 1, 2, 1, 2, 1, 2, 1, 2],
        }
    }
    got = complexity_vs_type_tests(ratings)
    assert got.skipped == {}
    assert got.tests[("JavaScript", "major", "patch")].p_value < 1e-4
    assert got.tests[("JavaScript", "major", "minor")].p_value < 1e-4


def test_type_tests_identical_groups_p_is_one():
    ratings = {"Python": {"major": [3, 4, 5], "minor": [3, 4, 5]}}
    got = complexity_vs_type_tests(ratings)
    result = got.tests[("Python", "major", "minor")]
    assert result.t_stat == 0.0 and result.p_value == 1.0
    assert ("Python", "major", "patch") in got.skipped


def test_type_tests_missing_group_skipped_with_note():
    got = complexity_vs_type_tests({"Ruby": {"major": [5, 6, 7]}})
    assert got.tests == {}
    assert got.skipped[("Ruby", "major", "minor")] == "no minor ratings"
    assert got.skipped[("Ruby", "major", "patch")] == "no patch ratings"
    assert got.skipped[("Ruby", "minor", "patch")] == "no minor ratings"


def test_type_tests_degenerate_pair_skipped():
    ratings = {"Go": {"major": [4, 4, 4], "minor": [4, 4, 4], "patch": [1, 2, 3]}}
    got = complexity_vs_type_tests(ratings)
    assert ("Go", "major", "minor") in got.skipped
    assert ("Go", "major", "patch") in got.tests


def test_type_tests_unfolded_includes_zero_pairs():
    ratings = {"JS": {"zero_major": [5, 6, 7], "zero_minor": [1, 2, 3]}}
    got = complexity_vs_type_tests(ratings, fold_zero=False)
    assert ("JS", "zero_major", "zero_minor") in got.tests


# ---------------------------------------------------------------------------
# SVG rendering


_SVG_MATRIX = [[0.0, 1.0, None], [2.0, 0.5, 1.25]]
_SVG_ROWS = ["small", "medium"]
_SVG_COLS = ["major", "minor", "patch"]
_SVG_BOUNDS = (0.0, 2.0)


def _bundle(matrix, row_labels, col_labels, bounds, ecosystem="npm"):
    """A one-ecosystem bundle holding ``matrix``."""
    rows = tuple(tuple(row) for row in matrix)
    return HeatmapBundle(tuple(row_labels), tuple(col_labels), {ecosystem: rows}, *bounds)


def _render_fixture():
    return render_heatmap_svg(_bundle(_SVG_MATRIX, _SVG_ROWS, _SVG_COLS, _SVG_BOUNDS), "npm")


def test_svg_matches_golden():
    expected = (GOLDEN / "heatmap_fixture.svg").read_bytes()
    assert _render_fixture().encode("utf-8") == expected


def test_svg_is_well_formed_xml_and_deterministic():
    svg = _render_fixture()
    assert svg == _render_fixture()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_svg_extreme_and_midpoint_colors():
    svg = _render_fixture()
    assert 'fill="#f7fbff"' in svg  # value at vmin
    assert 'fill="#08306b"' in svg  # value at vmax
    assert 'fill="#8096b5"' in svg  # value at the exact midpoint (1.0 of 0..2)


def test_svg_absent_cell_hatched_without_label():
    svg = _render_fixture()
    assert 'fill="url(#hatch)"' in svg
    assert svg.count("<rect") == 1 + 1 + 6  # background + pattern tile + six cells


def test_svg_dark_cell_label_is_white():
    svg = _render_fixture()
    assert '<text x="182" y="126" text-anchor="middle" fill="#ffffff">2.000</text>' in svg


def test_svg_single_cell_matrix():
    svg = render_heatmap_svg(_bundle([[0.5]], ["small"], ["major"], (0.0, 1.0)), "npm")
    ET.fromstring(svg)
    assert "0.500" in svg


def test_svg_clamps_out_of_bounds_values():
    svg = render_heatmap_svg(_bundle([[5.0, -5.0]], ["r"], ["a", "b"], (0.0, 1.0)), "npm")
    assert 'fill="#08306b"' in svg and 'fill="#f7fbff"' in svg


def test_svg_escapes_labels():
    svg = render_heatmap_svg(_bundle([[0.5]], ["a<b"], ["c&d"], (0.0, 1.0), "x<y&z"), "x<y&z")
    assert "a&lt;b" in svg and "c&amp;d" in svg and "x&lt;y&amp;z" in svg


def test_svg_validation_errors():
    with pytest.raises(ValueError):
        render_heatmap_svg(_bundle([[1.0]], ["a"], ["c"], (1.0, 1.0)), "npm")


def test_heatmap_bundle_feeds_renderer():
    bundle = heatmap_matrix(_grid_summaries())
    svg = render_heatmap_svg(bundle, "npm")
    ET.fromstring(svg)
    assert svg.count("<rect") == 2 + 12

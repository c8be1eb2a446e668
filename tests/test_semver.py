import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgrowth.semver import (
    MalformedVersion,
    PreReleaseExcluded,
    ReleaseType,
    Version,
    VersionSeries,
    classify_release,
    format_version,
    parse_version,
    version_series,
)
from oracles.naive_pipeline import parse_semver
from oracles.semver_oracle import expected_series, expected_type


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.2.3", (1, 2, 3)),
            ("v1.2.3", (1, 2, 3)),
            ("V1.2.3", (1, 2, 3)),
            ("0.0.0", (0, 0, 0)),
            ("10.20.30", (10, 20, 30)),
            ("1.2.3+build5", (1, 2, 3)),
            ("v1.2.3+build.5", (1, 2, 3)),
            ("1.0.0+21AF26D3", (1, 0, 0)),
        ],
    )
    def test_accepts(self, text, expected):
        v = parse_version(text)
        assert (v.major, v.minor, v.patch) == expected

    @pytest.mark.parametrize(
        "text",
        ["1.2.3-rc1", "1.2.3-alpha.1", "v1.2.3-beta", "1.2.3-rc1+build5", "1.2.3-0"],
    )
    def test_prerelease_excluded(self, text):
        with pytest.raises(PreReleaseExcluded):
            parse_version(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1",
            "1.2",
            "1.2.3.4",
            "2021-04",
            "01.2.3",
            "1.02.3",
            "1.2.03",
            "1.2.x",
            "a.b.c",
            "1.2.3-",
            "1.2.3+",
            "1.2.3 ",
            " 1.2.3",
            "vv1.2.3",
            "1..3",
            "-1.2.3",
            "1.-2.3",
            # the whole text must match, so no final newline, and digits
            # are ASCII
            "1.2.3\n",
            "v1.2.3+b\n",
            "1.2.3-rc.1\n",
            "1.2.3-1\u0661",  # ARABIC-INDIC DIGIT ONE
            "1\u0661.0.0",
            "1.2.\u00b2",  # SUPERSCRIPT TWO
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedVersion):
            parse_version(text)

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("1.2", MalformedVersion, "not a MAJOR.MINOR.PATCH version: '1.2'"),
            ("1.2.3-rc1", PreReleaseExcluded, "pre-release versions are excluded: '1.2.3-rc1'"),
        ],
    )
    def test_messages(self, text, error, message):
        with pytest.raises(error) as caught:
            parse_version(text)
        assert str(caught.value) == message

    def test_a_component_of_640_digits_parses(self):
        big = "9" * 640
        version = parse_version(f"1.{big}.{big}")
        assert version.minor == version.patch == int(big)

    @pytest.mark.parametrize(
        "text",
        ["1" * 641 + ".0.0", "1." + "1" * 641 + ".0", "1.0." + "1" * 5000],
        ids=["major of 641", "minor of 641", "patch of 5000"],
    )
    def test_a_component_past_640_digits_is_malformed(self, text):
        with pytest.raises(MalformedVersion):
            parse_version(text)

    def test_prerelease_is_a_parse_error_subclass(self):
        # Callers that only care about "unusable version" can catch one type.
        from depgrowth.semver import VersionParseError

        assert issubclass(PreReleaseExcluded, VersionParseError)
        assert issubclass(MalformedVersion, VersionParseError)

    @given(
        st.integers(0, 999),
        st.integers(0, 999),
        st.integers(0, 999),
        st.sampled_from(["", "v", "V"]),
        st.sampled_from(["", "+build", "+b.1", "+21AF26D3"]),
    )
    def test_round_trip(self, major, minor, patch, prefix, build):
        text = f"{prefix}{major}.{minor}.{patch}{build}"
        v = parse_version(text)
        assert (v.major, v.minor, v.patch) == (major, minor, patch)
        assert parse_version(format_version(v)) == v

    def test_equality_ignores_raw(self):
        tagged, plain = parse_version("v1.2.3+b"), parse_version("1.2.3")
        assert tagged == plain and not tagged != plain
        # the tag text sorts neither way: "v1.2.3+b" > "1.2.3" as text
        assert not tagged < plain and not plain < tagged
        assert tagged <= plain and plain <= tagged
        assert tagged >= plain and not tagged > plain
        assert hash(tagged) == hash(plain) and len({tagged, plain}) == 1
        later = parse_version("1.2.4")
        assert sorted([later, tagged, plain]) == [tagged, plain, later]

    def test_ordering_on_components(self):
        assert parse_version("1.2.3") < parse_version("1.10.0") < parse_version("2.0.0")


def _outcome(text):
    """``parse_version``'s outcome in the oracle's terms."""
    try:
        return ("ok", tuple(parse_version(text)))
    except PreReleaseExcluded:
        return ("pre", None)
    except MalformedVersion:
        return ("bad", None)


# ARABIC-INDIC DIGITS ONE and THREE and SUPERSCRIPT TWO: str.isdigit admits
# them, and int() reads the first two
_NON_ASCII_DIGITS = "\u0661\u0663\u00b2"
_PIECES = "0123456789.+-vVaZ \n\r" + _NON_ASCII_DIGITS
_IDENT = st.text("0123456789aZ-", max_size=3)
_COMPONENT = st.one_of(
    st.integers(0, 999).map(str),
    st.text("0123456789", max_size=4),
    st.text("0123456789" + _NON_ASCII_DIGITS, max_size=4),
    st.sampled_from(["x", "-1", "1 ", "1\u0661", "\u00b2"]),
)


@st.composite
def _version_texts(draw):
    """Version-shaped text, near and on both sides of the grammar."""
    prefix = draw(st.sampled_from(["", "v", "V", "vv", " "]))
    count = draw(st.sampled_from([3, 3, 3, 1, 2, 4]))
    core = ".".join(draw(st.lists(_COMPONENT, min_size=count, max_size=count)))
    pre = draw(st.sampled_from(["", "-"]))
    if pre:
        pre += ".".join(draw(st.lists(_IDENT, min_size=1, max_size=3)))
    build = draw(st.sampled_from(["", "+"]))
    if build:
        build += ".".join(draw(st.lists(_IDENT, min_size=1, max_size=3)))
    suffix = draw(st.sampled_from(["", "", "\n", "\r", " "]))
    return prefix + core + pre + build + suffix


class TestGrammarAgainstOracle:
    """``parse_version`` against the naive oracle's re-derived grammar.

    The oracle differs on purpose in one place only, and the drawn text keeps
    clear of it: it has no 640-digit bound on a component (components here
    have at most 4 digits). The drawn text holds non-ASCII digits too, which
    neither admits.
    """

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_version_texts(), st.text(_PIECES, max_size=12)))
    def test_same_outcome(self, text):
        assert _outcome(text) == parse_semver(text)

    @pytest.mark.parametrize("text", ["1\u0661.0.0", "1.2.\u00b2", "v\u0663.0.0"])
    def test_non_ascii_digits_are_malformed(self, text):
        assert _outcome(text) == parse_semver(text) == ("bad", None)


class TestClassify:
    @pytest.mark.parametrize(
        "version,expected",
        [
            ((1, 0, 0), ReleaseType.MAJOR),
            ((2, 0, 0), ReleaseType.MAJOR),
            ((1, 2, 0), ReleaseType.MINOR),
            ((1, 0, 1), ReleaseType.PATCH),
            ((1, 2, 3), ReleaseType.PATCH),
            ((0, 0, 0), ReleaseType.ZERO_MAJOR),
            ((0, 4, 0), ReleaseType.ZERO_MAJOR),
            ((0, 0, 1), ReleaseType.ZERO_MINOR),
            ((0, 4, 2), ReleaseType.ZERO_MINOR),
        ],
    )
    def test_rule_table(self, version, expected):
        assert classify_release(Version(*version)) == expected

    def test_exhaustive_small_cube_matches_oracle(self):
        for major in range(6):
            for minor in range(6):
                for patch in range(6):
                    got = classify_release(Version(major, minor, patch))
                    assert got.value == expected_type(major, minor, patch)

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_matches_oracle(self, major, minor, patch):
        got = classify_release(Version(major, minor, patch))
        assert got.value == expected_type(major, minor, patch)

    def test_every_type_reachable(self):
        reached = {
            classify_release(Version(*v))
            for v in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1)]
        }
        assert reached == set(ReleaseType)

    @pytest.mark.parametrize(
        "version,expected",
        [
            ((0, 0, 0), ReleaseType.ZERO_MAJOR),
            ((0, 4, 0), ReleaseType.ZERO_MINOR),
            ((0, 4, 2), ReleaseType.ZERO_MINOR),
            ((1, 2, 0), ReleaseType.MINOR),
        ],
    )
    def test_folded_zero_split(self, version, expected):
        assert classify_release(Version(*version), zero_split="folded") == expected

    def test_unknown_zero_split_rejected(self):
        with pytest.raises(ValueError):
            classify_release(Version(1, 0, 0), zero_split="bogus")


class TestSeries:
    @pytest.mark.parametrize(
        "major,expected",
        [
            (0, VersionSeries.ZERO_VER),
            (1, VersionSeries.ONE_VER),
            (2, VersionSeries.TWO_PLUS_VER),
            (7, VersionSeries.TWO_PLUS_VER),
        ],
    )
    def test_map(self, major, expected):
        assert version_series(Version(major, 1, 1)) == expected

    @given(st.integers(0, 10_000))
    def test_matches_oracle(self, major):
        assert version_series(Version(major, 0, 0)).value == expected_series(major)

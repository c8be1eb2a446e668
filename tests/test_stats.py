import itertools
import math
import random

import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from depgrowth.report import complexity_vs_type_tests
from depgrowth.stats import (
    AnovaResult,
    DegenerateInput,
    anova_oneway,
    average_ranks,
    f_upper_tail_p,
    mean,
    pairwise_welch,
    pearson,
    regularized_incomplete_beta,
    sample_variance,
    spearman,
    student_t_two_sided_p,
    welch_t_test,
)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        assert regularized_incomplete_beta(2.0, 3.0, -0.5) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.5) == 1.0

    def test_against_reference(self):
        rng = random.Random(7301)
        for _ in range(300):
            a = rng.uniform(0.05, 80.0)
            b = rng.uniform(0.05, 80.0)
            x = rng.random()
            got = regularized_incomplete_beta(a, b, x)
            want = scipy.special.betainc(a, b, x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry_identity(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        rng = random.Random(907)
        for _ in range(200):
            a = rng.uniform(0.1, 50.0)
            b = rng.uniform(0.1, 50.0)
            x = rng.random()
            left = regularized_incomplete_beta(a, b, x)
            right = regularized_incomplete_beta(b, a, 1.0 - x)
            assert left + right == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        values = [regularized_incomplete_beta(3.5, 1.25, x / 50.0) for x in range(51)]
        assert values == sorted(values)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)

    # (a, b, x, I_x(a, b)) as this implementation computes it, pinned bit for
    # bit: the scipy checks allow a tolerance, so a reordered operation in the
    # continued fraction would pass them. The comment names the side of the
    # x < (a+1)/(a+b+2) split; a = df/2 with b = 0.5 is a Welch-sized t tail.
    @pytest.mark.parametrize(
        "a, b, x, want",
        [
            (0.5, 0.5, 0.25, 0.333333333333333),  # direct
            (0.5, 0.5, 0.75, 0.666666666666667),  # mirror
            (2.0, 3.0, 0.2, 0.18079999999999982),  # direct
            (0.05, 0.2, 0.5, 0.8036923590480454),  # mirror
            (7.5, 0.5, 0.5, 0.0015017735386984323),  # direct
            (12.5, 0.5, 0.6, 0.0004007571581411865),  # direct
            (12.5, 0.5, 0.97, 0.387604273295756),  # mirror
            (40.0, 60.0, 0.41, 0.5857757938009485),  # mirror
            (28.856, 16.315, 0.678, 0.7006039704765223),  # mirror
            (75.95, 0.5, 0.974343, 0.04728494313793439),  # direct
            (250.0, 0.5, 0.995, 0.113574348340576),  # mirror
            (2500.5, 0.5, 0.9991, 0.03384580267364888),  # direct
            (2500.5, 0.5, 0.99997, 0.6985188731225926),  # mirror
            (50000.0, 0.5, 0.9999, 0.0015650197621361716),  # direct
            (50000.0, 0.5, 0.99995, 0.02534585416824613),  # direct
            (50000.0, 0.5, 0.999999, 0.7518301740650724),  # mirror
        ],
    )
    def test_pinned_values(self, a, b, x, want):
        assert regularized_incomplete_beta(a, b, x) == want

    def test_tail_helpers_match_reference(self):
        rng = random.Random(11)
        for _ in range(200):
            t = rng.uniform(-6.0, 6.0)
            df = rng.uniform(1.0, 200.0)
            assert student_t_two_sided_p(t, df) == pytest.approx(
                2.0 * scipy.stats.t.sf(abs(t), df), abs=1e-12
            )
            f = rng.uniform(0.0, 20.0)
            d1 = rng.uniform(1.0, 30.0)
            d2 = rng.uniform(1.0, 200.0)
            assert f_upper_tail_p(f, d1, d2) == pytest.approx(
                scipy.stats.f.sf(f, d1, d2), abs=1e-12
            )

    def test_t_p_at_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 12.0) == 1.0
        assert f_upper_tail_p(0.0, 2.0, 30.0) == 1.0


class TestRanks:
    def test_plain(self):
        assert average_ranks([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]

    def test_ties_get_average(self):
        assert average_ranks([1.0, 2.0, 2.0, 3.0]) == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    def test_matches_reference(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 40)
            xs = [rng.choice([1.0, 2.0, 3.5, 7.0, rng.random()]) for _ in range(n)]
            want = scipy.stats.rankdata(xs).tolist()
            assert average_ranks(xs) == pytest.approx(want)


def _random_sample(rng, lo=2, hi=25):
    n = rng.randint(lo, hi)
    mu = rng.uniform(-5.0, 5.0)
    sigma = rng.uniform(0.2, 4.0)
    return [rng.gauss(mu, sigma) for _ in range(n)]


class TestAnova:
    def test_identical_groups_give_zero_f(self):
        result = anova_oneway([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert result.f_stat == 0.0
        assert result.p_value == 1.0
        assert result.df_between == 2
        assert result.df_within == 6

    def test_against_reference(self):
        rng = random.Random(40921)
        for _ in range(120):
            k = rng.randint(2, 5)
            groups = [_random_sample(rng, 2, 20) for _ in range(k)]
            got = anova_oneway(groups)
            want = scipy.stats.f_oneway(*groups)
            assert got.f_stat == pytest.approx(want.statistic, abs=1e-6)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-6)

    def test_two_groups_equal_pooled_t_squared(self):
        rng = random.Random(88)
        for _ in range(100):
            a = _random_sample(rng, 2, 15)
            b = _random_sample(rng, 2, 15)
            result = anova_oneway([a, b])
            pooled = scipy.stats.ttest_ind(a, b, equal_var=True)
            assert result.f_stat == pytest.approx(pooled.statistic**2, abs=1e-10)
            assert result.p_value == pytest.approx(pooled.pvalue, abs=1e-10)

    def test_scale_and_shift_invariance(self):
        rng = random.Random(5150)
        groups = [_random_sample(rng, 4, 10) for _ in range(3)]
        base = anova_oneway(groups)
        for _ in range(50):
            c = rng.uniform(0.1, 50.0)
            d = rng.uniform(-100.0, 100.0)
            scaled = anova_oneway([[c * v + d for v in g] for g in groups])
            assert scaled.f_stat == pytest.approx(base.f_stat, abs=1e-8, rel=1e-10)
            assert scaled.p_value == pytest.approx(base.p_value, abs=1e-10)

    @pytest.mark.parametrize(
        "groups",
        [
            [[1.0, 2.0]],
            [[1.0], [2.0, 3.0]],
            [[1.0, 1.0], [1.0, 1.0]],  # zero within-group variance
        ],
    )
    def test_degenerate(self, groups):
        with pytest.raises(DegenerateInput):
            anova_oneway(groups)

    def test_exact_permutation_enumeration_small_n(self):
        # Analytic F p-value vs exhaustive relabeling over the pooled sample
        # (n = 8, 8! orderings collapse to 560 distinct assignments). The F
        # approximation at this size is documented to sit within 0.1 of the
        # exact permutation p for well-behaved data.
        values = [1.1, 2.3, 0.7, 3.1, 2.8, 4.0, 1.9, 3.3]
        sizes = (3, 3, 2)
        observed = anova_oneway([values[0:3], values[3:6], values[6:8]])
        hits = 0
        total = 0
        for perm in itertools.permutations(values):
            groups = [perm[0:3], perm[3:6], perm[6:8]]
            f_perm = _plain_f_stat(groups)
            if f_perm >= observed.f_stat - 1e-12:
                hits += 1
            total += 1
        p_perm = hits / total
        assert abs(p_perm - observed.p_value) < 0.1


def _plain_f_stat(groups):
    # Local textbook F computation, no shared code with the module under test.
    all_values = [v for g in groups for v in g]
    grand = sum(all_values) / len(all_values)
    ssb = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ssw = sum((v - sum(g) / len(g)) ** 2 for g in groups for v in g)
    dfb = len(groups) - 1
    dfw = len(all_values) - len(groups)
    return (ssb / dfb) / (ssw / dfw)


class TestWelch:
    def test_equal_samples_give_zero_t(self):
        result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_stat == 0.0
        assert result.p_value == 1.0

    def test_against_reference(self):
        rng = random.Random(314159)
        for _ in range(120):
            a = _random_sample(rng)
            b = _random_sample(rng)
            got = welch_t_test(a, b)
            want = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert got.t_stat == pytest.approx(want.statistic, abs=1e-6)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-6)

    def test_antisymmetry(self):
        rng = random.Random(271828)
        for _ in range(100):
            a = _random_sample(rng)
            b = _random_sample(rng)
            ab = welch_t_test(a, b)
            ba = welch_t_test(b, a)
            assert ab.t_stat == -ba.t_stat
            assert ab.p_value == ba.p_value
            assert ab.df == ba.df

    def test_welch_satterthwaite_df(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [10.0, 12.0, 19.0]
        result = welch_t_test(a, b)
        va, vb = sample_variance(a), sample_variance(b)
        sa, sb = va / 4, vb / 3
        want = (sa + sb) ** 2 / (sa**2 / 3 + sb**2 / 2)
        assert result.df == pytest.approx(want, abs=1e-12)

    def test_one_sided_variance_is_fine(self):
        result = welch_t_test([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        assert result.p_value < 0.05

    @pytest.mark.parametrize(
        "a,b",
        [
            ([1.0], [1.0, 2.0]),
            ([1.0, 2.0], [3.0]),
            ([2.0, 2.0], [3.0, 3.0]),  # both variances zero
        ],
    )
    def test_degenerate(self, a, b):
        with pytest.raises(DegenerateInput):
            welch_t_test(a, b)

    def test_underflowing_degrees_of_freedom_are_degenerate(self):
        # both variances are nonzero, but the squares of their standard
        # errors underflow, so Welch-Satterthwaite divides 0 by 0
        a, b = [0.0, 1e-160], [0.0, 1e-160, 2e-160]
        with pytest.raises(DegenerateInput):
            welch_t_test(a, b)
        result = complexity_vs_type_tests({"py": {"major": a, "minor": b}})
        assert result.tests == {}
        assert "degrees of freedom" in result.skipped[("py", "major", "minor")]

    def test_exact_permutation_enumeration_small_n(self):
        # Welch p vs exhaustive 4+4 split enumeration (C(8,4) = 70 splits).
        # Documented approximation bound at this sample size: 0.1.
        a = [2.1, 3.4, 1.8, 4.2]
        b = [5.0, 6.1, 4.4, 5.8]
        observed = welch_t_test(a, b)
        pooled = a + b
        obs_gap = abs(sum(a) / 4 - sum(b) / 4)
        hits = 0
        splits = list(itertools.combinations(range(8), 4))
        for idx in splits:
            left = [pooled[i] for i in idx]
            right = [pooled[i] for i in range(8) if i not in idx]
            gap = abs(sum(left) / 4 - sum(right) / 4)
            if gap >= obs_gap - 1e-12:
                hits += 1
        p_perm = hits / len(splits)
        assert abs(p_perm - observed.p_value) < 0.1


class TestSpearman:
    def test_perfect_monotone(self):
        result = spearman([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
        assert result.rho == 1.0
        assert result.p_value == 0.0

    def test_perfect_reverse(self):
        result = spearman([1.0, 2.0, 3.0, 4.0], [9.0, 7.0, 5.0, 3.0])
        assert result.rho == -1.0
        assert result.p_value == 0.0

    def test_against_reference(self):
        rng = random.Random(1999)
        for _ in range(120):
            n = rng.randint(4, 30)
            x = [rng.gauss(0, 1) for _ in range(n)]
            # inject ties about a third of the time
            y = [rng.choice([round(v, 0), rng.gauss(0, 1)]) for v in x]
            if min(y) == max(y):
                continue
            got = spearman(x, y)
            want = scipy.stats.spearmanr(x, y)
            assert got.rho == pytest.approx(want.statistic, abs=1e-6)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-6)

    def test_exact_permutation_matches_brute_force(self):
        # Independent enumeration: permute raw y, recompute rho with scipy,
        # count the same two-sided event. Counts must agree exactly.
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
        mine = spearman(x, y, exact=True)
        obs = abs(scipy.stats.spearmanr(x, y).statistic)
        hits = 0
        total = 0
        for perm in itertools.permutations(y):
            rho = scipy.stats.spearmanr(x, perm).statistic
            if abs(rho) >= obs - 1e-12:
                hits += 1
            total += 1
        assert mine.method == "exact-permutation"
        assert mine.p_value == pytest.approx(hits / total, abs=1e-12)

    def test_exact_with_ties_matches_brute_force(self):
        x = [1.0, 1.0, 2.0, 3.0, 4.0]
        y = [3.0, 1.0, 2.0, 2.0, 5.0]
        mine = spearman(x, y, exact=True)
        obs = abs(scipy.stats.spearmanr(x, y).statistic)
        hits = 0
        total = 0
        for perm in itertools.permutations(y):
            rho = scipy.stats.spearmanr(x, perm).statistic
            if abs(rho) >= obs - 1e-12:
                hits += 1
            total += 1
        assert mine.p_value == pytest.approx(hits / total, abs=1e-12)

    def test_exact_vs_approx_bound(self):
        # Documented approximation bound between the t-transform p and the
        # exact permutation p at n = 7: 0.1 for non-extreme rho.
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        y = [2.0, 4.0, 1.0, 6.0, 3.0, 7.0, 5.0]
        approx = spearman(x, y)
        exact = spearman(x, y, exact=True)
        assert exact.rho == approx.rho
        assert abs(exact.p_value - approx.p_value) < 0.1

    def test_exact_rejected_for_large_n(self):
        x = list(map(float, range(12)))
        with pytest.raises(ValueError):
            spearman(x, x, exact=True)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            spearman([1.0, 2.0], [2.0, 1.0])
        with pytest.raises(DegenerateInput):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])


# values on a 1/8 grid: exact means, so ties are frequent, and no variance
# small enough to underflow
_GRID_VALUE = st.integers(-40, 40).map(lambda k: k / 8)


@st.composite
def _labelled_groups(draw):
    """2-5 labeled groups of 1-8 values: some a permutation of an earlier
    group (a tied mean), some constant."""
    groups: dict[str, list[float]] = {}
    for label in ("major", "minor", "patch", "zero_major", "zero_minor")[: draw(st.integers(2, 5))]:
        kind = draw(st.sampled_from(["free", "tie", "constant"]))
        if kind == "tie" and groups:
            groups[label] = draw(st.permutations(groups[draw(st.sampled_from(sorted(groups)))]))
        elif kind == "constant":
            groups[label] = [draw(_GRID_VALUE)] * draw(st.integers(1, 8))
        else:
            groups[label] = draw(st.lists(_GRID_VALUE, min_size=1, max_size=8))
    return groups


def _all_pairs_flag(groups, alpha):
    """The flag as a Welch test on every unordered pair decides it."""
    means = {label: mean(values) for label, values in groups.items()}
    tests = {}
    for la, lb in itertools.combinations(groups, 2):
        try:
            tests[(la, lb)] = welch_t_test(groups[la], groups[lb])
        except DegenerateInput:
            pass
    top = max(means.values())
    top_labels = [label for label, m in means.items() if m == top]
    if len(top_labels) != 1:
        return None
    leader = top_labels[0]
    for pair in itertools.combinations(groups, 2):
        if leader in pair and (pair not in tests or tests[pair].p_value >= alpha):
            return None
    return leader


class TestPairwiseWelch:
    def test_flags_clear_winner(self):
        groups = {
            "major": [10.0, 11.0, 10.5, 9.8, 10.2, 11.1],
            "minor": [5.0, 5.5, 4.8, 5.2, 5.1, 4.9],
            "patch": [1.0, 1.2, 0.9, 1.1, 1.05, 0.95],
        }
        assert pairwise_welch(groups, alpha=0.05) == "major"

    def test_no_flag_when_top_pair_insignificant(self):
        groups = {
            "a": [10.0, 11.0, 9.0, 12.0, 8.0],
            "b": [9.9, 11.2, 8.8, 11.8, 8.1],
            "c": [1.0, 1.1, 0.9, 1.2, 1.05],
        }
        assert pairwise_welch(groups, alpha=0.05) is None

    def test_no_flag_on_tied_means(self):
        groups = {"a": [1.0, 3.0], "b": [0.0, 4.0], "c": [-10.0, -9.0]}
        assert mean(groups["a"]) == mean(groups["b"])
        assert pairwise_welch(groups) is None

    def test_degenerate_pair_does_not_raise(self):
        groups = {
            "a": [5.0, 5.0, 5.0],
            "b": [5.0, 5.0, 5.0],
            "c": [1.0, 2.0, 3.0],
        }
        assert pairwise_welch(groups) is None

    def test_degenerate_pair_involving_max_blocks_flag(self):
        # both top groups constant: their pairwise test is undefined, so the
        # strict-max group cannot be flagged even though it looks separated
        groups = {
            "a": [9.0, 9.0, 9.0],
            "b": [8.0, 8.0, 8.0],
            "c": [1.0, 1.5, 2.0],
        }
        assert pairwise_welch(groups) is None

    def test_needs_two_groups(self):
        with pytest.raises(DegenerateInput):
            pairwise_welch({"only": [1.0, 2.0]})
        with pytest.raises(DegenerateInput):
            pairwise_welch({"a": [1.0, 2.0], "b": []})

    def test_alpha_validated(self):
        groups = {"a": [1.0, 2.0, 1.5], "b": [2.0, 3.0, 2.5]}
        with pytest.raises(ValueError):
            pairwise_welch(groups, alpha=0.0)
        with pytest.raises(ValueError):
            pairwise_welch(groups, alpha=1.0)

    def test_two_group_flag_matches_single_welch(self):
        a = [3.0, 3.5, 2.8, 3.2]
        b = [1.0, 1.1, 0.9, 1.05]
        single = welch_t_test(a, b)
        assert pairwise_welch({"a": a, "b": b}, alpha=0.05) == ("a" if single.p_value < 0.05 else None)

    @given(groups=_labelled_groups(), alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    @settings(max_examples=400, deadline=None)
    def test_matches_all_pairs_reference(self, groups, alpha):
        assert pairwise_welch(groups, alpha=alpha) == _all_pairs_flag(groups, alpha)
        for la, lb in itertools.combinations(groups, 2):
            try:
                forward = welch_t_test(groups[la], groups[lb]).p_value
            except DegenerateInput:
                continue
            assert welch_t_test(groups[lb], groups[la]).p_value == forward


class TestPearson:
    def test_matches_scipy_on_random_cases(self):
        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randint(3, 40)
            x = [rng.gauss(0.0, 2.0) for _ in range(n)]
            y = [0.4 * v + rng.gauss(0.0, 1.0) for v in x]
            expected = scipy.stats.pearsonr(x, y).statistic
            assert pearson(x, y) == pytest.approx(expected, abs=1e-10)

    def test_perfect_linear_relation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
        assert pearson(x, [-3 * v for v in x]) == pytest.approx(-1.0)

    def test_symmetry(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        y = [2.0, 1.0, 7.0, 3.0, 6.0]
        assert pearson(x, y) == pearson(y, x)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_tiny_and_constant(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DegenerateInput):
            pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

"""Statistical kernel: one-way ANOVA, Welch's t-test, Spearman correlation.

Everything here is computed from first principles on plain floats so that the
analysis pipeline has no runtime dependency on a statistics library; the test
suite cross-checks every routine against an independent reference
implementation. P-values come from the regularized incomplete beta function,
evaluated with a modified Lentz continued fraction.

Conventions:
    * Sample variance uses the n-1 denominator throughout.
    * All two-sample and correlation p-values are two-sided.
    * Degenerate inputs (too small, zero variance where variance is needed)
      raise :class:`DegenerateInput` instead of returning NaN.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Sequence

__all__ = [
    "AnovaResult",
    "ConvergenceError",
    "DegenerateInput",
    "SpearmanResult",
    "TTestResult",
    "anova_oneway",
    "average_ranks",
    "f_upper_tail_p",
    "mean",
    "pairwise_welch",
    "regularized_incomplete_beta",
    "sample_variance",
    "spearman",
    "student_t_two_sided_p",
    "welch_t_test",
]


class DegenerateInput(ValueError):
    """Input lacks the size or variance the statistic requires."""


class ConvergenceError(ArithmeticError):
    """The continued fraction failed to converge within the iteration cap."""


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_CF_TOL = 1e-14
_CF_MAX_ITER = 300
_CF_TINY = 1e-300


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Converges quickly only for x < (a+1)/(a+b+2); the caller applies the
    symmetry transform for the other half of the domain.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for step in (even, odd):
            d = 1.0 + step * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + step / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Args:
        a: First shape parameter, > 0.
        b: Second shape parameter, > 0.
        x: Evaluation point; values outside [0, 1] clamp to the boundary.

    Returns:
        I_x(a, b) in [0, 1], with I_0 = 0 and I_1 = 1 exactly.

    Raises:
        ValueError: a or b is not strictly positive.
        ConvergenceError: iteration cap reached (not expected for finite
            shape parameters; the symmetric split keeps the fraction in its
            fast-converging half).
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for a Student-t statistic with ``df`` degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    p = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return min(max(p, 0.0), 1.0)


def f_upper_tail_p(f_stat: float, df_between: float, df_within: float) -> float:
    """Upper-tail p-value for an F statistic."""
    if df_between <= 0.0 or df_within <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if f_stat < 0.0:
        raise ValueError(f"F statistic must be non-negative, got {f_stat}")
    if math.isinf(f_stat):
        return 0.0
    x = df_within / (df_within + df_between * f_stat)
    p = regularized_incomplete_beta(df_within / 2.0, df_between / 2.0, x)
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# basic moments and ranks
# ---------------------------------------------------------------------------


def mean(values: Sequence[float]) -> float:
    if not values:
        raise DegenerateInput("mean of an empty sample")
    return math.fsum(values) / len(values)


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample variance; requires at least two values."""
    n = len(values)
    if n < 2:
        raise DegenerateInput(f"sample variance needs n >= 2, got n={n}")
    m = mean(values)
    return math.fsum((v - m) ** 2 for v in values) / (n - 1)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties assigned the average of their positions."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share the run; average their 1-based ranks
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class AnovaResult(NamedTuple):
    f_stat: float
    df_between: int
    df_within: int
    p_value: float


class TTestResult(NamedTuple):
    t_stat: float
    df: float
    p_value: float
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int


class SpearmanResult(NamedTuple):
    rho: float
    p_value: float
    n: int
    method: str  # "t-approx" or "exact-permutation"


def anova_oneway(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way fixed-effects ANOVA across ``groups``.

    Args:
        groups: Two or more groups, each with at least two values.

    Raises:
        DegenerateInput: fewer than two groups, a group smaller than two, or
            zero within-group variance (the F statistic is undefined).
    """
    if len(groups) < 2:
        raise DegenerateInput(f"ANOVA needs >= 2 groups, got {len(groups)}")
    for idx, g in enumerate(groups):
        if len(g) < 2:
            raise DegenerateInput(f"ANOVA group {idx} needs >= 2 values, got {len(g)}")
    total_n = sum(len(g) for g in groups)
    grand = math.fsum(math.fsum(g) for g in groups) / total_n
    group_means = [mean(g) for g in groups]
    ss_between = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(groups, group_means))
    ss_within = math.fsum(
        math.fsum((v - m) ** 2 for v in g) for g, m in zip(groups, group_means)
    )
    df_between = len(groups) - 1
    df_within = total_n - len(groups)
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        raise DegenerateInput("zero within-group variance, F undefined")
    f_stat = (ss_between / df_between) / ms_within
    return AnovaResult(
        f_stat=f_stat,
        df_between=df_between,
        df_within=df_within,
        p_value=f_upper_tail_p(f_stat, df_between, df_within),
    )


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Welch's unequal-variance two-sample t-test (two-sided).

    Degrees of freedom follow the Welch-Satterthwaite approximation. One
    sample may have zero variance; both at zero leaves the statistic
    undefined, and standard errors whose squares underflow to zero leave the
    degrees of freedom undefined; either raises :class:`DegenerateInput`.
    """
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise DegenerateInput(f"Welch test needs n >= 2 per sample, got {n_a}, {n_b}")
    mean_a, mean_b = mean(a), mean(b)
    var_a, var_b = sample_variance(a), sample_variance(b)
    se_a = var_a / n_a
    se_b = var_b / n_b
    se2 = se_a + se_b
    if se2 == 0.0:
        raise DegenerateInput("both samples have zero variance")
    df_denominator = se_a * se_a / (n_a - 1) + se_b * se_b / (n_b - 1)
    if df_denominator == 0.0:
        raise DegenerateInput("squared standard errors underflow, degrees of freedom undefined")
    t_stat = (mean_a - mean_b) / math.sqrt(se2)
    df = se2 * se2 / df_denominator
    return TTestResult(
        t_stat=t_stat,
        df=df,
        p_value=student_t_two_sided_p(t_stat, df),
        mean_a=mean_a,
        mean_b=mean_b,
        n_a=n_a,
        n_b=n_b,
    )


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation coefficient, clamped to [-1, 1].

    Raises:
        ValueError: length mismatch.
        DegenerateInput: n < 3, or a constant input vector.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise DegenerateInput(f"Pearson needs n >= 3, got n={n}")
    mean_x = mean(x)
    mean_y = mean(y)
    dev_x = [v - mean_x for v in x]
    dev_y = [v - mean_y for v in y]
    ss_x = math.fsum(d * d for d in dev_x)
    ss_y = math.fsum(d * d for d in dev_y)
    if ss_x == 0.0 or ss_y == 0.0:
        raise DegenerateInput("constant input has no correlation")
    r = math.fsum(dx * dy for dx, dy in zip(dev_x, dev_y)) / math.sqrt(ss_x * ss_y)
    return min(max(r, -1.0), 1.0)


_EXACT_MAX_N = 10
_EXACT_RHO_SLACK = 1e-12  # float-noise guard when comparing |rho| across permutations


def spearman(x: Sequence[float], y: Sequence[float], exact: bool = False) -> SpearmanResult:
    """Spearman rank correlation with tie-aware average ranks.

    rho is the Pearson correlation of the two rank vectors, which is the
    standard tie correction. The default p-value uses the t transform
    ``t = rho * sqrt((n-2) / (1-rho^2))`` with n-2 degrees of freedom;
    ``exact=True`` enumerates all n! rank permutations instead (only
    permitted for n <= 10).

    Raises:
        ValueError: length mismatch, or ``exact`` with n > 10.
        DegenerateInput: n < 3, or a constant input vector.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise DegenerateInput(f"Spearman needs n >= 3, got n={n}")
    if exact and n > _EXACT_MAX_N:
        raise ValueError(f"exact permutation p only supported for n <= {_EXACT_MAX_N}")
    if min(x) == max(x) or min(y) == max(y):
        raise DegenerateInput("constant input has no rank order")

    rank_x = average_ranks(x)
    rank_y = average_ranks(y)
    rho = pearson(rank_x, rank_y)

    if exact:
        mean_rx = mean(rank_x)
        mean_ry = mean(rank_y)
        dev_x = [r - mean_rx for r in rank_x]
        dev_y = [r - mean_ry for r in rank_y]
        denom = math.sqrt(math.fsum(d * d for d in dev_x) * math.fsum(d * d for d in dev_y))
        threshold = abs(rho) - _EXACT_RHO_SLACK
        hits = 0
        total = 0
        for perm in itertools.permutations(dev_y):
            perm_rho = math.fsum(dx * dy for dx, dy in zip(dev_x, perm)) / denom
            if abs(perm_rho) >= threshold:
                hits += 1
            total += 1
        return SpearmanResult(rho=rho, p_value=hits / total, n=n, method="exact-permutation")

    one_minus = 1.0 - rho * rho
    if one_minus <= 0.0:
        p = 0.0
    else:
        t_stat = rho * math.sqrt((n - 2) / one_minus)
        p = student_t_two_sided_p(t_stat, n - 2)
    return SpearmanResult(rho=rho, p_value=p, n=n, method="t-approx")


def pairwise_welch(groups: Mapping[str, Sequence[float]], alpha: float = 0.05) -> str | None:
    """The label whose mean is significantly the highest, or None.

    That is the unique strict-maximum mean whose Welch test against every
    other group gives p < alpha, with no multiple-comparison correction; a
    degenerate pair blocks it. Welch's p ignores argument order.

    Raises:
        DegenerateInput: fewer than two groups, or an empty group.
        ValueError: alpha outside (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if len(groups) < 2:
        raise DegenerateInput(f"pairwise comparison needs >= 2 groups, got {len(groups)}")
    for label, values in groups.items():
        if len(values) == 0:
            raise DegenerateInput(f"group {label!r} is empty")

    means = {label: mean(values) for label, values in groups.items()}
    top = max(means.values())
    leaders = [label for label, m in means.items() if m == top]
    if len(leaders) != 1:
        return None
    leader = leaders[0]
    for label, values in groups.items():
        if label != leader:
            try:
                if welch_t_test(groups[leader], values).p_value >= alpha:
                    return None
            except DegenerateInput:
                return None
    return leader

"""Welch's unequal-variance t-test for comparing rating samples.

The t-distribution CDF is evaluated through the regularized incomplete beta
function (continued fraction), so the result is deterministic and carries no
dependency beyond the standard library math module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DatasetError, checked_number


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    df: float
    p_one_sided: float


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method): each
    step m takes the even term m(b - m)x / ..., then the odd one -(a + m)(a + b + m)x / ...."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (tiny if abs(d) < tiny else d)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d, c = 1.0 + aa * d, 1.0 + aa / c
            d, c = 1.0 / (tiny if abs(d) < tiny else d), tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betainc_reg(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """Upper-tail probability P(T_df > t)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = df / (df + t * t)
    tail = 0.5 * _betainc_reg(df / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def welch_t_test(sample_a: list[float], sample_b: list[float]) -> TTestResult:
    """Welch's t statistic with a one-sided p-value for the observed direction.

    Identical samples give T = 0 and p = 0.5. A sample that is not a list of
    at least 2 numbers (see errors.checked_number) within +-1e150, and zero
    variance in both samples with equal means, raise DatasetError.
    """
    if not all(isinstance(s, list) and len(s) >= 2 for s in (sample_a, sample_b)):
        raise DatasetError("each sample must be a list of at least 2 numbers")
    a, b = ([checked_number(v, DatasetError, "a rating") for v in s] for s in (sample_a, sample_b))
    # 1e150 keeps every square and sum of squares below the float maximum
    if max(map(abs, a + b)) > 1e150:
        raise DatasetError("each rating must be within +-1e150")
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        if ma == mb:
            raise DatasetError("both samples constant and equal: t statistic undefined")
        return TTestResult(
            t_statistic=math.inf if ma > mb else -math.inf, df=float(na + nb - 2), p_one_sided=0.0
        )
    t = (ma - mb) / math.sqrt(se2)
    # Welch-Satterthwaite, written with the normalized variance fractions
    # ra + rb = 1 so tiny variances cannot underflow the quotient
    ra = (va / na) / se2
    rb = (vb / nb) / se2
    df = 1.0 / (ra * ra / (na - 1) + rb * rb / (nb - 1))
    p = t_sf(abs(t), df)
    return TTestResult(t_statistic=t, df=df, p_one_sided=p)

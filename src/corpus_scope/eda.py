"""Exploratory statistics: yearly counts, quadratic trend, shares, top terms.

The trend is fitted in raw calendar years and forecast at most
:data:`EXTRAPOLATION_MARGIN` years past the fitted range; the top terms are
the vocabulary's first entries, which it already ranks by frequency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, InputError, InsufficientDataError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .corpus_ingest import Corpus, DocType
    from .text_pipeline import Vocabulary

EXTRAPOLATION_MARGIN = 10


@dataclass(frozen=True)
class YearSeries:
    """(year, count) points sorted by year, plus how many docs had no year.

    Years absent from the corpus are absent here too; zero is never invented.
    """

    points: tuple[tuple[int, int], ...]
    missing_year_count: int = 0

    def __post_init__(self):
        years = [y for y, _ in self.points]
        if any(b <= a for a, b in zip(years, years[1:])):
            raise ConfigError("year series must be strictly increasing in year")

    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.points)

    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.points)


def counts_per_year(corpus: "Corpus") -> YearSeries:
    """Tally documents per publication year.

    Documents without a year are excluded from the points but reported in
    ``missing_year_count``; when no document has a year the series has no
    points. Raises InputError for an empty corpus.
    """
    if len(corpus) == 0:
        raise InputError("cannot count years of an empty corpus")
    tally: Counter[int] = Counter()
    missing = 0
    for doc in corpus:
        if doc.year is None:
            missing += 1
        else:
            tally[doc.year] += 1
    points = tuple(sorted(tally.items()))
    return YearSeries(points=points, missing_year_count=missing)


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares quadratic y = a2*x^2 + a1*x + a0 with fit diagnostics.

    Attributes
    ----------
    a2, a1, a0 : float
        Coefficients in raw calendar years.
    r_squared : float
        Coefficient of determination, clamped to [0, 1].
    p_value : float
        Overall F-test p-value on (2, n-3) degrees of freedom.
    degenerate : bool
        True when the response had zero variance (R^2 reported as 1.0 by
        convention and the p-value as 1.0).
    x_min, x_max : int
        Fitted year range, used to guard forecasts.
    """

    a2: float
    a1: float
    a0: float
    r_squared: float
    p_value: float
    degenerate: bool
    x_min: int
    x_max: int


def f2_survival(d: float, f: float) -> float:
    """P(F > f) for F ~ F(2, d), bit for bit what ``scipy.special.fdtrc(2,
    d, f)`` returns.

    The survival is I_x(d/2, 1) = x^(d/2) with x = d / (d + 2f). SciPy
    takes it from Boost's incomplete beta, whose b = 1 branch this repeats:
    y = 1 - x is formed directly when 2f <= d (x from it otherwise), and the
    power is x itself for d = 2, exp(d/2 * log1p(-y)) when y < 0.5, else
    pow(x, d/2). f = 0 gives 1, f = inf gives 0, a negative or NaN f NaN.
    """
    if not f >= 0.0:
        return math.nan
    if f == 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    if 2.0 * f <= d:
        y = 2.0 * f / (d + 2.0 * f)
        x = 1.0 - y
    else:
        x = d / (d + 2.0 * f)
        y = 1.0 - x
    if d == 2:
        return x
    if y < 0.5:
        return math.exp(d / 2.0 * math.log1p(-y))
    return math.pow(x, d / 2.0)


def fit_quadratic(series: YearSeries) -> QuadraticFit:
    """Fit a quadratic trend to (year, count) points by least squares.

    The solve runs on centered years for conditioning and the coefficients
    are then expanded to raw-year form. A series' years strictly increase,
    so 4 points hold at least 3 distinct years and the design has full rank.

    Raises
    ------
    InsufficientDataError
        Fewer than 4 points (no residual degree of freedom for the F test),
        or none because no document has a year.
    """
    n = len(series.points)
    if n < 4:
        raise InsufficientDataError(f"need at least 4 points, got {n}" if n
                                    else "no document has a year")
    x = np.asarray(series.years(), dtype=np.float64)
    y = np.asarray(series.counts(), dtype=np.float64)
    m = float(x.mean())
    xc = x - m
    design = np.column_stack([xc * xc, xc, np.ones_like(xc)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    b2, b1, b0 = (float(c) for c in coef)

    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))

    if ss_tot == 0.0:
        r2, p_value, degenerate = 1.0, 1.0, True
    else:
        degenerate = False
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
        if ss_res <= 0.0:
            p_value = 0.0
        else:
            f_stat = ((ss_tot - ss_res) / 2.0) / (ss_res / (n - 3))
            p_value = f2_survival(n - 3, f_stat)

    # expand b2*(x-m)^2 + b1*(x-m) + b0 to raw-year coefficients
    a2 = b2
    a1 = b1 - 2.0 * b2 * m
    a0 = b2 * m * m - b1 * m + b0
    return QuadraticFit(
        a2=a2,
        a1=a1,
        a0=a0,
        r_squared=r2,
        p_value=p_value,
        degenerate=degenerate,
        x_min=int(x.min()),
        x_max=int(x.max()),
    )


def forecast_point(fit: QuadraticFit, year: int) -> tuple[float, bool]:
    """Evaluate the fitted curve at ``year``: the value, clamped to 0 when
    negative, and whether it was clamped.

    Years more than :data:`EXTRAPOLATION_MARGIN` beyond the fitted range
    raise ConfigError.
    """
    lo = fit.x_min - EXTRAPOLATION_MARGIN
    hi = fit.x_max + EXTRAPOLATION_MARGIN
    if not lo <= year <= hi:
        raise ConfigError(f"year {year} outside trusted window [{lo}, {hi}]")
    x = float(year)
    raw = (fit.a2 * x + fit.a1) * x + fit.a0
    return (raw, False) if raw >= 0.0 else (0.0, True)


def top_terms(vocab: "Vocabulary", k: int) -> list[tuple[str, int, float]]:
    """The vocabulary's first ``k`` terms, which rank by corpus frequency
    with ties broken lexicographically.

    Returns (term, count, cumulative_share) triples where cumulative_share is
    the running fraction of all in-vocabulary tokens, so the k-th entry
    answers "what share of the counted corpus do the top k terms absorb".
    ``k`` exceeding the vocabulary just returns everything.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    grand = sum(vocab.frequencies)
    counts = vocab.frequencies[:k]
    return [(term, count, running / grand)
            for term, count, running in zip(vocab.terms, counts, accumulate(counts))]


def type_shares(corpus: "Corpus") -> dict["DocType", int]:
    """Integer percentage of documents per publication type.

    Uses the largest-remainder method so the values sum to exactly 100.
    Only types present in the corpus appear. Remainder ties break toward the
    larger count, then alphabetical type name, which keeps the result
    independent of dict ordering.
    """
    if len(corpus) == 0:
        raise InputError("cannot compute type shares of an empty corpus")
    tally = Counter(doc.doc_type for doc in corpus)
    n = sum(tally.values())
    # 100 c / n = floor + remainder / n, and every remainder shares the
    # denominator n, so ordering by remainder orders the exact fractions
    floors, remainders = {}, {}
    for t, c in tally.items():
        floors[t], remainders[t] = divmod(100 * c, n)
    leftover = 100 - sum(floors.values())
    by_remainder = sorted(tally, key=lambda t: (-remainders[t], -tally[t], t.value))
    shares = dict(floors)
    for t in by_remainder[:leftover]:
        shares[t] += 1
    return {t: shares[t] for t in sorted(shares, key=lambda t: (-shares[t], t.value))}

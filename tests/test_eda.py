from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_scope.corpus_ingest import Corpus, DocType, Document
from corpus_scope.eda import (
    QuadraticFit,
    YearSeries,
    counts_per_year,
    fit_quadratic,
    forecast_point,
    top_terms,
    type_shares,
)
from corpus_scope.errors import (
    ConfigError,
    EmptyCorpusError,
    ExtrapolationError,
    InsufficientDataError,
)
from corpus_scope.text_pipeline import TokenSequence, build_dtm, build_vocabulary


def make_corpus(*docs):
    return Corpus(documents=tuple(sorted(docs, key=lambda d: d.id)))


def series(years, counts, missing=0):
    return YearSeries(points=tuple(zip(years, counts)), missing_year_count=missing)


# ------------------------------------------------------------ year counting


def test_counts_per_year_tallies_and_flags_missing():
    corpus = make_corpus(
        Document(id="A", title="t", year=2001),
        Document(id="B", title="t", year=2001),
        Document(id="C", title="t", year=2003),
        Document(id="D", title="t", year=None),
    )
    ys = counts_per_year(corpus)
    assert ys.points == ((2001, 2), (2003, 1))  # absent years stay absent
    assert ys.missing_year_count == 1
    assert ys.years() == (2001, 2003)
    assert ys.counts() == (2, 1)
    assert ys.total() == 3


def test_counts_per_year_empty_cases():
    with pytest.raises(EmptyCorpusError):
        counts_per_year(make_corpus())
    with pytest.raises(EmptyCorpusError):
        counts_per_year(make_corpus(Document(id="A", title="t", year=None)))


def test_year_series_must_increase():
    with pytest.raises(ConfigError):
        YearSeries(points=((2001, 1), (2001, 2)))
    with pytest.raises(ConfigError):
        YearSeries(points=((2005, 1), (2003, 2)))


# ------------------------------------------------------------ quadratic fit


def solve_normal_equations(xs, ys):
    """Independent oracle: exact rational solve of the 3x3 normal equations
    for y = c2*x^2 + c1*x + c0 (Gaussian elimination over Fractions)."""
    n = len(xs)
    cols = [[Fraction(x) ** 2 for x in xs], [Fraction(x) for x in xs], [Fraction(1)] * n]
    A = [[sum(cols[i][t] * cols[j][t] for t in range(n)) for j in range(3)] for i in range(3)]
    b = [sum(cols[i][t] * Fraction(ys[t]) for t in range(n)) for i in range(3)]
    for i in range(3):
        pivot = max(range(i, 3), key=lambda r: abs(A[r][i]))
        A[i], A[pivot] = A[pivot], A[i]
        b[i], b[pivot] = b[pivot], b[i]
        for r in range(i + 1, 3):
            f = A[r][i] / A[i][i]
            b[r] -= f * b[i]
            for c in range(i, 3):
                A[r][c] -= f * A[i][c]
    out = [Fraction(0)] * 3
    for i in (2, 1, 0):
        out[i] = (b[i] - sum(A[i][j] * out[j] for j in range(i + 1, 3))) / A[i][i]
    return out  # [c2, c1, c0]


def test_fit_quadratic_exact_recovery_small_x():
    ys = series(range(11), [3 * x * x - 5 * x + 7 for x in range(11)])
    fit = fit_quadratic(ys)
    assert abs(fit.a2 - 3) < 1e-9
    assert abs(fit.a1 + 5) < 1e-9
    assert abs(fit.a0 - 7) < 1e-9
    assert fit.r_squared == 1.0
    assert fit.p_value < 1e-50  # float dust in ss_res keeps it from exactly 0
    assert not fit.degenerate


def test_fit_quadratic_exact_recovery_calendar_years():
    years = list(range(2010, 2023))
    counts = [2 * (y - 2016) ** 2 + 5 for y in years]
    fit = fit_quadratic(series(years, counts))
    # raw-year coefficients of 2(x-2016)^2 + 5
    assert abs(fit.a2 - 2.0) < 1e-8
    assert abs(fit.a1 + 8064.0) < 1e-5
    assert abs(fit.a0 - 8128517.0) < 1e-2  # |a0| ~ 8e6: float expansion noise
    assert fit.r_squared > 1.0 - 1e-12
    assert (fit.x_min, fit.x_max) == (2010, 2022)


def test_fit_quadratic_matches_exact_normal_equations():
    rng = np.random.default_rng(314)
    for _ in range(40):
        n = int(rng.integers(4, 25))
        xs = sorted(rng.choice(np.arange(0, 80), size=n, replace=False).tolist())
        ys_vals = [int(v) for v in rng.integers(0, 3000, size=n)]
        fit = fit_quadratic(series(xs, ys_vals))
        c2, c1, c0 = solve_normal_equations(xs, ys_vals)
        assert abs(fit.a2 - float(c2)) < 1e-9
        assert abs(fit.a1 - float(c1)) < 1e-9
        assert abs(fit.a0 - float(c0)) < 1e-9
        assert 0.0 <= fit.r_squared <= 1.0
        assert 0.0 <= fit.p_value <= 1.0


def test_fit_quadratic_residuals_orthogonal_to_design():
    rng = np.random.default_rng(8)
    xs = sorted(rng.choice(np.arange(1990, 2030), size=15, replace=False).tolist())
    ys_vals = [int(v) for v in rng.integers(0, 500, size=15)]
    fit = fit_quadratic(series(xs, ys_vals))
    x = np.array(xs, dtype=float)
    resid = np.array(ys_vals) - (fit.a2 * x * x + fit.a1 * x + fit.a0)
    xc = x - x.mean()
    # least squares leaves residuals orthogonal to every design column
    scale = np.abs(resid).sum() + 1.0
    assert abs(resid.sum()) < 1e-6 * scale
    assert abs((resid * xc).sum()) < 1e-4 * scale
    assert abs((resid * xc * xc).sum()) < 1e-2 * scale


def test_fit_quadratic_noisy_recovery():
    rng = np.random.default_rng(42)
    xs = list(range(30))
    ys_vals = [max(0, int(round(0.8 * x * x - 2 * x + 30 + rng.normal(0, 3)))) for x in xs]
    fit = fit_quadratic(series(xs, ys_vals))
    assert abs(fit.a2 - 0.8) < 0.1
    assert fit.r_squared > 0.98
    assert fit.p_value < 1e-10


def test_fit_quadratic_constant_series_convention():
    fit = fit_quadratic(series(range(2000, 2008), [7] * 8))
    assert fit.degenerate
    assert fit.r_squared == 1.0
    assert fit.p_value == 1.0
    assert abs(fit.a2) < 1e-12 and abs(fit.a1) < 1e-9 and abs(fit.a0 - 7) < 1e-6


def test_fit_quadratic_needs_four_points():
    with pytest.raises(InsufficientDataError):
        fit_quadratic(series([2000, 2001, 2002], [1, 2, 3]))


# ------------------------------------------------------------ forecasting


def parabola_fit(a2, a1, a0, x_min, x_max):
    return QuadraticFit(a2=a2, a1=a1, a0=a0, r_squared=1.0, p_value=0.0,
                        degenerate=False, x_min=x_min, x_max=x_max)


def test_forecast_evaluates_the_curve():
    fit = parabola_fit(1.0, -2.0, 3.0, 0, 10)
    value, clamped = forecast_point(fit, 4)
    assert value == pytest.approx(4 * 4 - 2 * 4 + 3)
    assert not clamped


def test_forecast_clamps_negative_predictions_to_zero():
    fit = parabola_fit(-1.0, 0.0, 4.0, 0, 4)
    assert forecast_point(fit, 5) == (0.0, True)     # raw value is -21
    assert forecast_point(fit, 2) == (0.0, False)    # exactly zero: no clamp


def test_forecast_extrapolation_window():
    fit = parabola_fit(0.0, 1.0, 0.0, 2000, 2010)
    assert forecast_point(fit, 2020) == (2020.0, False)  # exactly 10 beyond: fine
    assert forecast_point(fit, 1990) == (1990.0, False)
    with pytest.raises(ExtrapolationError, match="2021"):
        forecast_point(fit, 2021)
    with pytest.raises(ExtrapolationError):
        forecast_point(fit, 1989)


def test_forecast_matches_fit_on_observed_years():
    years = list(range(2005, 2015))
    counts = [y * y % 97 for y in years]
    fit = fit_quadratic(series(years, counts))
    for y in years:
        expect = fit.a2 * y * y + fit.a1 * y + fit.a0
        if expect >= 0:
            assert forecast_point(fit, y)[0] == pytest.approx(expect, abs=1e-9)


# ------------------------------------------------------------ top terms


def test_top_terms_ranking_and_cumulative_share():
    vocab = build_vocabulary([
        TokenSequence(doc_id="d0", tokens=("data", "data", "science")),
        TokenSequence(doc_id="d1", tokens=("data", "mining")),
    ])
    out = top_terms(vocab, k=2)
    assert out == [("data", 3, 0.6), ("mining", 1, 0.8)]
    everything = top_terms(vocab, k=99)
    assert [t for t, _, _ in everything] == ["data", "mining", "science"]
    assert everything[-1][2] == pytest.approx(1.0)
    shares = [s for _, _, s in everything]
    assert shares == sorted(shares)
    with pytest.raises(ConfigError):
        top_terms(vocab, k=0)


def test_top_terms_breaks_frequency_ties_alphabetically():
    sequences = [TokenSequence(doc_id="d0", tokens=("zeta", "alpha", "zeta", "alpha"))]
    vocab = build_vocabulary(sequences)
    assert [t for t, _, _ in top_terms(vocab, 2)] == ["alpha", "zeta"]


def dtm_ranking(dtm, k):
    """Top terms as they were once computed: every DTM column sorted by
    (count desc, term), with running shares over the DTM's total."""
    totals = dtm.col_totals
    order = sorted(range(len(dtm.terms)), key=lambda j: (-int(totals[j]), dtm.terms[j]))
    out, running = [], 0
    for j in order[:k]:
        running += int(totals[j])
        out.append((dtm.terms[j], int(totals[j]), running / dtm.n_total))
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "ab", "ba", "c", "z", "zz"]), max_size=12),
             min_size=1, max_size=6).filter(lambda docs: any(docs)),
    st.integers(1, 9),
    st.integers(1, 12),
)
def test_top_terms_are_the_dtm_ranking(docs, cap, k):
    # few words in few documents make frequency ties common, the cap may
    # drop terms, and k may run past the vocabulary
    sequences = [TokenSequence(doc_id=f"d{i}", tokens=tuple(t)) for i, t in enumerate(docs)]
    vocab = build_vocabulary(sequences, cap)
    assert top_terms(vocab, k) == dtm_ranking(build_dtm(sequences, vocab), k)


# ------------------------------------------------------------ type shares


def corpus_with_type_counts(counts: dict):
    docs = []
    i = 0
    for doc_type, c in counts.items():
        for _ in range(c):
            docs.append(Document(id=f"T{i:03d}", title="t", doc_type=doc_type))
            i += 1
    return make_corpus(*docs)


def test_type_shares_two_to_one_split():
    corpus = corpus_with_type_counts({DocType.CONFERENCE_PROCEEDING: 2,
                                      DocType.RESEARCH_ARTICLE: 1})
    assert type_shares(corpus) == {DocType.CONFERENCE_PROCEEDING: 67,
                                   DocType.RESEARCH_ARTICLE: 33}


def test_type_shares_tie_break_on_equal_remainders():
    counts = {DocType.CONFERENCE_PROCEEDING: 31, DocType.RESEARCH_ARTICLE: 22,
              DocType.BOOK_CHAPTER: 4, DocType.CONFERENCE_REVIEW: 1,
              DocType.BOOK: 1, DocType.EDITORIAL: 1}
    shares = type_shares(corpus_with_type_counts(counts))
    # every remainder is 2/3; the four bumps go to larger counts first,
    # then alphabetical type name among the singles
    assert shares == {DocType.CONFERENCE_PROCEEDING: 52, DocType.RESEARCH_ARTICLE: 37,
                      DocType.BOOK_CHAPTER: 7, DocType.BOOK: 2,
                      DocType.CONFERENCE_REVIEW: 1, DocType.EDITORIAL: 1}
    assert sum(shares.values()) == 100


def test_type_shares_random_always_sum_to_100():
    rng = np.random.default_rng(604)
    types = list(DocType)
    for _ in range(50):
        chosen = rng.choice(len(types), size=rng.integers(1, len(types) + 1), replace=False)
        counts = {types[i]: int(rng.integers(1, 40)) for i in chosen}
        shares = type_shares(corpus_with_type_counts(counts))
        assert sum(shares.values()) == 100
        n = sum(counts.values())
        for t, share in shares.items():
            exact = 100 * counts[t] / n
            assert abs(share - exact) < 1.0  # each share is floor or floor+1
        # a strictly larger group never ends up with a smaller share
        for t1, c1 in counts.items():
            for t2, c2 in counts.items():
                if c1 > c2:
                    assert shares[t1] >= shares[t2]


def test_type_shares_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        type_shares(make_corpus())

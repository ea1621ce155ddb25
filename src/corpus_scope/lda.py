"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

The sampler integrates out the topic-word and document-topic multinomials
and resamples each token's topic assignment z from

    p(z = t | rest)  ~  (n_wt + beta) / (n_t + p*beta) * (n_dt + alpha)

where n_wt counts word w in topic t, n_t all tokens in topic t, and n_dt
tokens of document d in topic t, all excluding the token being resampled.
Randomness is the Mersenne Twister stream of a stdlib ``random.Random(seed)``,
so a (corpus, config) pair fully determines the result. Each initial topic
is the top ``k.bit_length()`` bits of one 32-bit output (``getrandbits``),
drawn again while >= k, and each sweep reads one ``random()`` per token.
Python documents only ``random()`` as reproducible across versions, so the
topic draw is spelled out rather than left to ``randrange``.

The chain advances the generator's 625-word state (``getstate()[1]``) in
blocks of about 2**22 token-sweeps, each running the sweeps, the count checks
and the log-likelihoods: in ``draw_topics`` and ``gibbs_chain`` of
``_native.cpp`` (compiled on first use, see ``_native``), or, when that
library is unavailable, in their plain-Python twins :func:`_draw_topics_python`
and :func:`_chain_python`. Both evaluate the same floating-point operations in
the same order on the same uniforms, so they produce the same chain bit for
bit. No module draws from ``numpy.random``, which a run never loads.

The demo's 1000 sweeps are one call, and ctypes releases the GIL for it.
The count tables stay in place for the whole chain: :func:`fit_lda` checks
their shapes and index ranges once (:func:`_check_tables`; the kernel's
declaration checks dtypes, layout and writability at each call) and passes
them, the generator's state and an array for the log-likelihoods, so a
native block does no Python work and makes no array.
The set-up fills ``n_wk`` and ``n_dk`` through one reused int64 key per
token and draws the initial topics straight into ``z`` (the Python twin
into one list, converted once); ``tests/test_memory.py`` holds the chain
under half a token array. :func:`gammaln` is SciPy's algorithm, not
``math.lgamma``, which differs in the last bits on about half the
arguments the log-likelihood uses, and it calls the C library's ``log``,
not numpy's vectorized one, which differs on some inputs.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import _native
from .errors import ConfigError, InputError
from .text_pipeline import line_chunks, remap_tokens

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .text_pipeline import TokenArray, Vocabulary

logger = logging.getLogger(__name__)

DEFAULT_TOPICS = 6
DEFAULT_BETA = 0.01
DEFAULT_ITERATIONS = 1000
DEFAULT_BURN_IN = 200

MODEL_FORMAT = "corpus-scope-lda v1"
# token-sweeps per chain call (at least one sweep), so that Python, and
# Ctrl-C, gets control back from the native chain about every 0.1 s at k=6
CHAIN_TOKENS = 1 << 22
# fit_lda's messages for a chain's failed checks 1, 2 and 3
_CHECK_ERRORS = (
    "count conservation violated at sweep {}",
    "count table margin mismatch at sweep {}",
    "count table entry out of range at sweep {}",
)


@dataclass(frozen=True)
class LdaConfig:
    """Sampler settings. ``alpha`` defaults to the 50/k heuristic.

    ``burn_in`` is validated and recorded in the model file; the estimates
    come from the final sweep's counts, so it does not change them.
    """

    k: int = DEFAULT_TOPICS
    alpha: float | None = None
    beta: float = DEFAULT_BETA
    iterations: int = DEFAULT_ITERATIONS
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.k >= 2**32:  # randrange(k) takes the top bits of one 32-bit output
            raise ConfigError(f"k must be < 2**32, got {self.k}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 50.0 / self.k)
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):  # and not NaN
            raise ConfigError(f"alpha and beta must be finite and positive, got"
                              f" {self.alpha} and {self.beta}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.iterations > sys.maxsize // 8:  # one float64 log-likelihood per sweep
            raise ConfigError(f"iterations must be <= {sys.maxsize // 8}, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < iterations")


@dataclass(frozen=True, eq=False)
class LdaModel:
    """Fitted topic model.

    ``phi`` is k x p (topics over terms), ``theta`` is n x k (documents over
    topics); both are smoothed point estimates from the final counts. Count
    tables and per-token assignments are retained for :func:`render_model`,
    which writes the whole model; nothing reads that file back, since the
    same input, config and seed give the same model. The assignments are
    kept flat: document d's tokens have topics
    ``topics[offsets[d]:offsets[d + 1]]``.
    """

    config: LdaConfig
    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]
    phi: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    topic_word_counts: np.ndarray = field(repr=False)
    doc_topic_counts: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)  # int64, one more than documents
    topics: np.ndarray = field(repr=False)  # int32, one per token
    dropped_ids: tuple[str, ...]
    log_likelihoods: tuple[float, ...] = field(repr=False)


# Cephes' lgam coefficients: the Stirling correction A below 1000, and the
# rational approximation B / C of log Gamma on [2, 3)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0, bit for bit what ``scipy.special.gammaln``
    returns: its algorithm (Cephes ``lgam``) in the same operations, on
    ``math.log``, which is the C library's ``log`` that SciPy calls too.

    Below 13 the argument is shifted into [2, 3) by the recurrence and a
    rational approximation added; above, Stirling's series with the A
    polynomial below 1000, three terms from 1000 and none above 1e8.
    NaN comes back unchanged, anything above 2.556e305 gives +inf, and
    x <= 0 raises ValueError.
    """
    if not 0.0 < x <= _MAXLGM:
        if x != x:
            return x
        if x > 0.0:
            return math.inf
        raise ValueError(f"gammaln is defined here for x > 0, got {x}")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b, c = _LGAM_B, _LGAM_C
        num = ((((b[0] * x + b[1]) * x + b[2]) * x + b[3]) * x + b[4]) * x + b[5]
        den = (((((x + c[0]) * x + c[1]) * x + c[2]) * x + c[3]) * x + c[4]) * x + c[5]
        return math.log(z) + x * num / den
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A
    return q + ((((a[0] * p + a[1]) * p + a[2]) * p + a[3]) * p + a[4]) / x


def _gammaln_each(values: np.ndarray) -> np.ndarray:
    """:func:`gammaln` of every value of a 1-D float array."""
    return np.fromiter(map(gammaln, values.tolist()), np.float64, values.size)


def dirichlet_density(
    theta: Sequence[float] | np.ndarray, alpha: Sequence[float]
) -> float | np.ndarray:
    """Dirichlet density Gamma(sum a) / prod Gamma(a_i) * prod theta_i^(a_i-1).

    Evaluated in log space with gammaln and exponentiated at the end.
    ``theta`` is one point (k,) or a batch (m, k); a batch returns an (m,)
    array. Every point must lie on the probability simplex within 1e-9;
    boundary zeros follow the exact limit (0, 1, or +inf depending on the
    exponent).
    """
    t = np.asarray(theta, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if t.ndim not in (1, 2) or a.ndim != 1 or t.shape[-1] != a.size or a.size == 0:
        raise ConfigError("theta must be (k,) or (m, k) and alpha (k,), with k >= 1")
    if np.any(a <= 0.0):
        raise ConfigError("alpha entries must be positive")
    points = t.reshape(-1, a.size)
    if np.any(points < 0.0) or np.any(np.abs(points.sum(axis=1) - 1.0) > 1e-9):
        raise ConfigError("theta must be nonnegative and sum to 1 within 1e-9")
    log_norm = float(gammaln(a.sum()) - _gammaln_each(a).sum())
    exps = a - 1.0
    zero = points == 0.0
    log_kernel = np.where(zero, 0.0, exps * np.log(np.where(zero, 1.0, points)))
    density = np.exp(log_norm + log_kernel.sum(axis=1))
    density[(zero & (exps > 0.0)).any(axis=1)] = 0.0
    density[(zero & (exps < 0.0)).any(axis=1)] = np.inf
    return float(density[0]) if t.ndim == 1 else density


def _vectorize(
    tokens: "TokenArray", vocab: "Vocabulary"
) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """The in-vocabulary tokens as flat vocabulary ids, dropping empty documents.

    Returns the kept document ids, int64 token offsets (document d owns
    ``words[offsets[d]:offsets[d + 1]]``), int32 word ids and the dropped ids.
    """
    words, offsets = remap_tokens(tokens.codes, tokens.offsets, tokens.vocab_lookup(vocab))
    lengths = np.diff(offsets)
    doc_ids: list[str] = []
    dropped: list[str] = []
    for doc_id, n in zip(tokens.doc_ids, lengths.tolist()):
        (doc_ids if n else dropped).append(doc_id)
    if dropped:
        logger.warning(
            "dropping %d document(s) with no in-vocabulary tokens", len(dropped)
        )
    if not doc_ids:
        raise InputError("no document has in-vocabulary tokens")
    return doc_ids, offsets[np.concatenate(([True], lengths > 0))], words, dropped


def _gammaln_table(n_wk: np.ndarray, beta: float) -> np.ndarray:
    """``gammaln(c + beta)`` for every count ``c`` an ``n_wk`` entry can hold.

    A sweep moves counts only within a word's row, so no entry exceeds the
    largest row total, and indexing the table with ``n_wk`` gives exactly
    ``gammaln(n_wk + beta)`` without a call per entry. The native
    ``lgam_each`` fills it in place when the library is available.
    """
    most = int(n_wk.sum(axis=1).max(initial=0))
    table = np.arange(most + 1, dtype=np.float64)
    table += beta
    lib = _native.library()
    if lib is None:
        return _gammaln_each(table)
    lib.lgam_each(table, table.size, table)
    return table


def _log_likelihood_constant(k: int, p: int, beta: float) -> float:
    """The part of :func:`_log_likelihood` that no sweep changes."""
    return k * (gammaln(p * beta) - p * gammaln(beta))


def _log_likelihood(
    n_wk: np.ndarray, n_k: np.ndarray, k: int, p: int, beta: float,
    table: np.ndarray,
) -> float:
    """Joint log p(w | z) under the collapsed model (topic-word part).

    ``table`` is :func:`_gammaln_table` for the corpus and ``beta``.
    """
    val = _log_likelihood_constant(k, p, beta)
    val += float(table[n_wk].sum() - _gammaln_each(n_k + p * beta).sum())
    return float(val)


def _generator(state: np.ndarray) -> Random:
    """A ``random.Random`` at ``state``, its 625-word ``getstate()[1]``."""
    rng = Random()
    rng.setstate((3, tuple(state.tolist()), None))
    return rng


def _draw_topics_python(state: np.ndarray, k: int, n: int) -> np.ndarray:
    """``n`` topics as ``randrange(k)`` draws them, advancing ``state`` in
    place: the twin of the native ``draw_topics``, whose int32 bits it
    returns. ``k`` is below 2**32 (:class:`LdaConfig` checks).
    """
    rng = _generator(state)
    draw, bits = rng.getrandbits, k.bit_length()
    topics = []
    for _ in range(n):
        r = draw(bits)
        while r >= k:
            r = draw(bits)
        topics.append(r)
    state[:] = rng.getstate()[1]
    return np.array(topics, dtype=np.uint32).view(np.int32)


def _chain_python(
    offsets: np.ndarray,
    words: np.ndarray,
    z: np.ndarray,
    n_wk: np.ndarray,
    n_dk: np.ndarray,
    n_k: np.ndarray,
    alpha: float,
    beta: float,
    state: np.ndarray,
    table: np.ndarray,
    log_likelihoods: np.ndarray,
) -> int:
    """A block of ``log_likelihoods.size`` Gibbs sweeps in place, advancing
    ``state``: the twin of the native ``gibbs_chain``, with its checks after
    each sweep and its return value (0, or 3 * sweep + the failed check).

    The sweeps run on nested lists, because numpy scalar indexing would
    dominate them, written back to the tables for the checks and
    :func:`_log_likelihood`.
    """
    p, k = n_wk.shape
    vbeta, total = p * beta, int(offsets[-1])
    nwk, ndk, nk = n_wk.tolist(), n_dk.tolist(), n_k.tolist()
    zs, ws, bounds = z.tolist(), words.tolist(), offsets.tolist()
    rng = _generator(state)
    uniform, topics, last, cum = rng.random, range(k), k - 1, [0.0] * k
    status = 0
    for s in range(log_likelihoods.size):
        for d in range(len(bounds) - 1):
            ndk_d = ndk[d]
            for i in range(bounds[d], bounds[d + 1]):
                nwk_w = nwk[ws[i]]
                old = zs[i]
                nwk_w[old] -= 1
                ndk_d[old] -= 1
                nk[old] -= 1
                weight = 0.0
                for t in topics:
                    weight += (nwk_w[t] + beta) / (nk[t] + vbeta) * (ndk_d[t] + alpha)
                    cum[t] = weight
                x = uniform() * weight
                new = 0
                while new < last and cum[new] < x:
                    new += 1
                zs[i] = new
                nwk_w[new] += 1
                ndk_d[new] += 1
                nk[new] += 1
        n_wk[...], n_dk[...], n_k[...] = nwk, ndk, nk
        if int(n_k.sum()) != total:
            status = 3 * s + 1
        elif int(n_wk.sum()) != total or int(n_dk.sum()) != total:
            status = 3 * s + 2
        elif n_wk.min() < 0 or n_wk.max() >= table.size:
            status = 3 * s + 3
        if status:
            break
        log_likelihoods[s] = _log_likelihood(n_wk, n_k, k, p, beta, table)
    z[...] = zs
    state[:] = rng.getstate()[1]
    return status


def _check_tables(offsets: np.ndarray, words: np.ndarray, z: np.ndarray, n_wk: np.ndarray,
                  n_dk: np.ndarray, n_k: np.ndarray, p: int, k: int) -> None:
    """Shapes and index ranges the C chain relies on; its declaration checks
    each table's dtype, layout and writability when it is called."""
    n_docs = offsets.size - 1
    if (words.shape != (offsets[-1],) or z.shape != words.shape or n_wk.shape != (p, k)
            or n_dk.shape != (n_docs, k) or n_k.shape != (k,)):
        raise RuntimeError("Gibbs tables do not match the corpus shape")
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise RuntimeError("Gibbs document offsets are not ascending from 0")
    if words.min() < 0 or words.max() >= p or z.min() < 0 or z.max() >= k:
        raise RuntimeError("Gibbs word id or topic out of range")


def fit_lda(tokens: "TokenArray", vocab: "Vocabulary", config: LdaConfig) -> LdaModel:
    """Run the collapsed Gibbs sampler and return point estimates.

    Documents with no in-vocabulary tokens are dropped (with a warning) and
    listed on ``dropped_ids``. More topics than in-vocabulary tokens raise
    ConfigError, since some would stay empty, before any count table is
    allocated. Count tables are cross-checked for exact conservation after
    every sweep.
    """
    doc_ids, offsets, words, dropped = _vectorize(tokens, vocab)
    k = config.k
    if k > words.size:
        raise ConfigError(f"{k} topics exceed the {words.size} in-vocabulary tokens,"
                          " so some topics would stay empty")
    p = len(vocab)
    alpha = float(config.alpha)
    beta = float(config.beta)
    vbeta = p * beta
    n_docs = len(doc_ids)
    total_tokens = int(words.size)
    lib = _native.library()
    # random.Random's key and position, advanced in place by each call
    state = np.array(Random(config.seed).getstate()[1], dtype=np.uint32)
    if lib is None:
        z = _draw_topics_python(state, k, total_tokens)
    else:
        z = np.empty(total_tokens, dtype=np.int32)
        lib.draw_topics(state, k, total_tokens, z)

    # one int64 key per token, reused: word * k + topic, then doc * k + topic
    # (no document is empty, so each start past the first is a distinct token)
    key = words.astype(np.int64)
    key *= k
    key += z
    n_wk = np.bincount(key, minlength=p * k).reshape(p, k)
    key[:] = 0
    key[offsets[1:-1]] = k
    np.cumsum(key, out=key)
    key += z
    n_dk = np.bincount(key, minlength=n_docs * k).reshape(n_docs, k)
    del key
    n_k = n_wk.sum(axis=0)
    n_wk, n_dk, n_k = (a.astype(np.int64, copy=False) for a in (n_wk, n_dk, n_k))

    _check_tables(offsets, words, z, n_wk, n_dk, n_k, p, k)
    cum = np.zeros(k)
    table = _gammaln_table(n_wk, beta)
    log_likelihoods = np.empty(config.iterations)
    # the tables are updated in place for the whole chain; each native call
    # runs a block of sweeps
    chain = (n_docs, offsets, words, z, p, k, n_wk, n_dk, n_k, cum, alpha, beta, vbeta,
             state, table, table.size, _log_likelihood_constant(k, p, beta))
    block = max(1, CHAIN_TOKENS // total_tokens)
    for first in range(0, config.iterations, block):
        out = log_likelihoods[first : first + block]
        if lib is None:
            failed = _chain_python(offsets, words, z, n_wk, n_dk, n_k, alpha, beta,
                                   state, table, out)
        else:
            failed = lib.gibbs_chain(*chain, out.size, out)
        if failed:
            it, check = divmod(failed - 1, 3)
            raise RuntimeError(_CHECK_ERRORS[check].format(first + it))

    topic_word_counts = n_wk.T.copy()
    phi = (topic_word_counts + beta) / (topic_word_counts.sum(axis=1) + vbeta)[:, None]
    theta = (n_dk + alpha) / (n_dk.sum(axis=1) + k * alpha)[:, None]
    return LdaModel(
        config=config,
        doc_ids=tuple(doc_ids),
        terms=vocab.terms,
        phi=phi,
        theta=theta,
        topic_word_counts=topic_word_counts,
        doc_topic_counts=n_dk,
        offsets=offsets,
        topics=z,
        dropped_ids=tuple(dropped),
        log_likelihoods=tuple(log_likelihoods.tolist()),
    )


def top_words_per_topic(model: LdaModel, m: int = 10) -> list[list[str]]:
    """The ``m`` highest-probability terms per topic, count desc then term asc."""
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    terms = model.terms
    rank = np.empty(len(terms), dtype=np.int64)
    rank[sorted(range(len(terms)), key=terms.__getitem__)] = np.arange(len(terms))
    best = _top_columns(model.topic_word_counts, rank, m)
    return [[terms[j] for j in row] for row in best.tolist()]


def _top_columns(counts: np.ndarray, rank: np.ndarray, m: int) -> np.ndarray:
    """The columns of each row's ``m`` largest ``counts``, count desc then
    ``rank`` asc: the order of ``np.lexsort((rank, -counts))``, cut at m.

    ``counts`` are non-negative integers over V columns and ``rank`` is a
    permutation of 0..V-1. Each entry gets one int64 key,
    count * V + (V - 1 - rank), distinct within its row; the m largest keys
    per row are taken by ``np.argpartition``, and only they are sorted. A
    key fits while (count + 1) * V <= 2**63; a larger count raises
    OverflowError.
    """
    n_rows, v = counts.shape
    m = min(m, v)
    if m == 0:
        return np.zeros((n_rows, 0), dtype=np.intp)
    if counts.size and int(counts.max()) >= 2**63 // v:
        raise OverflowError(f"a count of {int(counts.max())} over {v} columns"
                            " passes the int64 sort key")
    keys = counts.astype(np.int64) * v
    keys += v - 1 - rank
    best = np.argpartition(keys, v - m, axis=1)[:, v - m:]
    order = np.argsort(-np.take_along_axis(keys, best, axis=1), axis=1)
    return np.take_along_axis(best, order, axis=1)


def render_model(model: LdaModel) -> Iterator[str]:
    """The versioned text format (header, labels, CSV count tables), in
    chunks of at most 2**16 counts."""
    cfg = model.config
    head = [
        MODEL_FORMAT,
        f"k={cfg.k}",
        f"alpha={cfg.alpha!r}",
        f"beta={cfg.beta!r}",
        f"iterations={cfg.iterations}",
        f"burn_in={cfg.burn_in}",
        f"seed={cfg.seed}",
        "sample_averaging=0",  # estimates always come from the final counts
        f"n_docs={len(model.doc_ids)}",
        f"n_terms={len(model.terms)}",
        "dropped=" + ";".join(map(_one_line_id, model.dropped_ids)),
        "[terms]",
        *model.terms,
        "[documents]",
        *map(_one_line_id, model.doc_ids),
        "[topic_word_counts]",
    ]
    yield "\n".join(head) + "\n"
    yield from line_chunks(model.topic_word_counts, ",")
    yield "[doc_topic_counts]\n"
    yield from line_chunks(model.doc_topic_counts, ",")
    yield "[assignments]\n"
    yield from line_chunks(model.topics, ",", model.offsets[1:])
    yield "[log_likelihoods]\n" + "".join(f"{v!r}\n" for v in model.log_likelihoods)


def _one_line_id(doc_id: str) -> str:
    """``doc_id`` as one line of ``[documents]`` and one item of ``dropped=``:
    each backslash, CR, LF and ``;`` in it is written as ``\\\\``, ``\\r``,
    ``\\n`` and ``\\x3b``."""
    return (doc_id.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")
            .replace(";", "\\x3b"))

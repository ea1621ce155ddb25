/* The package's compiled kernels, built into one C++17 library by
 * _native.py, which declares each function of an extern "C" block below to
 * ctypes from its definition here:
 *  - lda: the Gibbs chain gibbs_chain, with draw_topics for its starting
 *    topics, on the Mersenne Twister state of a random.Random, and lgam_each
 *    for its log Gamma table; draw_uniforms and sum_at are its generator and
 *    its pairwise sum alone, for the tests;
 *  - text_pipeline: the word splitter and its corpus-wide word table
 *    (word_table_new, intern_words, word_chars, word_table_free), the token
 *    renumbering remap_tokens, the document-term counts count_dtm, and the
 *    integer and float table formatters format_ints and format_doubles;
 *  - lsa: the CSR row gather csr_matvec (P x), the ascending-row scatter
 *    csr_rmatvec (P^T y), and eigenvalue_bracket, the Sturm bisection of the
 *    Lanczos stop test.
 * Each has a Python twin that is its reference and its fallback, and both
 * give the same results bit for bit. */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <new>
#include <stdint.h>
#include <vector>

/* MT19937 as random.Random runs it. The state is
 * random.Random.getstate()[1] as 625 words: the 624-word key, then the
 * position of the next output in it (624 when the key is used up). */
struct mt19937 {
    uint32_t key[624];
    uint32_t pos;

    explicit mt19937(const uint32_t *state) : pos(state[624])
    {
        std::copy(state, state + 624, key);
    }

    void save(uint32_t *state) const
    {
        std::copy(key, key + 624, state);
        state[624] = pos;
    }

    /* genrand_uint32 */
    uint32_t next()
    {
        if (pos >= 624)
            twist();
        uint32_t y = key[pos++];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        return y ^ (y >> 18);
    }

    /* genrand_res53: a double in [0, 1) from two outputs, as random.random()
     * builds it */
    double uniform()
    {
        uint32_t a = next() >> 5, b = next() >> 6;
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
    }

    void twist()
    {
        const uint32_t mag[2] = {0, 0x9908b0dfU};
        int i = 0;
        for (; i < 624 - 397; i++) {
            uint32_t y = (key[i] & 0x80000000U) | (key[i + 1] & 0x7fffffffU);
            key[i] = key[i + 397] ^ (y >> 1) ^ mag[y & 1];
        }
        for (; i < 623; i++) {
            uint32_t y = (key[i] & 0x80000000U) | (key[i + 1] & 0x7fffffffU);
            key[i] = key[i + 397 - 624] ^ (y >> 1) ^ mag[y & 1];
        }
        uint32_t y = (key[623] & 0x80000000U) | (key[0] & 0x7fffffffU);
        key[623] = key[396] ^ (y >> 1) ^ mag[y & 1];
        pos = 0;
    }
};

/* Cephes lgam, log Gamma(x), operation for operation as lda.gammaln: the
 * recurrence into [2, 3) and a rational approximation below 13, Stirling's
 * series above. NaN comes back unchanged, anything above 2.556e305 gives
 * +inf, and x <= 0, where lda.gammaln raises, gives NaN. Its log is the C
 * library's, as math.log's is. */
static double lgam(double x)
{
    static const double A[] = {8.11614167470508450300e-4, -5.95061904284301438324e-4,
                               7.93650340457716943945e-4, -2.77777777730099687205e-3,
                               8.33333333333331927722e-2};
    static const double B[] = {-1.37825152569120859100e3, -3.88016315134637840924e4,
                               -3.31612992738871184744e5, -1.16237097492762307383e6,
                               -1.72173700820839662146e6, -8.53555664245765465627e5};
    static const double C[] = {-3.51815701436523470549e2, -1.70642106651881159223e4,
                               -2.20528590553854454839e5, -1.13933444367982507207e6,
                               -2.53252307177582951285e6, -2.01889141433532773231e6};
    const double LS2PI = 0.91893853320467274178; /* log(sqrt(2 pi)) */
    if (!(0.0 < x && x <= 2.556348e305)) {
        if (x != x)
            return x;
        return x > 0.0 ? HUGE_VAL : NAN;
    }
    if (x < 13.0) {
        double z = 1.0, p = 0.0, u = x;
        while (u >= 3.0) {
            p -= 1.0;
            u = x + p;
            z *= u;
        }
        while (u < 2.0) {
            z /= u;
            p += 1.0;
            u = x + p;
        }
        if (u == 2.0)
            return std::log(z);
        x += p - 2.0;
        double num = ((((B[0] * x + B[1]) * x + B[2]) * x + B[3]) * x + B[4]) * x + B[5];
        double den = (((((x + C[0]) * x + C[1]) * x + C[2]) * x + C[3]) * x + C[4]) * x + C[5];
        return std::log(z) + x * num / den;
    }
    double q = (x - 0.5) * std::log(x) - x + LS2PI;
    if (x > 1.0e8)
        return q;
    double p = 1.0 / (x * x);
    if (x >= 1000.0)
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x;
    return q + ((((A[0] * p + A[1]) * p + A[2]) * p + A[3]) * p + A[4]) / x;
}

/* at(start) + ... + at(start + n - 1) in numpy's pairwise order: one by one
 * below 8 values, 8 interleaved accumulators up to 128, and above that the
 * two halves, split at n / 2 rounded down to a multiple of 8. */
template <typename At>
static double pairwise_sum(const At &at, int64_t start, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += at(start + i);
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = at(start + j);
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += at(start + i + j);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += at(start + i);
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(at, start, half) + pairwise_sum(at, start + half, n - half);
}

extern "C" {

/* n successive random.Random.randrange(k) values into z, for 1 <= k < 2**32:
 * the top k.bit_length() bits of one output, drawn again while >= k; the
 * compiled twin of lda._draw_topics_python. state (625 words) is advanced in
 * place. */
void draw_topics(uint32_t *state, int64_t k, int64_t n, int32_t *z)
{
    mt19937 mt(state);
    int shift = __builtin_clzll((uint64_t)k) - 32;
    for (int64_t i = 0; i < n; i++) {
        uint32_t r;
        do
            r = mt.next() >> shift;
        while (r >= (uint64_t)k);
        z[i] = (int32_t)r;
    }
    mt.save(state);
}

/* n successive random.Random.random() values into out; state as in
 * draw_topics. */
void draw_uniforms(uint32_t *state, int64_t n, double *out)
{
    mt19937 mt(state);
    for (int64_t i = 0; i < n; i++)
        out[i] = mt.uniform();
    mt.save(state);
}

/* lgam of each of values[0..n) into out. */
void lgam_each(const double *values, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = lgam(values[i]);
}

/* The sum of table[index[j]] over j < n, from 0.0 in numpy's pairwise
 * order, so equal to np.sum(table[index]) without the gathered array. */
double sum_at(const double *table, const int64_t *index, int64_t n)
{
    return 0.0 + pairwise_sum([&](int64_t j) { return table[index[j]]; }, 0, n);
}

/* A block of collapsed Gibbs sweeps over flat count tables; the compiled
 * twin of lda._chain_python, with its checks and log-likelihoods. Each
 * token's uniform is drawn from state (as in draw_topics) where it is read,
 * and each sampling weight is evaluated in the same order as the Python
 * loop; the library is built with -ffp-contract=off, so every double rounds
 * exactly as in Python and the two produce the same chain.
 *
 * offsets: n_docs + 1 token offsets; words, z: one entry per token;
 * n_wk: p x k; n_dk: n_docs x k; n_k: k; cum: k doubles of scratch. The
 * caller (lda._check_tables) checks these shapes and that every index is in
 * range; the declaration, each array's dtype, layout and writability.
 * table: lgam(c + beta) for every count c up to the largest per-word token
 * count, n_table entries.
 *
 * After each sweep s the three margins must each re-add to the token total,
 * and every n_wk entry must lie in table; then log_likelihoods[s] is
 * constant + (sum of table[n_wk] - sum of lgam(n_k + vbeta)), both sums in
 * numpy's order. Returns 0 after all sweeps, or at the first failed check
 * 3 * s + 1 (n_k's total), 3 * s + 2 (n_wk's or n_dk's total) or 3 * s + 3
 * (an n_wk entry outside table). */
int64_t gibbs_chain(int64_t n_docs, const int64_t *offsets, const int32_t *words,
                    int32_t *z, int64_t p, int64_t k, int64_t *n_wk, int64_t *n_dk,
                    int64_t *n_k, double *cum, double alpha, double beta,
                    double vbeta, uint32_t *state, const double *table,
                    int64_t n_table, double constant, int64_t sweeps,
                    double *log_likelihoods)
{
    mt19937 mt(state);
    const int64_t n_tokens = offsets[n_docs];
    int64_t status = 0;
    for (int64_t s = 0; s < sweeps && !status; s++) {
        for (int64_t d = 0; d < n_docs; d++) {
            int64_t *ndk = n_dk + d * k;
            for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
                int64_t *nwk = n_wk + (int64_t)words[i] * k;
                int32_t old = z[i];
                nwk[old]--;
                ndk[old]--;
                n_k[old]--;
                double total = 0.0;
                for (int64_t t = 0; t < k; t++) {
                    total += (nwk[t] + beta) / (n_k[t] + vbeta) * (ndk[t] + alpha);
                    cum[t] = total;
                }
                double x = mt.uniform() * total;
                int64_t pick = 0;
                while (pick < k - 1 && cum[pick] < x)
                    pick++;
                z[i] = (int32_t)pick;
                nwk[pick]++;
                ndk[pick]++;
                n_k[pick]++;
            }
        }

        int64_t sum_k = 0, sum_wk = 0, sum_dk = 0;
        bool in_table = true;
        for (int64_t t = 0; t < k; t++)
            sum_k += n_k[t];
        for (int64_t j = 0; j < p * k; j++) {
            sum_wk += n_wk[j];
            in_table &= (uint64_t)n_wk[j] < (uint64_t)n_table;
        }
        for (int64_t j = 0; j < n_docs * k; j++)
            sum_dk += n_dk[j];
        if (sum_k != n_tokens)
            status = 3 * s + 1;
        else if (sum_wk != n_tokens || sum_dk != n_tokens)
            status = 3 * s + 2;
        else if (!in_table)
            status = 3 * s + 3;
        else {
            for (int64_t t = 0; t < k; t++)
                cum[t] = lgam(n_k[t] + vbeta);
            double words_part = sum_at(table, n_wk, p * k);
            double topics_part = 0.0 + pairwise_sum([&](int64_t t) { return cum[t]; }, 0, k);
            log_likelihoods[s] = constant + (words_part - topics_part);
        }
    }
    mt.save(state);
    return status;
}

/* Whether code point c matches re's \w: a 128-entry table below 128, else
 * a binary search in the sorted word code points above it. */
static inline int is_word(uint32_t c, const uint8_t *ascii,
                          const uint32_t *wide, int64_t n_wide)
{
    if (c < 128)
        return ascii[c];
    int64_t lo = 0, hi = n_wide;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (wide[mid] < c)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < n_wide && wide[lo] == c;
}

} /* extern "C" */

/* The words met so far in a corpus, for intern_words. Word w is
 * chars[starts[w] .. starts[w + 1] - 1), followed by a space, which no word
 * holds; slots is an open-addressing hash table over the words, a power of
 * two in size and at most half full. */
struct word_table {
    struct slot {
        uint64_t hash;
        int64_t entry; /* word number + 1; 0 marks an empty slot */
        int64_t start, len; /* the word's place in chars */
    };
    std::vector<slot> slots = std::vector<slot>(1024);
    std::vector<uint32_t> chars;
    std::vector<int64_t> starts = {0};

    int64_t size() const { return (int64_t)starts.size() - 1; }

    /* the slot that holds the run text[0..len) with hash h, or the empty
     * slot where it belongs */
    uint64_t find(const uint32_t *text, int64_t len, uint64_t h) const
    {
        uint64_t mask = slots.size() - 1, j = h & mask;
        for (; slots[j].entry; j = (j + 1) & mask) {
            if (slots[j].hash == h && slots[j].len == len
                && std::equal(text, text + len, chars.data() + slots[j].start))
                break;
        }
        return j;
    }

    /* word number of text[0..len), added as the next word if it is new */
    int64_t intern(const uint32_t *text, int64_t len, uint64_t h)
    {
        uint64_t j = find(text, len, h);
        if (slots[j].entry)
            return slots[j].entry - 1;
        if (2 * (uint64_t)(size() + 1) > slots.size()) {
            std::vector<slot> bigger(2 * slots.size());
            uint64_t mask = bigger.size() - 1;
            for (const slot &s : slots) {
                if (!s.entry)
                    continue;
                uint64_t k = s.hash & mask;
                while (bigger[k].entry)
                    k = (k + 1) & mask;
                bigger[k] = s;
            }
            slots.swap(bigger);
            j = find(text, len, h);
        }
        int64_t start = (int64_t)chars.size();
        chars.insert(chars.end(), text, text + len);
        chars.push_back(' ');
        starts.push_back((int64_t)chars.size());
        slots[j] = {h, size(), start, len};
        return size() - 1;
    }
};

extern "C" {

void *word_table_new(void)
{
    try {
        return new word_table;
    } catch (const std::bad_alloc &) {
        return NULL;
    }
}

void word_table_free(void *table)
{
    delete (word_table *)table;
}

/* Split a chunk of documents into maximal runs of word code points (re's
 * \w+) and intern them in table, which lasts across the chunks of a
 * corpus; the compiled twin of re.findall per document plus a
 * first-appearance dict, as in text_pipeline._encode.
 *
 * text: the chunk's code points; document d spans doc_ends[d - 1] (0 for
 * d = 0) to doc_ends[d], so no run crosses a document end. ascii: 128 word
 * flags; wide: the n_wide non-ASCII word code points, ascending.
 * Out: codes, one per run, numbering the table's words in order of first
 * appearance in the corpus; token_ends[d], the number of runs in documents
 * 0..d of the chunk. codes must hold one entry per code point of text.
 * Returns the number of words in the table, so the words this chunk added
 * are those numbered from the previous count on; -1 when out of memory. */
int64_t intern_words(void *table, const uint32_t *text, int64_t n_docs,
                     const int64_t *doc_ends, const uint8_t *ascii,
                     const uint32_t *wide, int64_t n_wide, int32_t *codes,
                     int64_t *token_ends)
{
    word_table &words = *(word_table *)table;
    int64_t n_tokens = 0, i = 0;
    try {
        for (int64_t d = 0; d < n_docs; d++) {
            int64_t end = doc_ends[d];
            while (i < end) {
                if (!is_word(text[i], ascii, wide, n_wide)) {
                    i++;
                    continue;
                }
                /* FNV-1a over whole code points, folded for the low bits */
                int64_t start = i;
                uint64_t h = 14695981039346656037ULL;
                do
                    h = (h ^ text[i++]) * 1099511628211ULL;
                while (i < end && is_word(text[i], ascii, wide, n_wide));
                h ^= h >> 32;
                /* fewer than 2**31 words: their text alone would take more
                 * than 16 GB */
                codes[n_tokens++] = (int32_t)words.intern(text + start, i - start, h);
            }
            token_ends[d] = n_tokens;
        }
    } catch (const std::bad_alloc &) {
        return -1;
    }
    return words.size();
}

/* The text of the table's words from number first on, each followed by a
 * space; *size is set to its length in code points. */
const uint32_t *word_chars(const void *table, int64_t first, int64_t *size)
{
    const word_table &words = *(const word_table *)table;
    *size = (int64_t)words.chars.size() - words.starts[first];
    return words.chars.data() + words.starts[first];
}

/* The compiled twin of text_pipeline._remap_python: every token's code
 * through remap, keeping only those it maps to 0 or more, in order.
 *
 * raw: n_tokens codes below n_remap; document d owns raw[ends[d] ..
 * ends[d + 1]), for n_docs documents. Out: codes, the kept codes (it may be
 * raw itself), and offsets, n_docs + 1 document offsets into them. Returns
 * the number kept, or -1 when a code or a document end is out of range. */
int64_t remap_tokens(const int32_t *raw, int64_t n_tokens, const int64_t *ends,
                     int64_t n_docs, const int32_t *remap, int64_t n_remap,
                     int32_t *codes, int64_t *offsets)
{
    if (ends[0] != 0 || ends[n_docs] != n_tokens)
        return -1;
    int64_t kept = 0;
    offsets[0] = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        if (ends[d + 1] < ends[d] || ends[d + 1] > n_tokens)
            return -1;
        for (int64_t i = ends[d]; i < ends[d + 1]; i++) {
            if ((uint64_t)(uint32_t)raw[i] >= (uint64_t)n_remap)
                return -1;
            int32_t c = remap[raw[i]];
            if (c >= 0)
                codes[kept++] = c;
        }
        offsets[d + 1] = kept;
    }
    return kept;
}

/* The compiled twin of text_pipeline._count_python: the document-term
 * counts as CSR arrays, with the row and column totals.
 *
 * codes, offsets: as remap_tokens' raw and ends; column: each code's term
 * column below p, or -1 for a code outside the vocabulary. Out: indptr
 * (n_docs + 1), and indices and data, which must hold one entry per token;
 * each row's columns ascend. row_totals (n_docs) and col_totals (p, zeroed
 * by the caller) sum the counts. Returns the number of entries, -1 when a
 * code, a column or a document end is out of range, and -2 when out of
 * memory. */
int64_t count_dtm(const int32_t *codes, int64_t n_tokens, const int64_t *offsets,
                  int64_t n_docs, const int32_t *column, int64_t n_types,
                  int64_t p, int32_t *indptr, int32_t *indices, int64_t *data,
                  int64_t *row_totals, int64_t *col_totals)
{
    if (offsets[0] != 0 || offsets[n_docs] != n_tokens)
        return -1;
    /* a row's counts by column, and its columns as one bit each */
    std::vector<int64_t> count;
    std::vector<uint64_t> bits;
    try {
        count.resize(p);
        bits.resize((p + 63) / 64);
    } catch (const std::bad_alloc &) {
        return -2;
    }
    int64_t nnz = 0;
    indptr[0] = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        if (offsets[d + 1] < offsets[d] || offsets[d + 1] > n_tokens)
            return -1;
        int64_t total = 0;
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            if ((uint64_t)(uint32_t)codes[i] >= (uint64_t)n_types)
                return -1;
            int32_t c = column[codes[i]];
            if (c < 0)
                continue;
            if (c >= p)
                return -1;
            if (!count[c]++)
                bits[c >> 6] |= 1ULL << (c & 63);
            total++;
        }
        /* the columns in ascending order, read off the bits */
        for (size_t w = 0; w < bits.size(); w++) {
            for (uint64_t b = bits[w]; b; b &= b - 1) {
                int32_t c = (int32_t)(64 * w + __builtin_ctzll(b));
                indices[nnz] = c;
                data[nnz++] = count[c];
                col_totals[c] += count[c];
                count[c] = 0;
            }
            bits[w] = 0;
        }
        row_totals[d] = total;
        indptr[d + 1] = (int32_t)nnz;
    }
    return nnz;
}

/* The products with a CSR matrix P of n_rows x n_cols, for lsa's Lanczos
 * iteration; the compiled twins of lsa.csr_products' two np.bincount calls.
 * Row i of P holds values[indptr[i] .. indptr[i + 1]) in the columns
 * indices[...]. Each output starts at 0.0 and adds values[jj] * v[...] in
 * ascending entry order, as scipy's csr_matvec and csc_matvec do, so all
 * three give the same bits. lsa.csr_products checks once that indptr
 * ascends from 0 to the number of entries and that every column is in
 * range, so neither kernel checks an index. */

/* The row gather y = P x: x has n_cols entries, y n_rows. */
void csr_matvec(int64_t n_rows, int64_t /* n_cols */, const int32_t *indptr,
                const int32_t *indices, const double *values, const double *x, double *y)
{
    for (int64_t i = 0; i < n_rows; i++) {
        double sum = 0.0;
        for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++)
            sum += values[jj] * x[indices[jj]];
        y[i] = sum;
    }
}

/* The ascending-row scatter out = P^T y: y has n_rows entries, out n_cols. */
void csr_rmatvec(int64_t n_rows, int64_t n_cols, const int32_t *indptr,
                 const int32_t *indices, const double *values, const double *y, double *out)
{
    std::fill(out, out + n_cols, 0.0);
    for (int64_t i = 0; i < n_rows; i++) {
        double yi = y[i];
        for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++)
            out[indices[jj]] += values[jj] * yi;
    }
}

/* out[0] <= out[1] around the index-th smallest eigenvalue (from 0) of the symmetric
 * tridiagonal T with diagonal d[0..n) and off-diagonal e[0..n-1): Sturm counts (dstebz's),
 * at three points a pass, cut the Gershgorin interval to 1e-13 ||T||_1, and the result is
 * widened by 1e-12 ||T||_1. Returns 0, or -1 on a bad index or a non-finite value. */
int64_t eigenvalue_bracket(const double *d, const double *e, int64_t n, int64_t index,
                           double *out)
{
    double lo = INFINITY, hi = -INFINITY, norm = 0.0, pivmin = 0x1p-1022; /* DBL_MIN */
    for (int64_t i = 0; i < n; i++) {
        double off = std::fabs(i > 0 ? e[i - 1] : 0.0) + std::fabs(i + 1 < n ? e[i] : 0.0);
        double down = d[i] - off, up = d[i] + off;
        if (!std::isfinite(down) || !std::isfinite(up))
            return -1;
        lo = std::min(lo, down);
        hi = std::max(hi, up);
        norm = std::max(norm, std::max(up, -down));
        pivmin = std::max(pivmin, i > 0 ? e[i - 1] * e[i - 1] * 0x1p-1022 : 0.0);
    }
    if (index < 0 || index >= n || !std::isfinite(hi - lo) || !std::isfinite(pivmin))
        return -1;
    while (hi - lo > std::max(1e-13 * norm, pivmin)) {
        double w = 0.25 * (hi - lo), x[5] = {lo, lo + w, lo + 2 * w, lo + 3 * w, hi};
        double q[3] = {1.0, 1.0, 1.0}; /* a zero pivot counts as -pivmin, as in dstebz */
        int64_t count[3] = {0, 0, 0};  /* eigenvalues <= x[j + 1] */
        for (int64_t i = 0; i < n; i++)
            for (int j = 0; j < 3; j++) {
                q[j] = d[i] - (i > 0 ? e[i - 1] * e[i - 1] / q[j] : 0.0) - x[j + 1];
                q[j] = std::fabs(q[j]) < pivmin ? -pivmin : q[j];
                count[j] += q[j] <= 0.0;
            }
        int j = (count[0] <= index) + (count[1] <= index) + (count[2] <= index);
        lo = x[j];
        hi = x[j + 1];
    }
    out[0] = lo - 1e-12 * norm;
    out[1] = hi + 1e-12 * norm;
    return 0;
}

} /* extern "C" */

/* The number formatters: the compiled twins of text_pipeline's
 * sep.join(map(str, row)) for integers and sep.join(map(repr, row)) for
 * doubles. The longest text either writes for one value is 24 bytes
 * ("-2.2250738585072014e-308"). */

static char *put(char *p, int64_t v)
{
    return std::to_chars(p, p + 20, v).ptr;
}

/* Python's repr of a double. std::to_chars gives the shortest digits that
 * read back to x (Ryu) in scientific form, d[.ddd]e±XX, which repr keeps
 * when the decimal exponent is below -4 or at least 16; otherwise the digits
 * are laid out positionally, with ".0" on integral values. */
static char *put(char *p, double x)
{
    if (std::isnan(x)) {
        memcpy(p, "nan", 3); /* repr drops NaN's sign */
        return p + 3;
    }
    if (std::isinf(x)) {
        if (x < 0)
            *p++ = '-';
        memcpy(p, "inf", 3);
        return p + 3;
    }
    char sci[32];
    const char *end = std::to_chars(sci, sci + sizeof sci, x,
                                    std::chars_format::scientific).ptr;
    const char *s = sci;
    if (*s == '-')
        *p++ = *s++;
    char digits[20];
    int n = 0;
    const char *e = s;
    for (; *e != 'e'; e++)
        if (*e != '.')
            digits[n++] = *e;
    int exp = 0;
    for (const char *q = e + 2; q < end; q++)
        exp = 10 * exp + (*q - '0');
    if (e[1] == '-')
        exp = -exp;
    if (exp < -4 || exp >= 16) {
        memcpy(p, s, end - s);
        return p + (end - s);
    }
    if (exp < 0) {
        memcpy(p, "0.", 2);
        p += 2;
        memset(p, '0', -exp - 1);
        p += -exp - 1;
        memcpy(p, digits, n);
        return p + n;
    }
    if (n <= exp + 1) {
        memcpy(p, digits, n);
        memset(p + n, '0', exp + 1 - n);
        p += exp + 1;
        memcpy(p, ".0", 2);
        return p + 2;
    }
    memcpy(p, digits, exp + 1);
    p += exp + 1;
    *p++ = '.';
    memcpy(p, digits + exp + 1, n - exp - 1);
    return p + (n - exp - 1);
}

/* values[0..n) as text: each row is its values joined by sep, then '\n';
 * row r ends at ends[r] (ascending, at most n) and starts where row r - 1
 * ended (at 0 for r = 0). Values after the last row end begin a row that
 * the next call continues, so they are joined by sep and followed by one.
 * out must hold 25 bytes per value plus one per row end. Returns the
 * number of bytes written. */
template <typename T>
static int64_t format_rows(const T *values, int64_t n, const int64_t *ends,
                           int64_t n_ends, char sep, char *out)
{
    char *p = out;
    int64_t start = 0;
    for (int64_t r = 0; r <= n_ends; r++) {
        int64_t end = r < n_ends ? ends[r] : n;
        for (int64_t i = start; i < end; i++) {
            if (i > start)
                *p++ = sep;
            p = put(p, values[i]);
        }
        if (r < n_ends)
            *p++ = '\n';
        else if (start < n)
            *p++ = sep;
        start = end;
    }
    return p - out;
}

extern "C" {

int64_t format_ints(const int64_t *values, int64_t n, const int64_t *ends,
                    int64_t n_ends, char sep, char *out)
{
    return format_rows(values, n, ends, n_ends, sep, out);
}

int64_t format_doubles(const double *values, int64_t n, const int64_t *ends,
                       int64_t n_ends, char sep, char *out)
{
    return format_rows(values, n, ends, n_ends, sep, out);
}

} /* extern "C" */

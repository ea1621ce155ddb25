/* The package's compiled kernels, built into one C++17 library by
 * _native.py: the Gibbs sweep (lda), the word splitter and word table, the
 * token renumbering and the document-term counts (text_pipeline), the CSR
 * row gather and ascending-row scatter (lsa), and the integer and float
 * table formatters. Each has a Python twin that is its reference and its
 * fallback, and both give the same results bit for bit. */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <new>
#include <stdint.h>
#include <vector>

extern "C" {

/* One collapsed Gibbs sweep over flat count tables; the compiled twin of
 * lda._sweep_python. Each sampling weight is evaluated in the same order as
 * the Python loop, and the library is built with -ffp-contract=off, so every
 * double rounds exactly as in Python and the two produce the same chain.
 *
 * offsets: n_docs + 1 token offsets; words, z: one entry per token;
 * n_wk: p x k; n_dk: n_docs x k; n_k: k; u: one uniform in [0, 1) per token;
 * cum: k doubles of scratch. The caller checks every index is in range. */
void gibbs_sweep(int64_t n_docs, const int64_t *offsets, const int32_t *words,
                 int32_t *z, int64_t k, int64_t *n_wk, int64_t *n_dk,
                 int64_t *n_k, const double *u, double *cum, double alpha,
                 double beta, double vbeta)
{
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
            double x = u[i] * total;
            int64_t pick = 0;
            while (pick < k - 1 && cum[pick] < x)
                pick++;
            z[i] = (int32_t)pick;
            nwk[pick]++;
            ndk[pick]++;
            n_k[pick]++;
        }
    }
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
    /* a row's counts by column, the columns it holds in order met, and the
     * same as one bit per column */
    std::vector<int64_t> count;
    std::vector<int32_t> seen;
    std::vector<uint64_t> bits;
    try {
        count.resize(p);
        seen.resize(p);
        bits.resize((p + 63) / 64);
    } catch (const std::bad_alloc &) {
        return -2;
    }
    int64_t nnz = 0;
    auto put = [&](int32_t c) {
        indices[nnz] = c;
        data[nnz++] = count[c];
        col_totals[c] += count[c];
        count[c] = 0;
    };
    indptr[0] = 0;
    for (int64_t d = 0; d < n_docs; d++) {
        if (offsets[d + 1] < offsets[d] || offsets[d + 1] > n_tokens)
            return -1;
        int64_t total = 0, n_seen = 0;
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            if ((uint64_t)(uint32_t)codes[i] >= (uint64_t)n_types)
                return -1;
            int32_t c = column[codes[i]];
            if (c < 0)
                continue;
            if (c >= p)
                return -1;
            if (!count[c]++) {
                seen[n_seen++] = c;
                bits[c >> 6] |= 1ULL << (c & 63);
            }
            total++;
        }
        /* the columns in ascending order: sorted when they are few against
         * the width of the table, else read off the bits */
        if ((uint64_t)n_seen * 16 < bits.size()) {
            std::sort(seen.begin(), seen.begin() + n_seen);
            for (int64_t s = 0; s < n_seen; s++) {
                bits[seen[s] >> 6] = 0;
                put(seen[s]);
            }
        } else {
            for (size_t w = 0; w < bits.size(); w++) {
                for (uint64_t b = bits[w]; b; b &= b - 1)
                    put((int32_t)(64 * w + __builtin_ctzll(b)));
                bits[w] = 0;
            }
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

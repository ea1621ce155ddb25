/* The package's compiled kernels, built into one C++17 library by
 * _native.py. Each has a Python twin that is its reference and its fallback,
 * and both give the same results bit for bit. */
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdint.h>
#include <stdlib.h>

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

static inline int same_run(const uint32_t *a, const uint32_t *b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (a[i] != b[i])
            return 0;
    return 1;
}

struct slot {
    uint64_t hash;
    int64_t entry; /* distinct run number + 1; 0 marks an empty slot */
};

/* Double the table, or allocate its first 1024 slots. Returns 0 when out
 * of memory, leaving the old table in place. */
static int grow(struct slot **table, uint64_t *mask)
{
    uint64_t size = *table ? 2 * (*mask + 1) : 1024;
    struct slot *bigger = (struct slot *)calloc(size, sizeof *bigger);
    if (!bigger)
        return 0;
    if (*table) {
        for (uint64_t i = 0; i <= *mask; i++) {
            if (!(*table)[i].entry)
                continue;
            uint64_t j = (*table)[i].hash & (size - 1);
            while (bigger[j].entry)
                j = (j + 1) & (size - 1);
            bigger[j] = (*table)[i];
        }
        free(*table);
    }
    *table = bigger;
    *mask = size - 1;
    return 1;
}

/* Split a chunk of documents into maximal runs of word code points (re's
 * \w+) and intern them; the compiled twin of re.findall per document plus
 * a first-appearance dict, as in text_pipeline._encode.
 *
 * text: the chunk's code points; document d spans doc_ends[d - 1] (0 for
 * d = 0) to doc_ends[d], so no run crosses a document end. ascii: 128 word
 * flags; wide: the n_wide non-ASCII word code points, ascending.
 * Out: codes, one per run, numbering distinct runs in order of first
 * appearance; token_ends[d], the number of runs in documents 0..d;
 * run_start and run_len, the first occurrence of each distinct run. codes,
 * run_start and run_len must hold one entry per code point of text.
 * Returns the number of distinct runs, or -1 when out of memory. */
int64_t intern_words(const uint32_t *text, int64_t n_docs,
                     const int64_t *doc_ends, const uint8_t *ascii,
                     const uint32_t *wide, int64_t n_wide, int32_t *codes,
                     int64_t *token_ends, int64_t *run_start, int64_t *run_len)
{
    struct slot *table = NULL;
    uint64_t mask = 0;
    int64_t n_runs = 0, n_tokens = 0, i = 0;
    if (!grow(&table, &mask))
        return -1;
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
            int64_t len = i - start;
            uint64_t j = h & mask;
            while (table[j].entry) {
                int64_t e = table[j].entry - 1;
                if (table[j].hash == h && run_len[e] == len
                    && same_run(text + run_start[e], text + start, len))
                    break;
                j = (j + 1) & mask;
            }
            if (!table[j].entry) {
                /* keep at most half the slots full */
                if (2 * (uint64_t)(n_runs + 1) > mask + 1) {
                    if (!grow(&table, &mask)) {
                        free(table);
                        return -1;
                    }
                    j = h & mask;
                    while (table[j].entry)
                        j = (j + 1) & mask;
                }
                run_start[n_runs] = start;
                run_len[n_runs] = len;
                table[j].hash = h;
                table[j].entry = ++n_runs;
            }
            /* fewer than 2**31 distinct runs: a chunk would need billions
             * of code points to hold more */
            codes[n_tokens++] = (int32_t)(table[j].entry - 1);
        }
        token_ends[d] = n_tokens;
    }
    free(table);
    return n_runs;
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

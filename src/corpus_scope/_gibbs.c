/* One collapsed Gibbs sweep over flat count tables; the compiled twin of
 * lda._sweep_python. Each sampling weight is evaluated in the same order as
 * the Python loop, and the library is built with -ffp-contract=off, so every
 * double rounds exactly as in Python and the two produce the same chain.
 *
 * offsets: n_docs + 1 token offsets; words, z: one entry per token;
 * n_wk: p x k; n_dk: n_docs x k; n_k: k; u: one uniform in [0, 1) per token;
 * cum: k doubles of scratch. The caller checks every index is in range. */
#include <stdint.h>

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

"""The bit-identity oracle for :class:`repro.core.kernels.DenseKernel`.

:class:`LegacyKernel` is the original per-token numpy z-sweep that every
sampler ran before the kernel layer existed. It is not a user-facing
kernel: the dense-kernel tests build it directly, or inject it into a
full fit by monkeypatching ``make_kernel`` in the model modules, and
require the dense kernel to reproduce its trajectory bit-for-bit.
"""

import numpy as np

from repro.core.kernels import TokenKernel, sample_from_cumulative


class LegacyKernel(TokenKernel):
    """The original per-token numpy loop, verbatim.

    Allocates several O(K) numpy temporaries per token; kept as the
    reference the dense kernel must match bit-for-bit.
    """

    name = "legacy"

    def sweep(
        self, generator: np.random.Generator, y: np.ndarray | None = None
    ) -> None:
        counts = self.counts
        alpha, gamma, v_total = self.alpha, self.gamma, self.v_total
        offsets = self.csr.doc_offsets
        token_words = self.csr.token_words
        token_topics = self.csr.token_topics
        for d in range(self.csr.n_docs):
            start, end = int(offsets[d]), int(offsets[d + 1])
            words = token_words[start:end]
            zd = token_topics[start:end]
            uniforms = generator.random(end - start)
            y_d = -1 if y is None else int(y[d])
            for n, v in enumerate(words):
                k_old = int(zd[n])
                counts.remove(d, k_old, int(v))
                if y_d >= 0:
                    weights = (counts.n_dk[d] + alpha).astype(float)
                    weights[y_d] += 1.0  # the M_dk term
                    weights *= (counts.n_kv[:, v] + gamma) / (
                        counts.n_k + v_total
                    )
                else:
                    weights = (counts.n_dk[d] + alpha) * (
                        (counts.n_kv[:, v] + gamma) / (counts.n_k + v_total)
                    )
                cumulative = np.cumsum(weights)
                k_new = sample_from_cumulative(cumulative, uniforms[n])
                zd[n] = k_new
                counts.add(d, k_new, int(v))


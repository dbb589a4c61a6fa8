"""Shared token-sampling kernels for the collapsed Gibbs samplers.

All three word-side samplers — :class:`repro.core.lda.LatentDirichletAllocation`,
:class:`repro.core.joint_model.JointTextureTopicModel` and
:class:`repro.core.collapsed.CollapsedJointModel` — perform the same
per-token z-update of equation (2): remove the token from the count
state, form K unnormalised topic weights, draw from the cumulative, add
the token back. This module centralises that sweep behind a small
kernel interface so the models share one implementation instead of
three hand-rolled loops:

``"dense"`` (default)
    The original per-token numpy loop restructured as a flat CSR sweep
    with preallocated buffers and in-place count updates — no
    per-token numpy temporaries. It consumes the *same* uniforms in the
    *same* order and performs the *same* IEEE float operations as that
    loop (which the test suite keeps as the bit-identity oracle), so
    fitted models are bit-identical to the historical sampler.
``"alias"``
    A LightLDA-style Metropolis–Hastings kernel (Yuan et al., WWW'15):
    per token one O(1) proposal — drawn from a cached per-word Walker
    alias table or from the document's own token topics, alternating
    cycle by cycle — followed by an exact acceptance test against the
    true collapsed conditional. Amortised O(1) per token independent
    of K; statistically equivalent, not bit-identical.
``"auto"``
    Not a kernel but a selection policy: :func:`select_kernel` picks
    dense or alias from K.

Kernel objects are built **once per fit**: the ragged ``docs`` list is
flattened into contiguous CSR-style arrays (``token_words``,
``token_topics``, ``doc_offsets``, all ``int32``) and, for the fast
kernels, mirrored into flat Python lists that the hot loop reads and
writes without numpy scalar-indexing overhead. During a fit the kernel
owns the count state; the numpy :class:`~repro.core.state.TopicCounts`
arrays are re-synchronised at the end of every sweep so the per-sweep
likelihood traces and posterior accumulators keep reading the arrays
they always read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.state import TopicCounts
from repro.errors import ModelError
from repro.obs import metrics, trace
from repro.obs.log import get_logger

logger = get_logger("repro.core.kernels")

#: Recognised kernel names, in documentation order.
KERNELS: tuple[str, ...] = ("alias", "dense")

#: Everything a ``kernel=`` config field accepts: a concrete kernel or
#: the "auto" selection policy resolved by :func:`make_kernel`.
KERNEL_CHOICES: tuple[str, ...] = KERNELS + ("auto",)


def build_alias_table(
    weights: Sequence[float], prob: list[float], alias: list[int]
) -> None:
    """Fill ``prob``/``alias`` with Walker's alias decomposition.

    ``weights`` are unnormalised positive masses; after the call, the
    draw ``slot = int(u * n); slot if u * n - slot < prob[slot] else
    alias[slot]`` samples index ``k`` with probability
    ``weights[k] / sum(weights)`` (to within float rounding of the
    table construction).
    """
    total = sum(weights)
    n = len(weights)
    scaled = [w * n / total for w in weights]
    small = [k for k, p in enumerate(scaled) if p < 1.0]
    large = [k for k, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s_k, l_k = small.pop(), large.pop()
        prob[s_k] = scaled[s_k]
        alias[s_k] = l_k
        scaled[l_k] = (scaled[l_k] + scaled[s_k]) - 1.0
        (small if scaled[l_k] < 1.0 else large).append(l_k)
    for k in large:
        prob[k], alias[k] = 1.0, k
    for k in small:
        prob[k], alias[k] = 1.0, k


def sample_from_cumulative(cumulative: np.ndarray, uniform: float) -> int:
    """Inverse-CDF draw from an unnormalised cumulative-weight array.

    Returns the smallest index ``k`` with
    ``cumulative[k] >= uniform * cumulative[-1]``, clamped into
    ``[0, len(cumulative) - 1]``. The clamp matters on the boundary:
    when ``uniform * cumulative[-1]`` rounds up to exactly
    ``cumulative[-1]`` the raw ``searchsorted`` index can land one past
    the end (e.g. with ``side="right"`` semantics or degenerate weight
    vectors), which would corrupt the count state downstream.
    """
    index = int(np.searchsorted(cumulative, uniform * cumulative[-1]))
    last = len(cumulative) - 1
    return index if index < last else last


@dataclass(frozen=True)
class CSRTokens:
    """A ragged corpus flattened into contiguous CSR-style arrays.

    ``token_words[t]`` and ``token_topics[t]`` are the word id and the
    current topic of the ``t``-th token in corpus order;
    ``doc_offsets`` has ``n_docs + 1`` entries and document ``d`` owns
    the half-open token range
    ``doc_offsets[d]:doc_offsets[d + 1]``. Empty documents are
    represented by equal consecutive offsets.
    """

    token_words: np.ndarray
    token_topics: np.ndarray
    doc_offsets: np.ndarray

    @property
    def n_docs(self) -> int:
        return len(self.doc_offsets) - 1

    @property
    def n_tokens(self) -> int:
        return int(self.doc_offsets[-1])

    @classmethod
    def from_docs(
        cls,
        docs: Sequence[np.ndarray],
        z: Sequence[np.ndarray] | None = None,
    ) -> "CSRTokens":
        """Flatten per-document word (and topic) arrays, built once per fit."""
        lengths = [len(words) for words in docs]
        total = sum(lengths)
        if total > np.iinfo(np.int32).max:
            raise ModelError("corpus too large for int32 token offsets")
        offsets = np.zeros(len(docs) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        words = np.zeros(total, dtype=np.int32)
        topics = np.zeros(total, dtype=np.int32)
        for d, doc in enumerate(docs):
            start, end = offsets[d], offsets[d + 1]
            words[start:end] = np.asarray(doc, dtype=np.int32)
            if z is not None:
                topics[start:end] = np.asarray(z[d], dtype=np.int32)
        return cls(token_words=words, token_topics=topics, doc_offsets=offsets)

    def words_per_doc(self) -> list[np.ndarray]:
        """Un-flatten the word ids back into per-document arrays."""
        return self._split(self.token_words)

    def topics_per_doc(self) -> list[np.ndarray]:
        """Un-flatten the topic assignments back into per-document arrays."""
        return self._split(self.token_topics)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        offsets = self.doc_offsets
        return [
            flat[offsets[d]:offsets[d + 1]].copy() for d in range(self.n_docs)
        ]


class TokenKernel:
    """One full z-sweep over the flattened corpus.

    Subclasses implement :meth:`sweep`, which resamples every token's
    topic in corpus order, drawing the per-token uniforms in one
    ``generator.random`` call per sweep. For the dense kernel that is
    the stream of one ``generator.random(len(doc))`` batch per document,
    the draw pattern all pre-kernel samplers used, which pins the RNG
    stream: each double takes one whole 64-bit output, so where the
    batches are cut moves no draw. ``y`` is
    the per-document concentration-topic vector of the joint models
    (``None`` for plain LDA — no ``M_dk`` boost).

    During a fit the kernel has exclusive ownership of ``counts`` and
    ``csr.token_topics``; both are guaranteed up to date again when
    :meth:`sweep` returns.
    """

    #: Canonical kernel name (one of :data:`KERNELS`); telemetry keys
    #: the per-kernel ``kernel.sweep_seconds.<name>`` histograms on it.
    name: str = ""

    def __init__(
        self,
        csr: CSRTokens,
        counts: TopicCounts,
        alpha: np.ndarray,
        gamma: float,
    ) -> None:
        if csr.n_docs != counts.n_dk.shape[0]:
            raise ModelError("CSR state and counts disagree on n_docs")
        self.csr = csr
        self.counts = counts
        self.alpha = np.asarray(alpha, dtype=float)
        self.gamma = float(gamma)
        self.v_total = float(gamma) * counts.vocab_size

    @property
    def n_topics(self) -> int:
        return self.counts.n_topics

    def sweep(
        self, generator: np.random.Generator, y: np.ndarray | None = None
    ) -> None:
        raise NotImplementedError


class DenseKernel(TokenKernel):
    """Flat CSR sweep with zero per-token allocations, bit-identical.

    The count matrices are mirrored into flat Python lists once at
    construction; the hot loop then runs entirely on list indexing and
    scalar float arithmetic. Per token it performs *exactly* the IEEE
    operations of the original per-token loop in the same order —
    ``(n_dk + α) [+ 1.0 at y_d]`` times ``(n_kv + γ) / (n_k + γV)``,
    sequential cumulative sum, left-``searchsorted`` draw — so the
    sampled trajectory is bit-identical while avoiding all per-token
    numpy temporaries and dispatch overhead. The numpy ``counts`` and
    ``token_topics`` arrays are re-synchronised at the end of each
    sweep.

    When every ``α_k`` is integer-valued (the default priors are), the
    doc rows are stored pre-fused as ``n_dk + α_k`` floats: integer-
    valued doubles below 2**53 stay exact under ±1.0 updates, so the
    fused value equals ``fl(n_dk + α_k)`` bit-for-bit while saving one
    subscript-and-add per topic per token in the inner loop. Fractional
    ``α`` falls back to the unfused loop (incremental float updates
    would not be exact there).
    """

    name = "dense"

    def __init__(
        self,
        csr: CSRTokens,
        counts: TopicCounts,
        alpha: np.ndarray,
        gamma: float,
    ) -> None:
        super().__init__(csr, counts, alpha, gamma)
        # Python-list mirrors of the count state (ints stay exact) and
        # of the flat token stream; `_nvk` is column-major — the hot
        # loop reads one word column per token.
        self._alpha_list: list[float] = [float(a) for a in self.alpha]
        self._fused: bool = all(a.is_integer() for a in self._alpha_list)
        if self._fused:
            # doc rows stored as n_dk + α floats — exact for integer α
            self._ndk: list[list[float]] = [
                [int(c) + a for c, a in zip(row, self._alpha_list)]
                for row in counts.n_dk
            ]
        else:
            self._ndk = [[float(int(c)) for c in row] for row in counts.n_dk]
        self._nvk: list[list[int]] = [
            [int(c) for c in column] for column in counts.n_kv.T
        ]
        self._nk: list[int] = [int(c) for c in counts.n_k]
        self._words: list[int] = self.csr.token_words.tolist()
        self._topics: list[int] = self.csr.token_topics.tolist()
        self._offsets: list[int] = self.csr.doc_offsets.tolist()
        # Cached float factors of the weight formula. Only two entries
        # of each change per token move, and the changed entries are
        # always recomputed from the integer counts, so every cell
        # stays exactly ``fl(n_kv + γ)`` / ``fl(n_k + γV)`` — the cache
        # saves two adds per topic in the inner loop without drifting.
        self._nvkg: list[list[float]] = [
            [c + self.gamma for c in column] for column in self._nvk
        ]
        self._den: list[float] = [n + self.v_total for n in self._nk]
        # Preallocated cumulative-weight buffer, overwritten per token.
        self._cum: list[float] = [0.0] * self.n_topics

    def sweep(
        self, generator: np.random.Generator, y: np.ndarray | None = None
    ) -> None:
        if self._fused:
            self._sweep_fused(generator, y)
        else:
            self._sweep_unfused(generator, y)
        self._sync_out()

    def _sweep_fused(
        self, generator: np.random.Generator, y: np.ndarray | None
    ) -> None:
        """Hot loop with doc rows pre-fused as ``n_dk + α`` floats."""
        ndk, nvk, nk = self._ndk, self._nvk, self._nk
        nvkg, den, cum = self._nvkg, self._den, self._cum
        gamma, v_total = self.gamma, self.v_total
        words, topics, offsets = self._words, self._topics, self._offsets
        n_topics = len(nk)
        last = n_topics - 1
        topic_range = range(n_topics)
        uniforms = generator.random(offsets[-1]).tolist()
        for d in range(self.csr.n_docs):
            start, end = offsets[d], offsets[d + 1]
            row = ndk[d]
            y_d = -1 if y is None else int(y[d])
            t = start
            for u in uniforms[start:end]:
                v = words[t]
                k_old = topics[t]
                column = nvk[v]
                fcol = nvkg[v]
                row[k_old] -= 1.0
                c = column[k_old] - 1
                column[k_old] = c
                fcol[k_old] = c + gamma
                n = nk[k_old] - 1
                nk[k_old] = n
                den[k_old] = n + v_total
                total = 0.0
                for k in topic_range:
                    weight = row[k]
                    if k == y_d:
                        weight += 1.0  # the M_dk term
                    total += weight * (fcol[k] / den[k])
                    cum[k] = total
                k_new = bisect_left(cum, u * total)
                if k_new > last:
                    k_new = last
                topics[t] = k_new
                row[k_new] += 1.0
                c = column[k_new] + 1
                column[k_new] = c
                fcol[k_new] = c + gamma
                n = nk[k_new] + 1
                nk[k_new] = n
                den[k_new] = n + v_total
                t += 1

    def _sweep_unfused(
        self, generator: np.random.Generator, y: np.ndarray | None
    ) -> None:
        """Hot loop for fractional ``α``: rows hold bare counts."""
        ndk, nvk, nk = self._ndk, self._nvk, self._nk
        nvkg, den, cum = self._nvkg, self._den, self._cum
        alpha = self._alpha_list
        gamma, v_total = self.gamma, self.v_total
        words, topics, offsets = self._words, self._topics, self._offsets
        n_topics = len(nk)
        last = n_topics - 1
        topic_range = range(n_topics)
        uniforms = generator.random(offsets[-1]).tolist()
        for d in range(self.csr.n_docs):
            start, end = offsets[d], offsets[d + 1]
            row = ndk[d]
            y_d = -1 if y is None else int(y[d])
            t = start
            for u in uniforms[start:end]:
                v = words[t]
                k_old = topics[t]
                column = nvk[v]
                fcol = nvkg[v]
                row[k_old] -= 1.0
                c = column[k_old] - 1
                column[k_old] = c
                fcol[k_old] = c + gamma
                n = nk[k_old] - 1
                nk[k_old] = n
                den[k_old] = n + v_total
                total = 0.0
                for k in topic_range:
                    weight = row[k] + alpha[k]
                    if k == y_d:
                        weight += 1.0  # the M_dk term
                    total += weight * (fcol[k] / den[k])
                    cum[k] = total
                k_new = bisect_left(cum, u * total)
                if k_new > last:
                    k_new = last
                topics[t] = k_new
                row[k_new] += 1.0
                c = column[k_new] + 1
                column[k_new] = c
                fcol[k_new] = c + gamma
                n = nk[k_new] + 1
                nk[k_new] = n
                den[k_new] = n + v_total
                t += 1

    def _sync_out(self) -> None:
        """Write the list mirrors back into the numpy count state."""
        counts = self.counts
        if self._fused:
            # fused rows hold n_dk + α; the subtraction is exact, so the
            # cast back to the integer count array is too
            counts.n_dk[...] = np.asarray(self._ndk) - self.alpha
        else:
            counts.n_dk[...] = self._ndk
        counts.n_kv.T[...] = self._nvk
        counts.n_k[...] = self._nk
        self.csr.token_topics[...] = self._topics


class AliasKernel(TokenKernel):
    """LightLDA-style Metropolis–Hastings kernel: O(1) per token.

    Instead of materialising the K-term conditional, each token gets
    **one** cheap proposal followed by an exact MH acceptance test
    against the true collapsed conditional (with the ``M_dk`` boost of
    the joint models), so the stationary distribution is exactly the
    conditional of equation (2) no matter how stale the proposal is.
    Proposal types alternate per token (and the phase flips every
    sweep), cycling the two factors of the conditional:

    word proposal
        ``q_w(k) ∝ (n_kv + γ) / (n_k + γV)`` drawn in O(1) from a
        per-word Walker alias table. Tables are built lazily on first
        use and allowed to serve up to ``alias_refresh`` draws before
        being rebuilt from the live counts (the staleness budget). The
        exact weights each table was built from are kept alongside it:
        the MH ratio must use the *proposal's own* (stale) weights,
        not the live counts, for the acceptance to stay exact.
    doc proposal
        ``q_d(k) ∝ n_dk + α_k`` (token-inclusive count) drawn in O(1)
        without any per-document table: with probability
        ``len(doc) / (len(doc) + Σα)`` pick the topic of a uniformly
        random token position of the document (the positions *are* an
        alias table for the count term), otherwise draw from a static
        Walker table over ``α``. Never stale — but state-dependent, so
        the Hastings ratio pairs the forward density with the
        *reverse-state* density; the token-inclusive +1 terms cancel
        and the ratio reduces to the exclusive doc counts.

    Per token exactly two uniforms are consumed (proposal + acceptance,
    batched per sweep), so the RNG stream is deterministic given the
    corpus layout. Statistically equivalent to the dense kernel, not
    bit-identical. Amortised cost per token is O(1 + K/alias_refresh),
    independent of K for the default budget ``max(4K, 256)``.
    """

    name = "alias"

    def __init__(
        self,
        csr: CSRTokens,
        counts: TopicCounts,
        alpha: np.ndarray,
        gamma: float,
        alias_refresh: int | None = None,
    ) -> None:
        super().__init__(csr, counts, alpha, gamma)
        n_topics = self.n_topics
        if alias_refresh is None:
            # amortise the O(K) table rebuild well below one op per
            # draw; MH acceptance corrects the extra staleness exactly
            alias_refresh = max(4 * n_topics, 256)
        if alias_refresh < 1:
            raise ModelError("alias_refresh must be >= 1")
        self._alias_refresh = alias_refresh
        self._rows: list[dict[int, int]] = [
            {k: int(c) for k, c in enumerate(row) if c}
            for row in counts.n_dk
        ]
        self._nvk: list[list[int]] = [
            [int(c) for c in column] for column in counts.n_kv.T
        ]
        self._nk: list[int] = [int(c) for c in counts.n_k]
        self._alpha_list: list[float] = [float(a) for a in self.alpha]
        self._alpha_sum: float = sum(self._alpha_list)
        self._words: list[int] = self.csr.token_words.tolist()
        self._topics: list[int] = self.csr.token_topics.tolist()
        self._offsets: list[int] = self.csr.doc_offsets.tolist()
        # Per-word Walker tables, built lazily on first proposal. The
        # weight list each table was built from is retained — the MH
        # ratio needs the stale proposal density, not the live counts.
        vocab_size = counts.vocab_size
        self._wprob: list[list[float] | None] = [None] * vocab_size
        self._walias: list[list[int] | None] = [None] * vocab_size
        self._wweight: list[list[float] | None] = [None] * vocab_size
        self._wage: list[int] = [0] * vocab_size
        # Static alias table over α for the doc proposal's prior part.
        self._aprob: list[float] = [1.0] * n_topics
        self._aalias: list[int] = list(range(n_topics))
        if n_topics > 1:
            build_alias_table(self._alpha_list, self._aprob, self._aalias)
        #: Flips every sweep so the word/doc proposal alternation also
        #: alternates per token *position* across sweeps.
        self._sweep_parity = 0
        #: Lifetime count of per-word alias-table (re)builds
        #: (observability surface; the tracer reports per-sweep deltas).
        self.alias_refreshes: int = 0

    def _rebuild_word_table(self, v: int) -> list[float]:
        """(Re)build word ``v``'s alias table from the live counts."""
        v_total, nk, gamma = self.v_total, self._nk, self.gamma
        weights = [
            (c + gamma) / (n + v_total) for c, n in zip(self._nvk[v], nk)
        ]
        prob = self._wprob[v]
        alias = self._walias[v]
        if prob is None or alias is None:
            n_topics = len(weights)
            prob = [1.0] * n_topics
            alias = list(range(n_topics))
            self._wprob[v] = prob
            self._walias[v] = alias
        if len(weights) > 1:
            build_alias_table(weights, prob, alias)
        self._wweight[v] = weights
        self._wage[v] = 0
        self.alias_refreshes += 1
        return weights

    def sweep(
        self, generator: np.random.Generator, y: np.ndarray | None = None
    ) -> None:
        rows, nvk, nk = self._rows, self._nvk, self._nk
        alpha, alpha_sum = self._alpha_list, self._alpha_sum
        gamma, v_total = self.gamma, self.v_total
        words, topics, offsets = self._words, self._topics, self._offsets
        wprob, walias = self._wprob, self._walias
        wweight, wage = self._wweight, self._wage
        aprob, aalias = self._aprob, self._aalias
        refresh = self._alias_refresh
        n_topics = len(nk)
        last = n_topics - 1
        parity = self._sweep_parity
        refreshes_before = self.alias_refreshes
        # Two uniforms per token (proposal + acceptance), drawn as one
        # batch per sweep: the bench corpora average ~1–2 tokens per
        # document, where a per-document generator call would dominate
        # the whole token budget. The kernel owns its RNG pattern, so
        # one deterministic batch is as reproducible as many.
        uniforms = generator.random(2 * self.csr.n_tokens).tolist()
        i = 0
        for d in range(self.csr.n_docs):
            start, end = offsets[d], offsets[d + 1]
            n_d = end - start
            row = rows[d]
            row_get = row.get
            y_d = -1 if y is None else int(y[d])
            doc_mass = n_d + alpha_sum
            for t in range(start, end):
                v = words[t]
                k_old = topics[t]
                # remove the token (the -dn superscript)
                count = row[k_old] - 1
                if count:
                    row[k_old] = count
                else:
                    del row[k_old]
                col = nvk[v]
                col[k_old] -= 1
                nk[k_old] -= 1
                u1 = uniforms[i]
                u2 = uniforms[i + 1]
                i += 2
                if (t + parity) & 1:
                    # -- word proposal from the (stale) alias table ----
                    weights_v = wweight[v]
                    if weights_v is None or wage[v] >= refresh:
                        weights_v = self._rebuild_word_table(v)
                    wage[v] += 1
                    scaled = u1 * n_topics
                    slot = int(scaled)
                    if slot > last:
                        slot = last
                    if scaled - slot < wprob[v][slot]:  # type: ignore[index]
                        k_new = slot
                    else:
                        k_new = walias[v][slot]  # type: ignore[index]
                    if k_new != k_old:
                        base_new = row_get(k_new, 0) + alpha[k_new]
                        base_old = row_get(k_old, 0) + alpha[k_old]
                        if k_new == y_d:
                            base_new += 1.0  # the M_dk term
                        elif k_old == y_d:
                            base_old += 1.0
                        p_new = (
                            base_new
                            * (col[k_new] + gamma)
                            / (nk[k_new] + v_total)
                        )
                        p_old = (
                            base_old
                            * (col[k_old] + gamma)
                            / (nk[k_old] + v_total)
                        )
                        # accept w.p. min(1, (p_new q(k_old))/(p_old q(k_new)))
                        if (
                            u2 * p_old * weights_v[k_new]
                            >= p_new * weights_v[k_old]
                        ):
                            k_new = k_old
                else:
                    # -- doc proposal: token positions + α table -------
                    scaled = u1 * doc_mass
                    if scaled < n_d:
                        k_new = topics[start + int(scaled)]
                    else:
                        # reuse the tail of the uniform for the α draw
                        ascaled = (scaled - n_d) / alpha_sum * n_topics
                        slot = int(ascaled)
                        if slot > last:
                            slot = last
                        if ascaled - slot < aprob[slot]:
                            k_new = slot
                        else:
                            k_new = aalias[slot]
                    if k_new != k_old:
                        # The draw itself uses token-inclusive counts
                        # (topics[t] still records k_old), but the
                        # Hastings ratio needs the *reverse-state*
                        # density q(k_old | token at k_new), where the
                        # +1 sits at k_new instead — so the inclusive
                        # terms cancel and both sides reduce to the
                        # exclusive counts. (Using the inclusive count
                        # for k_old, as LightLDA's printed formula does,
                        # measurably breaks detailed balance on short
                        # documents — the staleness chi-square test
                        # catches it.)
                        base_new = row_get(k_new, 0) + alpha[k_new]
                        base_old = row_get(k_old, 0) + alpha[k_old]
                        boost_new = base_new + 1.0 if k_new == y_d else base_new
                        boost_old = base_old + 1.0 if k_old == y_d else base_old
                        p_new = (
                            boost_new
                            * (col[k_new] + gamma)
                            / (nk[k_new] + v_total)
                        )
                        p_old = (
                            boost_old
                            * (col[k_old] + gamma)
                            / (nk[k_old] + v_total)
                        )
                        if u2 * p_old * base_new >= p_new * base_old:
                            k_new = k_old
                # add the token back under its (possibly new) topic
                topics[t] = k_new
                row[k_new] = row_get(k_new, 0) + 1
                col[k_new] += 1
                nk[k_new] += 1
        self._sweep_parity = parity ^ 1
        if trace.is_enabled():
            metrics.registry.counter("kernel.alias_refresh").inc(
                self.alias_refreshes - refreshes_before
            )
        self._sync_out()

    def _sync_out(self) -> None:
        """Write the sparse-row/dense-column mirrors back to numpy."""
        counts = self.counts
        counts.n_dk[...] = 0
        for d, row in enumerate(self._rows):
            for k, c in row.items():
                counts.n_dk[d, k] = c
        counts.n_kv.T[...] = self._nvk
        counts.n_k[...] = self._nk
        self.csr.token_topics[...] = self._topics


def select_kernel(n_topics: int) -> str:
    """The ``kernel="auto"`` policy: pick a concrete kernel from K.

    The decision table (pinned by a unit test, re-derived from
    ``BENCH_sampler.json`` whenever the floors move):

    * small K (≤ 24): ``dense``. ``alias`` already measures faster here
      (647k vs 435k tokens/s, and a 0.96 s vs 1.18 s joint fit at
      K = 10 on the 3,000-recipe bench corpus), but it changes the RNG
      stream; ``dense`` is the bit-identical default, so fits at the
      paper's K reproduce exactly across releases;
    * large K: ``alias`` — its MH proposals are O(1) in K, while
      dense's O(K) scan dominates the sweep.
    """
    if n_topics <= 24:
        return "dense"
    return "alias"


def make_kernel(
    name: str,
    csr: CSRTokens,
    counts: TopicCounts,
    alpha: np.ndarray,
    gamma: float,
) -> TokenKernel:
    """Instantiate the named token-sampling kernel over a flattened corpus.

    ``"auto"`` resolves through :func:`select_kernel` first (and bumps
    the ``sampler.kernel_selected`` counter when tracing is on).
    """
    if name == "auto":
        name = select_kernel(counts.n_topics)
        logger.debug("kernel auto-selection picked %r", name)
        if trace.is_enabled():
            metrics.registry.counter("sampler.kernel_selected").inc()
    if name == "alias":
        return AliasKernel(csr, counts, alpha, gamma)
    if name == "dense":
        return DenseKernel(csr, counts, alpha, gamma)
    raise ModelError(f"unknown sampling kernel {name!r}")

"""Slow reference paths the fast ones are tested against, and the helpers
only tests call.

`mul`, `tmean` and `attention` are tape ops that nothing in `pqgen` records:
the elementwise product, the mean over all elements, and multi-head
attention over q/k/v rows (`pqgen.tensor._attend`, which both fused
sublayer ops run). `beam_search` and `diverse_beam_search` are the
one-product cases of `pqgen.decoding._search`, with one group or with the
config's `num_groups`; unlike `generate_questions` they check nothing
about the config. `build_triplets` is every product's `ltd` triplets in
record order, as `pqgen.training` samples them.

`decode_step` is the uncached, full-prefix decoder step: it runs the whole
BOS-prefixed prefix through the Tensor forward for every next-token
distribution. `uncached_seam` drives the searches in `pqgen.decoding` with it,
and `exhaustive_decode` enumerates every sequence it can emit, ranked as the
searches rank them: a beam as wide as the leaf count must return them all.

`sequential_diverse_beam_search` is diverse beam search run one group after
another: each group searches alone, to the end, penalized by the per-step
token choices of the groups before it. `pqgen.decoding` advances all groups
together, one position at a time, and must return the same candidates.

`greedy_decode` is the argmax rollout on `pqgen.decoding.decode_step`, one
row a step; beam search of one beam must follow it.

`leaf` is a tensor with a gradient buffer, and `check_grads` the gradient
check of every tape op: backward against `oracles.fd_grad` for each input.

`attention_sublayer`, `ffn_sublayer` and `embed` are the separate tape ops
that the fused ops of `pqgen.tensor` of those names replace: `layer_norm`,
the body and the residual `add` for a sublayer, where the body is
`multi_head_attention` (four matmuls around `attention`) or `ffn` (matmul,
bias add, relu, matmul, bias add), and two `embedding` gathers and an `add`
for the embedding. They must give the same floats, forward and backward.
`full_mask_bias` is the full [S, 1, Lq, Lk] mask that `AttentionLayout`
built before its causal triangle and key-only masks; attention under either
must give the same floats.

`bleu` is `oracles.bleu_oracle`, which recounts every sentence for each n-gram
order on each call and clips each n-gram by a max over the references' counts.
`evaluate_relevance` composes the report's three BLEU figures from such
calls, and its METEOR figure from one `meteor_lite` call per (top-1,
reference) pair, one product and one score at a time. `pqgen.metrics`
tokenizes, counts and METEOR-scores each distinct sentence or pair once per
`evaluate` call, clips with bitsets of n-gram occurrences (one bit for each
k-th occurrence of an n-gram in a sentence; per order, the `bit_count` of
the hypothesis mask ANDed with the OR of the references' masks, in a bit
table it starts over past a bound), and must give the same floats.

`tie_key` is the searches' order among equal scores, and `ngram_bans` the
no-repeat rule, written out here so that no expected order or ban is built
with `pqgen.decoding._tie_key` or `_ngram_bans` themselves; the searches
here hold their own `Beam`.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from pqgen import decoding as D
from pqgen import model as M
from pqgen import tensor as T
from pqgen import training as TR
from pqgen.corpus import CorpusSchemaError, ProductRecord, Vocab, tokenize
from pqgen.metrics import BLEU_MAX_N, MetricInputError, meteor_lite

from .oracles import bleu_oracle, fd_grad, max_rel_err


def leaf(arr) -> T.Tensor:
    """A tensor that learns: it has a zero gradient buffer."""
    data = np.asarray(arr, dtype=np.float64)
    return T.Tensor(data, np.zeros_like(data))


def check_grads(build, arrays, tol: float = 1e-4) -> None:
    """build(list of Tensors) -> scalar Tensor; each input's backward gradient
    must match its central finite differences within max_rel_err < tol."""
    leaves = [leaf(a) for a in arrays]
    T.reset_tape()
    T.backward(build(leaves))
    analytic = [lf.grad.copy() for lf in leaves]
    for i, arr in enumerate(arrays):
        def f(x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = x
            with T.no_grad():
                return build([T.Tensor(v) for v in vals]).item()
        assert max_rel_err(analytic[i], fd_grad(f, arr.copy())) < tol, f"input {i}"


def mul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Elementwise product of same-shaped tensors."""
    if a.shape != b.shape:
        raise T.ShapeError(f"mul shapes incompatible: {a.shape} * {b.shape}")
    return T._emit((a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def tmean(x: T.Tensor) -> T.Tensor:
    """Mean over all elements, yielding a 0-d scalar."""
    n = x.data.size
    if n == 0:
        raise T.EmptyPoolError("mean over an empty tensor")
    return T._emit((x,), np.asarray(x.data.mean()),
                   lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, n_heads: int,
              layout: T.AttentionLayout) -> T.Tensor:
    """Multi-head scaled dot-product attention over stacked rows: q is
    [n_q, d]; k and v are [n_k, d]."""
    out, bwd = T._attend(q.data, k.data, v.data, n_heads, layout)
    return T._emit((q, k, v), out, bwd)


def beam_search(params: M.ModelParams, context_ids: Sequence[int],
                config: D.GenerationConfig) -> list[D.Candidate]:
    """Standard length-penalized beam search over beams_per_group beams."""
    return D._search(params, [context_ids], dataclasses.replace(config, num_groups=1))[0][0]


def diverse_beam_search(params: M.ModelParams, context_ids: Sequence[int],
                        config: D.GenerationConfig) -> list[list[D.Candidate]]:
    """One ranked candidate list per group of `pqgen.decoding._search`."""
    return D._search(params, [context_ids], config)[0]


def build_triplets(records: Sequence[ProductRecord], vocab: Vocab,
                   max_pairs_per_product: int = TR.TrainConfig.max_pairs_per_product,
                   seed: int = TR.TrainConfig.seed) -> list[TR.Triplet]:
    """Every product's triplets in record order; single-question products
    contribute nothing here."""
    if not records:
        raise CorpusSchemaError("cannot build triplets from an empty corpus")
    return [t for idx, rec in enumerate(records)
            for t in TR._triplets(*TR._encode_record(rec, vocab), max_pairs_per_product,
                                  seed, idx)]


def multi_head_attention(x_q: T.Tensor, x_kv: T.Tensor, wq: T.Tensor, wk: T.Tensor,
                         wv: T.Tensor, wo: T.Tensor, n_heads: int,
                         layout: T.AttentionLayout) -> T.Tensor:
    q = T.matmul(x_q, wq)
    k = T.matmul(x_kv, wk)
    v = T.matmul(x_kv, wv)
    return T.matmul(attention(q, k, v, n_heads, layout), wo)


def ffn(x: T.Tensor, w1: T.Tensor, b1: T.Tensor, w2: T.Tensor, b2: T.Tensor) -> T.Tensor:
    h = T.relu(T.add(T.matmul(x, w1), b1))
    return T.add(T.matmul(h, w2), b2)


def attention_sublayer(x: T.Tensor, gain: T.Tensor, bias: T.Tensor, wq: T.Tensor,
                       wk: T.Tensor, wv: T.Tensor, wo: T.Tensor, n_heads: int,
                       layout: T.AttentionLayout, h_e: T.Tensor | None = None) -> T.Tensor:
    a = T.layer_norm(x, gain, bias)
    return T.add(x, multi_head_attention(a, a if h_e is None else h_e, wq, wk, wv, wo,
                                         n_heads, layout))


def ffn_sublayer(x: T.Tensor, gain: T.Tensor, bias: T.Tensor, w1: T.Tensor, b1: T.Tensor,
                 w2: T.Tensor, b2: T.Tensor) -> T.Tensor:
    return T.add(x, ffn(T.layer_norm(x, gain, bias), w1, b1, w2, b2))


def embed(tok: T.Tensor, pos: T.Tensor, ids: Sequence[int],
          positions: Sequence[int]) -> T.Tensor:
    return T.add(T.embedding(tok, ids), T.embedding(pos, positions))


def full_mask_bias(q_lens: Sequence[int], k_lens: Sequence[int],
                   causal: bool) -> np.ndarray | None:
    """0 where a query slot may see a key slot, -inf elsewhere, per segment:
    padded query slots see every key (within the causal triangle)."""
    lq, lk = max(q_lens), max(k_lens)
    q_slots = np.arange(lq) < np.array(q_lens)[:, None]
    k_slots = np.arange(lk) < np.array(k_lens)[:, None]
    hidden = ~k_slots[:, None, :] & q_slots[:, :, None]
    if causal:
        hidden |= ~np.tri(lq, lk, dtype=bool)
    return np.where(hidden, -np.inf, 0.0)[:, None] if hidden.any() else None


def decode_step(params: M.ModelParams, enc: M.EncoderOutput,
                prefix_ids: Sequence[int]) -> np.ndarray:
    """Log-softmax over the next token given a BOS-prefixed prefix."""
    cfg = params.config
    prefix = tuple(int(i) for i in prefix_ids)
    if not prefix or prefix[0] != cfg.bos_id:
        raise ValueError(f"prefix must start with BOS id {cfg.bos_id}: {prefix}")
    M.check_length(cfg, len(prefix), "prefix")
    n = len(prefix)
    with T.no_grad():
        _, h = M._decoder_stack(
            params, enc.h_e, prefix, range(n),
            T.AttentionLayout([n], [n], causal=True), T.AttentionLayout([n], enc.lengths))
        logits = T.matmul(h, params["cg_head.w"]).data[-1]
    return logits - T.logsumexp(logits)


def exhaustive_decode(params: M.ModelParams, context_ids: Sequence[int], max_steps: int,
                      alpha: float) -> list[D.Candidate]:
    """Every sequence of at most max_steps tokens, depth first on the full-prefix
    `decode_step`, ranked as the searches rank candidates at length penalty alpha."""
    mcfg = params.config
    with T.no_grad():
        enc = M.encode(params, context_ids)
    out = []

    def rec(tokens, cum):
        if tokens and tokens[-1] == mcfg.eos_id:
            out.append(D.Candidate(tuple(tokens), cum, True))
            return
        if len(tokens) == max_steps:
            out.append(D.Candidate(tuple(tokens), cum, False))
            return
        lp = decode_step(params, enc, (mcfg.bos_id,) + tuple(tokens))
        for v in range(mcfg.vocab_size):
            if v not in (mcfg.pad_id, mcfg.bos_id):
                rec(tokens + [v], cum + float(lp[v]))

    rec([], 0.0)
    out.sort(key=lambda c: (-D.ranked_score(c, alpha), tie_key(c.token_ids)))
    return out


class PrefixState:
    """The prefixes fed so far, one per beam, in place of a key/value cache."""

    def __init__(self, prefixes: list[tuple[int, ...]]):
        self.prefixes = prefixes

    def reorder(self, parents: Sequence[int]) -> "PrefixState":
        return PrefixState([self.prefixes[r] for r in parents])


def uncached_seam(enc: M.EncoderOutput):
    """A `pqgen.decoding.decode_step` substitute that computes every row with
    the full-prefix `decode_step` above. The searches start it from a
    `DecoderState`; it carries a `PrefixState` from then on."""
    def step(params, state, tokens):
        past = state.prefixes if isinstance(state, PrefixState) else [()] * len(tokens)
        prefixes = [p + (int(t),) for p, t in zip(past, tokens)]
        return (np.stack([decode_step(params, enc, p) for p in prefixes]),
                PrefixState(prefixes))

    return step


def tie_key(tokens: Sequence[int]) -> tuple:
    """Lower last token id first (none at all lowest), then the shorter
    sequence, then the lexicographically lower ids."""
    return (tokens[-1] if tokens else -1, len(tokens), tuple(tokens))


def ngram_bans(generated: Sequence[int], n: int) -> set[int]:
    """The tokens v for which generated + (v,) would end in an n-gram that
    generated already holds; none when n is 0."""
    if n == 0:
        return set()
    grams = {tuple(generated[i:i + n]) for i in range(len(generated) - n + 1)}
    suffix = tuple(generated[len(generated) - (n - 1):])
    return {gram[-1] for gram in grams if gram[:-1] == suffix}


class Beam(NamedTuple):
    token_ids: tuple[int, ...]
    cum_logprob: float               # raw model log-probability
    score: float                     # the selection score: cum_logprob less penalties
    finished: bool


def _search_group(params: M.ModelParams, state: M.DecoderState, cfg: D.GenerationConfig,
                  prior_choices: list[Counter]) -> tuple[list[D.Candidate], list[list[int]]]:
    """One beam-search group, from the decoder state before BOS.

    prior_choices[t] counts the tokens earlier groups selected at step t; the
    Hamming diversity penalty subtracts diversity_penalty * count from this
    group's selection scores (model log-probs on candidates stay unpenalized).
    Every step advances the group's unfinished beams with one
    `pqgen.decoding.decode_step` call. Returns the group's candidates ranked
    by length-penalized score, plus the per-step token choices this group made.
    """
    mcfg = params.config
    width = cfg.beams_per_group
    beams = [Beam((), 0.0, 0.0, False)]
    my_choices: list[list[int]] = []
    for t in range(min(cfg.max_new_tokens, mcfg.max_len)):
        live = [b for b in beams if not b.finished]
        if not live:
            break
        lp, state = D.decode_step(params, state,
                                  [b.token_ids[-1] if t else mcfg.bos_id for b in live])
        lp[:, mcfg.pad_id] = -np.inf
        lp[:, mcfg.bos_id] = -np.inf
        for row, beam in enumerate(live):
            bans = ngram_bans(beam.token_ids, cfg.no_repeat_ngram)
            if bans:
                lp[row, list(bans)] = -np.inf
        sel_lp = lp
        if t < len(prior_choices) and prior_choices[t]:
            sel_lp = lp.copy()
            chosen, counts = zip(*prior_choices[t].items())
            sel_lp[:, chosen] -= cfg.diversity_penalty * np.array(counts, dtype=np.float64)
        best = np.argsort(-sel_lp, axis=1, kind="stable")[:, :width]
        rows = np.arange(len(live))[:, None]
        pool = [(beam, -1) for beam in beams if beam.finished]
        for row, (beam, tokens, sels, lps) in enumerate(zip(
                live, best.tolist(), sel_lp[rows, best].tolist(), lp[rows, best].tolist())):
            if sels[0] == -np.inf and np.maximum.reduce(lp[row]) == -np.inf:
                raise D.DecodingStuckError(f"all {mcfg.vocab_size} tokens banned after "
                                           f"{beam.token_ids}")
            for v, sel, logprob in zip(tokens, sels, lps):
                if sel == -np.inf:
                    break
                pool.append((Beam(beam.token_ids + (v,), beam.cum_logprob + logprob,
                                   beam.score + sel, v == mcfg.eos_id), row))
        pool.sort(key=lambda e: (-e[0].score, tie_key(e[0].token_ids)))
        del pool[width:]
        beams = [beam for beam, _ in pool]
        my_choices.append([beam.token_ids[-1] for beam, parent in pool if parent >= 0])
        state = state.reorder([parent for beam, parent in pool
                               if parent >= 0 and not beam.finished])
    ranked = sorted((D.Candidate(b.token_ids, b.cum_logprob, b.finished) for b in beams),
                    key=lambda c: (-D.ranked_score(c, cfg.length_penalty),
                                   tie_key(c.token_ids)))
    return ranked, my_choices


def sequential_diverse_beam_search(params: M.ModelParams, context_ids: Sequence[int],
                                   config: D.GenerationConfig) -> list[list[D.Candidate]]:
    """Diverse beam search with the groups run one after another, each from
    the same start state; prior[t] accumulates the tokens every finished group
    chose at step t."""
    start = D._start(params, context_ids)
    prior: list[Counter] = []
    groups: list[list[D.Candidate]] = []
    for _ in range(config.num_groups):
        ranked, choices = _search_group(params, start, config, prior)
        groups.append(ranked)
        for t, chosen in enumerate(choices):
            while len(prior) <= t:
                prior.append(Counter())
            prior[t].update(chosen)
    return groups


def greedy_decode(params: M.ModelParams, context_ids: Sequence[int],
                  max_new_tokens: int) -> list[int]:
    """Argmax rollout (ties to the lowest token id); PAD/BOS never emitted;
    stops at EOS (not included in the output) or at the token budget."""
    mcfg = params.config
    state = D._start(params, context_ids)
    out: list[int] = []
    for _ in range(min(max_new_tokens, mcfg.max_len)):
        lp, state = D.decode_step(params, state, [out[-1] if out else mcfg.bos_id])
        lp = lp[0]
        lp[mcfg.pad_id] = -np.inf
        lp[mcfg.bos_id] = -np.inf
        nxt = int(np.argmax(lp))  # np.argmax returns the first (lowest) index on ties
        if not np.isfinite(lp[nxt]):
            raise D.DecodingStuckError(f"all {mcfg.vocab_size} tokens banned after {out}")
        if nxt == mcfg.eos_id:
            break
        out.append(nxt)
    return out


def bleu(hypothesis: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """`oracles.bleu_oracle`, with `pqgen.metrics.bleu`'s error for no references."""
    if not references:
        raise MetricInputError("bleu needs at least one reference")
    return bleu_oracle(list(hypothesis), references, BLEU_MAX_N)


def avg_bleu(hypotheses: Sequence[Sequence[str]],
             references: Sequence[Sequence[str]]) -> float:
    if not hypotheses:
        raise MetricInputError("avg_bleu needs at least one hypothesis")
    return math.fsum(bleu(h, references) for h in hypotheses) / len(hypotheses)


def pairwise_bleu(group: Sequence[Sequence[str]]) -> float:
    if len(group) < 2:
        raise MetricInputError("pairwise_bleu needs a group of >= 2 questions")
    scores = [bleu(group[i], [q for j, q in enumerate(group) if j != i])
              for i in range(len(group))]
    return math.fsum(scores) / len(scores)


def evaluate_relevance(generations: Sequence[dict], gold: Sequence[ProductRecord]
                       ) -> tuple[float, float, float, float | None]:
    """(bleu_top1, avg_bleu_top3, meteor_top1, pairwise_bleu) of a
    `pqgen.metrics.evaluate` report, composed from the calls above and
    `meteor_lite`: a product without a top-1 question scores 0 on the three
    relevance figures and has no Pairwise-BLEU."""
    by_id = {rec.product_id: rec for rec in gold}
    bleus, avg3s, meteors, pws = [], [], [], []
    for r in generations:
        top3 = [tokenize(q) for q in r["questions"][:3]]
        if not top3 or not top3[0]:
            bleus.append(0.0)
            avg3s.append(0.0)
            meteors.append(0.0)
            continue
        refs = [tokenize(q) for q in by_id[r["product_id"]].questions]
        bleus.append(bleu(top3[0], refs))
        avg3s.append(avg_bleu(top3, refs))
        meteors.append(max(meteor_lite(top3[0], ref) for ref in refs))
        if len(top3) >= 2:
            pws.append(pairwise_bleu(top3))
    n = len(generations)
    return (math.fsum(bleus) / n, math.fsum(avg3s) / n, math.fsum(meteors) / n,
            math.fsum(pws) / len(pws) if pws else None)

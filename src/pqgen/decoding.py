"""Inference-time question generation by diverse beam search, whose groups
advance together under group-wise Hamming penalties (one group is plain beam
search). One search decodes a chunk of products: each decoder step feeds the
beams of all.

Scores carried on candidates are raw model log-probabilities; the length
penalty (score / len^alpha) applies at ranking time only. PAD and BOS are
never emitted. Ties break by lower token id, then shorter sequence, then
lexicographic token ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import ProductRecord, Vocab, detokenize
from .model import (ConfigError, DecoderState, ModelParams, NonFiniteOutputError,
                    check_length, encode, start_decoding)
from .model import decode_step as _model_decode_step
from . import tensor as T


class DecodingStuckError(RuntimeError):
    """Every vocabulary token is banned at some decoding step."""


@dataclass(frozen=True)
class GenerationConfig:
    num_groups: int = 3
    beams_per_group: int = 2
    diversity_penalty: float = 5.0
    length_penalty: float = 1.0
    no_repeat_ngram: int = 2
    max_new_tokens: int = 16
    questions_per_product: int = 6

    def __post_init__(self):
        if self.num_groups < 1 or self.beams_per_group < 1:
            raise ConfigError(f"need num_groups >= 1 and beams_per_group >= 1: {self}")
        if not (math.isfinite(self.diversity_penalty) and math.isfinite(self.length_penalty)):
            raise ConfigError(f"penalties must be finite: {self}")
        if self.diversity_penalty < 0 or self.no_repeat_ngram < 0:
            raise ConfigError(f"penalties must be nonnegative: {self}")
        if self.max_new_tokens < 1 or self.questions_per_product < 1:
            raise ConfigError(f"invalid generation budget: {self}")
        # Ranking divides by len ** length_penalty for lengths up to
        # max_new_tokens; the divisor must be a finite nonzero float.
        try:
            divisor = float(self.max_new_tokens) ** self.length_penalty
        except OverflowError:
            divisor = math.inf
        if not 0.0 < divisor < math.inf:
            raise ConfigError(f"length_penalty {self.length_penalty}: max_new_tokens ** "
                              f"length_penalty is {divisor}, not a finite nonzero divisor")


@dataclass(frozen=True)
class Candidate:
    token_ids: tuple[int, ...]
    cum_logprob: float
    finished: bool


@dataclass
class GenerationResult:
    questions: list[str]
    scores: list[float]
    token_ids: list[tuple[int, ...]]
    shortage: bool


def ranked_score(cand: Candidate, alpha: float) -> float:
    return cand.cum_logprob / (len(cand.token_ids) ** alpha)


def _tie_key(tokens: tuple[int, ...]):
    # Lower last token id, then shorter, then lexicographic.
    return (tokens[-1] if tokens else -1, len(tokens), tokens)


def _ranked(cands: Iterable[Candidate], alpha: float) -> list[Candidate]:
    return sorted(cands, key=lambda c: (-ranked_score(c, alpha), _tie_key(c.token_ids)))


def _at(names: Sequence[str], p: int) -> str:
    """An error message's prefix naming product p, if it has a name."""
    return f"product {names[p]}: " if names else ""


def _ngram_bans(generated: tuple[int, ...], n: int) -> set[int]:
    """Tokens that would complete an n-gram already present in `generated`."""
    if n == 0 or len(generated) < n - 1:
        return set()
    suffix = generated[len(generated) - n + 1:]  # the last n - 1 tokens
    return {generated[i + n - 1] for i in range(len(generated) - n + 1)
            if generated[i:i + n - 1] == suffix}


@np.errstate(all="ignore")
def _search(params: ModelParams, contexts: Sequence[Sequence[int]], cfg: GenerationConfig,
            names: Sequence[str] = ()) -> list[list[list[Candidate]]]:
    """Diverse beam search of several products as one loop over positions
    (Vijayakumar et al. 2016, Alg. 1, batched as in fairseq's
    `SequenceGenerator`): one `decode_step` call advances the unfinished beams
    of every group of every product, then each product's groups select in
    order, each lowering its selection scores (not the model log-probs on
    candidates) by diversity_penalty per earlier group's choice of a token at
    this step. Groups holding the same prefix share its state row, so groups
    that never diverge feed exactly the rows one group would. Returns each
    product's groups' candidates, ranked; an error names its product from `names`.
    Overflow warns nothing: non-finite encoder rows and log-probs are named errors.
    """
    mcfg = params.config
    width, eos, penalty = cfg.beams_per_group, mcfg.eos_id, cfg.diversity_penalty
    # Earlier groups chose at most width * (num_groups - 1) tokens at a step and a penalty
    # only lowers scores, so a beam's best `width` penalized tokens are among its k best.
    # A pick past the vocabulary is id 0, PAD, always banned: -inf stops selection.
    k = width * cfg.num_groups
    state = _start(params, *contexts, names=names)
    # A beam is (-score, _tie_key(token_ids), cum_logprob, row), which sorts best first by the
    # selection score (cum_logprob less penalties), then the tie rule; row: its parent's.
    products = [[[(0.0, _tie_key(()), 0.0, -1)] for _ in range(cfg.num_groups)] for _ in contexts]
    rows = {(p, ()): p for p in range(len(contexts))}  # state row of each unfinished prefix
    # Position t feeds pos_emb[t], so a beam grows to at most max_len tokens.
    for t in range(min(cfg.max_new_tokens, mcfg.max_len)):
        if not rows:
            break
        lp, state = decode_step(params, state,
                                [prefix[-1] if t else mcfg.bos_id for _, prefix in rows])
        lp[:, [mcfg.pad_id, mcfg.bos_id]] = -np.inf
        if banned := [(row, v) for row, (_, prefix) in enumerate(rows)
                      for v in _ngram_bans(prefix, cfg.no_repeat_ngram)]:
            lp[tuple(zip(*banned))] = -np.inf
        # Each row's k best tokens, best first: argmax takes the lowest id of equal scores.
        index, struck, top = np.arange(len(rows)), lp.copy(), np.empty((k, len(rows)), np.intp)
        for j in range(k):
            top[j] = best = struck.argmax(axis=1)
            struck[index, best] = -np.inf
        top, top_lp = top.T, lp[index, top].T
        first = top_lp[:, 0]  # a NaN or +inf is always a row's first pick
        if not np.isfinite(first).all():
            row = int(np.argmin(np.isfinite(first)))
            p, prefix = list(rows)[row]
            at = _at(names, p)
            if first[row] == -np.inf:
                raise DecodingStuckError(f"{at}all {mcfg.vocab_size} tokens banned after {prefix}")
            raise NonFiniteOutputError(f"{at}log-prob {first[row]} at step {t} after {prefix}")
        # Each row's picks as (-selection score, token, log-prob), before any penalty.
        picks_of = [[(-logprob, v, logprob) for v, logprob in zip(ids, lps)]
                    for ids, lps in zip(top.tolist(), top_lp.tolist())]
        parents: dict[tuple[int, tuple[int, ...]], int] = {}
        for p, groups in enumerate(products):
            chosen: dict[int, int] = {}  # times the groups so far chose each token at this step
            for g, beams in enumerate(groups):
                pool = [beam for beam in beams if beam[1][0] == eos]  # finished: kept as is
                for neg_score, (last, _, prefix), cum_logprob, _ in beams:
                    if last == eos:
                        continue
                    row = rows[p, prefix]
                    picks = picks_of[row]
                    if chosen:  # the beam's best `width` by penalized score, lower id on ties
                        picks = sorted((neg + penalty * chosen.get(v, 0), v, logprob)
                                       for neg, v, logprob in picks)
                    for neg, v, logprob in picks[:width]:
                        if neg == np.inf:
                            break
                        pool.append((neg_score + neg, _tie_key(prefix + (v,)),
                                     cum_logprob + logprob, row))
                pool.sort()
                del pool[width:]
                groups[g] = pool
                for _, (last, n, prefix), _, row in pool:
                    if n > t:  # picked at this step
                        chosen[last] = chosen.get(last, 0) + 1
                        if last != eos:
                            parents.setdefault((p, prefix), row)
        rows = {key: r for r, key in enumerate(parents)}
        state = state.reorder(list(parents.values()))
    return [[_ranked((Candidate(prefix, cum_logprob, last == eos)
                      for _, (last, _, prefix), cum_logprob, _ in beams), cfg.length_penalty)
             for beams in groups] for groups in products]


# The one decoder step every search calls, kept as a module attribute so that
# tests can substitute hand-set step tables or the uncached reference step.
# The searches write their bans into the log-probs it returns.
decode_step = _model_decode_step


def _start(params: ModelParams, *contexts: Sequence[int], names: Sequence[str] = ()
           ) -> DecoderState:
    """The decoder state of the contexts, encoded in one pass; encoder rows
    that are not finite are an error naming their product from `names`."""
    with T.no_grad():
        enc = encode(params, *contexts)
    bad = ~np.isfinite(enc.h_e.data).all(axis=1)
    if bad.any():
        p = int(np.searchsorted(np.cumsum(enc.lengths), bad.argmax(), side="right"))
        raise NonFiniteOutputError(f"{_at(names, p)}encoder output is not finite")
    return start_decoding(params, enc)


def _check_generation(params: ModelParams, config: GenerationConfig) -> None:
    """Refuse, as a config error, a generation config the model cannot serve."""
    if (size := config.num_groups * config.beams_per_group) > params.config.vocab_size:
        raise ConfigError(f"num_groups*beams_per_group = {size} exceeds vocab size "
                          f"{params.config.vocab_size}")
    if config.max_new_tokens + 1 > params.config.max_len:
        raise ConfigError(f"max_new_tokens {config.max_new_tokens} cannot fit under "
                          f"max_len {params.config.max_len}")


# Products decoded by one search. A step's cost per row stops falling at
# about 64 rows, some 16 products of 3 groups of 2 beams with shared prefixes.
CHUNK = 16


def generate_split(params: ModelParams, vocab: Vocab, records: Sequence[ProductRecord],
                   config: GenerationConfig) -> list[GenerationResult]:
    """`generate_questions` for every record, CHUNK products to a search in
    record order. A config the model cannot serve is refused before anything
    is encoded; a context that does not fit max_len, naming its product,
    before anything is decoded."""
    _check_generation(params, config)
    contexts = []
    for rec in records:
        contexts.append(vocab.encode_text(rec.context))
        check_length(params.config, len(contexts[-1]), f"product {rec.product_id}: context")
    return [result for start in range(0, len(contexts), CHUNK)
            for result in _generate(params, vocab, contexts[start:start + CHUNK], config,
                                    [rec.product_id for rec in records[start:start + CHUNK]])]


def generate_questions(params: ModelParams, vocab: Vocab,
                       context_ids: Sequence[int],
                       config: GenerationConfig) -> GenerationResult:
    """DBS, pool finished candidates, dedupe exact token sequences, rank by
    length-penalized score, return the top questions_per_product."""
    _check_generation(params, config)
    return _generate(params, vocab, [context_ids], config)[0]


def _generate(params: ModelParams, vocab: Vocab, contexts: Sequence[Sequence[int]],
              config: GenerationConfig, names: Sequence[str] = ()) -> list[GenerationResult]:
    eos, alpha = params.config.eos_id, config.length_penalty
    results = []
    for p, groups in enumerate(_search(params, contexts, config, names)):
        # Equal token ids are one candidate: a prefix's state row, hence its log-prob, is shared.
        pool = _ranked({c.token_ids: c for group in groups for c in group if c.finished}.values(),
                       alpha)
        top = pool[:config.questions_per_product]
        scores = [ranked_score(c, alpha) for c in top]
        if bad := [s for s in scores if not math.isfinite(s)]:
            raise NonFiniteOutputError(
                f"{_at(names, p)}length-penalized score {bad[0]} is not finite")
        results.append(GenerationResult(
            questions=[detokenize(vocab.decode([t for t in c.token_ids if t != eos]))
                       for c in top],
            scores=scores,
            token_ids=[c.token_ids for c in top],
            shortage=len(top) < config.questions_per_product))
    return results

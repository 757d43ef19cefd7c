"""Inference-time question generation: beam search, and diverse beam search
whose groups advance together under group-wise Hamming penalties. One search
decodes a chunk of products: each decoder step feeds the beams of all.

Scores carried on candidates are raw model log-probabilities; the length
penalty (score / len^alpha) applies at ranking time only. PAD and BOS are
never emitted. Ties break by lower token id, then shorter sequence, then
lexicographic token ids.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import ProductRecord, Vocab, detokenize
from .model import (DecoderState, ModelParams, SequenceLengthError, check_length, encode,
                    start_decoding)
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
            raise ValueError(f"need num_groups >= 1 and beams_per_group >= 1: {self}")
        if not (math.isfinite(self.diversity_penalty) and math.isfinite(self.length_penalty)):
            raise ValueError(f"penalties must be finite: {self}")
        if self.diversity_penalty < 0 or self.no_repeat_ngram < 0:
            raise ValueError(f"penalties must be nonnegative: {self}")
        if self.max_new_tokens < 1 or self.questions_per_product < 1:
            raise ValueError(f"invalid generation budget: {self}")


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


def _ngram_bans(generated: tuple[int, ...], n: int) -> set[int]:
    """Tokens that would complete an n-gram already present in `generated`."""
    if n == 0 or len(generated) < n - 1:
        return set()
    if n == 1:
        return set(generated)
    suffix = generated[-(n - 1):]
    bans = set()
    for i in range(len(generated) - n + 1):
        if generated[i:i + n - 1] == suffix:
            bans.add(generated[i + n - 1])
    return bans


class _Beam(NamedTuple):
    token_ids: tuple[int, ...]
    cum_logprob: float               # raw model log-probability
    score: float                     # the selection score: cum_logprob less penalties
    finished: bool


def _search(params: ModelParams, contexts: Sequence[Sequence[int]], cfg: GenerationConfig,
            num_groups: int) -> list[list[list[Candidate]]]:
    """Diverse beam search of several products as one loop over positions
    (Vijayakumar et al. 2016, Alg. 1, batched as in fairseq's
    `SequenceGenerator`): one `decode_step` call advances the unfinished beams
    of every group of every product, then each product's groups select in
    order, each lowering its selection scores (not the model log-probs on
    candidates) by diversity_penalty per earlier group's choice of a token at
    this step. Groups holding the same prefix share its state row, so groups
    that never diverge feed exactly the rows one group would. Returns each
    product's groups' candidates, ranked.
    """
    mcfg = params.config
    width = cfg.beams_per_group
    state = _start(params, *contexts)
    products = [[[_Beam((), 0.0, 0.0, False)] for _ in range(num_groups)] for _ in contexts]
    rows = {(p, ()): p for p in range(len(contexts))}  # state row of each unfinished prefix
    # Position t feeds pos_emb[t], so a beam grows to at most max_len tokens.
    for t in range(min(cfg.max_new_tokens, mcfg.max_len)):
        if not rows:
            break
        lp, state = decode_step(params, state,
                                [prefix[-1] if t else mcfg.bos_id for _, prefix in rows])
        lp[:, mcfg.pad_id] = -np.inf
        lp[:, mcfg.bos_id] = -np.inf
        for row, (_, prefix) in enumerate(rows):
            bans = _ngram_bans(prefix, cfg.no_repeat_ngram)
            if bans:
                lp[row, list(bans)] = -np.inf
        parents: dict[tuple[int, tuple[int, ...]], int] = {}
        for p, groups in enumerate(products):
            chosen: Counter = Counter()  # tokens the groups so far selected at this step
            for g, beams in enumerate(groups):
                live = [b for b in beams if not b.finished]
                if not live:
                    continue
                live_rows = [rows[p, b.token_ids] for b in live]
                group_lp = sel_lp = lp[live_rows]
                if chosen:
                    sel_lp = group_lp.copy()
                    ids, counts = zip(*chosen.items())
                    sel_lp[:, ids] -= cfg.diversity_penalty * np.array(counts, dtype=np.float64)
                # Each beam's best `width` tokens; a stable sort keeps the lower id
                # first among equal scores.
                best = np.argsort(-sel_lp, axis=1, kind="stable")[:, :width]
                index = np.arange(len(live))[:, None]
                pool = [(beam, -1) for beam in beams if beam.finished]
                for row, beam, tokens, sels, lps in zip(
                        live_rows, live, best.tolist(), sel_lp[index, best].tolist(),
                        group_lp[index, best].tolist()):
                    if sels[0] == -np.inf and np.maximum.reduce(lp[row]) == -np.inf:
                        raise DecodingStuckError(f"all {mcfg.vocab_size} tokens banned after "
                                                 f"{beam.token_ids}")
                    for v, sel, logprob in zip(tokens, sels, lps):
                        if sel == -np.inf:
                            break
                        pool.append((_Beam(beam.token_ids + (v,), beam.cum_logprob + logprob,
                                           beam.score + sel, v == mcfg.eos_id), row))
                pool.sort(key=lambda e: (-e[0].score, _tie_key(e[0].token_ids)))
                del pool[width:]
                groups[g] = [beam for beam, _ in pool]
                chosen.update(beam.token_ids[-1] for beam, row in pool if row >= 0)
                for beam, row in pool:
                    if row >= 0 and not beam.finished:
                        parents.setdefault((p, beam.token_ids), row)
        rows = {key: r for r, key in enumerate(parents)}
        state = state.reorder(list(parents.values()))
    return [[sorted((Candidate(b.token_ids, b.cum_logprob, b.finished) for b in beams),
                    key=lambda c: (-ranked_score(c, cfg.length_penalty), _tie_key(c.token_ids)))
             for beams in groups] for groups in products]


# The one decoder step every search calls, kept as a module attribute so that
# tests can substitute hand-set step tables or the uncached reference step.
# The searches write their bans into the log-probs it returns.
decode_step = _model_decode_step


def _start(params: ModelParams, *contexts: Sequence[int]) -> DecoderState:
    with T.no_grad():
        encs = [encode(params, context_ids) for context_ids in contexts]
    return start_decoding(params, *encs)


def beam_search(params: ModelParams, context_ids: Sequence[int],
                config: GenerationConfig) -> list[Candidate]:
    """Standard length-penalized beam search over beams_per_group beams."""
    return _search(params, [context_ids], config, 1)[0][0]


def diverse_beam_search(params: ModelParams, context_ids: Sequence[int],
                        config: GenerationConfig) -> list[list[Candidate]]:
    """Beam-search groups, each penalized by diversity_penalty times the count
    of same-step token choices made by all earlier groups. Returns one ranked
    candidate list per group."""
    return _diverse_search(params, [context_ids], config)[0]


def _diverse_search(params: ModelParams, contexts: Sequence[Sequence[int]],
                    config: GenerationConfig) -> list[list[list[Candidate]]]:
    if config.num_groups * config.beams_per_group > params.config.vocab_size:
        raise ValueError(
            f"num_groups*beams_per_group = "
            f"{config.num_groups * config.beams_per_group} exceeds vocab size "
            f"{params.config.vocab_size}")
    return _search(params, contexts, config, config.num_groups)


# Products decoded by one search. A step's cost per row stops falling at
# about 64 rows, some 16 products of 3 groups of 2 beams with shared prefixes.
CHUNK = 16


def generate_split(params: ModelParams, vocab: Vocab, records: Sequence[ProductRecord],
                   config: GenerationConfig) -> list[GenerationResult]:
    """`generate_questions` for every record, CHUNK products to a search in
    record order. A context that does not fit max_len is refused, naming its
    product, before anything is decoded."""
    contexts = []
    for rec in records:
        ids = vocab.encode_text(rec.context)
        try:
            check_length(params.config, len(ids), "context")
        except SequenceLengthError as e:
            raise SequenceLengthError(f"product {rec.product_id}: {e}") from None
        contexts.append(ids)
    return [result for start in range(0, len(contexts), CHUNK)
            for result in _generate(params, vocab, contexts[start:start + CHUNK], config)]


def generate_questions(params: ModelParams, vocab: Vocab,
                       context_ids: Sequence[int],
                       config: GenerationConfig) -> GenerationResult:
    """DBS, pool finished candidates, dedupe exact token sequences, rank by
    length-penalized score, return the top questions_per_product."""
    return _generate(params, vocab, [context_ids], config)[0]


def _generate(params: ModelParams, vocab: Vocab, contexts: Sequence[Sequence[int]],
              config: GenerationConfig) -> list[GenerationResult]:
    if config.max_new_tokens + 1 > params.config.max_len:
        raise ValueError(
            f"max_new_tokens {config.max_new_tokens} cannot fit under "
            f"max_len {params.config.max_len}")
    eos = params.config.eos_id
    results = []
    for groups in _diverse_search(params, contexts, config):
        seen: set[tuple[int, ...]] = set()
        pool: list[Candidate] = []
        for group in groups:
            for cand in group:
                if cand.finished and cand.token_ids not in seen:
                    seen.add(cand.token_ids)
                    pool.append(cand)
        pool.sort(key=lambda c: (-ranked_score(c, config.length_penalty),
                                 _tie_key(c.token_ids)))
        top = pool[:config.questions_per_product]
        results.append(GenerationResult(
            questions=[detokenize(vocab.decode([t for t in c.token_ids if t != eos]))
                       for c in top],
            scores=[ranked_score(c, config.length_penalty) for c in top],
            token_ids=[c.token_ids for c in top],
            shortage=len(top) < config.questions_per_product))
    return results

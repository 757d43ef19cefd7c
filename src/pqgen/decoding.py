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
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    width = cfg.beams_per_group
    # Earlier groups chose at most width * (num_groups - 1) tokens at a step and a penalty
    # only lowers scores, so a beam's best `width` penalized tokens are among its k best.
    # Picks past the vocabulary are -inf and stop selection, as banned tokens do.
    k = width * cfg.num_groups
    state = _start(params, *contexts, names=names)
    products = [[[_Beam((), 0.0, 0.0, False)] for _ in range(cfg.num_groups)] for _ in contexts]
    rows = {(p, ()): p for p in range(len(contexts))}  # state row of each unfinished prefix
    # Position t feeds pos_emb[t], so a beam grows to at most max_len tokens.
    for t in range(min(cfg.max_new_tokens, mcfg.max_len)):
        if not rows:
            break
        lp, state = decode_step(params, state,
                                [prefix[-1] if t else mcfg.bos_id for _, prefix in rows])
        banned = [(row, v) for row, (_, prefix) in enumerate(rows)
                  for v in (mcfg.pad_id, mcfg.bos_id, *_ngram_bans(prefix, cfg.no_repeat_ngram))]
        lp[tuple(zip(*banned))] = -np.inf
        # Each row's k best tokens, best first: argmax takes the lowest id of equal scores.
        index = np.arange(len(rows))
        top, top_lp = np.empty((len(rows), k), dtype=np.intp), np.empty((len(rows), k))
        for j in range(k):
            top[:, j] = best = lp.argmax(axis=1)
            top_lp[:, j] = lp[index, best]
            lp[index, best] = -np.inf
        first = top_lp[:, 0]  # a NaN or +inf is always a row's first pick
        if not np.isfinite(first).all():
            row = int(np.argmin(np.isfinite(first)))
            p, prefix = list(rows)[row]
            at = f"product {names[p]}: " if names else ""
            if first[row] == -np.inf:
                raise DecodingStuckError(f"{at}all {mcfg.vocab_size} tokens banned after {prefix}")
            raise NonFiniteOutputError(f"{at}log-prob {first[row]} at step {t} after {prefix}")
        top, top_lp = top.tolist(), top_lp.tolist()
        parents: dict[tuple[int, tuple[int, ...]], int] = {}
        for p, groups in enumerate(products):
            chosen: Counter = Counter()  # tokens the groups so far selected at this step
            for g, beams in enumerate(groups):
                live = [b for b in beams if not b.finished]
                if not live:
                    continue
                pool = [(beam, -1) for beam in beams if beam.finished]
                for beam in live:
                    row = rows[p, beam.token_ids]
                    picks = [(logprob - cfg.diversity_penalty * chosen.get(v, 0), v, logprob)
                             for v, logprob in zip(top[row], top_lp[row])]
                    if chosen:  # the beam's best `width` by penalized score, lower id on ties
                        picks.sort(key=lambda c: (-c[0], c[1]))
                    for sel, v, logprob in picks[:width]:
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
# The searches write their bans and struck picks into the log-probs it returns.
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
        at = f"product {names[p]}: " if names else ""
        raise NonFiniteOutputError(f"{at}encoder output is not finite")
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
    eos = params.config.eos_id
    results = []
    for p, groups in enumerate(_search(params, contexts, config, names)):
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
        scores = [ranked_score(c, config.length_penalty) for c in top]
        bad = [s for s in scores if not math.isfinite(s)]
        if bad:
            at = f"product {names[p]}: " if names else ""
            raise NonFiniteOutputError(f"{at}length-penalized score {bad[0]} is not finite")
        results.append(GenerationResult(
            questions=[detokenize(vocab.decode([t for t in c.token_ids if t != eos]))
                       for c in top],
            scores=scores,
            token_ids=[c.token_ids for c in top],
            shortage=len(top) < config.questions_per_product))
    return results

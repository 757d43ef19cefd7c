"""Inference-time question generation: greedy, beam search, and diverse beam
search with group-wise Hamming penalties.

Scores carried on candidates are raw model log-probabilities; the length
penalty (score / len^alpha) applies at ranking time only. PAD and BOS are
never emitted. Ties break by lower token id, then shorter sequence, then
lexicographic token ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Vocab, detokenize
from .model import ModelParams, encode
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


def _search_group(params: ModelParams, enc, cfg: GenerationConfig,
                  prior_choices: list[Counter] | None) -> tuple[list[Candidate], list[list[int]]]:
    """One beam-search group.

    prior_choices[t] counts the tokens earlier groups selected at step t; the
    Hamming diversity penalty subtracts diversity_penalty * count from this
    group's selection scores (model log-probs on candidates stay unpenalized).
    Returns the group's candidates ranked by length-penalized score, plus the
    per-step token choices this group made.
    """
    mcfg = params.config
    width = cfg.beams_per_group
    beams: list[tuple[Candidate, float]] = [(Candidate((), 0.0, False), 0.0)]
    my_choices: list[list[int]] = []
    for t in range(cfg.max_new_tokens):
        if all(c.finished for c, _ in beams):
            break
        pool: list[tuple[Candidate, float, bool]] = []
        for cand, sel in beams:
            if cand.finished or len(cand.token_ids) + 1 > mcfg.max_len:
                pool.append((cand, sel, False))
                continue
            lp = decode_step(params, enc, (mcfg.bos_id,) + cand.token_ids).copy()
            lp[mcfg.pad_id] = -np.inf
            lp[mcfg.bos_id] = -np.inf
            for banned in _ngram_bans(cand.token_ids, cfg.no_repeat_ngram):
                lp[banned] = -np.inf
            if np.all(np.isneginf(lp)):
                raise DecodingStuckError(
                    f"all {mcfg.vocab_size} tokens banned after {cand.token_ids}")
            sel_lp = lp
            if prior_choices is not None and t < len(prior_choices) and prior_choices[t]:
                sel_lp = lp.copy()
                for tok, count in prior_choices[t].items():
                    sel_lp[tok] -= cfg.diversity_penalty * count
            finite = np.flatnonzero(~np.isneginf(sel_lp))
            best = finite[np.lexsort((finite, -sel_lp[finite]))][:width]
            for v in best:
                child = Candidate(cand.token_ids + (int(v),),
                                  cand.cum_logprob + float(lp[v]),
                                  finished=(int(v) == mcfg.eos_id))
                pool.append((child, sel + float(sel_lp[v]), True))
        pool.sort(key=lambda e: (-e[1], _tie_key(e[0].token_ids)))
        beams = [(c, s) for c, s, _ in pool[:width]]
        chosen = [c.token_ids[-1] for c, s, new in pool[:width] if new]
        my_choices.append(chosen)
    ranked = sorted((c for c, _ in beams),
                    key=lambda c: (-ranked_score(c, cfg.length_penalty),
                                   _tie_key(c.token_ids)))
    return ranked, my_choices


# Kept as a module attribute so tests can substitute hand-set step tables.
decode_step = _model_decode_step


def greedy_decode(params: ModelParams, context_ids: Sequence[int],
                  max_new_tokens: int) -> list[int]:
    """Argmax rollout (ties to the lowest token id); PAD/BOS never emitted;
    stops at EOS (not included in the output) or at the token budget."""
    mcfg = params.config
    with T.no_grad():
        enc = encode(params, context_ids)
    out: list[int] = []
    for _ in range(max_new_tokens):
        if len(out) + 1 > mcfg.max_len:
            break
        lp = decode_step(params, enc, (mcfg.bos_id,) + tuple(out)).copy()
        lp[mcfg.pad_id] = -np.inf
        lp[mcfg.bos_id] = -np.inf
        nxt = int(np.argmax(lp))  # np.argmax returns the first (lowest) index on ties
        if not np.isfinite(lp[nxt]):
            raise DecodingStuckError(f"all {mcfg.vocab_size} tokens banned after {out}")
        if nxt == mcfg.eos_id:
            break
        out.append(nxt)
    return out


def beam_search(params: ModelParams, context_ids: Sequence[int],
                config: GenerationConfig) -> list[Candidate]:
    """Standard length-penalized beam search over beams_per_group beams."""
    with T.no_grad():
        enc = encode(params, context_ids)
    ranked, _ = _search_group(params, enc, config, prior_choices=None)
    return ranked


def diverse_beam_search(params: ModelParams, context_ids: Sequence[int],
                        config: GenerationConfig) -> list[list[Candidate]]:
    """Sequential beam-search groups; each group's selection is penalized by
    diversity_penalty times the count of same-step token choices made by all
    earlier groups. Returns one ranked candidate list per group."""
    if config.num_groups * config.beams_per_group > params.config.vocab_size:
        raise ValueError(
            f"num_groups*beams_per_group = "
            f"{config.num_groups * config.beams_per_group} exceeds vocab size "
            f"{params.config.vocab_size}")
    with T.no_grad():
        enc = encode(params, context_ids)
    prior: list[Counter] = []
    groups: list[list[Candidate]] = []
    for _ in range(config.num_groups):
        ranked, choices = _search_group(params, enc, config, prior_choices=prior)
        groups.append(ranked)
        for t, chosen in enumerate(choices):
            while len(prior) <= t:
                prior.append(Counter())
            prior[t].update(chosen)
    return groups


def generate_questions(params: ModelParams, vocab: Vocab,
                       context_ids: Sequence[int],
                       config: GenerationConfig) -> GenerationResult:
    """DBS, pool finished candidates, dedupe exact token sequences, rank by
    length-penalized score, return the top questions_per_product."""
    if config.max_new_tokens + 1 > params.config.max_len:
        raise ValueError(
            f"max_new_tokens {config.max_new_tokens} cannot fit under "
            f"max_len {params.config.max_len}")
    groups = diverse_beam_search(params, context_ids, config)
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
    eos = params.config.eos_id
    questions = [detokenize(vocab.decode([t for t in c.token_ids if t != eos]))
                 for c in top]
    return GenerationResult(
        questions=questions,
        scores=[ranked_score(c, config.length_penalty) for c in top],
        token_ids=[c.token_ids for c in top],
        shortage=len(top) < config.questions_per_product)

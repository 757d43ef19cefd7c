"""Decoding tests: the cached step and the searches on it against the
uncached reference, the one-loop diverse search against groups run one
after another, reduction chain (diverse groups -> beam -> greedy),
exhaustive-enumeration oracles, Hamming penalty semantics on hand-set step
tables, n-gram bans, and generation plumbing."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqgen import corpus as C
from pqgen import decoding
from pqgen import model as M
from pqgen import tensor as T
from pqgen import training as TR
from pqgen.corpus import Vocab
from pqgen.decoding import (
    Candidate,
    DecodingStuckError,
    GenerationConfig,
    generate_questions,
    generate_split,
    ranked_score,
    _ngram_bans,
)
from pqgen.model import ModelConfig, ModelParams, encode, init_params

from . import reference
from .oracles import enumerate_sequences
from .reference import beam_search, diverse_beam_search


def tiny_params(vocab_size=8, seed=3, max_len=16):
    cfg = ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2,
                      n_enc_layers=1, n_dec_layers=1, d_ff=16, max_len=max_len)
    return init_params(cfg, seed=seed)


def cfg(**kw):
    base = dict(num_groups=1, beams_per_group=2, diversity_penalty=0.0,
                length_penalty=1.0, no_repeat_ngram=0, max_new_tokens=8,
                questions_per_product=6)
    base.update(kw)
    return GenerationConfig(**base)


def fake_step(tables):
    """decode_step substitute keyed on position only: every beam fed at
    position t gets the hand-set log-probs tables[t]. The model's step still
    advances the state, so the searches reorder it as usual."""
    arrs = [np.asarray(t, dtype=np.float64) for t in tables]

    def step(params, state, tokens):
        _, after = M.decode_step(params, state, tokens)
        return np.tile(arrs[state.position], (len(tokens), 1)), after

    return step


def fake_product_step(tables):
    """fake_step with tables per product: a row of product p (its index in
    the search) fed at position t gets tables[p][t]."""
    arrs = np.asarray(tables, dtype=np.float64)

    def step(params, state, tokens):
        _, after = M.decode_step(params, state, tokens)
        return arrs[state.product, state.position], after

    return step


NI = -np.inf
# Log-probs that tie often, at the k-th best place too, and leave some rows
# fewer than k finite tokens.
TIED = [-1.0, -2.0, -3.0, NI]


def draw_tables(data, steps, vocab_size, label):
    return data.draw(st.lists(st.lists(st.sampled_from(TIED), min_size=vocab_size,
                                       max_size=vocab_size),
                              min_size=steps, max_size=steps), label=label)


def stuck_or(search, *args):
    """The search's result, or "stuck" if every token was banned at a step."""
    try:
        return search(*args)
    except DecodingStuckError:
        return "stuck"


def assert_same_groups(got_groups, want_groups):
    """Equal candidates group by group: token ids and finished flags exactly,
    log-probs within 1e-12 (a step block of other rows may round differently)."""
    for got, want in zip(got_groups, want_groups, strict=True):
        assert [c.token_ids for c in got] == [c.token_ids for c in want]
        assert [c.finished for c in got] == [c.finished for c in want]
        np.testing.assert_allclose([c.cum_logprob for c in got],
                                   [c.cum_logprob for c in want], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# The cached step and the searches on it against the uncached reference


def random_params(seed, vocab_size=9, n_heads=2, d_head=2, n_enc_layers=1,
                  n_dec_layers=1, d_ff=8, max_len=8):
    """A tiny model with N(0, 0.5) weights, so next-token distributions are
    far from flat and searches have clear winners."""
    config = ModelConfig(vocab_size=vocab_size, d_model=n_heads * d_head, n_heads=n_heads,
                         n_enc_layers=n_enc_layers, n_dec_layers=n_dec_layers, d_ff=d_ff,
                         max_len=max_len)
    size = ModelParams(config).n_parameters
    return ModelParams(config, np.random.default_rng(seed).normal(0.0, 0.5, size))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_step_matches_uncached_reference(data):
    params = random_params(
        data.draw(st.integers(0, 2**16), label="seed"),
        vocab_size=data.draw(st.integers(5, 10), label="vocab_size"),
        n_heads=data.draw(st.integers(1, 2), label="n_heads"),
        d_head=data.draw(st.integers(1, 3), label="d_head"),
        n_enc_layers=data.draw(st.integers(1, 2), label="n_enc_layers"),
        n_dec_layers=data.draw(st.integers(1, 2), label="n_dec_layers"),
        d_ff=data.draw(st.integers(1, 6), label="d_ff"),
        max_len=data.draw(st.integers(2, 6), label="max_len"))
    cfg = params.config
    # Contexts may hold any id but PAD (0).
    context = data.draw(st.lists(st.integers(1, cfg.vocab_size - 1), min_size=1,
                                 max_size=cfg.max_len), label="context")
    with T.no_grad():
        enc = encode(params, context)
    state = M.start_decoding(params, enc)
    prefixes = [()]
    for t in range(cfg.max_len):
        tokens = ([cfg.bos_id] if t == 0 else
                  data.draw(st.lists(st.integers(1, cfg.vocab_size - 1),
                                     min_size=len(prefixes), max_size=len(prefixes)),
                            label=f"tokens at {t}"))
        lp, state = M.decode_step(params, state, tokens)
        prefixes = [p + (tok,) for p, tok in zip(prefixes, tokens)]
        assert lp.shape == (len(prefixes), cfg.vocab_size)
        for row, prefix in zip(lp, prefixes):
            np.testing.assert_allclose(row, reference.decode_step(params, enc, prefix),
                                       rtol=0, atol=1e-12)
        # New beams continue rows of the old ones in any order, some twice.
        parents = data.draw(st.permutations(range(len(prefixes))), label=f"order at {t}")
        parents += data.draw(st.lists(st.integers(0, len(prefixes) - 1), max_size=2),
                             label=f"copies at {t}")
        state = state.reorder(parents)
        prefixes = [prefixes[r] for r in parents]
    assert state.position == cfg.max_len
    with pytest.raises(M.SequenceLengthError):
        M.decode_step(params, state, [cfg.eos_id] * len(prefixes))


def test_beam_search_stops_at_max_len():
    # 8 new tokens under max_len 4: every beam stops at 4 tokens, the last
    # one fed at position 3, the last row of pos_emb.
    params = random_params(5, max_len=4)
    ranked = beam_search(params, [4, 5], cfg(beams_per_group=3, max_new_tokens=8))
    assert max(len(c.token_ids) for c in ranked) == 4
    assert all(len(c.token_ids) == 4 for c in ranked if not c.finished)


@pytest.mark.parametrize("seed", range(6))
def test_searches_on_cached_step_equal_searches_on_uncached_reference(seed):
    params = random_params(seed, vocab_size=10, n_enc_layers=1 + seed % 2,
                           n_dec_layers=2 - seed % 2, max_len=12)
    context = [[4, 7, 5, 6], [7, 8, 6, 4], [9]][seed % 3]
    config = cfg(num_groups=3, beams_per_group=2, diversity_penalty=0.7,
                 no_repeat_ngram=2, max_new_tokens=10, questions_per_product=5)
    vocab = Vocab([f"w{i}" for i in range(6)])
    cached = (diverse_beam_search(params, context, config),
              generate_questions(params, vocab, context, config))
    with T.no_grad():
        enc = encode(params, context)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoding, "decode_step", reference.uncached_seam(enc))
        uncached = (diverse_beam_search(params, context, config),
                    generate_questions(params, vocab, context, config))
    (got_groups, got), (want_groups, want) = cached, uncached
    assert_same_groups(got_groups, want_groups)
    assert got.token_ids == want.token_ids and got.questions == want.questions
    assert got.shortage == want.shortage
    np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# All groups in one time loop against groups run one after another


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_loop_search_equals_sequential_groups(data):
    num_groups = data.draw(st.integers(1, 3), label="num_groups")
    beams = data.draw(st.integers(1, 3), label="beams_per_group")
    params = random_params(
        data.draw(st.integers(0, 2**16), label="seed"),
        vocab_size=data.draw(st.integers(max(5, num_groups * beams), 10), label="vocab_size"),
        n_dec_layers=data.draw(st.integers(1, 2), label="n_dec_layers"),
        max_len=data.draw(st.integers(2, 8), label="max_len"))
    mcfg = params.config
    context = data.draw(st.lists(st.integers(1, mcfg.vocab_size - 1), min_size=1,
                                 max_size=mcfg.max_len), label="context")
    config = cfg(num_groups=num_groups, beams_per_group=beams,
                 diversity_penalty=data.draw(st.sampled_from([0.0, 0.5, 5.0]), label="penalty"),
                 no_repeat_ngram=data.draw(st.integers(0, 3), label="no_repeat_ngram"),
                 length_penalty=data.draw(st.sampled_from([0.0, 1.0, 2.0]), label="alpha"),
                 max_new_tokens=data.draw(st.integers(1, 8), label="max_new_tokens"))
    groups = diverse_beam_search(params, context, config)
    assert_same_groups(groups, reference.sequential_diverse_beam_search(params, context, config))
    if config.diversity_penalty == 0:
        # Groups that never diverge share their state rows, so each equals
        # beam search exactly: no block of other rows rounds them differently.
        assert all(group == beam_search(params, context, config) for group in groups)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_loop_search_equals_sequential_groups_on_tied_tables(data):
    # Each beam selects among its k = groups * beams best tokens; the
    # reference sorts every token of the row.
    num_groups = data.draw(st.integers(1, 3), label="num_groups")
    beams = data.draw(st.integers(1, 3), label="beams_per_group")
    vocab_size = data.draw(st.integers(max(5, num_groups * beams), 10), label="vocab_size")
    steps = data.draw(st.integers(1, 5), label="max_new_tokens")
    tables = draw_tables(data, steps, vocab_size, "tables")
    config = cfg(num_groups=num_groups, beams_per_group=beams,
                 diversity_penalty=data.draw(st.sampled_from([0.0, 0.5, 5.0]), label="penalty"),
                 no_repeat_ngram=data.draw(st.integers(0, 2), label="no_repeat_ngram"),
                 max_new_tokens=steps)
    params = tiny_params(vocab_size=vocab_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoding, "decode_step", fake_step(tables))
        assert (stuck_or(diverse_beam_search, params, [4], config)
                == stuck_or(reference.sequential_diverse_beam_search, params, [4], config))


def recording_seam(enc, calls):
    """The uncached reference step, appending to `calls` the BOS-prefixed
    prefixes each call feeds, one per row."""
    step = reference.uncached_seam(enc)

    def record(params, state, tokens):
        lp, after = step(params, state, tokens)
        calls.append(after.prefixes)
        return lp, after

    return record


@pytest.mark.parametrize("seed", range(3))
def test_every_group_advances_in_one_step_call_per_position(seed):
    params = random_params(seed, vocab_size=10, n_dec_layers=1 + seed % 2, max_len=10)
    context = [[4, 7, 5, 6], [7, 8, 6, 4], [9]][seed]
    config = cfg(num_groups=3, beams_per_group=2, diversity_penalty=5.0, no_repeat_ngram=2)
    with T.no_grad():
        enc = encode(params, context)
    calls, sequential_calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoding, "decode_step", recording_seam(enc, calls))
        got = diverse_beam_search(params, context, config)
        mp.setattr(decoding, "decode_step", recording_seam(enc, sequential_calls))
        want = reference.sequential_diverse_beam_search(params, context, config)
    assert_same_groups(got, want)
    # One call per position 0, 1, ..., and each feeds every unfinished beam
    # of every group, a prefix two groups hold only once.
    assert [len(fed[0]) for fed in calls] == list(range(1, len(calls) + 1))
    assert {len(fed[0]) for fed in sequential_calls} == set(range(1, len(calls) + 1))
    for fed in calls:
        assert len(set(fed)) == len(fed)
        assert set(fed) == {prefix for group_fed in sequential_calls
                            if len(group_fed[0]) == len(fed[0]) for prefix in group_fed}
    assert max(len(fed) for fed in calls) > config.beams_per_group


def test_group_finishing_early_leaves_the_others_stepping(monkeypatch):
    # Group 0 takes 4 then EOS at step 1; group 1, pushed off 4 and then off
    # EOS, keeps going alone at step 2.
    tables = [
        [NI, NI, -9.0, -1.5, -1.0],
        [NI, NI, -0.1, -3.0, -2.0],
        [NI, NI, -5.0, -0.5, -3.0],
    ]
    params = tiny_params(vocab_size=5)
    rows = []
    step = fake_step(tables)

    def counting_step(params, state, tokens):
        rows.append(len(tokens))
        return step(params, state, tokens)

    monkeypatch.setattr(decoding, "decode_step", counting_step)
    c = cfg(num_groups=2, beams_per_group=1, diversity_penalty=100.0, max_new_tokens=3)
    g1, g2 = diverse_beam_search(params, [4], c)
    assert rows == [1, 2, 1]
    assert [(cand.token_ids, cand.finished) for cand in g1 + g2] == [((4, 2), True),
                                                                    ((3, 4, 3), False)]
    np.testing.assert_allclose([g1[0].cum_logprob, g2[0].cum_logprob], [-1.1, -4.0])
    assert [g1, g2] == reference.sequential_diverse_beam_search(params, [4], c)


# ---------------------------------------------------------------------------
# Reductions


def test_single_group_dbs_is_beam_search():
    params = tiny_params()
    ctx = [4, 5, 6]
    c = cfg(num_groups=1, beams_per_group=2, diversity_penalty=3.0,
            no_repeat_ngram=2)
    groups = diverse_beam_search(params, ctx, c)
    assert len(groups) == 1
    assert groups[0] == beam_search(params, ctx, c)


def test_zero_penalty_groups_collapse_to_beam_search():
    params = tiny_params()
    ctx = [4, 5, 6]
    c = cfg(num_groups=3, beams_per_group=2, diversity_penalty=0.0)
    groups = diverse_beam_search(params, ctx, c)
    reference = beam_search(params, ctx, c)
    for group in groups:
        assert group == reference


def test_single_beam_matches_greedy():
    params = tiny_params()
    ctx = [5, 7]
    c = cfg(num_groups=1, beams_per_group=1, max_new_tokens=10)
    (cand,) = beam_search(params, ctx, c)
    greedy = reference.greedy_decode(params, ctx, max_new_tokens=10)
    tokens = list(cand.token_ids)
    if cand.finished:
        tokens = tokens[:-1]
    assert tokens == greedy


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracles


def exhaustive_real_model(params, ctx, max_steps, alpha):
    mcfg = params.config
    with T.no_grad():
        enc = encode(params, ctx)
    out = []

    def rec(tokens, cum):
        if tokens and tokens[-1] == mcfg.eos_id:
            out.append(Candidate(tuple(tokens), cum, True))
            return
        if len(tokens) == max_steps:
            out.append(Candidate(tuple(tokens), cum, False))
            return
        lp = reference.decode_step(params, enc, (mcfg.bos_id,) + tuple(tokens))
        for v in range(mcfg.vocab_size):
            if v in (mcfg.pad_id, mcfg.bos_id):
                continue
            rec(tokens + [v], cum + float(lp[v]))

    rec([], 0.0)
    out.sort(key=lambda c: (-ranked_score(c, alpha), reference.tie_key(c.token_ids)))
    return out


def test_wide_beam_matches_exhaustive_enumeration():
    # vocab 5 leaves three emittable tokens (eos, unk, one word): the full
    # candidate tree to depth 3 has 15 leaves, so width 50 enumerates it.
    params = tiny_params(vocab_size=5, seed=11)
    ctx = [4, 4]
    c = cfg(beams_per_group=50, max_new_tokens=3, length_penalty=1.0)
    got = beam_search(params, ctx, c)
    want = exhaustive_real_model(params, ctx, 3, 1.0)
    assert [g.token_ids for g in got] == [w.token_ids for w in want]
    assert [g.finished for g in got] == [w.finished for w in want]
    np.testing.assert_allclose([g.cum_logprob for g in got],
                               [w.cum_logprob for w in want], atol=1e-12)


def test_beam_matches_table_enumeration(monkeypatch):
    rng = np.random.default_rng(7)
    tables = []
    for _ in range(3):
        row = rng.normal(size=5)
        row[0] = NI
        row[1] = NI
        tables.append(row)
    params = tiny_params(vocab_size=5)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    got = beam_search(params, [4], cfg(beams_per_group=60, max_new_tokens=3))
    want = [Candidate(toks, total, fin)
            for toks, total, fin in enumerate_sequences(tables, eos_id=2)
            if np.isfinite(total)]
    want.sort(key=lambda c: (-ranked_score(c, 1.0), reference.tie_key(c.token_ids)))
    assert [g.token_ids for g in got] == [w.token_ids for w in want]
    np.testing.assert_allclose([g.cum_logprob for g in got],
                               [w.cum_logprob for w in want], atol=1e-12)


def test_tied_tokens_keep_the_lowest_ids(monkeypatch):
    # Six tokens tie at -1.0 for three beams; token 9 scores higher and goes
    # first, then the tie keeps the lowest ids.
    tables = [[NI, NI, -2.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -0.5]]
    params = tiny_params(vocab_size=10)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    got = beam_search(params, [4], cfg(beams_per_group=3, max_new_tokens=1))
    assert [c.token_ids for c in got] == [(9,), (3,), (4,)]
    assert [c.cum_logprob for c in got] == [-0.5, -1.0, -1.0]
    # Rows drawn from three values tie often; the first step's picks must be
    # the reference order: higher score first, lower id on ties.
    rng = np.random.default_rng(0)
    for _ in range(20):
        row = rng.choice([-1.0, -2.0, -3.0, NI], size=10)
        row[:2] = NI
        finite = [v for v in range(10) if np.isfinite(row[v])]
        if not finite:
            continue
        monkeypatch.setattr(decoding, "decode_step", fake_step([row]))
        got = beam_search(params, [4], cfg(beams_per_group=3, max_new_tokens=1))
        want = sorted(finite, key=lambda v: (-row[v], v))[:3]
        assert [c.token_ids for c in got] == [(v,) for v in want]


def test_tied_scores_order_by_last_token_then_length_then_ids(monkeypatch):
    # Every candidate scores -1 (length penalty 0): (2,) finishes at step 0,
    # and step 1 gives (3, 2), (3, 3), (4, 2) and (4, 3). Four beams keep the
    # lowest last token first, the shorter of equal last tokens, and the
    # lower ids of equal length: (4, 2) beats (3, 3), and (4, 3) is cut.
    tables = [[NI, NI, -1.0, -1.0, -1.0, NI],
              [NI, NI, 0.0, 0.0, NI, NI]]
    params = tiny_params(vocab_size=6)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    got = beam_search(params, [4], cfg(beams_per_group=4, max_new_tokens=2,
                                       length_penalty=0.0))
    assert [c.token_ids for c in got] == [(2,), (3, 2), (4, 2), (3, 3)]
    assert [c.cum_logprob for c in got] == [-1.0] * 4
    # EOS is the lowest id a search emits, so a shorter candidate never ends
    # in a higher id than a longer one it ties with there: the searches cannot
    # tell "last token, then length" from "length, then last token". The rule
    # as documented is pinned on sequences where the two differ.
    seqs = [(5,), (3, 4), (4, 3), (3, 4, 2), (2,), ()]
    assert sorted(seqs, key=decoding._tie_key) == [(), (2,), (3, 4, 2), (4, 3), (3, 4), (5,)]
    assert sorted(seqs, key=reference.tie_key) == [(), (2,), (3, 4, 2), (4, 3), (3, 4), (5,)]


def test_length_penalty_changes_ranking(monkeypatch):
    # A short finished candidate and a longer, higher-total one swap order
    # as alpha moves the normalization.
    tables = [
        [NI, NI, -3.0, -0.1, -5.0],
        [NI, NI, -0.05, -4.0, -5.0],
    ]
    params = tiny_params(vocab_size=5)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    flat = beam_search(params, [4], cfg(beams_per_group=20, max_new_tokens=2,
                                        length_penalty=0.0))
    norm = beam_search(params, [4], cfg(beams_per_group=20, max_new_tokens=2,
                                        length_penalty=1.0))
    # Raw totals rank (2,) at -3.0 second; per-token normalization drops it
    # behind the length-2 continuations like (4, 2) at -5.05/2.
    assert flat[0].token_ids == (3, 2)
    assert norm[0].token_ids == (3, 2)
    assert flat.index(next(c for c in flat if c.token_ids == (2,))) \
        != norm.index(next(c for c in norm if c.token_ids == (2,)))


# ---------------------------------------------------------------------------
# Diversity penalty semantics (hand-set logits)


def test_penalty_moves_second_group_off_first_token(monkeypatch):
    tables = [
        [NI, NI, -9.0, -1.5, -1.0],
        [NI, NI, -0.1, -3.0, -2.0],
    ]
    params = tiny_params(vocab_size=5)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    c = cfg(num_groups=2, beams_per_group=1, diversity_penalty=100.0,
            max_new_tokens=2)
    g1, g2 = diverse_beam_search(params, [4], c)
    assert g1[0].token_ids == (4, 2) and g1[0].finished
    assert g2[0].token_ids == (3, 4) and not g2[0].finished
    # Candidate scores stay raw model log-probs, never penalized.
    assert np.isclose(g1[0].cum_logprob, -1.1)
    assert np.isclose(g2[0].cum_logprob, -3.5)


def test_penalty_effect_is_monotone(monkeypatch):
    # Step-0 gap between the best token (4) and runner-up (3) is 0.5.
    tables = [[NI, NI, -9.0, -1.5, -1.0]]
    params = tiny_params(vocab_size=5)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    diverged = []
    for pen in [0.0, 0.2, 0.4, 0.6, 5.0, 100.0]:
        c = cfg(num_groups=2, beams_per_group=1, diversity_penalty=pen,
                max_new_tokens=1)
        g1, g2 = diverse_beam_search(params, [4], c)
        if pen == 0.0:
            assert g1 == g2
        diverged.append(g1[0].token_ids != g2[0].token_ids)
    assert diverged == [False, False, False, True, True, True]


def test_penalty_counts_accumulate_across_groups(monkeypatch):
    tables = [[NI, NI, -9.0, -1.5, -1.0]]
    params = tiny_params(vocab_size=5)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    c = cfg(num_groups=3, beams_per_group=1, diversity_penalty=100.0,
            max_new_tokens=1)
    groups = diverse_beam_search(params, [4], c)
    assert [g[0].token_ids[0] for g in groups] == [4, 3, 2]


# ---------------------------------------------------------------------------
# Bans and stuck states


def test_ngram_bans_cases():
    # Literal prefixes, against the search's rule and the reference's own.
    cases = [((1, 2, 3, 1, 2), 2, {3}), ((1, 2, 3, 1, 2), 3, {3}),
             ((1, 2, 3, 1, 2), 1, {1, 2, 3}), ((1, 2, 3, 1, 2), 0, set()),
             ((), 2, set()), ((5,), 3, set()), ((), 1, set()), ((5,), 1, {5}),
             # The last window counts: (7, 7) already holds the bigram (7, 7).
             ((7, 7), 2, {7}), ((7, 7), 3, set()), ((7, 7, 7), 3, {7}),
             ((1, 2, 1, 2), 2, {1}), ((1, 2, 1, 2), 3, {1}), ((4, 5, 4), 3, set()),
             ((5, 4, 6, 5, 4), 3, {6}), ((5, 4, 6, 5, 4), 4, set())]
    for bans in (_ngram_bans, reference.ngram_bans):
        for generated, n, want in cases:
            assert bans(generated, n) == want, (bans.__module__, generated, n)


@pytest.mark.parametrize("n", [1, 2])
def test_no_repeat_ngram_holds_on_outputs(n):
    params = tiny_params()
    c = cfg(num_groups=2, beams_per_group=2, diversity_penalty=1.0,
            no_repeat_ngram=n, max_new_tokens=12)
    for group in diverse_beam_search(params, [4, 5, 6], c):
        for cand in group:
            grams = [cand.token_ids[i:i + n]
                     for i in range(len(cand.token_ids) - n + 1)]
            assert len(grams) == len(set(grams))


def test_all_banned_raises(monkeypatch):
    tables = [[0.0, 0.0, NI, NI, NI]]
    params = tiny_params(vocab_size=5)
    monkeypatch.setattr(decoding, "decode_step", fake_step(tables))
    with pytest.raises(DecodingStuckError):
        beam_search(params, [4], cfg(max_new_tokens=1))
    with pytest.raises(DecodingStuckError):
        reference.greedy_decode(params, [4], max_new_tokens=1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_log_prob_raises_naming_the_step(monkeypatch, value):
    params = tiny_params(vocab_size=5)
    c = cfg(num_groups=2, beams_per_group=1, max_new_tokens=2)
    monkeypatch.setattr(decoding, "decode_step",
                        fake_step([[NI, NI, -1.0, -2.0, -0.5], [NI, NI, -1.0, value, -2.0]]))
    with pytest.raises(M.NonFiniteOutputError,
                       match=rf"^log-prob {value} at step 1 after \(4,\)$"):
        diverse_beam_search(params, [4], c)
    # A banned token is never chosen, so its log-prob does not matter: PAD
    # always, and 4 after (4,) under a unigram ban.
    monkeypatch.setattr(decoding, "decode_step",
                        fake_step([[value, NI, -1.0, -2.0, -0.5], [NI, NI, -1.0, -2.0, value]]))
    assert diverse_beam_search(params, [4], cfg(num_groups=2, beams_per_group=1,
                                                max_new_tokens=2, no_repeat_ngram=1))


def test_a_stuck_product_in_a_chunk_is_named(monkeypatch):
    # 18 products decode in chunks of 16 and 2. At step 1 every token is
    # banned on the rows of the second product of the second chunk.
    params = tiny_params()
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    records = [C.ProductRecord(f"p{i}", "alpha beta", ("q",)) for i in range(18)]
    table = np.array([NI, NI, NI, -1.0, -1.5, -2.0, -2.5, -3.0])

    def step(params, state, tokens):
        _, after = M.decode_step(params, state, tokens)
        lp = np.tile(table, (len(tokens), 1))
        if state.position == 1 and len(state.cross_kv[0][0]) == 2:
            lp[state.product == 1] = NI
        return lp, after

    monkeypatch.setattr(decoding, "decode_step", step)
    with pytest.raises(DecodingStuckError,
                       match=r"^product p17: all 8 tokens banned after \(3,\)$"):
        generate_split(params, vocab, records, cfg(num_groups=2, diversity_penalty=1.0))


def test_non_finite_encoder_rows_are_named_by_their_product():
    # Only p5's context holds the token whose embedding is NaN, so in the one
    # encoder pass over the first chunk only its rows are not finite.
    params = tiny_params()
    params["tok_emb"].data[7] = np.nan
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    contexts = {i: "alpha" if i % 2 else "alpha beta gamma" for i in range(18)}
    contexts[5] = "beta delta"
    records = [C.ProductRecord(f"p{i}", contexts[i], ("q",)) for i in range(18)]
    with pytest.raises(M.NonFiniteOutputError, match=r"^product p5: encoder output is not finite$"):
        generate_split(params, vocab, records, cfg())
    with pytest.raises(M.NonFiniteOutputError, match=r"^encoder output is not finite$"):
        generate_questions(params, vocab, [4, 7], cfg())


def test_every_search_entry_refuses_a_context_holding_pad():
    params = tiny_params()
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    for call in (lambda: generate_questions(params, vocab, [4, 0, 5], cfg()),
                 lambda: generate_questions(params, vocab, [0], cfg()),
                 lambda: decoding._generate(params, vocab, [[4, 5], [4, 5, 0]], cfg(),
                                            ["p0", "p1"]),
                 lambda: beam_search(params, [0, 4], cfg())):
        with pytest.raises(ValueError, match="^context must not contain the PAD id 0$"):
            call()


@pytest.mark.parametrize("alpha, max_new", [(2000.0, 16), (2000, 16), (1100.0, 2),
                                            (-2000.0, 16), (-2000, 16), (-1075.0, 2)])
def test_generation_config_refuses_a_length_penalty_ranking_cannot_divide_by(alpha, max_new):
    # Ranking divides by len ** alpha for lengths up to max_new_tokens.
    with pytest.raises(M.ConfigError, match=rf"^length_penalty {alpha}: max_new_tokens \*\* "
                                            r"length_penalty is (inf|0\.0), not a finite "
                                            r"nonzero divisor$"):
        cfg(length_penalty=alpha, max_new_tokens=max_new)
    cfg(length_penalty=alpha, max_new_tokens=1)  # 1 ** alpha is 1


def test_a_score_that_is_not_finite_is_named_by_its_product(monkeypatch):
    # 2 ** -1070 is a nonzero subnormal, so the config stands, but a
    # two-token question's log-prob divided by it overflows to -inf. Product
    # p0 ranks its one-token question (EOS; 1 ** alpha is 1) first, and that
    # is all it writes; p1 may not end at its first step.
    params = tiny_params()
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    records = [C.ProductRecord(f"p{i}", "alpha beta", ("q",)) for i in range(2)]
    ends = [NI, NI, -0.1, -3.0, -3.0, -3.0, -3.0, -3.0]
    tables = [[ends, ends], [[NI, NI, NI, -3.0, -0.5, -3.0, -3.0, -3.0], ends]]
    monkeypatch.setattr(decoding, "decode_step", fake_product_step(tables))
    config = cfg(max_new_tokens=2, length_penalty=-1070.0, questions_per_product=1)
    assert generate_split(params, vocab, records[:1], config)[0].token_ids == [(2,)]
    with pytest.raises(M.NonFiniteOutputError,
                       match=r"^product p1: length-penalized score -inf is not finite$"):
        generate_split(params, vocab, records, config)
    monkeypatch.setattr(decoding, "decode_step", fake_product_step(tables[1:]))
    with pytest.raises(M.NonFiniteOutputError,
                       match=r"^length-penalized score -inf is not finite$"):
        generate_questions(params, vocab, [4, 5], config)


def test_greedy_never_emits_reserved_tokens():
    params = tiny_params()
    out = reference.greedy_decode(params, [6, 7], max_new_tokens=12)
    assert len(out) <= 12
    assert all(t not in (0, 1, 2) for t in out)
    assert out == reference.greedy_decode(params, [6, 7], max_new_tokens=12)


# ---------------------------------------------------------------------------
# Question generation


def test_generate_questions_contract():
    params = tiny_params()
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    c = cfg(num_groups=3, beams_per_group=2, diversity_penalty=2.0,
            no_repeat_ngram=2, max_new_tokens=8, questions_per_product=6)
    res = generate_questions(params, vocab, [4, 5, 6], c)
    assert len(res.questions) == len(res.scores) == len(res.token_ids)
    assert len(res.questions) <= 6
    assert res.shortage == (len(res.questions) < 6)
    assert len(set(res.token_ids)) == len(res.token_ids)
    for toks in res.token_ids:
        assert toks[-1] == params.config.eos_id
    for q in res.questions:
        assert "<eos>" not in q and "<bos>" not in q and "<pad>" not in q
    assert res.scores == sorted(res.scores, reverse=True)
    again = generate_questions(params, vocab, [4, 5, 6], c)
    assert res.token_ids == again.token_ids
    assert res.scores == again.scores


def test_generate_questions_dedupes_across_groups():
    params = tiny_params()
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    c = cfg(num_groups=3, beams_per_group=2, diversity_penalty=0.0,
            max_new_tokens=8, questions_per_product=6)
    res = generate_questions(params, vocab, [4, 5], c)
    # Zero penalty makes every group identical; the pool must still hold no
    # duplicate token sequences.
    assert len(set(res.token_ids)) == len(res.token_ids)


# ---------------------------------------------------------------------------
# A chunk of products in one search against each product alone


@pytest.fixture(scope="module")
def trained():
    """A d_model 8 model trained for three epochs on 200 products of a
    500-product corpus, whose vocabulary covers the whole train split, and
    the corpus's 50 test-split products."""
    records = C.synth_corpus(seed=0, n_products=500)
    split = C.split(records, seed=0)
    vocab = C.build_vocab(split.train)
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, d_ff=16, max_len=32)
    result = TR.train(C.SplitCorpus(split.train[:200], split.validation[:10], ()), vocab,
                      config, TR.TrainConfig(learning_rate=1e-2, epochs=3), mode="traditional")
    return result.params, vocab, split.test


def assert_same_results(got, want):
    """Equal generations: questions, token ids and shortage flags exactly,
    scores within 1e-12 (other rows in a step block may round differently)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.questions, g.token_ids, g.shortage) == (w.questions, w.token_ids, w.shortage)
        np.testing.assert_allclose(g.scores, w.scores, rtol=0, atol=1e-12)


def test_one_chunk_decodes_every_product_as_it_decodes_alone(trained):
    params, vocab, test_split = trained
    config = GenerationConfig(max_new_tokens=12)
    contexts = [vocab.encode_text(rec.context) for rec in test_split]
    assert len(contexts) == 50 and len({len(ids) for ids in contexts}) >= 3
    alone = [generate_questions(params, vocab, ids, config) for ids in contexts]
    assert sum(len(r.questions) for r in alone) > 100
    # generate_split cuts the split into chunks in order, the last one short.
    assert len(test_split) % decoding.CHUNK
    assert_same_results(generate_split(params, vocab, test_split, config), alone)
    # All 50 in one chunk.
    assert_same_results(decoding._generate(params, vocab, contexts, config), alone)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_chunk_decodes_as_each_product_alone_on_tied_tables(data):
    # Each product has its own tables, so a row's k best tokens taken from
    # another product's row would show.
    num_groups = data.draw(st.integers(1, 3), label="num_groups")
    beams = data.draw(st.integers(1, 3), label="beams_per_group")
    vocab_size = data.draw(st.integers(max(5, num_groups * beams), 10), label="vocab_size")
    steps = data.draw(st.integers(1, 5), label="max_new_tokens")
    tables = [draw_tables(data, steps, vocab_size, f"tables of product {p}")
              for p in range(data.draw(st.integers(2, 4), label="products"))]
    params = tiny_params(vocab_size=vocab_size)
    vocab = Vocab([f"w{i}" for i in range(vocab_size - 4)])
    config = cfg(num_groups=num_groups, beams_per_group=beams,
                 diversity_penalty=data.draw(st.sampled_from([0.0, 0.5, 5.0]), label="penalty"),
                 no_repeat_ngram=data.draw(st.integers(0, 2), label="no_repeat_ngram"),
                 max_new_tokens=steps, questions_per_product=3)
    contexts = [[4], [4, 3], [3, 4, 4], [4, 4, 3, 3]][:len(tables)]
    with pytest.MonkeyPatch.context() as mp:
        alone = []
        for ids, table in zip(contexts, tables):
            mp.setattr(decoding, "decode_step", fake_product_step([table]))
            alone.append(stuck_or(generate_questions, params, vocab, ids, config))
        mp.setattr(decoding, "decode_step", fake_product_step(tables))
        together = stuck_or(decoding._generate, params, vocab, contexts, config)
    assert together == ("stuck" if "stuck" in alone else alone)


def test_generate_split_refuses_a_config_the_model_cannot_serve_before_encoding():
    params = tiny_params(max_len=16)
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    vocab.encode_text = None
    records = [C.ProductRecord("p1", "alpha beta", ("q",))]
    with pytest.raises(M.ConfigError,
                       match=r"^num_groups\*beams_per_group = 10 exceeds vocab size 8$"):
        generate_split(params, vocab, records, cfg(num_groups=5))
    with pytest.raises(M.ConfigError, match="^max_new_tokens 16 cannot fit under max_len 16$"):
        generate_split(params, vocab, records, cfg(max_new_tokens=16))


def test_generate_split_refuses_a_long_context_before_decoding(monkeypatch):
    params = tiny_params(max_len=16)
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    records = [C.ProductRecord("p1", "alpha beta", ("q",)),
               C.ProductRecord("p2", " ".join(["gamma"] * 17), ("q",))]
    monkeypatch.setattr(decoding, "decode_step", None)
    with pytest.raises(M.SequenceLengthError,
                       match="^product p2: context length 17 exceeds max_len 16$"):
        generate_split(params, vocab, records, cfg())


def test_group_capacity_validated():
    params = tiny_params(vocab_size=5)
    vocab = Vocab(["alpha"])
    with pytest.raises(ValueError):
        generate_questions(params, vocab, [4], cfg(num_groups=3, beams_per_group=2))


def test_budget_must_fit_context_window():
    params = tiny_params(max_len=16)
    vocab = Vocab(["alpha", "beta", "gamma", "delta"])
    with pytest.raises(ValueError):
        generate_questions(params, vocab, [4], cfg(max_new_tokens=16))


@pytest.mark.parametrize("bad", [
    dict(num_groups=0),
    dict(beams_per_group=0),
    dict(diversity_penalty=-1.0),
    dict(no_repeat_ngram=-1),
    dict(max_new_tokens=0),
    dict(questions_per_product=0),
] + [{name: value} for name in ("diversity_penalty", "length_penalty")
     for value in (float("nan"), float("inf"), float("-inf"))])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        cfg(**bad)


# ---------------------------------------------------------------------------
# Golden decode: the benchmark's stored checkpoint and generations


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def test_golden_decode_of_the_benchmark_checkpoint():
    # The benchmark's 100 held-out products (corpus seed 0, 500 products,
    # split seed 0), decoded under the default config one at a time and in
    # the CLI's chunks, keep the stored questions and shortage flags exactly
    # and their scores within 1e-12. Only reads the stored files.
    params, tokens = M.load_checkpoint(BENCH_INPUTS / "ltd6.ckpt")
    vocab = Vocab(tokens)
    with open(BENCH_INPUTS / "generations.jsonl", encoding="utf-8") as fh:
        stored = {r["product_id"]: r for r in map(json.loads, fh)}
    split = C.split(C.synth_corpus(0, 500), seed=0)
    held_out = split.validation + split.test
    assert len(held_out) == 100
    chunked = generate_split(params, vocab, held_out, GenerationConfig())
    for rec, in_chunk in zip(held_out, chunked, strict=True):
        alone = generate_questions(params, vocab, vocab.encode_text(rec.context),
                                   GenerationConfig())
        want = stored[rec.product_id]
        for how, got in [("alone", alone), ("chunked", in_chunk)]:
            at = f"{rec.product_id} {how}"
            assert (got.questions, got.shortage) == (want["questions"], want["shortage"]), at
            np.testing.assert_allclose(got.scores, want["scores"], rtol=0, atol=1e-12,
                                       err_msg=at)

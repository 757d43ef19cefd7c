"""Decoding tests: reduction chain (diverse groups -> beam -> greedy),
exhaustive-enumeration oracles, Hamming penalty semantics on hand-set step
tables, n-gram bans, and generation plumbing."""

import numpy as np
import pytest

from pqgen import decoding
from pqgen import tensor as T
from pqgen.corpus import Vocab
from pqgen.decoding import (
    Candidate,
    DecodingStuckError,
    GenerationConfig,
    beam_search,
    diverse_beam_search,
    generate_questions,
    greedy_decode,
    ranked_score,
    _ngram_bans,
    _tie_key,
)
from pqgen.model import ModelConfig, encode, init_params

from .oracles import enumerate_sequences


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
    """decode_step substitute keyed on position only (hand-set logits)."""
    arrs = [np.asarray(t, dtype=np.float64) for t in tables]

    def step(params, enc, prefix):
        return arrs[len(prefix) - 1]

    return step


NI = -np.inf


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
    greedy = greedy_decode(params, ctx, max_new_tokens=10)
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
        lp = decoding.decode_step(params, enc, (mcfg.bos_id,) + tuple(tokens))
        for v in range(mcfg.vocab_size):
            if v in (mcfg.pad_id, mcfg.bos_id):
                continue
            rec(tokens + [v], cum + float(lp[v]))

    rec([], 0.0)
    out.sort(key=lambda c: (-ranked_score(c, alpha), _tie_key(c.token_ids)))
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
    want.sort(key=lambda c: (-ranked_score(c, 1.0), _tie_key(c.token_ids)))
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
    assert _ngram_bans((1, 2, 3, 1, 2), 2) == {3}
    assert _ngram_bans((1, 2, 3, 1, 2), 3) == {3}
    assert _ngram_bans((1, 2, 3, 1, 2), 1) == {1, 2, 3}
    assert _ngram_bans((1, 2, 3, 1, 2), 0) == set()
    assert _ngram_bans((), 2) == set()
    assert _ngram_bans((5,), 3) == set()


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
        greedy_decode(params, [4], max_new_tokens=1)


def test_greedy_never_emits_reserved_tokens():
    params = tiny_params()
    out = greedy_decode(params, [6, 7], max_new_tokens=12)
    assert len(out) <= 12
    assert all(t not in (0, 1, 2) for t in out)
    assert out == greedy_decode(params, [6, 7], max_new_tokens=12)


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


def test_group_capacity_validated():
    params = tiny_params(vocab_size=5)
    with pytest.raises(ValueError):
        diverse_beam_search(params, [4], cfg(num_groups=3, beams_per_group=2))


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
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        cfg(**bad)

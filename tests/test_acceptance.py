"""Binding acceptance checks, one test per criterion.

Each test prints one `ACCEPTANCE n (<name>): PASS|FAIL` verdict line (run
with `pytest -s -v` to see them as they happen); the heavyweight diversity
comparison behind criteria 6 and 7 shares one module-scoped set of eight
training runs.
"""

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pqgen
from pqgen import corpus as C
from pqgen import decoding as D
from pqgen import metrics as MX
from pqgen import model as M
from pqgen import tensor as T
from pqgen import training as TR

from .reference import (beam_search, build_triplets, check_grads, diverse_beam_search,
                        exhaustive_decode, greedy_decode, mul, tmean)
from .oracles import (
    bleu_oracle,
    cluster_counts_scipy,
    distinct_n_oracle,
    e_div_oracle,
    meteor_oracle,
)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. Gradient fidelity


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradient fidelity"):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        x34 = rng.normal(size=(3, 4))
        y34 = rng.normal(size=(3, 4))
        z34 = rng.normal(size=(3, 4))
        x42 = rng.normal(size=(4, 2))
        x54 = rng.normal(size=(5, 4))
        x36 = rng.normal(size=(3, 6))
        b4 = rng.normal(size=4)
        w6 = rng.normal(size=(3, 6))
        # Keep relu probes away from the kink, where FD is meaningless.
        off_kink = x34 + np.sign(x34) * 0.2
        states = rng.normal(size=(4, 3))
        mask = [True, False, True, True]
        w3 = rng.normal(size=3)
        u5, v5 = rng.normal(size=5), rng.normal(size=5)
        logits = rng.normal(size=(4, 6))
        cases = [
            (lambda t: T.tsum(T.matmul(t[0], t[1])), [x34, x42]),
            (lambda t: T.tsum(T.matmul_t(t[0], t[1])), [x34, x54]),
            (lambda t: T.tsum(T.add(t[0], t[1])), [x34, b4]),
            (lambda t: T.tsum(T.add_n([t[0], t[1], t[2]])), [x34, y34, z34]),
            (lambda t: T.tsum(mul(t[0], t[1])), [x34, y34]),
            (lambda t: T.tsum(T.scale(t[0], 1.7)), [x34]),
            (lambda t: T.tsum(T.add_const(t[0], 0.3)), [x34]),
            (lambda t: T.tsum(T.relu(t[0])), [off_kink]),
            (lambda t: T.tsum(t[0]), [x34]),
            (lambda t: tmean(t[0]), [x34]),
            (lambda t: T.tsum(T.embedding(t[0], [1, 3, 3, 0])), [x54]),
            (lambda t: T.tsum(T.slice_cols(t[0], 1, 4)), [x36]),
            (lambda t: T.tsum(T.concat_cols([t[0], t[1]])), [x34, x36]),
            (lambda t: T.tsum(mul(T.softmax(t[0]), t[1])), [x36, w6]),
            (lambda t: T.tsum(mul(T.layer_norm(t[0], t[1], t[2]), t[3])),
             [x36, rng.normal(size=6), rng.normal(size=6), w6]),
            (lambda t: T.tsum(mul(T.mean_pool_sequence(t[0], mask), t[1])),
             [states, w3]),
            (lambda t: T.cosine_similarity(t[0], t[1]), [u5, v5]),
            (lambda t: T.cross_entropy(t[0], [2, 5, 0, 3], pad_id=0), [logits]),
        ]
        # The fused sublayer ops, each with its layer norm and residual:
        # self-attention over one and over several causal segments, whose
        # shorter segments leave padded key slots, cross-attention with two
        # query segments sharing key segments, and the FFN.
        w44 = [rng.normal(size=(4, 4)) for _ in range(4)]
        ln4 = [rng.normal(size=4), rng.normal(size=4)]
        for q_lens, k_lens, causal in (([5], [5], True), ([3, 2, 4], [3, 2, 4], True),
                                       ([5, 2], [4, 3], False)):
            layout = T.AttentionLayout(q_lens, k_lens, causal=causal)
            out_w = rng.normal(size=(sum(q_lens), 4))
            if causal:
                cases.append((lambda t, layout=layout: T.tsum(mul(T.attention_sublayer(
                    *t[:7], 2, layout), t[7])),
                    [rng.normal(size=(sum(q_lens), 4))] + ln4 + w44 + [out_w]))
            else:
                cases.append((lambda t, layout=layout: T.tsum(mul(T.attention_sublayer(
                    *t[:7], 2, layout, t[7]), t[8])),
                    [rng.normal(size=(sum(q_lens), 4))] + ln4 + w44
                    + [rng.normal(size=(sum(k_lens), 4)), out_w]))
        ffn_in = [x34, rng.normal(size=4), rng.normal(size=4), rng.normal(size=(4, 6)),
                  rng.normal(size=6), rng.normal(size=(6, 4)), rng.normal(size=4)]
        # Keep the hidden relu inputs away from the kink, as above.
        normed = T.layer_norm_arrays(x34, ffn_in[1], ffn_in[2])[0]
        assert np.abs(normed @ ffn_in[3] + ffn_in[4]).min() > 0.01
        cases.append((lambda t: T.tsum(mul(T.ffn_sublayer(*t[:7]), t[7])), ffn_in + [y34]))
        # Token plus position embedding, with repeated token and position ids.
        cases.append((lambda t: T.tsum(mul(T.embed(t[0], t[1], [1, 3, 3, 0], [0, 2, 1, 2]),
                                             t[2])),
                      [x54, rng.normal(size=(3, 4)), rng.normal(size=(4, 4))]))
        # The segment ops of the packed step: per-branch CG over two segments,
        # pooling in which a BOS row (id -1) joins no segment, cosines of
        # row pairs in which a row recurs and pairs with itself, and a sum
        # weighted by constant branch counts.
        cases += [
            (lambda t: T.tsum(mul(T.cross_entropy_segments(t[0], [2, 5, 0, 3], [0, 1, 1, 0],
                                                           2), t[1])),
             [logits, rng.normal(size=2)]),
            (lambda t: T.tsum(mul(T.mean_pool_segments(t[0], [1, -1, 0, 1, 0], 2), t[1])),
             [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]),
            (lambda t: T.tsum(mul(T.cosine_similarity_rows(t[0], [0, 2, 2, 4], [1, 2, 3, 0]),
                                  t[1])),
             [x54, rng.normal(size=4)]),
            (lambda t: T.tsum(mul(t[0], t[0]), [[1.0, 3.0, 2.0, 1.0]] * 3), [x34]),
        ]
        for build, arrays in cases:
            check_grads(build, arrays)

        # Whole-loss check: central FD over every parameter of a toy model.
        cfg = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2,
                            n_enc_layers=2, n_dec_layers=2, d_ff=16,
                            max_len=16)
        params = M.init_params(cfg, seed=0)
        trip = TR.Triplet((4, 7, 9, 12, 15), (5, 8, 11), (6, 10, 13, 14))
        T.reset_tape()
        _, total = TR.batch_loss(params, [trip], 0.1)
        T.backward(total)
        # h keeps the probe inside the nearest relu kink's basin; entries
        # below FD resolution are held to an absolute bound instead.
        h = 1e-6
        checked = 0
        worst_rel = worst_abs = 0.0
        for name, tensor in params.items():
            grad = tensor.grad if tensor.grad is not None \
                else np.zeros_like(tensor.data)
            flat = tensor.data.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                with T.no_grad():
                    up = TR.batch_loss(params, [trip], 0.1)[1].item()
                flat[i] = orig - h
                with T.no_grad():
                    down = TR.batch_loss(params, [trip], 0.1)[1].item()
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                diff = abs(gflat[i] - fd)
                rel = diff / (abs(gflat[i]) + abs(fd)) if diff else 0.0
                assert diff <= 1e-8 or rel <= 1e-4, \
                    f"{name}[{i}]: analytic {gflat[i]} vs FD {fd}"
                worst_abs = max(worst_abs, diff)
                if diff > 1e-8:
                    worst_rel = max(worst_rel, rel)
                checked += 1
        elapsed = time.monotonic() - start
        assert checked == params.n_parameters
        assert elapsed < 60.0
        print(f"  {checked} parameters FD-checked, worst abs diff "
              f"{worst_abs:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Loss identities


def test_criterion_2_loss_identities():
    with criterion(2, "loss identities"):
        recs = C.synth_corpus(5, 12, questions_range=(2, 2))
        vocab = C.build_vocab(recs)
        split = C.SplitCorpus(train=tuple(recs[:10]),
                              validation=tuple(recs[10:]), test=())
        mcfg = M.ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                             n_enc_layers=2, n_dec_layers=2, d_ff=16,
                             max_len=32)

        # (a) every logged step satisfies total == cg1 + cg2 + lambda*div
        lam = 0.1
        res = TR.train(split, vocab, mcfg,
                       TR.TrainConfig(lambda_div=lam, learning_rate=1e-3,
                                      batch_size=4, epochs=2, seed=7),
                       mode="ltd")
        steps = [r for r in res.log_rows if r["kind"] == "step"]
        assert steps
        for row in steps:
            assert row["cg2"] is not None and row["div"] is not None
            assert abs(row["total"]
                       - (row["cg1"] + row["cg2"] + lam * row["div"])) <= 1e-12
        # and each triplet's differentiable total agrees with its losses
        for trip in build_triplets(recs, vocab)[:5]:
            T.reset_tape()
            losses, total = TR.batch_loss(res.params, [trip], lam)
            cg1, cg2, div = losses.cg1[0], losses.cg2[0], losses.div[0]
            assert abs((cg1 + cg2 + lam * div) - total.item()) <= 1e-12

        # (b) a question is maximally similar to itself
        with T.no_grad():
            enc = M.encode(res.params, vocab.encode_text(recs[0].context))
            q = tuple(vocab.encode_text(recs[0].questions[0]))
            t1 = M.decode_teacher_forced(res.params, enc, q)
            t2 = M.decode_teacher_forced(res.params, enc, q)
            self_sim = TR.div_loss(t1, t2).item()
        assert self_sim == pytest.approx(1.0, abs=1e-10)

        # (c) lambda=0 pair training walks the same parameter trajectory as
        # plain per-question training over the unrolled pairs
        ltd = TR.train(split, vocab, mcfg,
                       TR.TrainConfig(lambda_div=0.0, learning_rate=1e-3,
                                      batch_size=4, epochs=2, seed=7),
                       mode="ltd")
        trad = TR.train(split, vocab, mcfg,
                        TR.TrainConfig(lambda_div=0.0, learning_rate=1e-3,
                                       batch_size=8, epochs=2, seed=7),
                        mode="traditional")
        worst = max(float(np.max(np.abs(ltd.params[n].data
                                        - trad.params[n].data)))
                    for n in ltd.params.names())
        assert worst <= 1e-10
        print(f"  {len(steps)} step rows exact; self-similarity "
              f"{self_sim:.12f}; lambda=0 worst param gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Overfit sanity


def test_criterion_3_overfit_sanity():
    with criterion(3, "overfit sanity"):
        start = time.monotonic()
        recs = C.synth_corpus(0, 5, questions_range=(1, 1))
        vocab = C.build_vocab(recs)
        split = C.SplitCorpus(train=tuple(recs), validation=tuple(recs),
                              test=())
        mcfg = M.ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2,
                             n_enc_layers=1, n_dec_layers=1, d_ff=64,
                             max_len=64)
        tc = TR.TrainConfig(lambda_div=0.0, learning_rate=3e-3, batch_size=5,
                            epochs=120, seed=0)
        res = TR.train(split, vocab, mcfg, tc, mode="traditional")
        # batch 5 covers all 5 pairs, so each step's objective is the train
        # mean CG and exp of it the train perplexity
        steps = [r for r in res.log_rows if r["kind"] == "step"]
        first = next((r["step"] for r in steps
                      if math.exp(r["objective"]) < 1.1), None)
        assert first is not None and first <= 2000
        for rec in recs:
            got = greedy_decode(res.params, vocab.encode_text(rec.context),
                                max_new_tokens=20)
            assert got == vocab.encode_text(rec.questions[0]), rec.product_id
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        print(f"  perplexity < 1.1 at step {first}; 5/5 gold questions "
              f"reproduced verbatim; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Decoding reductions


def test_criterion_4_decoding_reductions():
    with criterion(4, "decoding reductions"):
        mcfg = M.ModelConfig(vocab_size=8, d_model=8, n_heads=2,
                             n_enc_layers=1, n_dec_layers=1, d_ff=16,
                             max_len=16)
        params = M.init_params(mcfg, seed=3)
        ctx = [4, 5, 6]
        base = D.GenerationConfig(num_groups=1, beams_per_group=2,
                                  diversity_penalty=3.0, length_penalty=1.0,
                                  no_repeat_ngram=2, max_new_tokens=8,
                                  questions_per_product=6)

        # one group == plain beam search
        assert diverse_beam_search(params, ctx, base) \
            == [beam_search(params, ctx, base)]

        # zero penalty: every group collapses to the same beam result
        zero = dataclasses.replace(base, num_groups=3, diversity_penalty=0.0)
        reference = beam_search(params, ctx, zero)
        assert all(g == reference
                   for g in diverse_beam_search(params, ctx, zero))

        # a single beam follows the greedy path
        single = dataclasses.replace(base, beams_per_group=1,
                                     diversity_penalty=0.0,
                                     no_repeat_ngram=0, max_new_tokens=10)
        (cand,) = beam_search(params, [5, 7], single)
        tokens = list(cand.token_ids)
        if cand.finished:
            tokens = tokens[:-1]
        assert tokens == greedy_decode(params, [5, 7], max_new_tokens=10)

        # wide beam == exhaustive enumeration (exact token equality)
        for vocab_size, seed in ((5, 11), (6, 13)):
            toy = M.init_params(
                M.ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2,
                              n_enc_layers=1, n_dec_layers=1, d_ff=16,
                              max_len=16), seed=seed)
            wide = dataclasses.replace(base, beams_per_group=60,
                                       diversity_penalty=0.0,
                                       no_repeat_ngram=0, max_new_tokens=3)
            got = beam_search(toy, [4, 4], wide)
            want = exhaustive_decode(toy, [4, 4], 3, 1.0)
            assert [g.token_ids for g in got] == [w.token_ids for w in want]
            np.testing.assert_allclose([g.cum_logprob for g in got],
                                       [w.cum_logprob for w in want],
                                       atol=1e-12)
        print("  group/beam/greedy reductions exact; wide beam enumerates "
              "the full candidate tree")


# ---------------------------------------------------------------------------
# 5. Metric oracles


ALPHABET = ["a", "b", "c", "d", "e", "f"]


def test_criterion_5_metric_oracles():
    with criterion(5, "metric oracles"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            qs = [[ALPHABET[i]
                   for i in rng.integers(0, len(ALPHABET), rng.integers(1, 6))]
                  for _ in range(5)]
            hyp, refs = qs[0], qs[1:]
            assert MX.bleu(hyp, refs) == pytest.approx(
                bleu_oracle(hyp, refs), abs=1e-9)
            assert MX.meteor_lite(hyp, refs[0]) == pytest.approx(
                meteor_oracle(hyp, refs[0]), abs=1e-9)
            assert MX.avg_bleu(qs[:3], refs) == pytest.approx(
                np.mean([bleu_oracle(h, refs) for h in qs[:3]]), abs=1e-9)
            assert MX.pairwise_bleu(qs) == pytest.approx(
                np.mean([bleu_oracle(q, qs[:i] + qs[i + 1:])
                         for i, q in enumerate(qs)]), abs=1e-9)
            for n in (1, 2, 3):
                want = distinct_n_oracle(qs, n)
                got = MX.distinct_n(qs, n)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-9)
            rows = rng.normal(size=(5, 6))
            assert MX.e_div(rows) == pytest.approx(e_div_oracle(rows),
                                                   abs=1e-9)
            thresholds = [round(0.1 * k, 1) for k in range(1, 20)]
            assert [c for _, c in MX.cluster_count_sweep(rows, thresholds)] \
                == cluster_counts_scipy(rows, thresholds)

        # worked examples at their stated precision
        four = ["a", "b", "c", "d"]
        assert MX.bleu(four, [four]) == pytest.approx(100.0, abs=1e-9)
        assert MX.bleu(["a"], [["b"]]) == 0.0
        assert abs(MX.bleu(four, [four + ["e"]]) - 77.88) < 0.005
        hyps = [four, ["a", "b", "e", "f"], ["e", "f"]]
        assert MX.avg_bleu(hyps, [four]) == pytest.approx(
            np.mean([MX.bleu(h, [four]) for h in hyps]), abs=1e-12)
        assert MX.avg_bleu([four] * 3, [four]) == pytest.approx(100.0)
        assert MX.meteor_lite(four, four) == pytest.approx(99.21875, abs=1e-9)
        assert MX.meteor_lite(["a"], ["a"]) == pytest.approx(50.0, abs=1e-12)
        assert MX.meteor_lite(["a"], ["b"]) == 0.0
        assert MX.distinct_n([["a", "b", "c"], ["a", "b", "d"]], 1) \
            == pytest.approx(4 / 6, abs=1e-12)
        assert MX.distinct_n([four] * 3, 2) == pytest.approx(1 / 3, abs=1e-12)
        assert MX.distinct_n([["a", "b", "c"]], 1) == 1.0
        assert MX.pairwise_bleu([["a", "b"]] * 3) == pytest.approx(100.0)
        assert MX.pairwise_bleu([["a"], ["b"], ["c"]]) == 0.0
        assert MX.e_div(np.array([[0.0, 0.0], [2.0, 2.0]])) \
            == pytest.approx(1.0, abs=1e-12)
        assert MX.e_div(np.array([[0.0, 0.0], [2.0, 8.0]])) \
            == pytest.approx(2.0, abs=1e-12)
        assert MX.e_div(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0
        pairs = np.array([[1.0, 0.0], [0.999, 0.01],
                          [0.0, 1.0], [0.01, 0.999]])
        assert dict(MX.cluster_count_sweep(pairs, [0.5]))[0.5] == 2
        distinct_rows = np.eye(4)
        sweep = dict(MX.cluster_count_sweep(distinct_rows, [0.0, 2.0]))
        assert sweep[0.0] == 4 and sweep[2.0] == 1

        # encoder-based embeddings: deterministic, position-sensitive rows
        emb_params = M.init_params(
            M.ModelConfig(vocab_size=8, d_model=8, n_heads=2, n_enc_layers=1,
                          n_dec_layers=1, d_ff=16, max_len=16), seed=3)
        emb = MX.embed_questions(emb_params, [[4, 5, 6], [4, 5, 6], [6, 5, 4]])
        assert emb.dim == 8
        np.testing.assert_array_equal(emb.rows[0], emb.rows[1])
        assert not np.array_equal(emb.rows[0], emb.rows[2])
        print("  20 random micro-inputs match brute-force oracles; all "
              "worked examples reproduce")


# ---------------------------------------------------------------------------
# 6 + 7. Directional diversity effect and cluster curves


@pytest.fixture(scope="module")
def diversity_runs():
    """Eight seed-matched training runs (pair-regularized vs plain) on a
    500-product corpus, plus test-split generation and scoring."""
    start = time.monotonic()
    records = C.synth_corpus(seed=0, n_products=500)
    split = C.split(records, seed=0)
    vocab = C.build_vocab(split.train)
    mcfg = M.ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2,
                         n_enc_layers=1, n_dec_layers=1, d_ff=64, max_len=64)
    gen_cfg = D.GenerationConfig()
    thresholds = [round(0.05 * k, 2) for k in range(2, 13)]

    def run_mode(mode, lam, seed):
        tc = TR.TrainConfig(lambda_div=lam, learning_rate=1e-3, batch_size=8,
                            epochs=6, seed=seed)
        res = TR.train(split, vocab, mcfg, tc, mode=mode)
        top1, bleus = [], []
        for rec in split.test:
            ids = vocab.encode_text(rec.context)[:mcfg.max_len]
            out = D.generate_questions(res.params, vocab, ids, gen_cfg)
            tokens = C.tokenize(out.questions[0])
            top1.append(tokens)
            bleus.append(MX.bleu(tokens,
                                 [C.tokenize(q) for q in rec.questions]))
        return res.params, top1, float(np.mean(bleus))

    rows = []
    for seed in (0, 1, 2, 3):
        _, reg_top, reg_bleu = run_mode("ltd", 0.1, seed)
        plain_params, plain_top, plain_bleu = run_mode("traditional", 0.0,
                                                       seed)
        # One common embedder (the plain checkpoint) scores both models'
        # generations so the curves are comparable.
        curves = {}
        for label, top in (("reg", reg_top), ("plain", plain_top)):
            emb = MX.embed_questions(plain_params,
                                     [vocab.encode(t) for t in top])
            curves[label] = [c for _, c in
                             MX.cluster_count_sweep(emb, thresholds)]
        rows.append({
            "seed": seed,
            "reg_d3": MX.distinct_n(reg_top, 3),
            "plain_d3": MX.distinct_n(plain_top, 3),
            "reg_bleu": reg_bleu,
            "plain_bleu": plain_bleu,
            "cluster_wins": sum(a >= b for a, b in zip(curves["reg"],
                                                       curves["plain"])),
            "n_thresholds": len(thresholds),
        })
        print(f"  seed {seed}: Dist-3 {rows[-1]['reg_d3']:.4f} vs "
              f"{rows[-1]['plain_d3']:.4f}, BLEU {reg_bleu:.1f} vs "
              f"{plain_bleu:.1f}, clusters >= at "
              f"{rows[-1]['cluster_wins']}/{len(thresholds)} thresholds")
    return {"rows": rows, "seconds": time.monotonic() - start}


def test_criterion_6_directional_diversity_effect(diversity_runs):
    with criterion(6, "directional diversity effect"):
        rows = diversity_runs["rows"]
        wins = sum(r["reg_d3"] > r["plain_d3"] for r in rows)
        gains = [(r["reg_d3"] - r["plain_d3"]) / r["plain_d3"] for r in rows]
        bleu_rels = [(r["reg_bleu"] - r["plain_bleu"]) / r["plain_bleu"]
                     for r in rows]
        mean_gain = float(np.mean(gains))
        mean_bleu_rel = float(np.mean(bleu_rels))
        assert wins >= 3, f"Dist-3 strictly higher in only {wins}/4 seeds"
        assert mean_gain >= 0.05, f"mean Dist-3 gain {mean_gain:+.1%}"
        assert mean_bleu_rel >= -0.10, f"mean BLEU change {mean_bleu_rel:+.1%}"
        assert diversity_runs["seconds"] < 1800.0
        print(f"  Dist-3 strictly higher in {wins}/4 seeds, mean gain "
              f"{mean_gain:+.1%}, mean BLEU change {mean_bleu_rel:+.1%}, "
              f"{diversity_runs['seconds']:.0f}s")


def test_criterion_7_cluster_curve_effect(diversity_runs):
    with criterion(7, "cluster-curve effect"):
        rows = diversity_runs["rows"]
        wins = sum(r["cluster_wins"] > r["n_thresholds"] // 2 for r in rows)
        assert wins >= 3, f"cluster-count majority in only {wins}/4 seeds"
        print(f"  cluster count >= plain at a majority of thresholds in "
              f"{wins}/4 seeds")


# ---------------------------------------------------------------------------
# 8. Pipeline determinism


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "pipeline determinism"):
        # The children run with cwd inside tmp_path, where a relative
        # PYTHONPATH no longer resolves; put the directory holding the pqgen
        # under test first on their import path, keeping any existing entries.
        pkg_file = Path(pqgen.__file__).resolve()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pkg_file.parent.parent)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        workdirs = [tmp_path / run for run in ("first", "second")]
        for workdir in workdirs:
            workdir.mkdir()

        # Guard against a stale installed copy being compared instead.
        probe = subprocess.run(
            [sys.executable, "-c", "import pqgen; print(pqgen.__file__)"],
            cwd=workdirs[0], env=env, capture_output=True, text=True)
        assert probe.returncode == 0, probe.stderr
        assert Path(probe.stdout.strip()).resolve() == pkg_file, probe.stdout

        artifacts = []
        for workdir in workdirs:
            def cli(*args, workdir=workdir):
                proc = subprocess.run([sys.executable, "-m", "pqgen", *args],
                                      cwd=workdir, env=env,
                                      capture_output=True, text=True)
                assert proc.returncode == 0, (
                    f"pqgen {' '.join(args)} exited {proc.returncode}:\n"
                    f"{proc.stderr or proc.stdout}")

            cli("synth", "--seed", "3", "--products", "12",
                "--questions-min", "2", "--questions-max", "2",
                "--out", "corpus.jsonl")
            cli("train", "--corpus", "corpus.jsonl", "--out", "model.ckpt",
                "--seed", "0", "--split-seed", "0", "--d-model", "8",
                "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
                "--d-ff", "16", "--max-len", "32", "--epochs", "3",
                "--batch-size", "4", "--lr", "3e-3")
            cli("generate", "--checkpoint", "model.ckpt",
                "--corpus", "corpus.jsonl", "--out", "gen.jsonl")
            cli("evaluate", "--generations", "gen.jsonl",
                "--gold", "corpus.jsonl", "--checkpoint", "model.ckpt",
                "--report", "report")
            artifacts.append({p.name: p.read_bytes()
                              for p in sorted(workdir.iterdir())})
        first, second = artifacts
        assert first.keys() == second.keys()
        assert len(first) >= 7
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        print(f"  {len(first)} pipeline artifacts byte-identical across two "
              f"fresh-interpreter runs")

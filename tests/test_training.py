import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from pqgen import corpus as C
from pqgen import model as M
from pqgen import tensor as T
from pqgen import training as TR
from . import reference
from .oracles import max_rel_err


def tiny_corpus(n=12, questions_range=(2, 2), seed=5):
    return C.synth_corpus(seed, n, questions_range=questions_range)


def fixed_split(records):
    n = len(records)
    k = max(1, n // 6)
    return C.SplitCorpus(train=tuple(records[:-k]), validation=tuple(records[-k:]),
                         test=tuple(records[-k:]))


def toy_config(vocab, **kw):
    base = dict(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=2,
                n_dec_layers=2, d_ff=16, max_len=32)
    base.update(kw)
    return M.ModelConfig(**base)


def fake_trace(states, mask):
    tensors = [T.Tensor(s) for s in states]
    m = len(mask)
    return M.PackedTrace(layer_states=tensors,
                         logits=T.Tensor(np.zeros((m, 5))),
                         branch_of_row=np.zeros(m, dtype=np.int64),
                         target_mask=np.array(mask, dtype=bool),
                         predict_ids=np.array([4] * (m - 1) + [2]))


# ---------------------------------------------------------------------------
# Triplets


def test_build_triplets_enumerates_pairs():
    recs = [C.ProductRecord("p", "red pan", ("a ?", "b ?", "c ?"))]
    v = C.build_vocab(recs)
    trips = reference.build_triplets(recs, v, max_pairs_per_product=10, seed=0)
    assert len(trips) == 3
    assert all(t.q1_ids != t.q2_ids for t in trips)
    pairs = {frozenset([t.q1_ids, t.q2_ids]) for t in trips}
    a, b, c = (tuple(v.encode_text(q)) for q in ("a ?", "b ?", "c ?"))
    assert pairs == {frozenset([a, b]), frozenset([a, c]), frozenset([b, c])}


def test_build_triplets_single_question_product():
    recs = [C.ProductRecord("p", "ctx", ("only ?",))]
    v = C.build_vocab(recs)
    assert reference.build_triplets(recs, v) == []


def test_build_triplets_cap_and_determinism():
    recs = [C.ProductRecord("p", "ctx", ("a ?", "b ?", "c ?", "d ?", "e ?"))]
    v = C.build_vocab(recs)
    trips = reference.build_triplets(recs, v, max_pairs_per_product=2, seed=3)
    assert len(trips) == 2
    assert trips == reference.build_triplets(recs, v, max_pairs_per_product=2, seed=3)
    assert trips != reference.build_triplets(recs, v, max_pairs_per_product=2, seed=4)


def test_build_triplets_empty_corpus():
    with pytest.raises(C.CorpusSchemaError):
        reference.build_triplets([], C.Vocab(["x"]))


# ---------------------------------------------------------------------------
# Losses


def test_train_config_validation():
    with pytest.raises(ValueError):
        TR.TrainConfig(lambda_div=-0.1)
    TR.TrainConfig(lambda_div=0.0)  # zero is legal


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["lambda_div", "learning_rate"])
def test_train_config_refuses_non_finite_floats(name, value):
    with pytest.raises(ValueError, match="finite"):
        TR.TrainConfig(**{name: value})


def test_cg_loss_perfect_and_uniform():
    mask = [False, True, True]
    logits = np.full((3, 5), -30.0)
    predict = (4, 4, 2)
    for row, tok in enumerate(predict):
        logits[row, tok] = 30.0
    trace = fake_trace([np.zeros((3, 4))], mask)
    trace.logits = T.Tensor(logits)
    trace.predict_ids = np.array(predict)
    assert TR.cg_loss(trace, (4, 4)).item() == pytest.approx(0.0, abs=1e-12)
    trace.logits = T.Tensor(np.zeros((3, 5)))
    assert TR.cg_loss(trace, (4, 4)).item() == pytest.approx(math.log(5.0), abs=1e-12)


def test_cg_loss_target_mismatch():
    trace = fake_trace([np.zeros((3, 4))], [False, True, True])
    with pytest.raises(ValueError):
        TR.cg_loss(trace, (4, 3))


def test_div_loss_self_is_one():
    rng = np.random.default_rng(0)
    states = [rng.normal(size=(4, 6)) for _ in range(2)]
    tr = fake_trace(states, [False, True, True, True])
    assert TR.div_loss(tr, tr).item() == pytest.approx(1.0, abs=1e-10)


def test_div_loss_orthogonal_is_zero():
    s1 = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (2, 1))
    s2 = np.tile(np.array([0.0, 1.0, 0.0, 0.0]), (2, 1))
    t1 = fake_trace([s1], [False, True])
    t2 = fake_trace([s2], [False, True])
    assert TR.div_loss(t1, t2).item() == pytest.approx(0.0, abs=1e-12)


def test_div_loss_layer_average():
    # Layer 1 cosines 1.0, layer 2 cosine 0.0 -> mean 0.5
    a = np.tile(np.array([1.0, 0.0]), (2, 1))
    b = np.tile(np.array([0.0, 1.0]), (2, 1))
    t1 = fake_trace([a, a], [False, True])
    t2 = fake_trace([a, b], [False, True])
    assert TR.div_loss(t1, t2).item() == pytest.approx(0.5, abs=1e-12)


def test_div_loss_symmetry_and_bounds():
    rng = np.random.default_rng(1)
    for _ in range(5):
        t1 = fake_trace([rng.normal(size=(3, 4)) for _ in range(2)], [False, True, True])
        t2 = fake_trace([rng.normal(size=(3, 4)) for _ in range(2)], [False, True, True])
        d12 = TR.div_loss(t1, t2).item()
        d21 = TR.div_loss(t2, t1).item()
        assert abs(d12 - d21) < 1e-12
        assert -1.0 - 1e-12 <= d12 <= 1.0 + 1e-12


def test_div_loss_layer_mismatch():
    t1 = fake_trace([np.ones((2, 3))], [False, True])
    t2 = fake_trace([np.ones((2, 3)), np.ones((2, 3))], [False, True])
    with pytest.raises(ValueError):
        TR.div_loss(t1, t2)


def test_div_loss_excludes_bos_rows():
    # Rows other than the masked ones must not influence the value.
    base = np.array([[9.0, -9.0], [1.0, 2.0], [3.0, 4.0]])
    noisy = base.copy()
    noisy[0] = [55.0, 66.0]  # BOS row
    mask = [False, True, True]
    t1 = fake_trace([base], mask)
    t2 = fake_trace([noisy], mask)
    ref = fake_trace([base], mask)
    assert TR.div_loss(t1, ref).item() == pytest.approx(TR.div_loss(t2, ref).item(),
                                                        abs=1e-12)


def make_triplet(vocab, recs):
    trips = reference.build_triplets(recs, vocab, seed=0)
    return trips[0]


def test_ltd_loss_breakdown_identity_and_lambda_zero():
    # The batch loss of one triplet is the LTD objective cg1 + cg2 + lambda*div.
    recs = tiny_corpus(4)
    v = C.build_vocab(recs)
    params = M.init_params(toy_config(v), seed=0)
    trip = make_triplet(v, recs)
    losses, total = TR.batch_loss(params, [trip], lambda_div=0.1)
    cg1, cg2, div = losses.cg1[0], losses.cg2[0], losses.div[0]
    assert total.item() == pytest.approx(cg1 + cg2 + 0.1 * div, abs=1e-12)
    assert -1.0 <= div <= 1.0

    T.reset_tape()
    losses0, total0 = TR.batch_loss(params, [trip], lambda_div=0.0)
    assert total0.item() == losses0.cg1[0] + losses0.cg2[0]  # exact


def test_ltd_loss_gradient_subset_vs_fd():
    recs = tiny_corpus(3, seed=9)
    v = C.build_vocab(recs)
    cfg = toy_config(v)
    params = M.init_params(cfg, seed=1)
    trip = make_triplet(v, recs)
    T.reset_tape()
    _, total = TR.batch_loss(params, [trip], lambda_div=0.1)
    T.backward(total)
    rng = np.random.default_rng(2)
    for name in ("tok_emb", "enc0.self.wq", "dec1.cross.wv", "dec0.ffn.w1",
                 "cg_head.w", "dec_ln.g"):
        tensor = params[name]
        flat_idx = rng.choice(tensor.data.size, size=min(4, tensor.data.size),
                              replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, tensor.data.shape)
            orig = tensor.data[idx]
            h = 1e-5

            def probe(value):
                tensor.data[idx] = value
                with T.no_grad():
                    _, tot = TR.batch_loss(params, [trip], lambda_div=0.1)
                return tot.item()

            fd = (probe(orig + h) - probe(orig - h)) / (2 * h)
            tensor.data[idx] = orig
            analytic = tensor.grad[idx]
            assert max_rel_err(np.array([analytic]), np.array([fd])) < 1e-4, name


# ---------------------------------------------------------------------------
# Packed batch loss against the per-example reference


def reference_step(params, items, lam):
    """The per-example step the packed forward replaces: one encode per
    context, one teacher-forced decode per branch, scalar losses summed."""
    encs, scalars, cgs, divs = {}, [], [], []
    for ctx, *questions in items:
        enc = encs.get(ctx)
        if enc is None:
            enc = encs[ctx] = M.encode(params, ctx)
        if len(questions) == 2:
            q1, q2 = questions
            t1 = M.decode_teacher_forced(params, enc, q1)
            t2 = M.decode_teacher_forced(params, enc, q2)
            cg1, cg2 = TR.cg_loss(t1, q1), TR.cg_loss(t2, q2)
            scalars += [cg1, cg2]
            cgs += [cg1.item(), cg2.item()]
            if lam > 0:
                div = TR.div_loss(t1, t2)
                scalars.append(T.scale(div, lam))
            else:
                with T.no_grad():
                    div = TR.div_loss(t1, t2)
            divs.append(div.item())
        else:
            trace = M.decode_teacher_forced(params, enc, questions[0])
            cg = TR.cg_loss(trace, questions[0])
            scalars.append(cg)
            cgs.append(cg.item())
    return T.scale(T.add_n(scalars), 1.0 / len(cgs)), cgs, divs


def packed_and_reference(params, items, lam):
    """(objective, per-branch CG, per-pair div, grads) of both paths."""
    out = []
    for run in ("packed", "reference"):
        T.reset_tape()
        T.zero_grad(params.tensors())
        if run == "packed":
            losses, total = TR.batch_loss(params, items, lam)
            objective = T.scale(total, 1.0 / losses.n_branches)
            cgs, k1, k2 = [], 0, 0
            for item in items:  # back to batch branch order
                if len(item) == 3:
                    cgs += [losses.cg1[k1], losses.cg2[k1]]
                    k1 += 1
                else:
                    cgs.append(losses.single_cg[k2])
                    k2 += 1
            divs = list(losses.div)
        else:
            objective, cgs, divs = reference_step(params, items, lam)
        T.backward(objective)
        grads = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                 for n, t in params.items()}
        out.append((objective.item(), np.array(cgs), np.array(divs), grads))
    return out


def assert_packed_matches_reference(params, items, lam):
    (obj, cgs, divs, grads), (r_obj, r_cgs, r_divs, r_grads) = \
        packed_and_reference(params, items, lam)
    assert abs(obj - r_obj) <= 1e-12
    np.testing.assert_allclose(cgs, r_cgs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(divs, r_divs, rtol=0, atol=1e-12)
    for name in grads:
        np.testing.assert_allclose(grads[name], r_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def packed_setup(n=6, questions_range=(2, 4)):
    recs = tiny_corpus(n, questions_range=questions_range, seed=3)
    v = C.build_vocab(recs)
    params = M.init_params(toy_config(v), seed=2)
    return recs, v, params


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_packed_ltd_step_matches_reference(lam):
    recs, v, params = packed_setup()
    items = reference.build_triplets(recs, v, seed=0)[:7]
    assert len({t.context_ids for t in items}) > 1
    assert_packed_matches_reference(params, items, lam)


def test_packed_traditional_step_matches_reference():
    recs, v, params = packed_setup()
    items = [(tuple(v.encode_text(r.context)), tuple(v.encode_text(q)))
             for r in recs[:3] for q in r.questions]
    assert_packed_matches_reference(params, items, 0.0)


def test_packed_ltd_step_with_single_question_product_matches_reference():
    recs, v, params = packed_setup()
    trips = reference.build_triplets(recs, v, seed=0)
    lone = recs[-1]
    single = (tuple(v.encode_text(lone.context)), tuple(v.encode_text(lone.questions[0])))
    items = [trips[0], single, trips[1]]
    assert_packed_matches_reference(params, items, 0.1)


def test_packed_ltd_step_with_a_question_in_three_pairs_matches_reference():
    # A four-question product pairs each question with the three others, so
    # each of its four examples is the branch of three triplets.
    recs, v, params = packed_setup(questions_range=(4, 4))
    items = reference.build_triplets(recs[:2], v, seed=0)[:8]
    branches = Counter((t.context_ids, q) for t in items for q in (t.q1_ids, t.q2_ids))
    assert len(items) == 8 and len({t.context_ids for t in items}) == 2
    assert sorted(branches.values())[-4:] == [3, 3, 3, 3]
    assert_packed_matches_reference(params, items, 0.1)


def test_packed_ltd_step_with_a_triplet_of_two_equal_questions_matches_reference():
    # `_triplets` never pairs a question with itself, but `batch_loss` takes
    # such a pair: both branches are one example, and its div is 1.
    recs, v, params = packed_setup()
    trips = reference.build_triplets(recs, v, seed=0)[:3]
    t = trips[1]
    same = TR.Triplet(t.context_ids, t.q1_ids, t.q1_ids)
    items = [trips[0], same, trips[2]]
    assert_packed_matches_reference(params, items, 0.1)
    losses, _ = TR.batch_loss(params, items, 0.1)
    assert losses.cg1[1] == losses.cg2[1] and losses.div[1] == pytest.approx(1.0, abs=1e-12)


def test_benchmark_shaped_ltd_batch_decodes_each_distinct_example_once(monkeypatch):
    """Eight `ltd` triplets of the benchmark's corpus and model shape: the
    one `decode_packed` call gets each distinct (context, question) once, in
    first-seen order, and decodes sum(len(q) + 1) rows over them."""
    recs = C.synth_corpus(0, 24)
    v = C.build_vocab(recs)
    cfg = M.ModelConfig(vocab_size=len(v), d_model=32, n_heads=2, n_enc_layers=1,
                        n_dec_layers=1, d_ff=64, max_len=64)
    per_product = TR._product_items(recs, v, cfg, "ltd", TR.TrainConfig())
    items = [t for p in per_product for t in p][:8]
    branches = [(t.context_ids, q) for t in items for q in (t.q1_ids, t.q2_ids)]
    distinct = list(dict.fromkeys(branches))
    assert len(distinct) < len(branches) == 16
    calls = []
    decode_packed = TR.decode_packed

    def recorded(params, examples):
        trace = decode_packed(params, examples)
        calls.append((list(examples), trace.logits.shape[0]))
        return trace

    monkeypatch.setattr(TR, "decode_packed", recorded)
    losses, _ = TR.batch_loss(M.init_params(cfg, seed=0), items, 0.1)
    assert calls == [(distinct, sum(len(q) + 1 for _, q in distinct))]
    assert losses.n_branches == 16 and losses.cg1.size == losses.div.size == 8


def test_packed_step_refuses_pads_in_contexts_and_targets():
    # Batches are packed, never padded: a PAD in any context or target of a
    # batch is refused before the forward pass records anything.
    recs, v, params = packed_setup()
    pad = params.config.pad_id
    trips = reference.build_triplets(recs, v, seed=0)[:3]
    t = trips[0]
    bad = [TR.Triplet((pad,) + t.context_ids, t.q1_ids, t.q2_ids),
           TR.Triplet(t.context_ids + (pad, pad), t.q1_ids, t.q2_ids),
           TR.Triplet(t.context_ids, t.q1_ids + (pad,), t.q2_ids),
           TR.Triplet(t.context_ids, t.q1_ids, t.q2_ids[:1] + (pad,) + t.q2_ids[1:]),
           ((pad,) + t.context_ids, t.q1_ids),
           (t.context_ids, t.q1_ids + (pad, pad))]
    for item in bad:
        for lam in (0.1, 0.0):
            T.reset_tape()
            with pytest.raises(ValueError, match="must not contain (the )?PAD"):
                TR.batch_loss(params, trips[1:] + [item], lam)
            assert not T.active_tape()


def test_batch_loss_one_triplet_is_ltd_loss():
    # One triplet's packed loss is the per-example LTD loss of its two
    # branches over one shared encoding: cg1 + cg2 + lambda*div.
    recs, v, params = packed_setup()
    trip = reference.build_triplets(recs, v, seed=0)[0]
    losses, total = TR.batch_loss(params, [trip], 0.1)
    assert losses.n_branches == 2 and losses.single_cg.size == 0
    enc = M.encode(params, trip.context_ids)
    t1 = M.decode_teacher_forced(params, enc, trip.q1_ids)
    t2 = M.decode_teacher_forced(params, enc, trip.q2_ids)
    want = [TR.cg_loss(t1, trip.q1_ids).item(), TR.cg_loss(t2, trip.q2_ids).item(),
            TR.div_loss(t1, t2).item()]
    got = [losses.cg1[0], losses.cg2[0], losses.div[0]]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert total.item() == pytest.approx(want[0] + want[1] + 0.1 * want[2], abs=1e-12)


def test_fused_sublayers_equal_the_separate_ops_on_a_packed_batch(monkeypatch):
    """The packed step with the fused attention and FFN ops gives the floats
    of the same step built from the separate ops, forward and backward."""
    recs, v, params = packed_setup()
    trips = reference.build_triplets(recs, v, seed=0)[:4]
    t = trips[0]  # a longer context and first question make a segment of new lengths
    longer = TR.Triplet(t.context_ids[:1] + t.context_ids + t.context_ids[-1:],
                        t.q1_ids + t.q1_ids[-1:], t.q2_ids)
    lone = recs[-1]
    items = trips + [longer, (tuple(v.encode_text(lone.context)),
                              tuple(v.encode_text(lone.questions[0])))]
    runs = []
    for fused in (True, False):
        if not fused:
            for op in ("attention_sublayer", "ffn_sublayer", "embed"):
                monkeypatch.setattr(T, op, getattr(reference, op))
        T.reset_tape()
        T.zero_grad(params.tensors())
        losses, total = TR.batch_loss(params, items, 0.1)
        T.backward(total)
        runs.append((total.item(), losses, params.grad_vector().copy(), len(T.active_tape())))
    (total, losses, grad, n_ops), (r_total, r_losses, r_grad, r_n_ops) = runs
    assert total == r_total
    for field in ("cg1", "cg2", "div", "single_cg"):
        assert np.array_equal(getattr(losses, field), getattr(r_losses, field)), field
    assert np.array_equal(grad, r_grad)
    # Two decoder layers and two encoder layers: 6 attention and 4 FFN
    # sublayers of 7 separate ops each, and two embeddings of 3.
    assert r_n_ops - n_ops == 6 * 6 + 4 * 6 + 2 * 2


@pytest.mark.parametrize("mode, n_ops", [("ltd", 20), ("traditional", 13)])
def test_benchmark_shaped_step_records_one_op_per_sublayer(monkeypatch, mode, n_ops):
    """On one layer each side, as the benchmark trains: one op per embedding,
    sublayer and final norm (4 encoder, 5 decoder), the CG head, then the
    loss: 3 ops of CG for every step, and 7 more of div for `ltd` (one pool
    and one cosine op per decoder layer, then the layer mean and lambda)."""
    recs = C.synth_corpus(0, 24)
    v = C.build_vocab(recs)
    cfg = M.ModelConfig(vocab_size=len(v), d_model=32, n_heads=2, n_enc_layers=1,
                        n_dec_layers=1, d_ff=64, max_len=64)
    counts = []
    backward = T.backward

    def counted(loss):
        counts.append(len(T.active_tape()))
        backward(loss)

    monkeypatch.setattr(T, "backward", counted)
    TR.train(fixed_split(recs), v, cfg, TR.TrainConfig(lambda_div=0.1, batch_size=8, epochs=1),
             mode=mode)
    assert len(counts) > 1 and set(counts) == {n_ops}


def test_train_tokenizes_each_record_once(monkeypatch):
    recs = tiny_corpus(12)
    split = fixed_split(recs)
    v = C.build_vocab(recs)
    calls = []
    encode_record = TR._encode_record

    def counted(rec, vocab):
        calls.append(rec.product_id)
        return encode_record(rec, vocab)

    monkeypatch.setattr(TR, "_encode_record", counted)
    TR.train(split, v, toy_config(v), TR.TrainConfig(batch_size=4, epochs=3), mode="ltd")
    assert len(calls) == len(split.train) + len(split.validation)


# ---------------------------------------------------------------------------
# Optimizer


def optimizer_setup():
    recs = tiny_corpus(3)
    v = C.build_vocab(recs)
    return M.init_params(toy_config(v), seed=0)


def grad_of(params, grads):
    """The gradient vector of per-tensor gradients {name: array}; zeros for
    every tensor the dict leaves out. Each `.grad` is a view of the vector,
    so the gradients are written into it, not rebound."""
    T.zero_grad(params.tensors())
    for name, g in grads.items():
        params[name].grad[...] = g
    return params.grad_vector()


def test_adam_first_step_magnitude():
    params = optimizer_setup()
    state = TR.AdamState(params)
    before = params["cg_head.w"].data.copy()
    g = np.full_like(before, 0.5)
    TR.adam_step(params, grad_of(params, {"cg_head.w": g}), state, lr=1e-3)
    update = params["cg_head.w"].data - before
    np.testing.assert_allclose(np.abs(update), 1e-3, rtol=1e-6)
    assert np.all(np.sign(update) == -1.0)
    assert state.t == 1


def test_adam_zero_gradient_no_move():
    params = optimizer_setup()
    state = TR.AdamState(params)
    before = {n: t.data.copy() for n, t in params.items()}
    TR.adam_step(params, np.zeros_like(params.vector), state, lr=1e-3)
    for n, t in params.items():
        np.testing.assert_array_equal(t.data, before[n])


def test_adam_shape_mismatch():
    params = optimizer_setup()
    state = TR.AdamState(params)
    before = params.vector.copy()
    for bad in (np.zeros(3), np.zeros(params.n_parameters - 1),
                np.zeros((1, params.n_parameters))):
        with pytest.raises(ValueError):
            TR.adam_step(params, bad, state, lr=1e-3)
    assert state.t == 0
    np.testing.assert_array_equal(params.vector, before)


def test_clip_gradients():
    params = optimizer_setup()
    for t in params.tensors():
        t.grad[...] = 1.0
    grad = params.grad_vector()
    norm = TR.clip_gradients(grad)
    assert norm > 1.0
    assert norm == pytest.approx(math.sqrt(params.n_parameters), rel=1e-12)
    assert math.sqrt(float(np.sum(grad ** 2))) == pytest.approx(1.0, rel=1e-9)
    # A gradient inside the bound is left as it is.
    small = np.full(4, 0.25)
    assert TR.clip_gradients(small) == 0.5
    np.testing.assert_array_equal(small, np.full(4, 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_gradients_leaves_a_non_finite_gradient_as_it_is(bad):
    grad = np.array([bad, 1.0, 2.0])
    norm = TR.clip_gradients(grad)
    assert not math.isfinite(norm)
    np.testing.assert_array_equal(grad, [bad, 1.0, 2.0])  # NaN matches NaN here


def reference_adam_step(data, grads, m, v, t, lr):
    """Adam as a loop over named tensors, a missing gradient counting as 0.0."""
    for name in data:
        g = grads.get(name, 0.0)
        m[name] = TR.ADAM_BETA1 * m[name] + (1.0 - TR.ADAM_BETA1) * g
        v[name] = TR.ADAM_BETA2 * v[name] + (1.0 - TR.ADAM_BETA2) * (g * g)
        m_hat = m[name] / (1.0 - TR.ADAM_BETA1 ** t)
        v_hat = v[name] / (1.0 - TR.ADAM_BETA2 ** t)
        data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + TR.ADAM_EPS)


def test_vector_adam_matches_per_tensor_reference_bit_for_bit():
    params = optimizer_setup()
    state = TR.AdamState(params)
    data = {n: t.data.copy() for n, t in params.items()}
    m = {n: np.zeros_like(d) for n, d in data.items()}
    v = {n: np.zeros_like(d) for n, d in data.items()}
    rng = np.random.default_rng(4)
    for step in range(1, 4):
        grads = {n: rng.normal(0.0, 0.1 * step, size=d.shape) for n, d in data.items()}
        grads["enc0.self.wk"] = np.zeros_like(data["enc0.self.wk"])  # an all-zero slice
        del grads["dec0.ffn.b1"]  # a tensor without a gradient
        reference_adam_step(data, grads, m, v, step, lr=1e-2)
        TR.adam_step(params, grad_of(params, grads), state, lr=1e-2)
        for n, t in params.items():
            np.testing.assert_array_equal(t.data, data[n], err_msg=n)
    assert state.t == 3
    np.testing.assert_array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
    np.testing.assert_array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))


def assert_views_of_vector(params):
    offset = 0
    for name, t in params.items():
        assert np.shares_memory(t.data, params.vector), name
        np.testing.assert_array_equal(t.data.ravel(),
                                      params.vector[offset:offset + t.data.size])
        offset += t.data.size
    assert offset == params.vector.size == params.n_parameters


def test_parameters_are_views_of_one_vector(tmp_path):
    params = optimizer_setup()
    assert_views_of_vector(params)
    params["cg_head.w"].data[0, 0] = 7.0
    assert params.vector[-params["cg_head.w"].data.size] == 7.0

    copy = params.copy()
    assert_views_of_vector(copy)
    assert not np.shares_memory(copy.vector, params.vector)
    np.testing.assert_array_equal(copy.vector, params.vector)
    copy.vector[:] = 0.0
    assert params["cg_head.w"].data[0, 0] == 7.0

    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, params, [f"t{i}" for i in range(params.config.vocab_size - 4)])
    loaded, _ = M.load_checkpoint(path)
    assert_views_of_vector(loaded)
    np.testing.assert_array_equal(loaded.vector, params.vector)


def test_train_steps_keep_parameters_views_of_the_vector(monkeypatch):
    recs = tiny_corpus(12)
    v = C.build_vocab(recs)
    vectors = []
    adam = TR.adam_step

    def checked_adam(params, grad, state, lr):
        adam(params, grad, state, lr)
        assert_views_of_vector(params)
        vectors.append(params.vector.copy())

    monkeypatch.setattr(TR, "adam_step", checked_adam)
    res = TR.train(fixed_split(recs), v, toy_config(v),
                   TR.TrainConfig(batch_size=4, epochs=1, seed=7), mode="ltd")
    assert len(vectors) == 3  # ten training products, one triplet each, four per step
    assert not np.array_equal(vectors[0], vectors[-1])
    assert_views_of_vector(res.params)


def test_train_gradients_are_views_of_one_vector(monkeypatch):
    recs = tiny_corpus(12)
    v = C.build_vocab(recs)
    checked = []
    adam = TR.adam_step

    def checked_adam(params, grad, state, lr):
        assert grad is params.grad_vector()
        offset = 0
        for name, t in params.items():
            assert np.shares_memory(t.grad, grad), name
            assert t.grad.shape == t.data.shape
            np.testing.assert_array_equal(t.grad.ravel(),
                                          grad[offset:offset + t.data.size])
            offset += t.data.size
        assert offset == grad.size and np.any(grad != 0.0)
        checked.append(state.t)
        adam(params, grad, state, lr)

    monkeypatch.setattr(TR, "adam_step", checked_adam)
    TR.train(fixed_split(recs), v, toy_config(v),
             TR.TrainConfig(batch_size=4, epochs=1, seed=7), mode="ltd")
    assert checked == [0, 1, 2]


def test_non_finite_gradient_fails_at_its_step_before_adam(monkeypatch):
    recs = tiny_corpus(12)
    v = C.build_vocab(recs)
    made, after_adam = [], []
    init, backward, adam = TR.init_params, T.backward, TR.adam_step

    def recorded_init(*args, **kwargs):
        made.append(init(*args, **kwargs))
        return made[-1]

    def backward_with_inf(loss):
        backward(loss)
        if len(after_adam) == 1:  # the second step
            made[0]["dec0.ffn.w1"].grad[0, 0] = np.inf

    def recorded_adam(params, grad, state, lr):
        adam(params, grad, state, lr)
        after_adam.append(params.vector.copy())

    monkeypatch.setattr(TR, "init_params", recorded_init)
    monkeypatch.setattr(T, "backward", backward_with_inf)
    monkeypatch.setattr(TR, "adam_step", recorded_adam)
    with pytest.raises(M.NonFiniteOutputError, match="gradient norm inf at step 2"):
        TR.train(fixed_split(recs), v, toy_config(v),
                 TR.TrainConfig(batch_size=4, epochs=1, seed=7), mode="ltd")
    assert len(after_adam) == 1
    assert np.array_equal(made[0].vector, after_adam[0])


@pytest.mark.parametrize("mode", TR.MODES)
@pytest.mark.parametrize("where, change, message", [
    ("validation", dict(context=""), "context is empty"),
    ("train", dict(questions=("what is it ?", "is " * 32)),
     "question plus BOS length 33 exceeds max_len 32"),
])
def test_train_names_a_record_that_does_not_fit_before_any_step(monkeypatch, mode, where,
                                                                change, message):
    split = fixed_split(tiny_corpus(12))
    records = list(getattr(split, where))
    bad = records[-1] = dataclasses.replace(records[-1], **change)
    split = dataclasses.replace(split, **{where: tuple(records)})
    v = C.build_vocab(split.train)
    steps = []
    monkeypatch.setattr(TR, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(M.SequenceLengthError,
                       match=f"^product {bad.product_id}: {re.escape(message)}$"):
        TR.train(split, v, toy_config(v), TR.TrainConfig(batch_size=4, epochs=1), mode=mode)
    assert steps == []


@pytest.mark.parametrize("seed", range(6))
def test_train_checks_every_question_not_only_the_sampled_pairs(monkeypatch, seed):
    # One pair per product: under seeds 1 and 4 no sampled pair of p00000
    # uses its third, 41-token question.
    records = list(tiny_corpus(12))
    first = records[0]
    records[0] = dataclasses.replace(first, questions=first.questions + ("is " * 40 + "?",))
    split = fixed_split(records)
    v = C.build_vocab(split.train)
    steps = []
    monkeypatch.setattr(TR, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(M.SequenceLengthError, match=f"^product {first.product_id}: "
                       "question plus BOS length 42 exceeds max_len 32$"):
        TR.train(split, v, toy_config(v),
                 TR.TrainConfig(batch_size=4, epochs=1, seed=seed, max_pairs_per_product=1),
                 mode="ltd")
    assert steps == []


def test_mean_cg_names_the_product_that_does_not_fit():
    records = list(tiny_corpus(4))
    bad = records[1] = dataclasses.replace(records[1], context="red " * 40)
    v = C.build_vocab(records)
    params = M.init_params(toy_config(v), seed=0)
    with pytest.raises(M.SequenceLengthError,
                       match=f"^product {bad.product_id}: context length 40 exceeds max_len 32$"):
        TR.mean_cg(params, records, v)


def test_ltd_product_items_hold_build_triplets_in_order():
    records = C.synth_corpus(0, 60)
    v = C.build_vocab(records)
    cfg = TR.TrainConfig(max_pairs_per_product=3, seed=4)
    per_product = TR._product_items(records, v, toy_config(v), "ltd", cfg)
    assert len(per_product) == len(records)
    inside = [item for items in per_product for item in items if len(item) == 3]
    assert inside == reference.build_triplets(records, v, cfg.max_pairs_per_product, cfg.seed)
    assert len(inside) > len(records)


# ---------------------------------------------------------------------------
# train()


def run_train(mode, lam, corpus_seed=5, epochs=2, batch=4, n=12, lr=1e-3):
    recs = tiny_corpus(n, seed=corpus_seed)
    v = C.build_vocab(recs)
    split = fixed_split(recs)
    tc = TR.TrainConfig(lambda_div=lam, learning_rate=lr, batch_size=batch,
                        epochs=epochs, seed=7)
    return TR.train(split, v, toy_config(v), tc, mode=mode), v


def test_train_log_contract_and_counts(tmp_path, monkeypatch):
    recs = tiny_corpus(12)
    v = C.build_vocab(recs)
    split = fixed_split(recs)
    tc = TR.TrainConfig(lambda_div=0.1, batch_size=4, epochs=2, seed=7)
    log_path = tmp_path / "log.jsonl"
    res = TR.train(split, v, toy_config(v), tc, mode="ltd", log_path=log_path)
    steps = [r for r in res.log_rows if r["kind"] == "step"]
    epochs = [r for r in res.log_rows if r["kind"] == "epoch"]
    assert len(epochs) == 2
    n_items = len(split.train)  # one triplet per 2-question product
    import math as _m
    assert len(steps) == 2 * _m.ceil(n_items / 4)
    for r in steps:
        assert {"step", "cg1", "cg2", "div", "total", "grad_norm", "clipped"} <= set(r)
        assert r["total"] == pytest.approx(r["cg1"] + r["cg2"] + 0.1 * r["div"],
                                           abs=1e-12)
        assert math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0.0
        assert r["clipped"] is (r["grad_norm"] > TR.CLIP_NORM)
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert len(lines) == len(steps) + len(epochs)
    assert lines == res.log_rows

    # grad_norm is the pre-clip norm of the step's gradients; a clip bound
    # below it makes every step report clipping.
    monkeypatch.setattr(TR, "CLIP_NORM", 1e-6)
    tight = TR.train(split, v, toy_config(v), tc, mode="ltd")
    tight_steps = [r for r in tight.log_rows if r["kind"] == "step"]
    assert tight_steps[0]["grad_norm"] == steps[0]["grad_norm"]
    assert all(r["clipped"] for r in tight_steps)


def test_mixed_batch_rows_add_up_to_the_objective():
    # Replays train's batching: each epoch's product order, then batch_size
    # items a step. A row of triplets and singles logs the singles' mean CG.
    recs = C.synth_corpus(0, 40, questions_range=(1, 3))
    v = C.build_vocab(recs)
    split = fixed_split(recs)
    lam = 0.1
    tc = TR.TrainConfig(lambda_div=lam, batch_size=4, epochs=1, seed=7)
    res = TR.train(split, v, toy_config(v), tc, mode="ltd")
    per_product = TR._product_items(split.train, v, toy_config(v), "ltd", tc)
    order = np.random.default_rng([tc.seed, 1000]).permutation(len(per_product))
    flat = [item for p in order for item in per_product[p]]
    steps = [r for r in res.log_rows if r["kind"] == "step"]
    batches = [flat[i:i + tc.batch_size] for i in range(0, len(flat), tc.batch_size)]
    assert len(steps) == len(batches)
    mixed = 0
    for row, batch in zip(steps, batches):
        n_t = sum(len(item) == 3 for item in batch)
        n_s = len(batch) - n_t
        if n_t and n_s:
            mixed += 1
            parts = n_t * (row["cg1"] + row["cg2"] + lam * row["div"]) + n_s * row["single_cg"]
            assert row["objective"] * (2 * n_t + n_s) == pytest.approx(parts, abs=1e-12)
        else:
            assert "single_cg" not in row
    assert mixed > 0


def test_train_deterministic():
    res1, _ = run_train("ltd", 0.1)
    res2, _ = run_train("ltd", 0.1)
    for name in res1.params.names():
        np.testing.assert_array_equal(res1.params[name].data, res2.params[name].data)
    assert res1.best_val_cg == res2.best_val_cg


def test_lambda_zero_equals_traditional_parameter_wise():
    # 2-question products: one triplet per product unrolls to its two pairs.
    res_ltd, _ = run_train("ltd", 0.0, batch=4)
    res_trad, _ = run_train("traditional", 0.0, batch=8)
    worst = max(float(np.max(np.abs(res_ltd.params[n].data - res_trad.params[n].data)))
                for n in res_ltd.params.names())
    assert worst < 1e-10
    assert res_ltd.best_val_cg == pytest.approx(res_trad.best_val_cg, abs=1e-10)


def test_train_best_checkpoint_retained():
    res, v = run_train("traditional", 0.0, epochs=3)
    vals = [r["val_cg"] for r in res.log_rows if r["kind"] == "epoch"]
    assert res.best_val_cg == min(vals)
    assert res.best_epoch == vals.index(min(vals))


def test_train_keeps_the_first_of_tied_best_epochs(monkeypatch):
    snapshots = []

    def flat_val(params, per_product, batch_size):
        snapshots.append(params.vector.copy())
        return 1.0

    monkeypatch.setattr(TR, "_mean_cg", flat_val)
    res, _ = run_train("traditional", 0.0, epochs=3)
    assert len(snapshots) == 3 and not np.array_equal(snapshots[0], snapshots[-1])
    assert res.best_epoch == 0 and res.best_val_cg == 1.0
    np.testing.assert_array_equal(res.params.vector, snapshots[0])


def test_train_rejects_bad_mode_and_empty_split():
    recs = tiny_corpus(12)
    v = C.build_vocab(recs)
    split = fixed_split(recs)
    with pytest.raises(ValueError):
        TR.train(split, v, toy_config(v), TR.TrainConfig(), mode="nope")
    empty = C.SplitCorpus(train=(), validation=split.validation, test=())
    with pytest.raises(C.DataSplitError):
        TR.train(empty, v, toy_config(v), TR.TrainConfig(), mode="ltd")


def test_mean_cg_matches_manual():
    recs = tiny_corpus(4)
    v = C.build_vocab(recs)
    params = M.init_params(toy_config(v), seed=0)
    manual = []
    for rec in recs:
        for q in rec.questions:
            sll = M.sequence_log_likelihood(params, v.encode_text(rec.context),
                                            v.encode_text(q))
            manual.append(-sll / (len(v.encode_text(q)) + 1))
    assert TR.mean_cg(params, recs, v) == pytest.approx(
        math.fsum(manual) / len(manual), abs=1e-10)


def test_inference_records_nothing_and_train_leaves_an_empty_tape():
    # Every op outside `no_grad` is recorded, so an inference path that forgot
    # it would grow the global tape on every call.
    from pqgen import decoding as D
    from pqgen import metrics as MX

    recs = tiny_corpus(12, questions_range=(1, 3))
    v = C.build_vocab(recs)
    tc = TR.TrainConfig(batch_size=4, epochs=1, seed=7)
    params = TR.train(fixed_split(recs), v, toy_config(v), tc, mode="ltd").params
    assert len(T.active_tape()) == 0
    ctx, q = v.encode_text(recs[0].context), v.encode_text(recs[0].questions[0])
    TR.batch_loss(params, [(ctx, q)], 0.0)  # a step's ops, left on the tape
    before = len(T.active_tape())
    assert before > 0
    config = D.GenerationConfig(max_new_tokens=4)
    gens = [{"product_id": rec.product_id, "questions": list(rec.questions)} for rec in recs]
    for run in (lambda: D.generate_questions(params, v, ctx, config),
                lambda: D.generate_split(params, v, recs[:3], config),
                lambda: MX.evaluate(gens, recs, params, v),
                lambda: TR.mean_cg(params, recs[:3], v),
                lambda: M.sequence_log_likelihood(params, ctx, q)):
        run()
        assert len(T.active_tape()) == before

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqgen import tensor as T
from . import reference
from .reference import attention, mul
from .oracles import fd_grad, max_rel_err

RNG = np.random.default_rng(7)


def leaf(arr):
    """A tensor that learns: it has a zero gradient buffer."""
    data = np.asarray(arr, dtype=np.float64)
    return T.Tensor(data, np.zeros_like(data))


def check_grads(build, arrays, tol=1e-4):
    """build(list of Tensors) -> scalar Tensor; compares backward vs FD."""
    leaves = [leaf(a) for a in arrays]
    T.reset_tape()
    loss = build(leaves)
    T.backward(loss)
    analytic = [lf.grad.copy() for lf in leaves]
    for i, arr in enumerate(arrays):
        def f(x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = x
            with T.no_grad():
                return build([T.Tensor(v) for v in vals]).item()
        numeric = fd_grad(f, arrays[i].copy())
        assert max_rel_err(analytic[i], numeric) < tol, f"input {i}"


# ---------------------------------------------------------------------------
# Worked examples


def test_matmul_worked_example():
    out = T.matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == pytest.approx(11.0, abs=1e-12)


def test_softmax_worked_example():
    out = T.softmax(T.Tensor([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_layer_norm_worked_example():
    x = T.Tensor([1.0, 3.0])
    out = T.layer_norm(x, T.Tensor([1.0, 1.0]), T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_cosine_worked_example():
    c = T.cosine_similarity(T.Tensor([1.0, 1.0]), T.Tensor([1.0, 0.0]))
    assert c.item() == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_cross_entropy_uniform_worked_example():
    logits = T.Tensor(np.zeros((3, 4)))
    loss = T.cross_entropy(logits, [1, 2, 3], pad_id=0)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_sum_of_squares_gradient_worked_example():
    x = leaf([1.0, 2.0])
    loss = T.tsum(mul(x, x))
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Gradient fidelity vs the finite-difference oracle


def test_matmul_grad():
    check_grads(lambda ts: T.tsum(T.matmul(ts[0], ts[1])),
                [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))])


def test_matmul_t_grad():
    check_grads(lambda ts: T.tsum(T.matmul_t(ts[0], ts[1])),
                [RNG.normal(size=(3, 4)), RNG.normal(size=(5, 4))])


def test_add_bias_grad():
    check_grads(lambda ts: T.tsum(T.add(ts[0], ts[1])),
                [RNG.normal(size=(3, 4)), RNG.normal(size=4)])


def test_mul_scale_grad():
    check_grads(lambda ts: T.tsum(T.scale(mul(ts[0], ts[1]), 1.7)),
                [RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))])


def test_relu_grad():
    # Keep values away from the kink, where FD is meaningless.
    x = RNG.normal(size=(4, 3))
    x[np.abs(x) < 0.1] = 0.5
    check_grads(lambda ts: T.tsum(T.relu(ts[0])), [x])


def test_softmax_grad():
    check_grads(lambda ts: T.tsum(mul(T.softmax(ts[0]), ts[1])),
                [RNG.normal(size=(3, 5)), RNG.normal(size=(3, 5))])


def test_layer_norm_grad():
    check_grads(
        lambda ts: T.tsum(mul(T.layer_norm(ts[0], ts[1], ts[2]), ts[3])),
        [RNG.normal(size=(4, 6)), RNG.normal(size=6), RNG.normal(size=6),
         RNG.normal(size=(4, 6))],
    )


def test_mean_pool_grad():
    mask = [True, False, True, True]
    check_grads(
        lambda ts: T.tsum(mul(T.mean_pool_sequence(ts[0], mask), ts[1])),
        [RNG.normal(size=(4, 3)), RNG.normal(size=3)],
    )


def test_cosine_grad():
    check_grads(
        lambda ts: T.cosine_similarity(ts[0], ts[1]),
        [RNG.normal(size=5) + 2.0, RNG.normal(size=5) - 2.0],
    )


def test_cross_entropy_grad():
    targets = [1, 0, 3, 2]  # position 1 is pad and must get zero gradient
    check_grads(lambda ts: T.cross_entropy(ts[0], targets, pad_id=0),
                [RNG.normal(size=(4, 5))])
    x = leaf(RNG.normal(size=(4, 5)))
    T.reset_tape()
    T.backward(T.cross_entropy(x, targets, pad_id=0))
    np.testing.assert_array_equal(x.grad[1], np.zeros(5))


def test_embedding_slice_concat_grad():
    def build(ts):
        e = T.embedding(ts[0], [2, 0, 1])
        parts = [T.slice_cols(e, 0, 2), T.slice_cols(e, 2, 4)]
        return T.tsum(mul(T.concat_cols(parts), ts[1]))

    check_grads(build, [RNG.normal(size=(4, 4)), RNG.normal(size=(3, 4))])


def test_composite_expression_grad():
    def build(ts):
        h = T.relu(T.add(T.matmul(ts[0], ts[1]), ts[2]))
        h = T.layer_norm(h, ts[3], ts[4])
        return T.cross_entropy(T.matmul(h, ts[5]), [1, 2, 0], pad_id=0)

    check_grads(build, [
        RNG.normal(size=(3, 4)), RNG.normal(size=(4, 4)),
        RNG.normal(size=4) * 0.1 + 0.3, RNG.normal(size=4), RNG.normal(size=4),
        RNG.normal(size=(4, 5)),
    ])


# ---------------------------------------------------------------------------
# Fused attention and segment ops


def per_head_attention(q, k, v, n_heads, bias):
    """The per-head composition `attention` replaced, as a reference."""
    dh = q.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = T.scale(T.matmul_t(T.slice_cols(q, lo, hi), T.slice_cols(k, lo, hi)),
                         1.0 / np.sqrt(dh))
        if bias is not None:
            scores = T.add_const(scores, bias)
        heads.append(T.matmul(T.softmax(scores), T.slice_cols(v, lo, hi)))
    return T.concat_cols(heads)


@pytest.mark.parametrize("causal", [False, True])
def test_attention_one_segment_matches_per_head_composition(causal):
    rng = np.random.default_rng(11)
    n, d, heads = 5, 6, 3
    arrays = [rng.normal(size=(n, d)) for _ in range(3)]
    w = rng.normal(size=(n, d))
    bias = np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, -np.inf) if causal else None
    layout = T.AttentionLayout([n], [n], causal=causal)

    results = []
    for build in (lambda q, k, v: attention(q, k, v, heads, layout),
                  lambda q, k, v: per_head_attention(q, k, v, heads, bias)):
        leaves = [leaf(a) for a in arrays]
        T.reset_tape()
        out = build(*leaves)
        T.backward(T.tsum(mul(out, T.Tensor(w))))
        results.append((out.data, [lf.grad for lf in leaves]))
    (fused, fused_grads), (ref, ref_grads) = results
    np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
    for g, r in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)


def test_attention_multi_segment_equals_per_segment():
    rng = np.random.default_rng(12)
    lens, d = [3, 1, 4], 4
    q, k, v = (rng.normal(size=(sum(lens), d)) for _ in range(3))
    out = attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 2,
                      T.AttentionLayout(lens, lens, causal=True)).data
    lo = 0
    for n in lens:
        rows = slice(lo, lo + n)
        alone = attention(T.Tensor(q[rows]), T.Tensor(k[rows]), T.Tensor(v[rows]), 2,
                            T.AttentionLayout([n], [n], causal=True))
        np.testing.assert_allclose(out[rows], alone.data, rtol=0, atol=1e-12)
        lo += n


def test_attention_self_grad_several_segments_causal_pad_keys():
    # Segments 0 and 1 leave padded key slots in the [3, 4] block; the
    # layout hides them.
    lens = [3, 2, 4]
    layout = T.AttentionLayout(lens, lens, causal=True)
    assert (~layout.k_slots).sum() == 3
    check_grads(lambda ts: T.tsum(mul(attention(ts[0], ts[1], ts[2], 2, layout), ts[3])),
                [RNG.normal(size=(9, 4)) for _ in range(4)])


def test_attention_cross_grad_shared_key_segments_and_pad_keys():
    # Segment 0 holds the rows of two decoder branches (2 + 3 query rows)
    # that share one 4-row encoder segment; segment 1 holds one branch, whose
    # 3 keys leave one padded key slot in the [2, 4] block.
    q_lens, k_lens = [5, 2], [4, 3]
    layout = T.AttentionLayout(q_lens, k_lens)
    assert (~layout.k_slots).sum() == 1
    check_grads(lambda ts: T.tsum(mul(attention(ts[0], ts[1], ts[2], 2, layout), ts[3])),
                [RNG.normal(size=(7, 4)), RNG.normal(size=(7, 4)),
                 RNG.normal(size=(7, 4)), RNG.normal(size=(7, 4))])


def test_attention_layout_validation():
    with pytest.raises(T.ShapeError):
        T.AttentionLayout([2, 3], [2, 2], causal=True)
    with pytest.raises(T.ShapeError):
        T.AttentionLayout([2, 0], [2, 1])
    x = T.Tensor(np.zeros((3, 4)))
    with pytest.raises(T.ShapeError):
        attention(x, x, x, 2, T.AttentionLayout([2], [2]))
    with pytest.raises(T.ShapeError):
        attention(x, x, x, 3, T.AttentionLayout([3], [3]))


# "pad keys": the padded key slots of segments shorter than the longest.
SUBLAYER_LAYOUTS = {
    "one segment, causal": ([5], [5], True),
    "several segments, causal, pad keys": ([3, 2, 4], [3, 2, 4], True),
    "cross, shared key segments, pad keys": ([5, 2], [4, 3], False),
}


def run_sublayer(op, arrays):
    """Forward of op over leaves of `arrays`, and every leaf's gradient of
    sum(out * w) for a fixed weight w."""
    leaves = [leaf(a) for a in arrays]
    T.reset_tape()
    out = op(leaves)
    T.backward(T.tsum(mul(out, T.Tensor(np.linspace(-1.0, 1.0, out.data.size)
                                          .reshape(out.shape)))))
    return out.data, [lf.grad for lf in leaves]


@pytest.mark.parametrize("layout_name", sorted(SUBLAYER_LAYOUTS))
def test_fused_sublayer_ops_equal_the_separate_ops(layout_name):
    q_lens, k_lens, causal = SUBLAYER_LAYOUTS[layout_name]
    layout = T.AttentionLayout(q_lens, k_lens, causal=causal)
    rng = np.random.default_rng(13)
    d, d_ff = 4, 6
    x, h_e = rng.normal(size=(sum(q_lens), d)), rng.normal(size=(sum(k_lens), d))
    norm = [rng.normal(size=d) + 1.0, rng.normal(size=d)]
    weights = [rng.normal(size=(d, d)) for _ in range(4)]
    ffn_arrays = [x] + norm + [rng.normal(size=(d, d_ff)), rng.normal(size=d_ff),
                               rng.normal(size=(d_ff, d)), rng.normal(size=d)]
    # Self-attention reads keys and values from the norm of x; cross-attention
    # from the encoder rows h_e.
    attention_arrays = [x] + norm + weights + ([] if causal else [h_e])
    tables = [rng.normal(size=(5, d)), rng.normal(size=(max(q_lens), d))]
    ids = rng.integers(0, 5, size=sum(q_lens))  # repeats ids
    positions = np.concatenate([np.arange(n) for n in q_lens])

    def attend(op):
        return lambda t: op(*t[:7], 2, layout, *t[7:])

    def embed(op):
        return lambda t: op(*t, ids, positions)

    for fused_op, separate_op, inputs in (
            (attend(T.attention_sublayer), attend(reference.attention_sublayer),
             attention_arrays),
            (lambda t: T.ffn_sublayer(*t), lambda t: reference.ffn_sublayer(*t), ffn_arrays),
            (embed(T.embed), embed(reference.embed), tables)):
        fused, separate = run_sublayer(fused_op, inputs), run_sublayer(separate_op, inputs)
        assert np.array_equal(fused[0], separate[0])
        for g, r in zip(fused[1], separate[1]):
            assert np.array_equal(g, r)


def test_fused_sublayer_ops_shape_validation():
    x, w = T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((4, 4)))
    g, b = T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    layout = T.AttentionLayout([3], [3])
    with pytest.raises(T.ShapeError):
        T.attention_sublayer(x, g, b, w, T.Tensor(np.zeros((3, 4))), w, w, 2, layout)
    with pytest.raises(T.ShapeError):
        T.attention_sublayer(x, g, b, w, w, w, T.Tensor(np.zeros(4)), 2, layout)
    with pytest.raises(T.ShapeError):
        T.attention_sublayer(x, T.Tensor(np.ones(3)), b, w, w, w, w, 2, layout)
    with pytest.raises(T.ShapeError):
        T.attention_sublayer(x, g, b, w, w, w, w, 2, T.AttentionLayout([2], [2]))
    with pytest.raises(T.ShapeError):
        T.attention_sublayer(x, g, b, w, w, w, w, 2, layout, T.Tensor(np.zeros((3, 5))))
    with pytest.raises(T.ShapeError):
        T.ffn_sublayer(x, g, b, w, T.Tensor(np.zeros(3)), w, T.Tensor(np.zeros(4)))
    with pytest.raises(T.ShapeError):
        T.ffn_sublayer(x, g, b, w, T.Tensor(np.zeros(4)), T.Tensor(np.zeros((5, 4))),
                       T.Tensor(np.zeros(4)))
    with pytest.raises(T.ShapeError):
        T.ffn_sublayer(x, g, T.Tensor(np.zeros(5)), w, T.Tensor(np.zeros(4)), w,
                       T.Tensor(np.zeros(4)))
    with pytest.raises(T.ShapeError):
        T.embed(w, T.Tensor(np.zeros((4, 3))), [0, 1], [0, 1])
    with pytest.raises(T.ShapeError):
        T.embed(w, w, [0, 1], [0])
    with pytest.raises(IndexError):
        T.embed(w, w, [0, 1], [0, 4])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=9),
                          st.integers(min_value=1, max_value=9)), min_size=1, max_size=5),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 31 - 1))
@example([(1, 1), (1, 1), (1, 1)], True, 0)
@example([(1, 1), (1, 4), (3, 1)], False, 1)
@example([(6, 6)], True, 2)
@example([(6, 2)], False, 3)
@example([(70, 70), (3, 3)], True, 4)
@example([(5, 70), (2, 3)], False, 5)
def test_attention_masks_equal_the_full_mask(segments, causal, seed):
    """A causal layout's [Lq, Lk] triangle and a cross layout's [S, 1, 1, Lk]
    key mask give the bits of the full [S, 1, Lq, Lk] mask, forward and
    backward. Each pair is a segment's (query, key) length; a causal segment
    uses its query length for both."""
    q_lens = [q for q, _ in segments]
    k_lens = q_lens if causal else [k for _, k in segments]
    layout = T.AttentionLayout(q_lens, k_lens, causal=causal)
    full = T.AttentionLayout(q_lens, k_lens, causal=causal)
    full.bias = reference.full_mask_bias(q_lens, k_lens, causal)
    if layout.bias is not None:
        assert layout.bias.shape == ((max(q_lens), max(k_lens)) if causal
                                     else (len(segments), 1, 1, max(k_lens)))
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, 4)) for n in (sum(q_lens), sum(k_lens), sum(k_lens))]
    (out, grads), (full_out, full_grads) = (
        run_sublayer(lambda t, lay=lay: attention(*t, 2, lay), arrays) for lay in (layout, full))
    assert out.tobytes() == full_out.tobytes()
    for g, r in zip(grads, full_grads):
        assert g.tobytes() == r.tobytes()


def test_cross_entropy_segments_matches_per_segment_and_grad():
    logits = RNG.normal(size=(6, 5))
    targets = [1, 0, 3, 2, 0, 4]  # id 0 is a target like any other
    seg = [0, 0, 1, 1, 1, 2]
    got = T.cross_entropy_segments(T.Tensor(logits), targets, seg, 3).data
    for s, rows in enumerate(([0, 1], [2, 3, 4], [5])):
        # The reference's pad id -1 names no target, so it averages every row.
        want = T.cross_entropy(T.Tensor(logits[rows]), [targets[r] for r in rows], pad_id=-1)
        assert got[s] == pytest.approx(want.item(), abs=1e-12)
    check_grads(lambda ts: T.tsum(mul(
        T.cross_entropy_segments(ts[0], targets, seg, 3), ts[1])),
        [logits, RNG.normal(size=3)])
    with pytest.raises(T.EmptyPoolError):
        T.cross_entropy_segments(T.Tensor(logits), targets, [0, 0, 1, 1, 1, 1], 3)


def test_mean_pool_segments_matches_per_segment_and_grad():
    states = RNG.normal(size=(5, 3))
    seg = [1, -1, 0, 1, 0]
    got = T.mean_pool_segments(T.Tensor(states), seg, 2).data
    np.testing.assert_allclose(got[0], states[[2, 4]].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(got[1], states[[0, 3]].mean(axis=0), atol=1e-12)
    check_grads(lambda ts: T.tsum(mul(T.mean_pool_segments(ts[0], seg, 2), ts[1])),
                [states, RNG.normal(size=(2, 3))])
    with pytest.raises(T.EmptyPoolError):
        T.mean_pool_segments(T.Tensor(states), seg, 3)


def test_cosine_similarity_rows_matches_pairwise_and_grad():
    # Pairs of rows of one matrix: row 1 recurs on both sides, row 3 pairs
    # with itself, and row 2 is in no pair.
    x = RNG.normal(size=(5, 4)) + 1.0
    first, second = [0, 1, 3, 4], [1, 4, 3, 1]
    got = T.cosine_similarity_rows(T.Tensor(x), first, second).data
    for k, (i, j) in enumerate(zip(first, second)):
        want = T.cosine_similarity(T.Tensor(x[i]), T.Tensor(x[j])).item()
        assert got[k] == pytest.approx(want, abs=1e-12)
    check_grads(lambda ts: T.tsum(mul(T.cosine_similarity_rows(ts[0], first, second), ts[1])),
                [x, RNG.normal(size=4)])
    with pytest.raises(T.DegenerateVectorError):
        T.cosine_similarity_rows(T.Tensor(np.vstack([np.zeros(4), x[0]])), [0], [1])
    with pytest.raises(T.ShapeError):
        T.cosine_similarity_rows(T.Tensor(x), [0, 1], [1])
    with pytest.raises(IndexError):
        T.cosine_similarity_rows(T.Tensor(x), [0], [5])


def test_weighted_tsum_is_the_weighted_sum_and_all_ones_keep_the_plain_sum_bits():
    x = RNG.normal(size=(7,)) * 1e3
    w = np.array([2.0, 1.0, 3.0, 1.0, 1.0, 2.0, 1.0])
    assert T.tsum(T.Tensor(x), w).item() == pytest.approx(float(x @ w), rel=1e-14)
    assert T.tsum(T.Tensor(x)).item() == T.tsum(T.Tensor(x), np.ones(7)).item() == x.sum()
    check_grads(lambda ts: T.tsum(mul(ts[0], ts[0]), w), [x / 1e3])
    with pytest.raises(T.ShapeError):
        T.tsum(T.Tensor(x), np.ones(6))


# ---------------------------------------------------------------------------
# Tape mechanics


def test_fanout_accumulates_and_each_op_visited_once():
    x = leaf([1.0, 2.0])
    y = mul(x, x)      # one op, consumed twice below
    loss = T.tsum(T.add(y, y))
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 8.0], atol=1e-12)


def test_repeated_backward_accumulates():
    x = leaf([3.0])
    loss = T.tsum(mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * first, atol=1e-12)


def test_leaves_without_a_buffer_are_constants():
    a, b, c = leaf(np.ones(3)), leaf(np.ones(3)), T.Tensor(np.ones(3))
    loss = T.tsum(T.add_n([a, b, c]))  # add_n hands one gradient array to every input
    T.backward(loss)
    assert a.grad is not b.grad
    T.backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
    assert c.grad is None


def test_op_outputs_keep_no_grad():
    x = leaf([1.0, 2.0])
    y = mul(x, x)
    T.backward(T.tsum(y))
    assert y.grad is None
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_no_grad_records_nothing():
    x = leaf([1.0])
    before = len(T.active_tape())
    with T.no_grad():
        mul(x, x)
    assert len(T.active_tape()) == before


def test_tape_reset():
    x = leaf([1.0])
    mul(x, x)
    assert len(T.active_tape()) > 0
    T.reset_tape()
    assert len(T.active_tape()) == 0


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(T.ShapeError):
        T.backward(mul(x, x))


# ---------------------------------------------------------------------------
# Error contracts


def test_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as e:
        T.matmul(leaf(np.zeros((2, 3))), leaf(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_mean_pool_all_masked():
    with pytest.raises(T.EmptyPoolError):
        T.mean_pool_sequence(leaf(np.zeros((3, 2))), [False, False, False])


def test_cosine_zero_vector():
    with pytest.raises(T.DegenerateVectorError):
        T.cosine_similarity(T.Tensor([0.0, 0.0]), T.Tensor([1.0, 0.0]))


def test_cross_entropy_all_pad():
    with pytest.raises(T.EmptyPoolError):
        T.cross_entropy(T.Tensor(np.zeros((2, 4))), [0, 0], pad_id=0)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(T.Tensor(np.zeros((2, 4))), [1, 9], pad_id=0)


def test_embedding_id_out_of_range():
    with pytest.raises(IndexError):
        T.embedding(leaf(np.zeros((3, 2))), [0, 3])


def test_fixed_grad_buffer_is_added_into_in_place():
    buf = np.zeros(3)
    a = T.Tensor(np.ones(3), grad=buf)
    b = leaf(np.ones(3))
    loss = T.tsum(T.add(a, b))  # add hands one gradient array to both inputs
    T.backward(loss)
    T.backward(loss)
    assert a.grad is buf
    np.testing.assert_array_equal(buf, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
    T.zero_grad([a, b])
    assert a.grad is buf
    np.testing.assert_array_equal(buf, np.zeros(3))
    np.testing.assert_array_equal(b.grad, np.zeros(3))


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_row_sums_to_one(row):
    out = T.softmax(T.Tensor(row))
    assert abs(out.data.sum() - 1.0) < 1e-10
    assert np.all(out.data >= 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_layer_norm_output_statistics(seed):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.normal(size=(3, 8)) * 5.0)
    out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cosine_bounded_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=6) + 0.5
    v = rng.normal(size=6) - 0.5
    a = T.cosine_similarity(T.Tensor(u), T.Tensor(v)).item()
    b = T.cosine_similarity(T.Tensor(v), T.Tensor(u)).item()
    assert abs(a - b) < 1e-12
    assert -1.0 - 1e-12 <= a <= 1.0 + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=12),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
@example([], 3, 0)
@example([4, 4, 4], 2, 1)
@example([5, 0, 5, 1, 0], 3, 2)
def test_embedding_backward_equals_add_at(ids, d, seed):
    rng = np.random.default_rng(seed)
    table = leaf(rng.normal(size=(6, d)))
    g = rng.normal(size=(len(ids), d)) * rng.integers(0, 2, size=(len(ids), d))
    g[rng.random(size=g.shape) < 0.2] = -0.0
    T.reset_tape()
    T.embedding(table, ids)
    (_, _, bwd), = T.active_tape()
    want = np.zeros_like(table.data)
    np.add.at(want, np.asarray(ids, dtype=np.int64), g)
    (got,) = bwd(g)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_layer_norm_backward_means_equal_ndarray_mean(seed):
    rng = np.random.default_rng(seed)
    x, gain, g = rng.normal(size=(4, 7)), rng.normal(size=7), rng.normal(size=(4, 7))
    T.reset_tape()
    T.layer_norm(leaf(x), leaf(gain), leaf(np.zeros(7)))
    (_, _, bwd), = T.active_tape()
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-6)
    xhat = centered * inv
    dxhat = g * gain
    want = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert bwd(g)[0].tobytes() == want.tobytes()

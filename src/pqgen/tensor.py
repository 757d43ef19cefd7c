"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation validates shapes eagerly, computes forward with numpy, and
records a closure on a global tape unless it runs under `no_grad`.
`backward` replays the tape once in reverse and adds each leaf's gradient
into its `.grad` buffer in place (repeated calls keep accumulating); a
tensor without a buffer is a constant, and op outputs get none. `zero_grad`
fills every buffer with zeros.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not line up for the requested operation."""


class EmptyPoolError(ValueError):
    """Every position is masked out; there is nothing to reduce over."""


class DegenerateVectorError(ValueError):
    """Cosine similarity against a (near-)zero vector is undefined."""


class Tensor:
    """A float64 ndarray and, on a leaf that learns, its gradient buffer.

    `data` is treated as immutable by all ops, and backward closures read the
    arrays their forward saw. A model's parameter `data` is a view of one
    parameter vector that the optimizer updates in place, so it is mutated
    only after `backward` and before the next `reset_tape`, when no recorded
    closure will run again. Its `grad` is likewise a view of one gradient
    vector.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data, grad: np.ndarray | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# The tape lists executed ops in order. An entry is (inputs, output,
# backward_fn); backward_fn maps the output gradient to one gradient (or None)
# per input, shaped exactly like the input.
TapeEntry = tuple[tuple[Tensor, ...], Tensor, Callable[[np.ndarray], tuple]]
_TAPE: list[TapeEntry] = []
_GRAD_ENABLED = True


def active_tape() -> list[TapeEntry]:
    return _TAPE


def reset_tape() -> None:
    _TAPE.clear()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _emit(inputs: tuple[Tensor, ...], out_data: np.ndarray, bwd) -> Tensor:
    out = Tensor(out_data)
    if _GRAD_ENABLED:
        _TAPE.append((inputs, out, bwd))
    return out


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; visits each recorded op exactly once.

    Each leaf reachable from `loss` (a tensor no recorded op produced) that
    has a `.grad` buffer gets its gradient added (+=) into it in place, so
    calling backward twice on the same tape doubles the gradients. A leaf
    without a buffer is a constant, and op outputs keep no `.grad`.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    flowing: dict[Tensor, np.ndarray] = {loss: np.array(1.0)}
    for inputs, out, bwd in reversed(_TAPE):
        g = flowing.pop(out, None)
        if g is None:
            continue
        for inp, gi in zip(inputs, bwd(g)):
            prev = flowing.get(inp)
            flowing[inp] = gi if prev is None else prev + gi
    # Whatever never appeared as an op output is a leaf.
    for leaf, g in flowing.items():
        if leaf.grad is not None:
            np.add(leaf.grad, g, out=leaf.grad)


def zero_grad(tensors: Iterable[Tensor]) -> None:
    """Fill every gradient buffer with zeros."""
    for t in tensors:
        if t.grad is not None:
            t.grad.fill(0.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product a @ b."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _emit((a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a 2-D a."""
    if a.shape == b.shape:
        def bwd(g):
            return g, g
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def bwd(g):
            return g, g.sum(axis=0)
    else:
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")
    return _emit((a, b), a.data + b.data, bwd)


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shaped tensors, left to right."""
    if not tensors:
        raise ShapeError("add_n needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"add_n shapes incompatible: {shape} vs {t.shape}")
    out = tensors[0].data
    for t in tensors[1:]:
        out = out + t.data

    def bwd(g):
        return tuple(g for _ in tensors)

    return _emit(tuple(tensors), out, bwd)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _emit((x,), x.data * s, bwd)


def tsum(x: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Sum over all elements, yielding a 0-d scalar; with constant `weights`
    shaped like x, the weighted sum (x * weights).sum()."""
    w = np.ones(x.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != x.shape:
        raise ShapeError(f"tsum weights {w.shape} do not match {x.shape}")
    return _emit((x,), np.asarray((x.data * w).sum()), lambda g: (g * w,))


def _gather(table: np.ndarray, ids: Sequence[int]):
    """Row gather table[ids] on plain arrays, and the backward that maps its
    gradient to the table's."""
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"row id out of range [0, {table.shape[0]}): {idx.tolist()}")

    def bwd(g):
        # One bincount over the flat (id, column) indices adds each table
        # row's contributions in id order, from 0.0, as np.add.at would.
        n, d = table.shape
        flat = (idx[:, None] * d + np.arange(d)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)

    return table[idx], bwd


def embed(tok: Tensor, pos: Tensor, ids: Sequence[int], positions: Sequence[int]) -> Tensor:
    """Token plus position embedding, tok[ids] + pos[positions], as one op."""
    tok_rows, tok_bwd = _gather(tok.data, ids)
    pos_rows, pos_bwd = _gather(pos.data, positions)
    if tok_rows.shape != pos_rows.shape:
        raise ShapeError(f"embed: token rows {tok_rows.shape} vs position rows {pos_rows.shape}")
    # pos first: a reverse sweep over the separate ops reaches its gather first.
    return _emit((pos, tok), tok_rows + pos_rows, lambda g: (pos_bwd(g), tok_bwd(g)))


class AttentionLayout:
    """Which key rows each query row of an attention op may see.

    Segment s pairs the next q_lens[s] query rows with the next k_lens[s] key
    rows: the segments tile both row blocks in order, and no row sees a row of
    another segment. `causal` hides later keys (self-attention, so q_lens must
    equal k_lens). Build one per forward pass and share it across layers.
    """

    __slots__ = ("n_q", "n_k", "q_slots", "k_slots", "bias")

    def __init__(self, q_lens: Sequence[int], k_lens: Sequence[int], causal: bool = False):
        q_lens = [int(n) for n in q_lens]
        k_lens = [int(n) for n in k_lens]
        if not q_lens or len(q_lens) != len(k_lens) or min(q_lens + k_lens) < 1:
            raise ShapeError(f"attention segments need matching positive lengths: "
                             f"{q_lens} vs {k_lens}")
        if causal and q_lens != k_lens:
            raise ShapeError("causal attention needs equal query and key segments")
        self.n_q, self.n_k = sum(q_lens), sum(k_lens)
        lq, lk = max(q_lens), max(k_lens)
        # Slot masks of the zero-padded [segments, L] blocks.
        self.q_slots = np.arange(lq) < np.array(q_lens)[:, None]
        self.k_slots = (self.q_slots if q_lens == k_lens
                        else np.arange(lk) < np.array(k_lens)[:, None])
        # Causal: the [Lq, Lk] triangle; it hides every padded key from the real
        # query rows. Else the key mask [S, 1, 1, Lk]: a padded query row (dropped)
        # still sees its segment's first key, so no row is all -inf.
        hidden = (np.arange(lk) > np.arange(lq)[:, None] if causal
                  else ~self.k_slots[:, None, None, :])
        self.bias = np.where(hidden, -np.inf, 0.0) if hidden.any() else None


def to_blocks(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Stacked rows -> zero-padded [segments, L, ...] block."""
    out = np.zeros(slots.shape + x.shape[1:], dtype=x.dtype)
    out[slots] = x
    return out


def softmax_attention(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray,
                      bias: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention on plain head-split arrays: qh is
    [..., Lq, dh], kh and vh are [..., Lk, dh], and `bias` (0 or -inf)
    broadcasts onto the [..., Lq, Lk] scores. Returns the output and the
    attention weights."""
    scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / np.sqrt(qh.shape[-1]))
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    return p @ vh, p


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[..., L, d] -> [..., H, L, d/H]: head h takes columns h*d/H..(h+1)*d/H."""
    return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
            layout: AttentionLayout):
    """Multi-head attention on plain stacked rows: the output rows and the
    backward that maps their gradient to (gq, gk, gv). The head outputs are
    concatenated in `split_heads` order. Each segment of `layout` is gathered
    into a padded [segments, heads, Lq, Lk] block; only that block's softmax
    is kept for the backward pass."""
    if q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention shapes incompatible: q {q.shape}, k {k.shape}, v {v.shape}")
    if (q.shape[0], k.shape[0]) != (layout.n_q, layout.n_k):
        raise ShapeError(f"attention layout covers {layout.n_q} x {layout.n_k} rows, "
                         f"got q {q.shape}, k {k.shape}")
    d = q.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention width {d} not divisible into {n_heads} heads")
    scale_ = 1.0 / np.sqrt(d // n_heads)

    def split(x, slots):                                   # -> [S, H, L, dh]
        return split_heads(to_blocks(x, slots), n_heads)

    def merge(xh, slots):                                  # [S, H, L, dh] -> rows
        return xh.transpose(0, 2, 1, 3).reshape(*slots.shape, d)[slots]

    qh = split(q, layout.q_slots)
    kh = split(k, layout.k_slots)
    vh = split(v, layout.k_slots)
    out, p = softmax_attention(qh, kh, vh, layout.bias)

    def bwd(g):
        gh = split(g, layout.q_slots)
        dp = gh @ vh.transpose(0, 1, 3, 2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale_
        return (merge(ds @ kh, layout.q_slots),
                merge(ds.transpose(0, 1, 3, 2) @ qh, layout.k_slots),
                merge(p.transpose(0, 1, 3, 2) @ gh, layout.k_slots))

    return merge(out, layout.q_slots), bwd


def layer_norm_arrays(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm on plain arrays along the last axis, with population
    variance (plus 1e-6 under the square root): gain * xhat + bias, and the
    backward that maps its gradient to (dx, dgain, dbias)."""
    d = x.shape[-1] if x.ndim else 0
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / d + 1e-6)
    xhat = centered * inv

    def bwd(g):
        dxhat = g * gain
        # Standard layer-norm backward along the last axis.
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        return (inv * (dxhat - m1 - xhat * m2), (g * xhat).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0))

    return xhat * gain + bias, bwd


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """`layer_norm_arrays` as an op."""
    return _emit((x, gain, bias), *layer_norm_arrays(x.data, gain.data, bias.data))


# Each pre-norm sublayer below is one op. It runs the numpy expressions of the
# separate ops it replaces (layer_norm, the body, the residual add), and its
# backward returns gradients in the order a reverse sweep over those ops adds
# them: the residual's, then the norm's; through v, then k, then q.


def attention_sublayer(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, wk: Tensor,
                       wv: Tensor, wo: Tensor, n_heads: int, layout: AttentionLayout,
                       h_e: Tensor | None = None) -> Tensor:
    """x + attention(a @ wq, kv @ wk, kv @ wv) @ wo with a = layer_norm(x):
    kv is a for self-attention, or the encoder rows h_e for cross-attention."""
    kv_in = x if h_e is None else h_e
    if (any(t.data.ndim != 2 for t in (x, kv_in, wq, wk, wv, wo)) or wq.shape[0] != x.shape[1]
            or wk.shape != (kv_in.shape[1], wq.shape[1]) or wv.shape != wk.shape
            or wo.shape != (wq.shape[1], x.shape[1])):
        raise ShapeError(f"attention shapes incompatible: x {x.shape}, kv {kv_in.shape}, "
                         f"wq {wq.shape}, wk {wk.shape}, wv {wv.shape}, wo {wo.shape}")
    a, ln_bwd = layer_norm_arrays(x.data, gain.data, bias.data)
    kv = a if h_e is None else h_e.data
    att, attend_bwd = _attend(a @ wq.data, kv @ wk.data, kv @ wv.data, n_heads, layout)

    def bwd(g):
        gq, gk, gv = attend_bwd(g @ wo.data.T)
        gw = (a.T @ gq, kv.T @ gk, kv.T @ gv, att.T @ g)
        gkv = (gv @ wv.data.T, gk @ wk.data.T)
        if h_e is not None:
            return (g, *ln_bwd(gq @ wq.data.T), *gw, *gkv)
        return (g, *ln_bwd(gkv[0] + gkv[1] + gq @ wq.data.T), *gw)

    inputs = (x, x, gain, bias, wq, wk, wv, wo) + (() if h_e is None else (h_e, h_e))
    return _emit(inputs, x.data + att @ wo.data, bwd)


def ffn_arrays(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, w1: np.ndarray,
               b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """x + relu(a @ w1 + b1) @ w2 + b2 with a = layer_norm(x) on plain arrays,
    and the backward that maps its gradient to `ffn_sublayer`'s inputs."""
    a, ln_bwd = layer_norm_arrays(x, gain, bias)
    pre = a @ w1 + b1
    mask = pre > 0
    h = np.where(mask, pre, 0.0)

    def bwd(g):
        gpre = (g @ w2.T) * mask
        return (g, *ln_bwd(gpre @ w1.T), a.T @ gpre, gpre.sum(axis=0), h.T @ g, g.sum(axis=0))

    return x + (h @ w2 + b2), bwd


def ffn_sublayer(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """`ffn_arrays` as an op."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or w1.shape[0] != x.shape[1] or b1.shape != (w1.shape[1],)
            or w2.shape != (w1.shape[1], x.shape[1]) or b2.shape != (x.shape[1],)):
        raise ShapeError(f"ffn shapes incompatible: x {x.shape}, w1 {w1.shape}, "
                         f"b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}")
    inputs = (x, x, gain, bias, w1, b1, w2, b2)
    return _emit(inputs, *ffn_arrays(*(t.data for t in inputs[1:])))


def logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis (one value per row of a 2-D x),
    shifted by the maximum so that large entries do not overflow."""
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    e = x - m
    return np.log(np.add.reduce(np.exp(e, out=e), axis=-1)) + m[..., 0]


def _segment_counts(segment_ids: np.ndarray, n_segments: int, what: str) -> np.ndarray:
    counts = np.bincount(segment_ids, minlength=n_segments)
    if counts.size != n_segments or not counts.all():
        raise EmptyPoolError(f"{what}: segment ids {sorted(set(segment_ids.tolist()))} "
                             f"do not cover every one of {n_segments} segments")
    return counts


def cross_entropy_segments(logits: Tensor, targets: Sequence[int], segment_ids: Sequence[int],
                           n_segments: int) -> Tensor:
    """Per-segment token-mean negative log-likelihood, as an [n_segments] vector.

    Row t of logits [T, V] predicts targets[t] and belongs to segment
    segment_ids[t].
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_segments logits must be 2-D, got {logits.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    seg = np.asarray(segment_ids, dtype=np.int64)
    if tgt.shape != (logits.shape[0],) or seg.shape != tgt.shape:
        raise ShapeError(f"cross_entropy_segments: logits {logits.shape} vs targets "
                         f"{tgt.shape} and segment ids {seg.shape}")
    vocab = logits.shape[1]
    if tgt.size and (tgt.min() < 0 or tgt.max() >= vocab):
        raise IndexError(f"cross_entropy target id out of range [0, {vocab}): {tgt.tolist()}")
    if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
        raise IndexError(f"segment id out of range [0, {n_segments}): {seg.tolist()}")
    counts = _segment_counts(seg, n_segments, "cross_entropy_segments")
    lse = logsumexp(logits.data)
    rows = np.arange(tgt.size)
    nll = lse - logits.data[rows, tgt]
    loss = np.bincount(seg, weights=nll, minlength=n_segments) / counts

    def bwd(g):
        # [T, V] blocks are the largest arrays of a packed step: work in place.
        gx = logits.data - lse[:, None]
        np.exp(gx, out=gx)  # softmax rows
        gx[rows, tgt] -= 1.0
        gx *= (g / counts)[seg][:, None]
        return (gx,)

    return _emit((logits,), loss, bwd)


def mean_pool_segments(states: Tensor, segment_ids: Sequence[int], n_segments: int) -> Tensor:
    """[n_segments, d]: row s is the mean of the rows of states[T, d] whose
    segment id is s; rows with a negative id belong to no segment."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if states.data.ndim != 2 or seg.shape != (states.shape[0],):
        raise ShapeError(f"mean_pool_segments: states {states.shape} vs "
                         f"segment ids {seg.shape}")
    if seg.size and seg.max() >= n_segments:
        raise IndexError(f"segment id out of range [0, {n_segments}): {seg.tolist()}")
    member = seg >= 0
    counts = _segment_counts(seg[member], n_segments, "mean_pool_segments")
    weights = np.zeros((n_segments, seg.size))
    weights[seg[member], np.flatnonzero(member)] = 1.0 / counts[seg[member]]

    def bwd(g):
        return (weights.T @ g,)

    return _emit((states,), weights @ states.data, bwd)


def cosine_similarity_rows(x: Tensor, first: Sequence[int], second: Sequence[int]) -> Tensor:
    """Cosine similarity of rows first[k] and second[k] of a 2-D x, as an
    [n] vector. The backward adds each row's gradients by one bincount, as
    an embedding gather's does."""
    i, j = np.asarray(first, dtype=np.int64), np.asarray(second, dtype=np.int64)
    if x.data.ndim != 2 or i.ndim != 1 or i.shape != j.shape:
        raise ShapeError(f"cosine_similarity_rows needs a 2-D x and matching 1-D row ids: "
                         f"{x.shape}, {i.shape} vs {j.shape}")
    rows, gather_bwd = _gather(x.data, np.concatenate([i, j]))
    u, v = rows[:i.size], rows[i.size:]
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    if nu.size and min(nu.min(), nv.min()) < 1e-12:
        raise DegenerateVectorError(f"cosine_similarity_rows: a row norm is below 1e-12 "
                                    f"(min {min(nu.min(), nv.min()):.3e})")
    nuv = nu * nv
    c = (u * v).sum(axis=1) / nuv

    def bwd(g):
        du = g[:, None] * (v / nuv[:, None] - (c / (nu * nu))[:, None] * u)
        dv = g[:, None] * (u / nuv[:, None] - (c / (nv * nv))[:, None] * v)
        return (gather_bwd(np.concatenate([du, dv])),)

    return _emit((x,), c, bwd)


# Of the ops below, `training.div_loss` (the per-example reference of the packed step) runs
# `mean_pool_sequence` and `cosine_similarity`. The rest serve only the tests and perfbench's
# traced run, which wraps each by name (`perfbench/layers.py`, `TENSOR_OPS`).
def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T without materializing a transpose op."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"matmul_t shapes incompatible: {a.shape} @ {b.shape}.T")
    out = a.data @ b.data.T

    def bwd(g):
        return g @ b.data, g.T @ a.data

    return _emit((a, b), out, bwd)


def add_const(x: Tensor, c) -> Tensor:
    """Add a constant array (no gradient into c); result keeps x's shape."""
    c = np.asarray(c, dtype=np.float64)
    if np.broadcast_shapes(x.shape, c.shape) != x.shape:
        raise ShapeError(f"add_const would change shape: {x.shape} + {c.shape}")

    def bwd(g):
        return (g,)

    return _emit((x,), x.data + c, bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

    return _emit((x,), np.where(mask, x.data, 0.0), bwd)


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row gather: out[t] = table[ids[t]]."""
    rows, bwd = _gather(table.data, ids)
    return _emit((table,), rows, lambda g: (bwd(g),))


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"slice_cols [{lo}:{hi}] invalid for shape {x.shape}")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        return (gx,)

    return _emit((x,), x.data[:, lo:hi].copy(), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(f"concat_cols row mismatch: {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]].copy() for i in range(len(parts)))

    return _emit(tuple(parts), np.concatenate([p.data for p in parts], axis=1), bwd)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis (max subtraction);
    -inf entries become 0."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _emit((x,), s, bwd)


def cross_entropy(logits: Tensor, targets: Sequence[int], pad_id: int) -> Tensor:
    """Token-mean negative log-likelihood over non-pad target positions.

    logits is [T, V]; targets is a length-T id sequence. Positions whose
    target equals pad_id are excluded from the mean.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy logits must be 2-D, got {logits.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.ndim != 1 or tgt.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets length {tgt.shape}")
    vocab = logits.shape[1]
    if tgt.size and (tgt.min() < 0 or tgt.max() >= vocab):
        raise IndexError(f"cross_entropy target id out of range [0, {vocab}): {tgt.tolist()}")
    keep = np.flatnonzero(tgt != pad_id)
    if keep.size == 0:
        raise EmptyPoolError("cross_entropy: all target positions are pad")
    lse = logsumexp(logits.data)
    nll = lse - logits.data[np.arange(tgt.size), tgt]
    loss = nll[keep].mean()

    def bwd(g):
        p = np.exp(logits.data - lse[:, None])  # softmax rows
        gx = np.zeros_like(logits.data)
        gx[keep] = p[keep]
        gx[keep, tgt[keep]] -= 1.0
        return (gx * (float(g) / keep.size),)

    return _emit((logits,), np.asarray(loss), bwd)


def mean_pool_sequence(states: Tensor, mask: Sequence[bool]) -> Tensor:
    """Mean over the rows of states[T, d] where mask is True."""
    if states.data.ndim != 2 or len(mask) != states.shape[0]:
        raise ShapeError(f"mean_pool_sequence: states {states.shape} vs mask length {len(mask)}")
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        raise EmptyPoolError("mean_pool_sequence: every position is masked out")

    def bwd(g):
        gx = np.zeros_like(states.data)
        gx[idx] = g / idx.size
        return (gx,)

    return _emit((states,), states.data[idx].mean(axis=0), bwd)


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the angle between two 1-D vectors, as a 0-d scalar."""
    if u.data.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine_similarity needs matching 1-D vectors: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u.data))
    nv = float(np.linalg.norm(v.data))
    if nu < 1e-12 or nv < 1e-12:
        raise DegenerateVectorError(f"cosine_similarity: norms {nu:.3e}, {nv:.3e} below 1e-12")
    c = float(u.data @ v.data) / (nu * nv)

    def bwd(g):
        g = float(g)
        du = g * (v.data / (nu * nv) - c * u.data / (nu * nu))
        dv = g * (u.data / (nu * nv) - c * v.data / (nv * nv))
        return du, dv

    return _emit((u, v), np.asarray(c), bwd)

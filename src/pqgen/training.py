"""Two fine-tuning regimes over product-question corpora.

`traditional` minimizes token-mean cross entropy over (context, question)
pairs. `ltd` minimizes cg1 + cg2 + lambda * div over question-pair triplets,
where div is the layer-averaged cosine similarity between the two branches'
mean-pooled decoder states; minimizing it pushes paired questions apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import corpus as C
from . import tensor as T
from .fileio import atomic_write
from .corpus import ProductRecord, SplitCorpus, Vocab
# encode, decode_teacher_forced, cg_loss and div_loss are the per-example reference the
# packed step is tested against; perfbench's traced run wraps them by name in this module.
from .model import (ConfigError, ModelConfig, ModelParams,  # noqa: F401
                    NonFiniteOutputError, PackedTrace, check_length, decode_packed,
                    decode_teacher_forced, encode, init_params)
from .tensor import Tensor

MODES = ("traditional", "ltd")

# Adam's moment decay rates and denominator offset (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Bound on the global gradient norm of an optimiser step.
CLIP_NORM = 1.0


@dataclass(frozen=True)
class Triplet:
    product_id: str
    context_ids: tuple[int, ...]
    q1_ids: tuple[int, ...]
    q2_ids: tuple[int, ...]

    def __post_init__(self):
        if self.q1_ids == self.q2_ids:
            raise ValueError(f"triplet questions must differ: {self.q1_ids}")


@dataclass(frozen=True)
class TrainConfig:
    lambda_div: float = 0.1
    learning_rate: float = 1e-4
    batch_size: int = 8
    epochs: int = 3
    seed: int = 0
    max_pairs_per_product: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.lambda_div) and math.isfinite(self.learning_rate)):
            raise ConfigError(f"lambda_div and learning_rate must be finite: {self}")
        if self.lambda_div < 0:
            raise ConfigError(f"lambda_div must be >= 0, got {self.lambda_div}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError(f"invalid training configuration: {self}")
        if self.max_pairs_per_product < 1:
            raise ConfigError("max_pairs_per_product must be >= 1")


@dataclass
class TrainResult:
    params: ModelParams
    log_rows: list[dict]
    best_val_cg: float
    best_epoch: int
    final_val_cg: float


def build_triplets(records: Sequence[ProductRecord], vocab: Vocab,
                   max_pairs_per_product: int = 10, seed: int = 0) -> list[Triplet]:
    """All unordered distinct-question pairs per product, deterministically
    shuffled and capped; single-question products contribute nothing here."""
    if not records:
        raise C.CorpusSchemaError("cannot build triplets from an empty corpus")
    triplets: list[Triplet] = []
    for idx, rec in enumerate(records):
        ctx = tuple(vocab.encode_text(rec.context))
        qs = [tuple(vocab.encode_text(q)) for q in rec.questions]
        pairs = [(qs[i], qs[j]) for i in range(len(qs)) for j in range(i + 1, len(qs))
                 if qs[i] != qs[j]]
        if not pairs:
            continue
        rng = np.random.default_rng([seed, idx])
        order = rng.permutation(len(pairs))[:max_pairs_per_product]
        for k in order:
            q1, q2 = pairs[k]
            triplets.append(Triplet(rec.product_id, ctx, q1, q2))
    return triplets


def cg_loss(trace: PackedTrace, target_ids: Sequence[int], pad_id: int = C.PAD) -> Tensor:
    """Token-mean cross entropy of a one-branch trace against its shifted target."""
    if tuple(int(i) for i in target_ids) != tuple(int(i) for i in trace.predict_ids[:-1]):
        raise ValueError("cg_loss target does not match the trace's target")
    return T.cross_entropy(trace.logits, trace.predict_ids, pad_id=pad_id)


def div_loss(trace1: PackedTrace, trace2: PackedTrace) -> Tensor:
    """Layer-averaged cosine similarity of two one-branch traces' mean-pooled states."""
    if len(trace1.layer_states) != len(trace2.layer_states):
        raise ValueError(
            f"layer count mismatch: {len(trace1.layer_states)} vs "
            f"{len(trace2.layer_states)}")
    cosines = []
    for s1, s2 in zip(trace1.layer_states, trace2.layer_states):
        p1 = T.mean_pool_sequence(s1, trace1.target_mask)
        p2 = T.mean_pool_sequence(s2, trace2.target_mask)
        cosines.append(T.cosine_similarity(p1, p2))
    return T.scale(T.add_n(cosines), 1.0 / len(cosines))


@dataclass(frozen=True)
class BatchLosses:
    """Loss values of one packed forward, per item in batch order."""
    cg1: np.ndarray        # per triplet: CG loss of its first question
    cg2: np.ndarray        # per triplet: CG loss of its second question
    div: np.ndarray        # per triplet
    single_cg: np.ndarray  # per single (product_id, context_ids, q_ids) item
    n_branches: int        # teacher-forced branches: 2 per triplet, 1 per single


def batch_loss(params: ModelParams, items: Sequence,
               lambda_div: float) -> tuple[BatchLosses, Tensor]:
    """One packed forward over a batch of Triplets and singles; returns the
    per-item values and the differentiable sum of every branch's CG loss
    plus lambda times every triplet's div."""
    examples: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    firsts: list[int] = []
    seconds: list[int] = []
    singles: list[int] = []
    for item in items:
        if isinstance(item, Triplet):
            firsts.append(len(examples))
            seconds.append(len(examples) + 1)
            examples += [(item.context_ids, item.q1_ids), (item.context_ids, item.q2_ids)]
        else:
            _, ctx, q_ids = item
            singles.append(len(examples))
            examples.append((ctx, q_ids))
    trace = decode_packed(params, examples)
    cg = T.cross_entropy_segments(trace.logits, trace.predict_ids, trace.branch_of_row,
                                  len(examples), params.config.pad_id)
    total = T.tsum(cg)
    div = np.zeros(0)
    if firsts:
        if lambda_div == 0.0:
            # Keep the regularizer off the graph so the optimization path is
            # identical to twin CG training.
            with T.no_grad():
                div = _packed_div(trace, firsts, seconds).data
        else:
            div_t = _packed_div(trace, firsts, seconds)
            total = T.add(total, T.scale(T.tsum(div_t), lambda_div))
            div = div_t.data
    losses = BatchLosses(cg1=cg.data[firsts], cg2=cg.data[seconds], div=div,
                         single_cg=cg.data[singles], n_branches=len(examples))
    return losses, total


def _packed_div(trace: PackedTrace, firsts: list[int], seconds: list[int]) -> Tensor:
    """`div_loss` of every (firsts[p], seconds[p]) pair of branches, as a vector."""
    n_branches = int(trace.branch_of_row.max()) + 1
    ids = []
    for side in (firsts, seconds):
        pair_of_branch = np.full(n_branches, -1)
        pair_of_branch[side] = np.arange(len(side))
        ids.append(np.where(trace.target_mask, pair_of_branch[trace.branch_of_row], -1))
    n = len(firsts)
    cosines = [T.cosine_similarity_rows(T.mean_pool_segments(states, ids[0], n),
                                        T.mean_pool_segments(states, ids[1], n))
               for states in trace.layer_states]
    return T.scale(T.add_n(cosines), 1.0 / len(cosines))


class AdamState:
    """First/second moment estimates, laid out like the parameter vector,
    the step counter and two scratch vectors, so a step allocates nothing."""

    def __init__(self, params: ModelParams):
        self.t = 0
        self.m = np.zeros_like(params.vector)
        self.v = np.zeros_like(params.vector)
        self._scratch = (np.empty_like(params.vector), np.empty_like(params.vector))


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction on the whole parameter vector, in
    place; `grad` is laid out like it. ADAM_EPS sits outside the sqrt.

    Every expression is m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
    vector -= (lr*m_hat) / (sqrt(v_hat) + eps), evaluated in that order into
    preallocated buffers."""
    if grad.shape != params.vector.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter vector shape "
                         f"{params.vector.shape}")
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    a, b = state._scratch
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=a)
    v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=a)             # m_hat
    a *= lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=b)             # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params.vector -= a


def clip_gradients(grad: np.ndarray) -> float:
    """Scales `grad` in place to global norm CLIP_NORM if it exceeds it;
    returns the pre-clip norm. A non-finite norm leaves `grad` as it is."""
    norm = math.sqrt(grad @ grad)
    if CLIP_NORM < norm < math.inf:
        grad *= CLIP_NORM / norm
    return norm


def mean_cg(params: ModelParams, records: Sequence[ProductRecord], vocab: Vocab,
            batch_size: int = 8) -> float:
    """Mean token-mean cross entropy over every (context, question) pair,
    from packed forwards over at most batch_size products each."""
    if not records:
        raise C.DataSplitError("cannot evaluate CG loss on an empty record list")
    losses = []
    with T.no_grad():
        for start in range(0, len(records), batch_size):
            items = [(rec.product_id, tuple(vocab.encode_text(rec.context)),
                      tuple(vocab.encode_text(q)))
                     for rec in records[start:start + batch_size] for q in rec.questions]
            losses.extend(batch_loss(params, items, 0.0)[0].single_cg.tolist())
    return math.fsum(losses) / len(losses)


def _product_items(records: Sequence[ProductRecord], vocab: Vocab, mode: str,
                   cfg: TrainConfig) -> list[list]:
    """Per-product training items. An item is either a Triplet or a
    (product_id, context_ids, q_ids) single."""
    items: list[list] = []
    by_pid = {}
    if mode == "ltd":
        for t in build_triplets(records, vocab, cfg.max_pairs_per_product, cfg.seed):
            by_pid.setdefault(t.product_id, []).append(t)
    for rec in records:
        ctx = tuple(vocab.encode_text(rec.context))
        if mode == "traditional":
            items.append([(rec.product_id, ctx, tuple(vocab.encode_text(q)))
                          for q in rec.questions])
        else:
            got = by_pid.get(rec.product_id)
            if got is None:
                # Single-question product: one CG branch, no pair regularizer.
                got = [(rec.product_id, ctx, tuple(vocab.encode_text(rec.questions[0])))]
            items.append(got)
    return items


def _check_items(cfg: ModelConfig, per_product: Sequence[list]) -> None:
    """Refuse, naming its product, a context or question that does not fit
    the model: every item of a product shares its context."""
    for items in per_product:
        first = items[0]
        pid, ctx = ((first.product_id, first.context_ids) if isinstance(first, Triplet)
                    else first[:2])
        check_length(cfg, len(ctx), f"product {pid}: context")
        longest = max(len(q) for item in items
                      for q in ((item.q1_ids, item.q2_ids) if isinstance(item, Triplet)
                                else item[2:]))
        # The decoder reads the question after BOS.
        check_length(cfg, longest + 1, f"product {pid}: question plus BOS")


@np.errstate(all="ignore")
def train(split: SplitCorpus, vocab: Vocab, model_config: ModelConfig,
          train_config: TrainConfig, mode: str = "ltd",
          log_path=None) -> TrainResult:
    """Run one fine-tuning regime; retains the parameters of the epoch with
    the lowest validation mean CG loss. Deterministic given the seed.
    Every train and validation item is checked against max_len before the
    first step. Overflow warns nothing: a loss or gradient norm that is not
    finite is a named error."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not split.train or not split.validation:
        raise C.DataSplitError("train and validation splits must be non-empty")
    per_product = _product_items(split.train, vocab, mode, train_config)
    _check_items(model_config, per_product + _product_items(
        split.validation, vocab, "traditional", train_config))
    lam = train_config.lambda_div
    params = init_params(model_config, train_config.seed)
    state = AdamState(params)

    rows: list[dict] = []
    best_val = math.inf
    best_epoch = -1
    best_params = params.copy()
    final_val = math.nan
    step = 0
    for epoch in range(train_config.epochs):
        order = np.random.default_rng([train_config.seed, 1000 + epoch]).permutation(
            len(per_product))
        flat = [item for p in order for item in per_product[p]]
        for start in range(0, len(flat), train_config.batch_size):
            batch = flat[start:start + train_config.batch_size]
            T.reset_tape()
            T.zero_grad(params.tensors())
            losses, total = batch_loss(params, batch, lam)
            objective = T.scale(total, 1.0 / losses.n_branches)
            value = objective.item()
            if not math.isfinite(value):
                raise NonFiniteOutputError(f"non-finite loss {value} at step {step + 1}")
            T.backward(objective)
            grad = params.grad_vector()
            grad_norm = clip_gradients(grad)
            if not math.isfinite(grad_norm):
                raise NonFiniteOutputError(
                    f"non-finite gradient norm {grad_norm} at step {step + 1}")
            adam_step(params, grad, state, train_config.learning_rate)
            step += 1
            if losses.cg1.size:
                cg1_mean = math.fsum(losses.cg1) / losses.cg1.size
                cg2_mean = math.fsum(losses.cg2) / losses.cg2.size
                div_mean = math.fsum(losses.div) / losses.div.size
                row = {"kind": "step", "step": step, "epoch": epoch,
                       "cg1": cg1_mean, "cg2": cg2_mean, "div": div_mean,
                       "total": cg1_mean + cg2_mean + lam * div_mean,
                       "objective": value}
            else:
                cg_mean = math.fsum(losses.single_cg) / losses.single_cg.size
                row = {"kind": "step", "step": step, "epoch": epoch,
                       "cg1": cg_mean, "cg2": None, "div": None,
                       "total": cg_mean, "objective": value}
            row["grad_norm"] = grad_norm
            row["clipped"] = grad_norm > CLIP_NORM
            rows.append(row)
        T.reset_tape()
        final_val = mean_cg(params, split.validation, vocab, train_config.batch_size)
        if not math.isfinite(final_val):
            raise NonFiniteOutputError(f"non-finite validation loss {final_val}")
        rows.append({"kind": "epoch", "epoch": epoch, "val_cg": final_val})
        if final_val < best_val:
            best_val = final_val
            best_epoch = epoch
            best_params = params.copy()
    if log_path is not None:
        with atomic_write(log_path) as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    return TrainResult(params=best_params, log_rows=rows, best_val_cg=best_val,
                       best_epoch=best_epoch, final_val_cg=final_val)

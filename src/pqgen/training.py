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
from typing import NamedTuple, Sequence

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


class Triplet(NamedTuple):
    """An `ltd` item: a context and two distinct questions; a single is (context_ids, q_ids)."""
    context_ids: tuple[int, ...]
    q1_ids: tuple[int, ...]
    q2_ids: tuple[int, ...]


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


def _encode_record(rec: ProductRecord, vocab: Vocab):
    """A record's context ids and the ids of each of its questions."""
    return (tuple(vocab.encode_text(rec.context)),
            [tuple(vocab.encode_text(q)) for q in rec.questions])


def _triplets(ctx: tuple[int, ...], qs: Sequence[tuple[int, ...]], max_pairs: int,
              seed: int, idx: int) -> list[Triplet]:
    """All unordered distinct-question pairs of record `idx`, shuffled by
    `default_rng([seed, idx])` and capped at max_pairs."""
    pairs = [(qs[i], qs[j]) for i in range(len(qs)) for j in range(i + 1, len(qs))
             if qs[i] != qs[j]]
    order = np.random.default_rng([seed, idx]).permutation(len(pairs))[:max_pairs]
    return [Triplet(ctx, *pairs[k]) for k in order]


def cg_loss(trace: PackedTrace, target_ids: Sequence[int]) -> Tensor:
    """Token-mean cross entropy of a one-branch trace against its shifted target."""
    if tuple(int(i) for i in target_ids) != tuple(int(i) for i in trace.predict_ids[:-1]):
        raise ValueError("cg_loss target does not match the trace's target")
    return T.tsum(T.cross_entropy_segments(trace.logits, trace.predict_ids,
                                           trace.branch_of_row, 1))


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
    single_cg: np.ndarray  # per single (context_ids, q_ids) item
    n_branches: int        # teacher-forced branches: 2 per triplet, 1 per single


def batch_loss(params: ModelParams, items: Sequence,
               lambda_div: float) -> tuple[BatchLosses, Tensor]:
    """One packed forward over a batch of triplets and singles; returns the
    per-item values and the differentiable sum of every branch's CG loss
    plus lambda times every triplet's div. Each item's questions are
    consecutive branches. Branches with one (context, question) share one
    decoded example, whose CG loss counts once per branch."""
    example_of: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    branches, firsts, singles = [], [], []  # each branch's example; item starts
    for context_ids, *questions in items:
        {1: singles, 2: firsts}[len(questions)].append(len(branches))
        branches += [example_of.setdefault((tuple(context_ids), tuple(q_ids)), len(example_of))
                     for q_ids in questions]
    trace = decode_packed(params, list(example_of))
    n = len(example_of)
    cg = T.cross_entropy_segments(trace.logits, trace.predict_ids, trace.branch_of_row, n)
    branches, firsts = np.array(branches, dtype=np.intp), np.array(firsts, dtype=np.intp)
    total = T.tsum(cg, np.bincount(branches, minlength=n))
    first, second = branches[firsts], branches[firsts + 1]
    div = np.zeros(0)
    if firsts.size:
        div_t = _packed_div(trace, n, first, second)
        total = T.add(total, T.scale(T.tsum(div_t), lambda_div))
        div = div_t.data
    losses = BatchLosses(cg1=cg.data[first], cg2=cg.data[second], div=div,
                         single_cg=cg.data[branches[singles]], n_branches=branches.size)
    return losses, total


def _packed_div(trace: PackedTrace, n: int, first: np.ndarray, second: np.ndarray) -> Tensor:
    """`div_loss` of every (first[k], second[k]) pair of the n examples of
    `trace`, as a vector: each layer pools each example once."""
    ids = np.where(trace.target_mask, trace.branch_of_row, -1)
    cosines = [T.cosine_similarity_rows(T.mean_pool_segments(states, ids, n), first, second)
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
            batch_size: int = TrainConfig.batch_size) -> float:
    """Mean token-mean cross entropy over every (context, question) pair,
    from packed forwards over at most batch_size products each."""
    if not records:
        raise C.DataSplitError("cannot evaluate CG loss on an empty record list")
    return _mean_cg(params, _product_items(records, vocab, params.config), batch_size)


def _mean_cg(params: ModelParams, per_product: list[list], batch_size: int) -> float:
    """`mean_cg` of the items `_product_items` built from the records."""
    losses = []
    with T.no_grad():
        for start in range(0, len(per_product), batch_size):
            items = [item for p in per_product[start:start + batch_size] for item in p]
            losses.extend(batch_loss(params, items, 0.0)[0].single_cg.tolist())
    return math.fsum(losses) / len(losses)


def _product_items(records: Sequence[ProductRecord], vocab: Vocab, model_config: ModelConfig,
                   mode: str = "traditional", cfg: TrainConfig = TrainConfig()) -> list[list]:
    """Per-product training items, tokenizing each record once. An item is
    either a Triplet or a (context_ids, q_ids) single. Every context and
    question must fit the model; the error names its product."""
    items: list[list] = []
    for idx, rec in enumerate(records):
        ctx, qs = _encode_record(rec, vocab)
        what = f"product {rec.product_id}:"
        check_length(model_config, len(ctx), f"{what} context")
        for q in qs:
            # The decoder reads the question after BOS.
            check_length(model_config, len(q) + 1, f"{what} question plus BOS")
        if mode == "traditional":
            items.append([(ctx, q) for q in qs])
        else:
            # A product without a distinct question pair trains one CG
            # branch and no pair regularizer.
            items.append(_triplets(ctx, qs, cfg.max_pairs_per_product, cfg.seed, idx)
                         or [(ctx, qs[0])])
    return items


@np.errstate(all="ignore")
def train(split: SplitCorpus, vocab: Vocab, model_config: ModelConfig,
          train_config: TrainConfig, mode: str = "ltd",
          log_path=None) -> TrainResult:
    """Run one fine-tuning regime; retains the parameters of the epoch with
    the lowest validation mean CG loss. Deterministic given the seed.
    Every train and validation record is checked against max_len before
    the first step. Overflow warns nothing: a loss or gradient norm that
    is not finite is a named error."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not split.train or not split.validation:
        raise C.DataSplitError("train and validation splits must be non-empty")
    per_product = _product_items(split.train, vocab, model_config, mode, train_config)
    val_items = _product_items(split.validation, vocab, model_config)
    lam = train_config.lambda_div
    params = init_params(model_config, train_config.seed)
    state = AdamState(params)

    rows: list[dict] = []
    best_val = math.inf  # epoch 0 sets the best epoch and params: its loss is checked finite
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
            row = {"kind": "step", "step": step, "epoch": epoch}
            cg1, cg2, div, single_cg = (math.fsum(v) / v.size if v.size else None for v in (
                losses.cg1, losses.cg2, losses.div, losses.single_cg))
            if cg1 is None:
                row.update(cg1=single_cg, cg2=None, div=None, total=single_cg)
            else:
                row.update(cg1=cg1, cg2=cg2, div=div, total=cg1 + cg2 + lam * div)
                if single_cg is not None:  # the triplet means leave the singles out
                    row.update(single_cg=single_cg)
            row.update(objective=value, grad_norm=grad_norm, clipped=grad_norm > CLIP_NORM)
            rows.append(row)
        T.reset_tape()
        final_val = _mean_cg(params, val_items, train_config.batch_size)
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

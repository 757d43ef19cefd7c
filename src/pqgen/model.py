"""Miniature transformer encoder-decoder built on the tape autodiff layer.

Pre-layer-norm blocks, learned absolute positional embeddings, multi-head
attention, causal decoder masking, and a linear CG head projecting decoder
states onto the vocabulary. No dropout, no weight tying, float64 throughout.
Inference decodes with a cached, beam-batched step on plain arrays
(`DecoderState`, `decode_step`) that records nothing on the tape. Every
forward reads each sublayer's tensors from `ModelParams`' layer groups.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from itertools import chain, islice
from typing import ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .corpus import BOS, EOS, PAD, RESERVED_TOKENS
from .fileio import atomic_write
from .tensor import Tensor

MAGIC = b"PQGENCK1"
FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Model or run configuration is internally inconsistent."""


class SequenceLengthError(ValueError):
    """A sequence exceeds max_len (or is empty); inputs are never truncated."""


class CheckpointError(ValueError):
    """A checkpoint file is truncated, fails magic/version/manifest validation,
    or holds non-finite parameters."""


class NonFiniteOutputError(FloatingPointError):
    """A loss, gradient norm, log-probability or other model output holds NaN
    or inf: finite parameters or a learning rate whose arithmetic overflowed."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 128
    max_len: int = 64
    pad_id: ClassVar[int] = PAD
    bos_id: ClassVar[int] = BOS
    eos_id: ClassVar[int] = EOS

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if min(self.d_model, self.n_heads, self.n_enc_layers, self.n_dec_layers, self.d_ff) < 1:
            raise ConfigError(f"non-positive dimension in {self}")
        if self.max_len < 2:
            raise ConfigError(f"max_len={self.max_len} must be at least 2: BOS and one token")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.vocab_size <= len(RESERVED_TOKENS):
            raise ConfigError(f"vocab_size={self.vocab_size} leaves no real tokens")


def _param_manifest(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Fixed (name, shape) order; defines init order and checkpoint layout.
    Lazy, so a config of absurd size costs only the entries read."""
    d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    yield "tok_emb", (v, d)
    yield "pos_emb", (cfg.max_len, d)

    # A sublayer's members in the argument order of `attention_sublayer` and `ffn_sublayer`.
    norm = (("ln.g", (d,)), ("ln.b", (d,)))
    attention = (*norm, *((w, (d, d)) for w in ("wq", "wk", "wv", "wo")))
    ffn = (*norm, ("w1", (d, ff)), ("b1", (ff,)), ("w2", (ff, d)), ("b2", (d,)))

    def layer(prefix: str, *sublayers):
        for sublayer, members in sublayers:
            for member, shape in members:
                yield f"{prefix}.{sublayer}.{member}", shape

    for i in range(cfg.n_enc_layers):
        yield from layer(f"enc{i}", ("self", attention), ("ffn", ffn))
    yield "enc_ln.g", (d,)
    yield "enc_ln.b", (d,)
    for i in range(cfg.n_dec_layers):
        yield from layer(f"dec{i}", ("self", attention), ("cross", attention), ("ffn", ffn))
    yield "dec_ln.g", (d,)
    yield "dec_ln.b", (d,)
    yield "cg_head.w", (d, v)


class ModelParams:
    """Named parameter tensors in a fixed manifest order, plus the config.

    The parameters live in one float64 vector in manifest order, and each
    tensor's `data` is a reshaped view of it: optimizers, copies and
    checkpoints work on `vector` as a whole. Their gradients live the same
    way in one vector, `grad_vector()`, each tensor's `.grad` a fixed view of
    it that `backward` adds into.

    `encoder_layers` and `decoder_layers` group the tensors named
    `layer.sublayer.member`: per layer a tuple of its sublayers, each a tuple
    of the tensors `params[name]` returns, in manifest order (the argument
    order of `attention_sublayer` and `ffn_sublayer`).
    """

    def __init__(self, config: ModelConfig, vector: np.ndarray | None = None):
        """Views over `vector`, or over a new all-zero vector if it is None."""
        manifest = list(_param_manifest(config))
        sizes = [math.prod(shape) for _, shape in manifest]
        self.config = config
        try:
            self.vector = np.zeros(sum(sizes)) if vector is None else vector
            self._grad = np.zeros_like(self.vector)
        except (MemoryError, ValueError) as e:  # ValueError: past numpy's size limit
            raise ConfigError(f"cannot allocate a model of {sum(sizes)} parameters: {e}") from None
        cuts = np.cumsum(sizes)[:-1]
        self._tensors = {name: Tensor(piece.reshape(shape), gpiece.reshape(shape))
                         for (name, shape), piece, gpiece in zip(
                             manifest, np.split(self.vector, cuts), np.split(self._grad, cuts))}
        layers: dict[str, dict[str, list[Tensor]]] = {}
        for name, t in self._tensors.items():
            parts = name.split(".", 2)
            if len(parts) == 3:
                layers.setdefault(parts[0], {}).setdefault(parts[1], []).append(t)
        grouped = [tuple(map(tuple, sublayers.values())) for sublayers in layers.values()]
        self.encoder_layers = grouped[:config.n_enc_layers]
        self.decoder_layers = grouped[config.n_enc_layers:]

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def items(self):
        return self._tensors.items()

    @property
    def n_parameters(self) -> int:
        return self.vector.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.vector.copy())

    def grad_vector(self) -> np.ndarray:
        """Every tensor's gradient in manifest order, laid out like `vector`;
        the buffer the tensors' `.grad` views share, not a copy."""
        return self._grad


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Unit layer-norm gains, zero biases, normal(0, 0.02) matrices in manifest order."""
    rng = np.random.default_rng(seed)
    params = ModelParams(config)
    for name, t in params.items():
        if name.endswith("ln.g"):
            t.data[...] = 1.0
        elif t.data.ndim == 2:
            t.data[...] = rng.normal(0.0, 0.02, size=t.shape)
    return params


@dataclass
class EncoderOutput:
    """The encoder rows of one or more contexts, stacked in context order."""
    h_e: Tensor                      # [sum(lengths), d_model]
    lengths: list[int]               # rows of each context
    layout: T.AttentionLayout        # the encoder's self-attention segments


def check_length(cfg: ModelConfig, n: int, what: str) -> None:
    """Refuse an empty sequence or one longer than max_len; nothing is cut."""
    if n < 1:
        raise SequenceLengthError(f"{what} is empty")
    if n > cfg.max_len:
        raise SequenceLengthError(f"{what} length {n} exceeds max_len {cfg.max_len}")


def _positions(lengths) -> np.ndarray:
    """0..n-1 for each length n, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)


def _decoder_inputs(cfg: ModelConfig, targets: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The BOS-prefixed teacher-forcing inputs of targets, checked in one pass
    over all of them; an error names the first target at fault."""
    lens = [len(tgt) for tgt in targets]
    reserved = {cfg.pad_id, cfg.bos_id, cfg.eos_id}
    if (min(lens, default=1) < 1 or max(lens, default=0) >= cfg.max_len
            or not reserved.isdisjoint(chain.from_iterable(targets))):
        for tgt in targets:
            tgt = tuple(int(i) for i in tgt)
            if not reserved.isdisjoint(tgt):
                raise ValueError(f"target must not contain PAD/BOS/EOS ids: {tgt}")
            check_length(cfg, len(tgt), "target")
            check_length(cfg, len(tgt) + 1, "decoder input")
    return [(cfg.bos_id, *tgt) for tgt in targets]


def _encoder_stack(params: ModelParams, ids: Sequence[int], positions,
                   layout: T.AttentionLayout) -> Tensor:
    """Encoder over stacked context rows; `layout` keeps contexts apart."""
    cfg = params.config
    x = T.embed(params["tok_emb"], params["pos_emb"], ids, positions)
    for attn, ffn in params.encoder_layers:
        x = T.attention_sublayer(x, *attn, cfg.n_heads, layout)
        x = T.ffn_sublayer(x, *ffn)
    return T.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])


def _decoder_stack(params: ModelParams, h_e: Tensor, input_ids: Sequence[int], positions,
                   self_layout: T.AttentionLayout,
                   cross_layout: T.AttentionLayout) -> tuple[list[Tensor], Tensor]:
    """Decoder over stacked input rows attending to stacked encoder rows."""
    cfg = params.config
    x = T.embed(params["tok_emb"], params["pos_emb"], input_ids, positions)
    blocks: list[Tensor] = []
    for attn, cross, ffn in params.decoder_layers:
        x = T.attention_sublayer(x, *attn, cfg.n_heads, self_layout)
        x = T.attention_sublayer(x, *cross, cfg.n_heads, cross_layout, h_e)
        x = T.ffn_sublayer(x, *ffn)
        blocks.append(x)
    h = T.layer_norm(x, params["dec_ln.g"], params["dec_ln.b"])
    # The last reported layer state is exactly the CG head's input.
    return blocks[:-1] + [h], h


def encode(params: ModelParams, *contexts: Sequence[int]) -> EncoderOutput:
    """Encode contexts in one stacked pass: each context attends only to its
    own rows. Inputs are packed, never padded, so no context may hold PAD."""
    cfg = params.config
    if not contexts:
        raise ValueError("encode needs at least one context")
    lengths = [len(context_ids) for context_ids in contexts]
    for n in lengths:
        check_length(cfg, n, "context")
    ids = np.fromiter(chain.from_iterable(contexts), np.int64, sum(lengths))
    if (ids == cfg.pad_id).any():
        raise ValueError(f"context must not contain the PAD id {cfg.pad_id}")
    layout = T.AttentionLayout(lengths, lengths)
    return EncoderOutput(h_e=_encoder_stack(params, ids, _positions(lengths), layout),
                         lengths=lengths, layout=layout)


@dataclass
class PackedTrace:
    """Teacher-forced decode of one or more branches, their rows stacked.

    Rows are grouped by context; `branch_of_row` maps each row back to the
    branch (in input order) it belongs to.
    """
    layer_states: list[Tensor]       # L_dec entries, each [rows, d_model]
    logits: Tensor                   # [rows, vocab_size]
    branch_of_row: np.ndarray        # int [rows]
    target_mask: np.ndarray          # bool [rows]; False at BOS rows
    predict_ids: np.ndarray          # int [rows]; shifted targets, EOS closing each


def _decode(params: ModelParams, enc: EncoderOutput, branches_of: Sequence[Sequence[int]],
            inputs: Sequence[tuple[int, ...]]) -> PackedTrace:
    """One teacher-forced decoder pass over the BOS-prefixed `inputs`, where
    branches_of[c] lists the inputs that attend to context c of `enc`."""
    order = [b for group in branches_of for b in group]
    dec_lens = np.array([len(inputs[b]) for b in order])
    dec_ids = np.array([i for b in order for i in inputs[b]], dtype=np.int64)
    rows_per_context = [sum(len(inputs[b]) for b in group) for group in branches_of]
    layer_states, h = _decoder_stack(
        params, enc.h_e, dec_ids, _positions(dec_lens),
        T.AttentionLayout(dec_lens, dec_lens, causal=True),
        T.AttentionLayout(rows_per_context, enc.lengths))
    ends = np.cumsum(dec_lens)
    # Row r predicts the input token of row r + 1; each branch's last row, EOS.
    predict = np.roll(dec_ids, -1)
    predict[ends - 1] = params.config.eos_id
    target_mask = np.ones(len(dec_ids), dtype=bool)
    target_mask[ends - dec_lens] = False  # BOS rows
    return PackedTrace(layer_states=layer_states,
                       logits=T.matmul(h, params["cg_head.w"]),
                       branch_of_row=np.repeat(order, dec_lens),
                       target_mask=target_mask, predict_ids=predict)


def decode_teacher_forced(params: ModelParams, enc: EncoderOutput,
                          target_ids: Sequence[int]) -> PackedTrace:
    """`decode_packed` of one target against the one context `enc` holds:
    input [BOS, y_1..y_m] predicts [y_1..y_m, EOS], so len(target)+1 rows
    count against max_len. PAD, BOS and EOS may not appear in the target."""
    if len(enc.lengths) != 1:
        raise ValueError(f"decode_teacher_forced needs the encoding of one context, "
                         f"got {len(enc.lengths)}")
    return _decode(params, enc, [[0]], _decoder_inputs(params.config, [target_ids]))


def decode_packed(params: ModelParams,
                  examples: Sequence[tuple[Sequence[int], Sequence[int]]]) -> PackedTrace:
    """Teacher-forced decode of (context_ids, target_ids) examples: one
    `encode` of the distinct contexts and one decoder pass over every target.
    Row for row this is what `encode` and `decode_teacher_forced` compute per
    example, under the same input rules."""
    branches_of: dict[tuple[int, ...], list[int]] = {}
    for b, (context_ids, _) in enumerate(examples):
        branches_of.setdefault(tuple(context_ids), []).append(b)
    inputs = _decoder_inputs(params.config, [target_ids for _, target_ids in examples])
    return _decode(params, encode(params, *branches_of), list(branches_of.values()), inputs)


class DecoderState(NamedTuple):
    """Incremental decoder state of B beams of P products after t steps, as in
    fairseq's `incremental_state`: search state only, no weights. Per decoder
    layer, the cross-attention keys and values of each product's encoder
    output (computed once per context, padded to the longest, shared by every
    beam of that product) and the self-attention keys and values of the t
    inputs fed so far. Row b is a beam of product `product[b]`."""
    cross_kv: tuple[tuple[np.ndarray, np.ndarray], ...]   # per layer, [P, H, n, dh] each
    cross_bias: np.ndarray | None                         # [P, 1, 1, n]: -inf past a context's end
    self_kv: tuple[tuple[np.ndarray, np.ndarray], ...]    # per layer, [B, t, d_model] each
    product: np.ndarray                                   # int [B]

    @property
    def position(self) -> int:
        """The position of the next input, t."""
        return self.self_kv[0][0].shape[1]

    def reorder(self, parents: Sequence[int]) -> "DecoderState":
        """The state of beams whose row r continues row parents[r] of this one."""
        return self._replace(self_kv=tuple((k[parents], v[parents]) for k, v in self.self_kv),
                             product=self.product[parents])


def start_decoding(params: ModelParams, enc: EncoderOutput) -> DecoderState:
    """The state of one beam per context of `enc`, in order, before its first
    input (BOS at position 0). Shorter contexts are padded with the keys the
    encoder's layout masks."""
    cfg = params.config
    h_e = T.to_blocks(enc.h_e.data, enc.layout.k_slots)  # [P, n, d_model]
    cross_kv = tuple((T.split_heads(h_e @ wk.data, cfg.n_heads),
                      T.split_heads(h_e @ wv.data, cfg.n_heads))
                     for _, (_, _, _, wk, wv, _), _ in params.decoder_layers)
    empty = np.zeros((len(h_e), 0, cfg.d_model))
    return DecoderState(cross_kv, enc.layout.bias, ((empty, empty),) * cfg.n_dec_layers,
                        np.arange(len(h_e)))


def decode_step(params: ModelParams, state: DecoderState,
                tokens: Sequence[int]) -> tuple[np.ndarray, DecoderState]:
    """Advance B beams by one input each: row b of `tokens` is beam b's input
    at position `state.position` (BOS first, never PAD). Returns the [B, V]
    next-token log-softmax, row for row what the full-prefix decoder gives
    at its last position, and the state after these inputs. Plain arrays
    read from the tensors of `params`: nothing is recorded on the tape."""
    cfg = params.config
    t = state.position
    if t >= cfg.max_len:
        raise SequenceLengthError(f"decoder input position {t} is past max_len {cfg.max_len}")
    x = params["tok_emb"].data[np.asarray(tokens, dtype=np.int64)] + params["pos_emb"].data[t]
    rows = x.shape[0]

    def per_row(a):  # a product's cross-attention arrays on each of its rows
        return a if a is None or len(a) == 1 else a[state.product]

    cross_bias = per_row(state.cross_bias)

    def attend(q_in, wq, wo, kh, vh, mask=None):
        qh = (q_in @ wq).reshape(rows, cfg.n_heads, 1, -1)
        out, _ = T.softmax_attention(qh, kh, vh, mask)
        return out.reshape(rows, cfg.d_model) @ wo

    self_kv = []
    for (attn, cross, ffn), (k_past, v_past), (k_enc, v_enc) in zip(
            params.decoder_layers, state.self_kv, state.cross_kv):
        gain, bias, wq, wk, wv, wo = (w.data for w in attn)
        a = T.layer_norm_arrays(x, gain, bias)[0]
        k = np.concatenate([k_past, (a @ wk)[:, None]], axis=1)
        v = np.concatenate([v_past, (a @ wv)[:, None]], axis=1)
        self_kv.append((k, v))
        x = x + attend(a, wq, wo, T.split_heads(k, cfg.n_heads), T.split_heads(v, cfg.n_heads))
        gain, bias, wq, _, _, wo = (w.data for w in cross)
        x = x + attend(T.layer_norm_arrays(x, gain, bias)[0], wq, wo, per_row(k_enc),
                       per_row(v_enc), cross_bias)
        x = T.ffn_arrays(x, *(w.data for w in ffn))[0]
    logits = (T.layer_norm_arrays(x, params["dec_ln.g"].data, params["dec_ln.b"].data)[0]
              @ params["cg_head.w"].data)
    return logits - T.logsumexp(logits)[:, None], state._replace(self_kv=tuple(self_kv))


def sequence_log_likelihood(params: ModelParams, context_ids: Sequence[int],
                            question_ids: Sequence[int]) -> float:
    """Sum of log p(y_t | y_<t, c) over the target positions, EOS included."""
    with T.no_grad():
        trace = decode_teacher_forced(params, encode(params, context_ids), question_ids)
        logits = trace.logits.data
    lse = T.logsumexp(logits)
    return float(sum(logits[np.arange(len(lse)), trace.predict_ids] - lse))


# ---------------------------------------------------------------------------
# Checkpoint container: MAGIC + uint32 header length + JSON header + the
# parameter vector as raw little-endian float64 (tensor after tensor in
# manifest order).


# Written into every checkpoint's config; a checkpoint that sets other values is refused.
_RESERVED_IDS = {"pad_id": PAD, "bos_id": BOS, "eos_id": EOS}


def _check_vocab(config: ModelConfig, vocab_tokens, path) -> None:
    """A checkpoint's vocabulary names every non-reserved token id."""
    if vocab_tokens is None:
        raise CheckpointError(f"checkpoint {path} stores no vocabulary; "
                              "generate and evaluate need one")
    n = config.vocab_size - len(RESERVED_TOKENS)
    if (not isinstance(vocab_tokens, list) or len(vocab_tokens) != n
            or not all(isinstance(t, str) for t in vocab_tokens)):
        raise CheckpointError(f"checkpoint vocab must be a list of {n} strings, one per "
                              "non-reserved id")


def save_checkpoint(path, params: ModelParams, vocab_tokens: Sequence[str]) -> None:
    vocab = list(vocab_tokens)
    _check_vocab(params.config, vocab, path)
    header = {
        "format_version": FORMAT_VERSION,
        "config": {**asdict(params.config), **_RESERVED_IDS},
        "vocab": vocab,
        "tensors": [(name, list(shape)) for name, shape in _param_manifest(params.config)],
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.vector.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[ModelParams, list[str]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic in {path}: not a checkpoint file")
    offset = len(MAGIC)
    if len(raw) < offset + 4:
        raise CheckpointError(f"checkpoint {path} truncated inside its header length")
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if len(raw) < offset + header_len:
        raise CheckpointError(f"checkpoint {path} truncated inside its header")
    try:
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
    except ValueError as e:
        raise CheckpointError(f"corrupt checkpoint header in {path}: {e}") from e
    except RecursionError as e:
        raise CheckpointError(f"corrupt checkpoint header in {path}: JSON nested too deeply") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"corrupt checkpoint header in {path}: not a JSON object")
    offset += header_len
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('format_version')!r}")
    try:
        fields = {**header["config"]}
        ids = {name: fields.pop(name, fixed) for name, fixed in _RESERVED_IDS.items()}
        if ids != _RESERVED_IDS:
            raise ConfigError(f"the reserved ids are fixed at {_RESERVED_IDS}, not {ids}")
        config = ModelConfig(**fields)
    except (TypeError, KeyError, ConfigError) as e:
        raise CheckpointError(f"invalid config in checkpoint: {e}") from e
    try:
        declared = [(name, list(shape)) for name, shape in header.get("tensors", [])]
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed tensor manifest in checkpoint: {e}") from e
    expected = ((name, list(shape)) for name, shape in _param_manifest(config))
    if declared != list(islice(expected, len(declared) + 1)):
        raise CheckpointError("checkpoint tensor manifest does not match its config")
    vocab = header.get("vocab")
    _check_vocab(config, vocab, path)
    n_bytes = 8 * sum(math.prod(shape) for _, shape in declared)
    if len(raw) - offset != n_bytes:
        raise CheckpointError(f"checkpoint {path} is truncated or has trailing bytes: "
                              f"{len(raw) - offset} bytes of parameters, expected {n_bytes}")
    params = ModelParams(config, np.frombuffer(raw, dtype="<f8", offset=offset).astype(np.float64))
    if not np.isfinite(params.vector).all():
        name = next(n for n, t in params.items() if not np.isfinite(t.data).all())
        raise CheckpointError(f"checkpoint parameter {name} holds non-finite values")
    return params, vocab

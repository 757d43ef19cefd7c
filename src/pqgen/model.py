"""Miniature transformer encoder-decoder built on the tape autodiff layer.

Pre-layer-norm blocks, learned absolute positional embeddings, multi-head
attention, causal decoder masking, and a linear CG head projecting decoder
states onto the vocabulary. No dropout, no weight tying, float64 throughout.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
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


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 128
    max_len: int = 64
    pad_id: int = 0
    bos_id: int = 1
    eos_id: int = 2

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.vocab_size <= 4:
            raise ConfigError(f"vocab_size={self.vocab_size} leaves no real tokens")
        if min(self.d_model, self.n_heads, self.n_enc_layers, self.n_dec_layers,
               self.d_ff) < 1 or self.max_len < 2:
            raise ConfigError(f"non-positive dimension in {self}")
        if len({self.pad_id, self.bos_id, self.eos_id}) != 3:
            raise ConfigError("pad/bos/eos ids must be distinct")


def _param_manifest(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Fixed (name, shape) order; defines init order and checkpoint layout."""
    d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    manifest: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (v, d)), ("pos_emb", (cfg.max_len, d))]

    def block(prefix: str, attn_names: Sequence[str]):
        for a in attn_names:
            manifest.append((f"{prefix}.{a}.ln.g", (d,)))
            manifest.append((f"{prefix}.{a}.ln.b", (d,)))
            for w in ("wq", "wk", "wv", "wo"):
                manifest.append((f"{prefix}.{a}.{w}", (d, d)))
        manifest.append((f"{prefix}.ffn.ln.g", (d,)))
        manifest.append((f"{prefix}.ffn.ln.b", (d,)))
        manifest.append((f"{prefix}.ffn.w1", (d, ff)))
        manifest.append((f"{prefix}.ffn.b1", (ff,)))
        manifest.append((f"{prefix}.ffn.w2", (ff, d)))
        manifest.append((f"{prefix}.ffn.b2", (d,)))

    for i in range(cfg.n_enc_layers):
        block(f"enc{i}", ("self",))
    manifest.append(("enc_ln.g", (d,)))
    manifest.append(("enc_ln.b", (d,)))
    for i in range(cfg.n_dec_layers):
        block(f"dec{i}", ("self", "cross"))
    manifest.append(("dec_ln.g", (d,)))
    manifest.append(("dec_ln.b", (d,)))
    manifest.append(("cg_head.w", (d, v)))
    return manifest


class ModelParams:
    """Named parameter tensors in a fixed manifest order, plus the config."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self._tensors = tensors

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
        return sum(t.data.size for t in self._tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {
            name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for name, t in self._tensors.items()})


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Normal(0, 0.02) weights, unit layer-norm gains, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in _param_manifest(config):
        if name.endswith(".ln.g") or name == "enc_ln.g" or name == "dec_ln.g":
            data = np.ones(shape)
        elif name.endswith((".ln.b", ".b1", ".b2")) or name in ("enc_ln.b", "dec_ln.b"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, tensors)


@dataclass
class EncoderOutput:
    h_e: Tensor                      # [n, d_model]
    context_ids: tuple[int, ...]
    key_mask: np.ndarray             # bool [n]; False at pad positions


@dataclass
class DecoderTrace:
    layer_states: list[Tensor]       # L_dec entries, each [m, d_model]
    logits: Tensor                   # [m, vocab_size]
    target_mask: list[bool]          # length m; False at BOS and pad rows
    input_ids: tuple[int, ...]       # BOS-prefixed decoder input
    predict_ids: tuple[int, ...]     # shifted targets, ending with EOS


def _check_length(cfg: ModelConfig, n: int, what: str) -> None:
    if n < 1:
        raise SequenceLengthError(f"{what} is empty")
    if n > cfg.max_len:
        raise SequenceLengthError(f"{what} length {n} exceeds max_len {cfg.max_len}")


def _context(cfg: ModelConfig, context_ids: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """Validated context ids and their key mask (False at pad positions)."""
    ids = tuple(int(i) for i in context_ids)
    _check_length(cfg, len(ids), "context")
    key_mask = np.array([i != cfg.pad_id for i in ids], dtype=bool)
    if not key_mask.any():
        raise T.EmptyPoolError("context consists only of pad tokens")
    return ids, key_mask


def _decoder_input(cfg: ModelConfig, target_ids: Sequence[int]) -> tuple[int, ...]:
    """The BOS-prefixed teacher-forcing input of a validated target."""
    tgt = tuple(int(i) for i in target_ids)
    if any(t in (cfg.bos_id, cfg.eos_id) for t in tgt):
        raise ValueError(f"target must not contain BOS/EOS ids: {tgt}")
    _check_length(cfg, len(tgt), "target")
    input_ids = (cfg.bos_id,) + tgt
    _check_length(cfg, len(input_ids), "decoder input")
    return input_ids


def _embed(params: ModelParams, ids: Sequence[int], positions) -> Tensor:
    tok = T.embedding(params["tok_emb"], ids)
    pos = T.embedding(params["pos_emb"], positions)
    return T.add(tok, pos)


def _attention(params: ModelParams, prefix: str, x_q: Tensor, x_kv: Tensor,
               layout: T.AttentionLayout) -> Tensor:
    q = T.matmul(x_q, params[f"{prefix}.wq"])
    k = T.matmul(x_kv, params[f"{prefix}.wk"])
    v = T.matmul(x_kv, params[f"{prefix}.wv"])
    return T.matmul(T.attention(q, k, v, params.config.n_heads, layout),
                    params[f"{prefix}.wo"])


def _sublayer(params: ModelParams, prefix: str, x: Tensor, fn) -> Tensor:
    normed = T.layer_norm(x, params[f"{prefix}.ln.g"], params[f"{prefix}.ln.b"])
    return T.add(x, fn(normed))


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    h = T.relu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _encoder_stack(params: ModelParams, ids: Sequence[int], positions,
                   layout: T.AttentionLayout) -> Tensor:
    """Encoder over stacked context rows; `layout` keeps contexts apart."""
    cfg = params.config
    x = _embed(params, ids, positions)
    for i in range(cfg.n_enc_layers):
        x = _sublayer(params, f"enc{i}.self", x,
                      lambda a, i=i: _attention(params, f"enc{i}.self", a, a, layout))
        x = _sublayer(params, f"enc{i}.ffn", x,
                      lambda a, i=i: _ffn(params, f"enc{i}.ffn", a))
    return T.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])


def _decoder_stack(params: ModelParams, h_e: Tensor, input_ids: Sequence[int], positions,
                   self_layout: T.AttentionLayout,
                   cross_layout: T.AttentionLayout) -> tuple[list[Tensor], Tensor]:
    """Decoder over stacked input rows attending to stacked encoder rows."""
    cfg = params.config
    x = _embed(params, input_ids, positions)
    blocks: list[Tensor] = []
    for i in range(cfg.n_dec_layers):
        x = _sublayer(params, f"dec{i}.self", x,
                      lambda a, i=i: _attention(params, f"dec{i}.self", a, a, self_layout))
        x = _sublayer(params, f"dec{i}.cross", x,
                      lambda a, i=i: _attention(params, f"dec{i}.cross", a, h_e,
                                                cross_layout))
        x = _sublayer(params, f"dec{i}.ffn", x,
                      lambda a, i=i: _ffn(params, f"dec{i}.ffn", a))
        blocks.append(x)
    h = T.layer_norm(x, params["dec_ln.g"], params["dec_ln.b"])
    # The last reported layer state is exactly the CG head's input.
    return blocks[:-1] + [h], h


def encode(params: ModelParams, context_ids: Sequence[int]) -> EncoderOutput:
    """Encode a context; pad positions are masked out of attention keys."""
    ids, key_mask = _context(params.config, context_ids)
    n = len(ids)
    h_e = _encoder_stack(params, ids, range(n), T.AttentionLayout([n], [n], key_ok=key_mask))
    return EncoderOutput(h_e=h_e, context_ids=ids, key_mask=key_mask)


def _decoder_forward(params: ModelParams, enc: EncoderOutput,
                     input_ids: tuple[int, ...]) -> tuple[list[Tensor], Tensor]:
    cfg = params.config
    n = len(input_ids)
    self_key = np.array([i != cfg.pad_id for i in input_ids], dtype=bool)
    return _decoder_stack(
        params, enc.h_e, input_ids, range(n),
        T.AttentionLayout([n], [n], causal=True, key_ok=self_key),
        T.AttentionLayout([n], [len(enc.context_ids)], key_ok=enc.key_mask))


def decode_teacher_forced(params: ModelParams, enc: EncoderOutput,
                          target_ids: Sequence[int]) -> DecoderTrace:
    """Teacher-forced decode: input [BOS, y_1..y_m], predicting [y_1..y_m, EOS].

    Logits therefore have len(target)+1 rows (the BOS row budget counts
    against max_len). Pad ids inside the target are excluded from
    target_mask; BOS/EOS must not appear inside the target.
    """
    cfg = params.config
    input_ids = _decoder_input(cfg, target_ids)
    tgt = input_ids[1:]
    layer_states, h = _decoder_forward(params, enc, input_ids)
    logits = T.matmul(h, params["cg_head.w"])
    target_mask = [False] + [t != cfg.pad_id for t in tgt]
    return DecoderTrace(layer_states=layer_states, logits=logits,
                        target_mask=target_mask, input_ids=input_ids,
                        predict_ids=tgt + (cfg.eos_id,))


@dataclass
class PackedTrace:
    """Teacher-forced decode of several examples, their rows stacked.

    Rows are grouped by context; `branch_of_row` maps each row back to the
    example (in input order) it belongs to.
    """
    layer_states: list[Tensor]       # L_dec entries, each [rows, d_model]
    logits: Tensor                   # [rows, vocab_size]
    branch_of_row: np.ndarray        # int [rows]
    target_mask: np.ndarray          # bool [rows]; False at BOS and pad rows
    predict_ids: np.ndarray          # int [rows]; shifted targets, EOS closing each


def decode_packed(params: ModelParams,
                  examples: Sequence[tuple[Sequence[int], Sequence[int]]]) -> PackedTrace:
    """Teacher-forced decode of (context_ids, target_ids) examples in one
    encoder pass over the distinct contexts and one decoder pass over every
    target. Row for row this is what `encode` and `decode_teacher_forced`
    compute per example, under the same input rules."""
    cfg = params.config
    if not examples:
        raise ValueError("decode_packed needs at least one example")
    contexts: dict[tuple[int, ...], int] = {}
    context_rows: list[tuple[tuple[int, ...], np.ndarray]] = []
    branches_of: list[list[int]] = []
    inputs: list[tuple[int, ...]] = []
    for b, (context_ids, target_ids) in enumerate(examples):
        key = tuple(context_ids)
        c = contexts.get(key)
        if c is None:
            c = contexts[key] = len(context_rows)
            context_rows.append(_context(cfg, key))
            branches_of.append([])
        branches_of[c].append(b)
        inputs.append(_decoder_input(cfg, target_ids))

    ctx_lens = [len(ids) for ids, _ in context_rows]
    enc_ids = [i for ids, _ in context_rows for i in ids]
    enc_key = np.concatenate([mask for _, mask in context_rows])
    h_e = _encoder_stack(params, enc_ids, np.concatenate([np.arange(n) for n in ctx_lens]),
                         T.AttentionLayout(ctx_lens, ctx_lens, key_ok=enc_key))

    order = [b for group in branches_of for b in group]
    dec_lens = np.array([len(inputs[b]) for b in order])
    dec_ids = np.array([i for b in order for i in inputs[b]], dtype=np.int64)
    rows_per_context = [sum(len(inputs[b]) for b in group) for group in branches_of]
    layer_states, h = _decoder_stack(
        params, h_e, dec_ids, np.concatenate([np.arange(n) for n in dec_lens]),
        T.AttentionLayout(dec_lens, dec_lens, causal=True, key_ok=dec_ids != cfg.pad_id),
        T.AttentionLayout(rows_per_context, ctx_lens, key_ok=enc_key))
    ends = np.cumsum(dec_lens)
    # Row r predicts the input token of row r + 1; each branch's last row, EOS.
    predict = np.roll(dec_ids, -1)
    predict[ends - 1] = cfg.eos_id
    target_mask = dec_ids != cfg.pad_id
    target_mask[ends - dec_lens] = False  # BOS rows
    return PackedTrace(layer_states=layer_states,
                       logits=T.matmul(h, params["cg_head.w"]),
                       branch_of_row=np.repeat(order, dec_lens),
                       target_mask=target_mask, predict_ids=predict)


def decode_step(params: ModelParams, enc: EncoderOutput,
                prefix_ids: Sequence[int]) -> np.ndarray:
    """Log-softmax over the next token given a BOS-prefixed prefix."""
    cfg = params.config
    prefix = tuple(int(i) for i in prefix_ids)
    if not prefix or prefix[0] != cfg.bos_id:
        raise ValueError(f"prefix must start with BOS id {cfg.bos_id}: {prefix}")
    _check_length(cfg, len(prefix), "prefix")
    with T.no_grad():
        _, h = _decoder_forward(params, enc, prefix)
        logits = T.matmul(h, params["cg_head.w"]).data[-1]
    return logits - T.logsumexp(logits)


def sequence_log_likelihood(params: ModelParams, context_ids: Sequence[int],
                            question_ids: Sequence[int]) -> float:
    """Sum of log p(y_t | y_<t, c) over non-pad target positions, EOS included."""
    cfg = params.config
    with T.no_grad():
        enc = encode(params, context_ids)
        trace = decode_teacher_forced(params, enc, question_ids)
        logits = trace.logits.data
    lse = T.logsumexp(logits)
    total = 0.0
    for row, tok in enumerate(trace.predict_ids):
        if tok != cfg.pad_id:
            total += logits[row, tok] - lse[row]
    return float(total)


# ---------------------------------------------------------------------------
# Checkpoint container: MAGIC + uint32 header length + JSON header + raw
# little-endian float64 buffers in manifest order.


def save_checkpoint(path, params: ModelParams, vocab_tokens: Sequence[str] | None = None) -> None:
    manifest = [(name, list(t.data.shape)) for name, t in params.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(params.config),
        "vocab": list(vocab_tokens) if vocab_tokens is not None else None,
        "tensors": manifest,
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, t in params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, list[str] | None]:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    offset += header_len
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('format_version')!r}")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, KeyError, ConfigError) as e:
        raise CheckpointError(f"invalid config in checkpoint: {e}") from e
    expected = [(name, list(shape)) for name, shape in _param_manifest(config)]
    try:
        declared = [(name, list(shape)) for name, shape in header.get("tensors", [])]
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed tensor manifest in checkpoint: {e}") from e
    if declared != expected:
        raise CheckpointError("checkpoint tensor manifest does not match its config")
    tensors: dict[str, Tensor] = {}
    for name, shape in expected:
        size = int(np.prod(shape)) * 8
        if offset + size > len(raw):
            raise CheckpointError(f"checkpoint truncated while reading {name}")
        data = np.frombuffer(raw, dtype="<f8", count=int(np.prod(shape)),
                             offset=offset).reshape(shape).astype(np.float64)
        if not np.isfinite(data).all():
            raise CheckpointError(f"checkpoint parameter {name} holds non-finite values")
        tensors[name] = Tensor(data, requires_grad=True)
        offset += size
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes in checkpoint")
    vocab = header.get("vocab")
    return ModelParams(config, tensors), vocab

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from pqgen import corpus as C
from pqgen import model as M
from pqgen import tensor as T

from . import reference


def toy_config(**kw):
    base = dict(vocab_size=12, d_model=8, n_heads=2, n_enc_layers=2,
                n_dec_layers=2, d_ff=16, max_len=16)
    base.update(kw)
    return M.ModelConfig(**base)


@pytest.fixture()
def params():
    return M.init_params(toy_config(), seed=0)


def log_softmax(row):
    s = row - row.max()
    return s - np.log(np.exp(s).sum())


def test_config_divisibility_error():
    with pytest.raises(M.ConfigError):
        toy_config(d_model=8, n_heads=3)


def test_init_deterministic_and_seed_sensitive():
    a = M.init_params(toy_config(), seed=1)
    b = M.init_params(toy_config(), seed=1)
    c = M.init_params(toy_config(), seed=2)
    for name in a.names():
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


def test_init_norm_gains_and_biases(params):
    np.testing.assert_array_equal(params["enc0.self.ln.g"].data, np.ones(8))
    np.testing.assert_array_equal(params["dec1.ffn.b2"].data, np.zeros(8))


def test_parameter_count_pure_function_of_config():
    a = M.init_params(toy_config(), seed=1)
    b = M.init_params(toy_config(), seed=99)
    assert a.n_parameters == b.n_parameters


# 8e17 parameters (5.55 EiB) is past any 64-bit address space, so the
# allocation fails at once without touching memory; 8e18 is past numpy's
# own size limit.
@pytest.mark.parametrize("max_len", [10 ** 17, 10 ** 18])
def test_a_model_too_large_to_allocate_is_a_config_error(max_len):
    cfg = toy_config(max_len=max_len)
    n = sum(math.prod(shape) for _, shape in M._param_manifest(cfg))
    with pytest.raises(M.ConfigError, match=f"^cannot allocate a model of {n} parameters: "):
        M.init_params(cfg, seed=0)


@pytest.mark.parametrize("d_model,n_heads", [(8, 1), (8, 2), (16, 2)])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_shape_contracts(d_model, n_heads, layers):
    cfg = toy_config(d_model=d_model, n_heads=n_heads, n_enc_layers=layers,
                     n_dec_layers=layers, d_ff=3 * d_model)
    p = M.init_params(cfg, seed=3)
    enc = M.encode(p, [5, 6, 7])
    assert enc.h_e.shape == (3, d_model)
    trace = M.decode_teacher_forced(p, enc, [8, 9])
    assert trace.logits.shape == (3, cfg.vocab_size)  # len(target)+1 rows
    assert len(trace.layer_states) == layers
    for st in trace.layer_states:
        assert st.shape == (3, d_model)
    assert trace.target_mask.tolist() == [False, True, True]
    assert trace.predict_ids.tolist() == [8, 9, cfg.eos_id]


PAD_IN_CONTEXT = "^context must not contain the PAD id 0$"
PAD_IN_TARGET = r"^target must not contain PAD/BOS/EOS ids: "


@pytest.mark.parametrize("ctx", [[0], [0, 0, 0], [5, 6, 7, 8, 0, 0, 0], [0, 5, 6], [5, 0, 6]])
def test_every_model_entry_refuses_pad_in_a_context(params, ctx):
    # Inputs are packed, never padded: a PAD anywhere in a context is refused
    # before anything is encoded.
    with pytest.raises(ValueError, match=PAD_IN_CONTEXT):
        M.encode(params, ctx)
    with pytest.raises(ValueError, match=PAD_IN_CONTEXT):
        M.encode(params, [5, 6], ctx)
    with pytest.raises(ValueError, match=PAD_IN_CONTEXT):
        M.decode_packed(params, [((5, 6), (8,)), (tuple(ctx), (8, 9))])
    with pytest.raises(ValueError, match=PAD_IN_CONTEXT):
        M.sequence_log_likelihood(params, ctx, [8, 9])


@pytest.mark.parametrize("tgt", [[0], [9, 10, 0], [0, 9], [9, 0, 10]])
def test_every_model_entry_refuses_pad_in_a_target(params, tgt):
    enc = M.encode(params, [5, 6, 7, 8])
    with pytest.raises(ValueError, match=PAD_IN_TARGET):
        M.decode_teacher_forced(params, enc, tgt)
    with pytest.raises(ValueError, match=PAD_IN_TARGET):
        M.decode_packed(params, [((5, 6), (8,)), ((5, 6), tuple(tgt))])
    with pytest.raises(ValueError, match=PAD_IN_TARGET):
        M.sequence_log_likelihood(params, [5, 6, 7, 8], tgt)


def test_encode_stacks_contexts_as_each_alone(params):
    contexts = [[5, 6, 7, 4], [9, 4, 5, 6, 7, 8], [3, 9]]
    enc = M.encode(params, *contexts)
    assert enc.lengths == [4, 6, 2]
    rows = [slice(0, 4), slice(4, 10), slice(10, 12)]
    alone = [M.encode(params, c) for c in contexts]
    for c, one in enumerate(alone):
        np.testing.assert_allclose(enc.h_e.data[rows[c]], one.h_e.data, rtol=0, atol=1e-12)
    # Each context attends only to itself: changing one (at the same length)
    # leaves the rows of the others bit-identical.
    changed = M.encode(params, contexts[0], [4, 4, 9, 10, 3, 8], contexts[2])
    assert not np.allclose(changed.h_e.data[rows[1]], enc.h_e.data[rows[1]])
    for c in (0, 2):
        assert np.array_equal(changed.h_e.data[rows[c]], enc.h_e.data[rows[c]])
    # Each product of the stacked start holds the cross keys and values of
    # its lone start; the padded key slots past its length are masked, by
    # the key mask of the layout the encoder ran under.
    state = M.start_decoding(params, enc)
    assert state.product.tolist() == [0, 1, 2]
    assert state.cross_bias is enc.layout.bias
    assert state.cross_bias.shape == (3, 1, 1, 6)
    for p, one in enumerate(alone):
        lone = M.start_decoding(params, one)
        assert lone.cross_bias is None
        n = one.lengths[0]
        for kv, lone_kv in zip(state.cross_kv, lone.cross_kv):
            for got, want in zip(kv, lone_kv):
                np.testing.assert_allclose(got[p, :, :n], want[0], rtol=0, atol=1e-12)
        assert (state.cross_bias[p, ..., :n] == 0.0).all()
        assert (state.cross_bias[p, ..., n:] == -np.inf).all()


def test_encode_position_sensitivity(params):
    a = M.encode(params, [5, 6, 7]).h_e.data
    b = M.encode(params, [6, 5, 7]).h_e.data
    assert not np.allclose(a, b, atol=1e-6)


def test_encode_length_and_pad_errors(params):
    with pytest.raises(M.SequenceLengthError):
        M.encode(params, [5] * 17)
    with pytest.raises(M.SequenceLengthError):
        M.encode(params, [])
    with pytest.raises(ValueError, match=PAD_IN_CONTEXT):
        M.encode(params, [0, 0])
    with pytest.raises(IndexError):
        M.encode(params, [5, 99])


def test_decoder_causality(params):
    enc = M.encode(params, [5, 6, 7])
    base = M.decode_teacher_forced(params, enc, [8, 9, 10, 11]).logits.data
    for j, new_tok in [(1, 4), (2, 5), (3, 6)]:
        tgt = [8, 9, 10, 11]
        tgt[j] = new_tok
        changed = M.decode_teacher_forced(params, enc, tgt).logits.data
        np.testing.assert_allclose(changed[:j + 1], base[:j + 1], atol=1e-10)
        assert not np.allclose(changed[j + 1], base[j + 1], atol=1e-8)


def test_single_layer_states_feed_cg_head():
    cfg = toy_config(n_dec_layers=1)
    p = M.init_params(cfg, seed=4)
    enc = M.encode(p, [5, 6])
    trace = M.decode_teacher_forced(p, enc, [7, 8])
    recomputed = T.matmul(trace.layer_states[0], p["cg_head.w"])
    np.testing.assert_allclose(recomputed.data, trace.logits.data, atol=1e-12)


def test_decode_teacher_forced_rejects_bos_eos_and_empty(params):
    enc = M.encode(params, [5, 6])
    with pytest.raises(ValueError):
        M.decode_teacher_forced(params, enc, [7, 1])
    with pytest.raises(ValueError):
        M.decode_teacher_forced(params, enc, [2, 7])
    with pytest.raises(M.SequenceLengthError):
        M.decode_teacher_forced(params, enc, [])


def test_decode_teacher_forced_refuses_an_encoding_of_several_contexts(params):
    enc = M.encode(params, [5, 6], [7, 8, 9])
    with pytest.raises(ValueError, match="^decode_teacher_forced needs the encoding of "
                                         "one context, got 2$") as exc:
        M.decode_teacher_forced(params, enc, [7, 8])
    assert not isinstance(exc.value, T.ShapeError)
    # Each context encoded alone still decodes.
    for context in ([5, 6], [7, 8, 9]):
        trace = M.decode_teacher_forced(params, M.encode(params, context), [7, 8])
        assert trace.logits.data.shape == (3, 12)


def test_decode_step_consistency_every_prefix(params):
    # The cached step fed the target one token at a time sees, at each
    # position, the distribution of that row of the teacher-forced pass; so
    # does the uncached reference step on every prefix.
    enc = M.encode(params, [5, 6, 7])
    target = [8, 9, 10, 4]
    trace = M.decode_teacher_forced(params, enc, target)
    state = M.start_decoding(params, enc)
    for r, token in enumerate([1] + target):
        step, state = M.decode_step(params, state, [token])
        assert step.shape == (1, params.config.vocab_size)
        assert abs(np.exp(step[0]).sum() - 1.0) < 1e-10
        want = log_softmax(trace.logits.data[r])
        np.testing.assert_allclose(step[0], want, atol=1e-10)
        np.testing.assert_allclose(reference.decode_step(params, enc, [1] + target[:r]), want,
                                   atol=1e-10)


def test_decode_step_validates_prefix(params):
    enc = M.encode(params, [5])
    with pytest.raises(ValueError):
        reference.decode_step(params, enc, [5, 6])  # missing BOS
    with pytest.raises(M.SequenceLengthError):
        reference.decode_step(params, enc, [1] + [5] * 16)
    state = M.start_decoding(params, enc)
    for token in [1] + [5] * 15:
        _, state = M.decode_step(params, state, [token])
    with pytest.raises(M.SequenceLengthError):
        M.decode_step(params, state, [5])  # position 16 is past max_len


def test_sequence_log_likelihood_identity(params):
    ctx, tgt = [5, 6, 7], [8, 9, 10]
    sll = M.sequence_log_likelihood(params, ctx, tgt)
    assert sll <= 0.0
    enc = M.encode(params, ctx)
    trace = M.decode_teacher_forced(params, enc, tgt)
    ce = T.cross_entropy(trace.logits, list(trace.predict_ids),
                         pad_id=params.config.pad_id).item()
    n_tokens = len(tgt) + 1
    assert abs(sll + n_tokens * ce) < 1e-10


def test_decode_step_records_nothing(params):
    enc = M.encode(params, [5, 6])
    n_before = len(T.active_tape())
    state = M.start_decoding(params, enc)
    _, state = M.decode_step(params, state, [1])
    M.decode_step(params, state.reorder([0, 0]), [8, 9])
    assert len(T.active_tape()) == n_before


VOCAB_TOKENS = ["is", "it", "?", "red", "pan", "how", "big", "does"]  # vocab_size - 4


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, params, vocab_tokens=VOCAB_TOKENS)
    loaded, vocab = M.load_checkpoint(path)
    assert vocab == VOCAB_TOKENS
    assert loaded.config == params.config
    for name in params.names():
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
    # Saving again is byte-identical.
    path2 = tmp_path / "m2.ckpt"
    M.save_checkpoint(path2, params, vocab_tokens=VOCAB_TOKENS)
    assert path.read_bytes() == path2.read_bytes()


def header_of(raw: bytes) -> dict:
    """A checkpoint's JSON header."""
    n = struct.unpack_from("<I", raw, len(M.MAGIC))[0]
    return json.loads(raw[len(M.MAGIC) + 4:len(M.MAGIC) + 4 + n])


def with_header(raw: bytes, **fields) -> bytes:
    """A checkpoint's bytes with some header fields replaced."""
    n = struct.unpack_from("<I", raw, len(M.MAGIC))[0]
    start = len(M.MAGIC) + 4
    header = json.loads(raw[start:start + n])
    header.update(fields)
    blob = json.dumps(header).encode("utf-8")
    return raw[:len(M.MAGIC)] + struct.pack("<I", len(blob)) + blob + raw[start + n:]


def test_checkpoint_validation_errors(tmp_path, params):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, params, vocab_tokens=VOCAB_TOKENS)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad1.ckpt"
    bad_magic.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(bad_magic)

    truncated = tmp_path / "bad2.ckpt"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(truncated)

    trailing = tmp_path / "bad3.ckpt"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(trailing)

    # A header claiming far more parameters than the file holds is refused
    # before anything of that size is allocated.
    huge = M.ModelConfig(**dict(vars(params.config), d_model=2 ** 20, n_heads=1))
    oversized = tmp_path / "bad6.ckpt"
    oversized.write_bytes(with_header(raw, config=vars(huge), tensors=list(M._param_manifest(huge))))
    with pytest.raises(M.CheckpointError, match="truncated"):
        M.load_checkpoint(oversized)

    # A stored vocab is a list of exactly vocab_size - 4 strings.
    bad_vocab = tmp_path / "bad4.ckpt"
    for vocab in (None, 5, [1, 2], {"a": 1}, "is it?", VOCAB_TOKENS[:-1], VOCAB_TOKENS + ["x"],
                  VOCAB_TOKENS[:-1] + [None]):
        bad_vocab.write_bytes(with_header(raw, vocab=vocab))
        with pytest.raises(M.CheckpointError, match="vocab"):
            M.load_checkpoint(bad_vocab)
    bad_vocab.write_bytes(with_header(raw, vocab=VOCAB_TOKENS))
    assert M.load_checkpoint(bad_vocab)[1] == VOCAB_TOKENS
    with pytest.raises(M.CheckpointError, match="vocab"):
        M.save_checkpoint(tmp_path / "bad5.ckpt", params, vocab_tokens=VOCAB_TOKENS[:3])
    assert not (tmp_path / "bad5.ckpt").exists()


LTD6 = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "ltd6.ckpt"


def test_reserved_ids_are_the_corpus_ids_and_no_option():
    assert (M.ModelConfig.pad_id, M.ModelConfig.bos_id, M.ModelConfig.eos_id) == \
        (C.PAD, C.BOS, C.EOS)
    for name in ("pad_id", "bos_id", "eos_id"):
        with pytest.raises(TypeError):
            M.ModelConfig(vocab_size=12, **{name: 5})


def test_resaving_a_loaded_checkpoint_gives_its_bytes(tmp_path):
    # The reserved ids are written into the header's config as before, so a
    # checkpoint of an earlier version round-trips byte for byte.
    params, tokens = M.load_checkpoint(LTD6)
    M.save_checkpoint(tmp_path / "again.ckpt", params, tokens)
    assert (tmp_path / "again.ckpt").read_bytes() == LTD6.read_bytes()


@pytest.mark.parametrize("field, value", [("eos_id", 9), ("pad_id", 3), ("bos_id", "1")])
def test_checkpoint_that_redefines_a_reserved_id_is_refused(tmp_path, field, value):
    raw = LTD6.read_bytes()
    config = header_of(raw)["config"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header(raw, config={**config, field: value}))
    with pytest.raises(M.CheckpointError, match=f"reserved ids .*'{field}': {value!r}"):
        M.load_checkpoint(bad)
    # A header that leaves the reserved ids out loads as before.
    del config[field]
    bad.write_bytes(with_header(raw, config=config))
    assert np.array_equal(M.load_checkpoint(bad)[0].vector, M.load_checkpoint(LTD6)[0].vector)


def test_checkpoint_every_truncation_raises_checkpoint_error(tmp_path):
    tiny = M.init_params(M.ModelConfig(vocab_size=5, d_model=2, n_heads=1, n_enc_layers=1,
                                       n_dec_layers=1, d_ff=1, max_len=2), seed=0)
    path = tmp_path / "tiny.ckpt"
    M.save_checkpoint(path, tiny, vocab_tokens=["x"])
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(cut)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_parameter_raises(tmp_path, params, value):
    bad = params.copy()
    bad["dec0.cross.wv"].data[1, 2] = value
    path = tmp_path / "bad.ckpt"
    M.save_checkpoint(path, bad, vocab_tokens=VOCAB_TOKENS)
    with pytest.raises(M.CheckpointError, match="dec0.cross.wv"):
        M.load_checkpoint(path)


def test_decode_packed_matches_per_example_decode(params):
    examples = [((5, 6, 7, 4), (8, 9)), ((9, 4, 5, 6, 7, 8), (9, 3, 10)),
                ((5, 6, 7, 4), (10, 11, 4, 5)), ((3, 9), (6,))]
    packed = M.decode_packed(params, examples)
    for b, (ctx, tgt) in enumerate(examples):
        trace = M.decode_teacher_forced(params, M.encode(params, ctx), tgt)
        rows = packed.branch_of_row == b
        np.testing.assert_allclose(packed.logits.data[rows], trace.logits.data,
                                   rtol=0, atol=1e-12)
        for got, want in zip(packed.layer_states, trace.layer_states):
            np.testing.assert_allclose(got.data[rows], want.data, rtol=0, atol=1e-12)
        assert packed.target_mask[rows].tolist() == trace.target_mask.tolist()
        assert packed.predict_ids[rows].tolist() == trace.predict_ids.tolist()


def test_decode_packed_validates_like_per_example(params):
    with pytest.raises(ValueError):
        M.decode_packed(params, [])
    with pytest.raises(ValueError, match=PAD_IN_CONTEXT):
        M.decode_packed(params, [((5,), (6,)), ((0, 0), (6,))])
    with pytest.raises(ValueError, match=PAD_IN_TARGET):
        M.decode_packed(params, [((5,), (6,)), ((5,), (6, 0))])
    with pytest.raises(ValueError):
        M.decode_packed(params, [((5,), (6, 2))])
    with pytest.raises(M.SequenceLengthError):
        M.decode_packed(params, [((5,), [6] * 16)])

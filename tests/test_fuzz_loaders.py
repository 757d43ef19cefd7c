"""Fuzzing of the three file loaders: every truncation, byte flip or inserted
bytes of a valid corpus, generations file or checkpoint either loads or
raises the loader's named error, and the CLI maps that error to exit 2 with
nothing written."""

import contextlib
import io
import json
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqgen import cli
from pqgen.corpus import CorpusSchemaError, build_vocab, load_jsonl, save_jsonl, synth_corpus
from pqgen.model import CheckpointError, ModelConfig, init_params, load_checkpoint, \
    save_checkpoint

from .test_model import with_header


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A 12-product corpus, a tiny untrained checkpoint with its vocabulary
    and a generations file for the corpus's first two products."""
    root = tmp_path_factory.mktemp("valid")
    records = synth_corpus(seed=0, n_products=12, questions_range=(2, 2))
    save_jsonl(records, root / "corpus.jsonl")
    vocab = build_vocab(records)
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, d_ff=16, max_len=32)
    save_checkpoint(root / "model.ckpt", init_params(config, seed=0),
                    vocab_tokens=list(vocab.id_to_token[4:]))
    lines = [{"kind": "config", "groups": 3}] + [
        {"product_id": rec.product_id, "questions": list(rec.questions), "scores": [-1.5, -2.0],
         "shortage": False} for rec in records[:2]]
    (root / "gen.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    return {name: (root / name).read_bytes() for name in ("corpus.jsonl", "model.ckpt",
                                                          "gen.jsonl")}


JSON_TOKENS = [b".0", b"e1", b"-", b"0", b"true", b'"', b"[", b"{", b","]


@st.composite
def mutated(draw, data: bytes, hot: int):
    """`data` truncated, with one byte flipped, or with bytes inserted: one
    or two of any value, or a JSON token that turns an integer into a float,
    a bool or a string. Half the positions fall in data[:hot], where the
    structure is."""
    at = draw(st.integers(0, hot - 1) | st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    inserted = st.binary(min_size=1, max_size=2) | st.sampled_from(JSON_TOKENS)
    return data[:at] + draw(inserted) + data[at:]


def loads_or_raises(loader, path, error) -> bool:
    """Whether `loader(path)` refused the file with `error`; any other
    exception escapes and fails the test."""
    try:
        loader(path)
    except error:
        return True
    return False


LOADERS = {"corpus.jsonl": (load_jsonl, CorpusSchemaError),
           "gen.jsonl": (cli._load_generations, CorpusSchemaError),
           "model.ckpt": (load_checkpoint, CheckpointError)}


def fuzz(name, check, max_examples):
    """A test that draws mutations of the valid file `name` and runs `check`
    on each."""
    @settings(max_examples=max_examples, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test(valid_files, data):
        valid = valid_files[name]
        # A checkpoint's structure is its magic, header length and config.
        hot = valid.index(b'"vocab"') if name == "model.ckpt" else len(valid)
        blob = data.draw(mutated(valid, hot), label="file")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(blob)
            check(valid_files, Path(tmp), path, *LOADERS[name])
    return test


def loader_only(valid_files, tmp, path, loader, error):
    loads_or_raises(loader, path, error)


test_fuzzed_corpus_loads_or_raises_its_error = fuzz("corpus.jsonl", loader_only, 150)
test_fuzzed_generations_load_or_raise_their_error = fuzz("gen.jsonl", loader_only, 150)
test_fuzzed_checkpoint_loads_or_raises_its_error = fuzz("model.ckpt", loader_only, 150)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([f.name for f in fields(ModelConfig)]),
       st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3))
def test_checkpoint_config_value_loads_or_raises_its_error(valid_files, key, value):
    """Any JSON scalar in place of one config value: a float equal to the
    integer, a bool or a zero head count included."""
    valid = valid_files["model.ckpt"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(valid)
        config = asdict(load_checkpoint(path)[0].config)
        path.write_bytes(with_header(valid, config={**config, key: value}))
        loads_or_raises(load_checkpoint, path, CheckpointError)


def run_cli(tmp, argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI; nothing may land in `tmp` but its
    inputs, which are copied there first."""
    before = sorted(p.name for p in tmp.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert sorted(p.name for p in tmp.iterdir()) == before
    return code, err.getvalue()


def cli_exits_2(command):
    """A check that runs `command` on the mutated file whenever its loader
    refuses it: exit 2 with a one-line data error, and no output written."""
    def check(valid_files, tmp, path, loader, error):
        if not loads_or_raises(loader, path, error):
            return
        for name, blob in valid_files.items():
            if not (tmp / name).exists():
                (tmp / name).write_bytes(blob)
        argv = {"train": ["train", "--corpus", path, "--out", tmp / "out.ckpt"],
                "evaluate": ["evaluate", "--generations", path, "--gold", tmp / "corpus.jsonl",
                             "--checkpoint", tmp / "model.ckpt", "--report", tmp / "r"],
                "generate": ["generate", "--checkpoint", path, "--corpus", tmp / "corpus.jsonl",
                             "--out", tmp / "g.jsonl"]}[command]
        code, err = run_cli(tmp, argv)
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    return check


test_fuzzed_corpus_train_exits_2 = fuzz("corpus.jsonl", cli_exits_2("train"), 15)
test_fuzzed_generations_evaluate_exits_2 = fuzz("gen.jsonl", cli_exits_2("evaluate"), 15)
test_fuzzed_checkpoint_generate_exits_2 = fuzz("model.ckpt", cli_exits_2("generate"), 15)

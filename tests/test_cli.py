"""End-to-end CLI tests: subcommand plumbing, config precedence, exit codes,
and the determinism contracts (byte-identical corpora, checkpoints, and
generation files)."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pqgen import cli
from pqgen.cli import main
from pqgen.corpus import load_jsonl, save_jsonl


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def make_corpus(capsys, path, products=12, qmin=2, qmax=2, seed=0):
    code, _, _ = run(capsys, "synth", "--seed", str(seed),
                     "--products", str(products), "--out", str(path),
                     "--questions-min", str(qmin), "--questions-max", str(qmax))
    assert code == 0
    return path


TINY_MODEL = ["--d-model", "8", "--n-heads", "2", "--enc-layers", "1",
              "--dec-layers", "1", "--d-ff", "16", "--max-len", "32"]


def train_tiny(capsys, corpus, out, *extra):
    code, stdout, _ = run(capsys, "train", "--corpus", str(corpus),
                          "--out", str(out), *TINY_MODEL, "--epochs", "1",
                          "--batch-size", "4", *extra)
    assert code == 0
    val = [line for line in stdout.splitlines()
           if line.startswith("final_val_cg=")]
    assert len(val) == 1
    return float(val[0].split("=")[1])


# ---------------------------------------------------------------------------
# synth


def test_synth_is_byte_identical_and_loadable(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    make_corpus(capsys, a, products=20, qmin=3, qmax=6)
    make_corpus(capsys, b, products=20, qmin=3, qmax=6)
    assert a.read_bytes() == b.read_bytes()
    records = load_jsonl(a)
    assert len(records) == 20
    assert all(3 <= len(r.questions) <= 6 for r in records)


def test_synth_rejects_zero_products(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--products", "0", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, reason", [
    (["synth", "--skew", "nan"], "must be finite"),
    (["train", "--lr", "inf"], "must be finite"),
    (["generate", "--diversity-penalty", "nan"], "must be finite"),
    (["generate", "--length-penalty=-inf"], "must be finite"),
    (["synth", "--seed", "-1"], "must be >= 0"),
    (["generate", "--split-seed", "-2"], "must be >= 0"),
])
def test_out_of_range_option_is_usage_error(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert reason in capsys.readouterr().err


def test_synth_requires_out(capsys):
    code, _, err = run(capsys, "synth", "--products", "5")
    assert code == 1
    assert "--out" in err


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# config file plumbing


def test_config_file_and_flag_precedence(tmp_path, capsys):
    saved = tmp_path / "conf.json"
    a = tmp_path / "a.jsonl"
    code, _, _ = run(capsys, "synth", "--seed", "7", "--products", "10",
                     "--out", str(a), "--save-config", str(saved))
    assert code == 0
    conf = json.loads(saved.read_text())
    assert conf["seed"] == 7 and conf["products"] == 10

    # Re-running from the saved config reproduces the corpus byte for byte.
    b = tmp_path / "b.jsonl"
    code, _, _ = run(capsys, "synth", "--config", str(saved), "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()

    # An explicit flag wins over the config file value.
    c = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "synth", "--config", str(saved), "--seed", "8",
                     "--out", str(c))
    assert code == 0
    assert a.read_bytes() != c.read_bytes()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text('{"prodcuts": 5}')
    code, _, err = run(capsys, "synth", "--config", str(conf),
                       "--out", str(tmp_path / "x.jsonl"))
    assert code == 1
    assert "prodcuts" in err


def test_verbosity_env_var_silences_config_echo(tmp_path, capsys, monkeypatch):
    out = tmp_path / "a.jsonl"
    monkeypatch.setenv("PQGEN_VERBOSE", "0")
    code, stdout, _ = run(capsys, "synth", "--products", "10", "--out", str(out))
    assert code == 0
    assert "config:" not in stdout
    monkeypatch.setenv("PQGEN_VERBOSE", "1")
    code, stdout, _ = run(capsys, "synth", "--products", "10", "--out", str(out))
    assert code == 0
    assert "config:" in stdout


@pytest.mark.parametrize("command, config", [
    ("synth", {"products": 0}),
    ("train", {"d_model": "abc"}),
    ("train", {"epochs": 1.5}),
    ("train", {"mode": "LTD"}),
    ("generate", {"corpus_split": "dev"}),
])
def test_bad_config_value_is_usage_error_naming_the_key(tmp_path, capsys, command, config):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    code, _, err = run(capsys, command, "--config", str(conf))
    assert code == 1
    (key,) = config
    assert f"config key {key!r}" in err
    assert "Traceback" not in err


def test_saved_config_with_unset_options_loads_back(tmp_path, capsys):
    # --corpus and --log are unset, so the saved file holds nulls for them.
    saved = tmp_path / "conf.json"
    code, first, _ = run(capsys, "train", "--out", "m.ckpt", "--epochs", "2",
                         "--save-config", str(saved))
    assert code == 1  # still missing --corpus
    assert json.loads(saved.read_text())["log"] is None
    code, second, err = run(capsys, "train", "--config", str(saved))
    assert code == 1 and "--corpus" in err
    assert first == second


_TABLE_ROWS = [(command, row) for command, _, options, _ in cli._COMMANDS for row in options]
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or (a != a and b != b))  # NaN equals NaN here


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_TABLE_ROWS), _JSON_SCALARS)
def test_config_value_resolves_as_its_flag_parses(row, value):
    """Every config value is stored as its flag would parse its text, or
    refused with a usage error; nothing else escapes. Only the config is
    resolved, so no subcommand runs."""
    command, (key, flag, _, default, *_) = row
    parser = cli.build_parser()
    if value is None:
        want = None if default is None else cli._UsageError
    elif isinstance(value, bool):
        want = cli._UsageError
    else:
        try:
            want = getattr(parser.parse_args([command, f"{flag}={value}"]), key)
        except SystemExit:
            want = cli._UsageError
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "conf.json"
        conf.write_text(json.dumps({key: value}))
        ns = parser.parse_args([command, "--config", str(conf)])
        ns.save_config = None
        try:
            got = cli._resolve(ns, next(o for c, _, o, _ in cli._COMMANDS if c == command))
        except cli._UsageError as e:
            assert want is cli._UsageError, f"refused {value!r} for {key}: {e}"
            assert repr(key) in str(e)
            return
    assert want is not cli._UsageError, f"accepted {value!r} for {key}"
    assert _same(got[key], want)


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ckpt = tmp_path / "model.ckpt"
    val = train_tiny(capsys, corpus, ckpt)
    assert math.isfinite(val)
    assert ckpt.exists()
    log = tmp_path / "model.ckpt.log.jsonl"
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    # 10 train products with one pair each, batch 4 -> 3 steps, plus 1 epoch row.
    assert len(rows) == 4
    assert sum(1 for r in rows if r["kind"] == "step") == 3
    assert sum(1 for r in rows if r["kind"] == "epoch") == 1


def test_train_same_seed_identical_checkpoint_bytes(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    train_tiny(capsys, corpus, a)
    train_tiny(capsys, corpus, b)
    assert a.read_bytes() == b.read_bytes()


def test_train_ltd_lambda0_matches_traditional(tmp_path, capsys):
    # Every product contributes one two-question pair, so ltd at batch 4
    # consumes the same questions per step as traditional at batch 8.
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ltd = train_tiny(capsys, corpus, tmp_path / "ltd.ckpt",
                     "--mode", "ltd", "--lambda", "0")
    trad = train_tiny(capsys, corpus, tmp_path / "trad.ckpt",
                      "--mode", "traditional", "--batch-size", "8")
    assert abs(ltd - trad) < 1e-8


def test_train_prints_best_and_final_validation_cg(tmp_path, capsys):
    # lr 10 diverges, so the second epoch validates worse than the first and
    # the retained (best) value differs from the last one.
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ckpt = tmp_path / "m.ckpt"
    code, stdout, _ = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                          *TINY_MODEL, "--epochs", "2", "--batch-size", "4", "--lr", "10")
    assert code == 0
    printed = dict(line.split("=", 1) for line in stdout.splitlines()
                   if line.startswith(("best_val_cg=", "final_val_cg=")))
    log = [json.loads(line) for line in (tmp_path / "m.ckpt.log.jsonl").read_text().splitlines()]
    vals = [r["val_cg"] for r in log if r["kind"] == "epoch"]
    assert len(vals) == 2 and vals[1] > vals[0]
    assert float(printed["best_val_cg"]) == pytest.approx(min(vals), abs=1e-9)
    assert float(printed["final_val_cg"]) == pytest.approx(vals[-1], abs=1e-9)


def test_train_bad_corpus_schema_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"product_id": "p1", "context": "no questions field"}\n')
    code, _, err = run(capsys, "train", "--corpus", str(bad),
                       "--out", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "questions" in err


def test_train_bad_model_dims_exit_1(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    code, _, _ = run(capsys, "train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.ckpt"),
                     "--d-model", "7", "--n-heads", "2")
    assert code == 1


# ---------------------------------------------------------------------------
# generate


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared tiny corpus + checkpoint for generation/evaluation tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.jsonl"
    ckpt = root / "model.ckpt"
    assert main(["synth", "--seed", "0", "--products", "12",
                 "--questions-min", "2", "--questions-max", "2",
                 "--out", str(corpus)]) == 0
    # lr high enough that the d8 model emits non-empty questions; at the
    # default 1e-4 it stays near init and decodes an immediate end token.
    assert main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                 *TINY_MODEL, "--epochs", "3", "--batch-size", "4",
                 "--lr", "3e-3"]) == 0
    return corpus, ckpt


def generate_args(corpus, ckpt, out, *extra):
    return ["generate", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--out", str(out), "--beams", "2", "--groups", "2",
            "--max-new", "12", "--questions", "4", *extra]


def test_generate_record_count_and_header(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    out = tmp_path / "gen.jsonl"
    code, _, _ = run(capsys, *generate_args(corpus, ckpt, out,
                                            "--diversity-penalty", "1.5"))
    assert code == 0
    lines = [json.loads(x) for x in out.read_text().splitlines()]
    header, records = lines[0], lines[1:]
    assert header["kind"] == "config"
    assert header["diversity_penalty"] == 1.5
    assert header["corpus_split"] == "test"
    # 12 products split 10/1/1: one test product.
    assert len(records) == 1
    for rec in records:
        assert set(rec) == {"product_id", "questions", "scores", "shortage"}
        assert len(rec["questions"]) == len(rec["scores"]) <= 4


def test_generate_is_deterministic(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(capsys, *generate_args(corpus, ckpt, a))[0] == 0
    assert run(capsys, *generate_args(corpus, ckpt, b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_workers_do_not_change_output(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(capsys, *generate_args(corpus, ckpt, a, "--workers", "1"))[0] == 0
    assert run(capsys, *generate_args(corpus, ckpt, b, "--workers", "2"))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_missing_checkpoint_exits_2(pipeline, tmp_path, capsys):
    corpus, _ = pipeline
    code, _, _ = run(capsys, "generate", "--checkpoint",
                     str(tmp_path / "missing.ckpt"), "--corpus", str(corpus),
                     "--out", str(tmp_path / "g.jsonl"))
    assert code == 2


def test_generate_truncated_checkpoint_exits_2_without_traceback(pipeline, tmp_path,
                                                                 capsys):
    corpus, ckpt = pipeline
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:10])  # magic plus half the header length
    code, _, err = run(capsys, "generate", "--checkpoint", str(cut),
                       "--corpus", str(corpus), "--out", str(tmp_path / "g.jsonl"))
    assert code == 2
    assert "truncated" in err
    assert "Traceback" not in err


def test_generate_context_longer_than_max_len_exits_2(tmp_path, capsys):
    # Contexts hold 13-15 tokens, so a max_len of 16 trains; doubled, they no
    # longer fit, and generate must refuse them rather than cut them.
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ckpt = tmp_path / "short.ckpt"
    code, _, _ = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                     *TINY_MODEL, "--max-len", "16", "--epochs", "1", "--batch-size", "4")
    assert code == 0
    long = tmp_path / "long.jsonl"
    save_jsonl([dataclasses.replace(r, context=f"{r.context} {r.context}")
                for r in load_jsonl(corpus)], long)
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(long, ckpt, out))
    assert code == 2
    assert err == "data error: product p00001: context length 30 exceeds max_len 16\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_end_to_end(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    gen = tmp_path / "gen.jsonl"
    assert run(capsys, *generate_args(corpus, ckpt, gen))[0] == 0
    prefix = tmp_path / "report"
    code, stdout, _ = run(capsys, "evaluate", "--generations", str(gen),
                          "--gold", str(corpus), "--checkpoint", str(ckpt),
                          "--report", str(prefix))
    assert code == 0
    assert "BLEU" in stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_products"] == 1
    assert math.isfinite(report["bleu_top1"])
    csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "threshold,count"
    assert len(csv_lines) == 1 + 19
    # stdout carries the config echo first, then the same table.
    assert stdout.endswith((tmp_path / "report.txt").read_text())


def test_evaluate_gold_vs_gold_is_100(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    records = load_jsonl(corpus)
    gen = tmp_path / "gold_gen.jsonl"
    with gen.open("w") as f:
        for rec in records:
            f.write(json.dumps({"product_id": rec.product_id,
                                "questions": list(rec.questions),
                                "scores": [0.0] * len(rec.questions)}) + "\n")
    prefix = tmp_path / "report"
    code, _, _ = run(capsys, "evaluate", "--generations", str(gen),
                     "--gold", str(corpus), "--checkpoint", str(ckpt),
                     "--report", str(prefix))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["bleu_top1"] == pytest.approx(100.0)


def test_evaluate_misaligned_ids_exit_2(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"product_id": "nope", "questions": ["is it ok ?"],
                               "scores": [0.0]}) + "\n")
    code, _, err = run(capsys, "evaluate", "--generations", str(gen),
                       "--gold", str(corpus), "--checkpoint", str(ckpt),
                       "--report", str(tmp_path / "r"))
    assert code == 2
    assert "nope" in err

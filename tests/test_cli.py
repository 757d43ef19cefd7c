"""End-to-end CLI tests: subcommand plumbing, config precedence, exit codes,
and the determinism contracts (byte-identical corpora, checkpoints, and
generation files)."""

import ast
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pqgen
from pqgen import cli, training
from pqgen.cli import main
from pqgen.corpus import load_jsonl, save_jsonl, split, tokenize
from pqgen.model import MAGIC, ConfigError, ModelParams, load_checkpoint, save_checkpoint

from .test_metrics import BENCH_INPUTS
from .test_model import header_of, with_header


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
    (["synth", "--skew", "1.5"], "must be in [0, 1]"),
    (["synth", "--skew", "-0.1"], "must be in [0, 1]"),
    (["synth", "--config", {"skew": 2}], "must be in [0, 1]"),
])
def test_out_of_range_option_is_usage_error(argv, reason, tmp_path, capsys):
    # A dict in argv stands for the path of a config file holding it.
    conf = tmp_path / "conf.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            conf.write_text(json.dumps(arg))
            argv = [*argv[:i], str(conf), *argv[i + 1:]]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
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
        want = None if default is None else ConfigError
    elif isinstance(value, bool):
        want = ConfigError
    else:
        try:
            want = getattr(parser.parse_args([command, f"{flag}={value}"]), key)
        except SystemExit:
            want = ConfigError
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "conf.json"
        conf.write_text(json.dumps({key: value}))
        ns = parser.parse_args([command, "--config", str(conf)])
        ns.save_config = None
        try:
            got = cli._resolve(ns, next(o for c, _, o, _ in cli._COMMANDS if c == command))
        except ConfigError as e:
            assert want is ConfigError, f"refused {value!r} for {key}: {e}"
            assert repr(key) in str(e)
            return
    assert want is not ConfigError, f"accepted {value!r} for {key}"
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
    # The gradient and optimiser buffers carry no state between runs, in either
    # regime; 1-3 questions a product gives ltd batches that mix triplets with
    # single-question products, whose rows log single_cg.
    for mode, (qmin, qmax) in [("ltd", (2, 2)), ("traditional", (2, 2)), ("ltd", (1, 3))]:
        run_dir = tmp_path / f"{mode}-{qmin}-{qmax}"
        run_dir.mkdir()
        corpus = make_corpus(capsys, run_dir / "c.jsonl", qmin=qmin, qmax=qmax)
        a = run_dir / "a.ckpt"
        b = run_dir / "b.ckpt"
        train_tiny(capsys, corpus, a, "--mode", mode)
        train_tiny(capsys, corpus, b, "--mode", mode)
        assert a.read_bytes() == b.read_bytes(), run_dir.name
        log_a, log_b = (Path(f"{ckpt}.log.jsonl").read_bytes() for ckpt in (a, b))
        assert log_a == log_b, run_dir.name
        assert (b'"single_cg": ' in log_a) == (qmin < qmax), run_dir.name


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("mode", training.MODES)
def test_training_reproduces_the_golden_record(tmp_path, capsys, mode):
    # tests/golden holds the checkpoint and log of each regime, written by the
    # command README's test section gives; a change that moves training on
    # purpose rewrites them with it. The tolerance leaves room for the
    # last-digit differences between BLAS builds.
    corpus = make_corpus(capsys, tmp_path / "c.jsonl", seed=3)
    out = tmp_path / f"train-{mode}.ckpt"
    train_tiny(capsys, corpus, out, "--mode", mode, "--lr", "3e-3")
    got, got_vocab = load_checkpoint(out)
    want, want_vocab = load_checkpoint(GOLDEN / out.name)
    assert got.config == want.config and got_vocab == want_vocab
    np.testing.assert_allclose(got.vector, want.vector, rtol=0, atol=1e-10)
    got_log, want_log = ([json.loads(line) for line in (d / f"{out.name}.log.jsonl").open()]
                         for d in (tmp_path, GOLDEN))
    assert [row.keys() for row in got_log] == [row.keys() for row in want_log]
    for g, w in zip(got_log, want_log):
        assert g == pytest.approx(w, rel=0, abs=1e-10)


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
    # A decoder input holds BOS and at least one token, so max_len 1 is refused
    # by its own bound: it is positive.
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    for dims, reason in [
            (("--d-model", "7", "--n-heads", "2"), "d_model=7 not divisible by n_heads=2"),
            (("--max-len", "1"), "max_len=1 must be at least 2: BOS and one token")]:
        code, _, err = run(capsys, "train", "--corpus", str(corpus),
                           "--out", str(tmp_path / "m.ckpt"), *dims)
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            f"error: {reason}"]
        assert list(tmp_path.iterdir()) == [corpus]


# Any numpy overflow warning fails the test: the named error is all of stderr.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_overflowing_learning_rate_exits_3_with_one_line(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ckpt = tmp_path / "m.ckpt"
    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                       *TINY_MODEL, "--epochs", "1", "--batch-size", "4", "--lr", "1e300")
    assert code == 3
    assert re.fullmatch(r"numeric failure: non-finite (loss|gradient norm) \S+ at step \d+\n",
                        err), err
    assert list(tmp_path.iterdir()) == [corpus]


def test_train_model_too_large_to_allocate_exits_1_with_one_line(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--out",
                       str(tmp_path / "m.ckpt"), *TINY_MODEL, "--max-len", str(10 ** 17),
                       "--epochs", "1", "--batch-size", "4")
    assert code == 1
    assert re.fullmatch(r"error: cannot allocate a model of \d+ parameters: [^\n]*\n", err), err
    assert list(tmp_path.iterdir()) == [corpus]


def test_train_long_validation_context_exits_2_naming_it_before_any_step(
        tmp_path, capsys, monkeypatch):
    records = load_jsonl(make_corpus(capsys, tmp_path / "c.jsonl"))
    bad = split(records, seed=0).validation[0]
    context = " ".join([bad.context] * 3)
    corpus = tmp_path / "long.jsonl"
    save_jsonl([dataclasses.replace(r, context=context) if r is bad else r for r in records],
               corpus)
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    ckpt = tmp_path / "m.ckpt"
    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                       *TINY_MODEL, "--epochs", "1", "--batch-size", "4")
    assert code == 2
    assert err == (f"data error: product {bad.product_id}: context length "
                   f"{len(tokenize(context))} exceeds max_len 32\n")
    assert steps == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "long.jsonl"]


def child_env(**overrides) -> dict:
    """This environment, with the pqgen under test first on the import path."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pqgen.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The benchmark model on 500 products is large enough for OpenBLAS to
    # thread its products, and two threads round some of them differently.
    # `python -m pqgen` pins BLAS to one thread, so both runs match.
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "0", "--products", "500", "--out", str(corpus)]) == 0
    runs = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"threads{threads}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "pqgen", "train", "--corpus", str(corpus), "--out", str(ckpt),
             "--d-model", "32", "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
             "--d-ff", "64", "--max-len", "64", "--epochs", "1", "--seed", "3"],
            env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append((ckpt.read_bytes(), Path(f"{ckpt}.log.jsonl").read_bytes()))
    assert runs[0][0] == runs[1][0], "checkpoints differ"
    assert runs[0][1] == runs[1][1], "logs differ"


def test_the_pqgen_script_enters_through_the_pinning_module():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'pqgen = "pqgen.__main__:main"' in pyproject.read_text().splitlines()


def imports_outside(path: Path, allowed: set[str]) -> list[str]:
    """Every import in the file, inside functions too, that names a top-level
    module not in allowed; a relative import names the package it sits in."""
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module if node.level == 0 else path.parent.name]
        else:
            continue
        outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                    if name.partition(".")[0] not in allowed]
    return outside


def test_the_package_imports_only_the_standard_library_and_numpy():
    # The runtime is numpy-only and the package ships without tests/, where
    # the reference code lives: every import in src/pqgen, inside functions
    # too, names the standard library, numpy or pqgen itself.
    allowed = set(sys.stdlib_module_names) | {"numpy", "pqgen"}
    assert [line for path in sorted(Path(pqgen.__file__).resolve().parent.glob("*.py"))
            for line in imports_outside(path, allowed)] == []


def test_the_oracles_import_nothing_from_pqgen():
    # perfbench/oracle_checks.py trusts tests/oracles.py because it shares no
    # code with pqgen: not even through another module of tests/.
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    assert imports_outside(Path(__file__).resolve().parent / "oracles.py", allowed) == []


def test_importing_pqgen_changes_no_environment():
    # Only running the command pins the thread pools; a library import leaves
    # the host program's environment alone.
    env = child_env(OPENBLAS_NUM_THREADS="2")
    env.pop("OMP_NUM_THREADS", None)
    code = ("import os, pqgen.__main__, pqgen.cli, pqgen.training; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], 'OMP_NUM_THREADS' in os.environ)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 False\n"


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
    # The train split's 10 products make one chunk of several products.
    corpus, ckpt = pipeline
    for split_name, products in [("test", 1), ("train", 10)]:
        a = tmp_path / f"{split_name}-a.jsonl"
        b = tmp_path / f"{split_name}-b.jsonl"
        for out in (a, b):
            assert run(capsys, *generate_args(corpus, ckpt, out,
                                              "--corpus-split", split_name))[0] == 0
        assert a.read_bytes() == b.read_bytes(), split_name
        assert len(a.read_text().splitlines()) == 1 + products, split_name


def test_generate_in_process_loads_the_checkpoint_once(pipeline, tmp_path, capsys,
                                                       monkeypatch):
    corpus, ckpt = pipeline
    loaded = []
    real = cli.load_checkpoint
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path) or real(path))
    out = tmp_path / "g.jsonl"
    assert run(capsys, *generate_args(corpus, ckpt, out))[0] == 0
    assert loaded == [str(ckpt)]


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


@pytest.fixture
def long_contexts(tmp_path, capsys):
    """A checkpoint with max_len 16 and a corpus of the contexts it trained
    on, doubled: they hold 13-15 tokens, so they fit once but not twice."""
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ckpt = tmp_path / "short.ckpt"
    code, _, _ = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                     *TINY_MODEL, "--max-len", "16", "--epochs", "1", "--batch-size", "4")
    assert code == 0
    long = tmp_path / "long.jsonl"
    save_jsonl([dataclasses.replace(r, context=f"{r.context} {r.context}")
                for r in load_jsonl(corpus)], long)
    return long, ckpt


def test_generate_context_longer_than_max_len_exits_2(long_contexts, tmp_path, capsys):
    # generate must refuse a context that does not fit rather than cut it.
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(*long_contexts, out))
    assert code == 2
    assert err == "data error: product p00001: context length 30 exceeds max_len 16\n"
    assert not out.exists()


def test_generate_names_a_long_context_in_the_middle_of_a_chunk(long_contexts, tmp_path,
                                                                 capsys):
    # Only the second train-split product is too long; its chunk holds the
    # first too, and nothing of either is written.
    long, ckpt = long_contexts
    records = load_jsonl(tmp_path / "c.jsonl")
    second = split(records, seed=0).train[1].product_id
    mixed = tmp_path / "mixed.jsonl"
    save_jsonl([next(r for r in load_jsonl(long) if r.product_id == second)
                if rec.product_id == second else rec for rec in records], mixed)
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(mixed, ckpt, out, "--corpus-split", "train"))
    assert code == 2
    assert err.startswith(f"data error: product {second}: context length ")
    assert err.endswith(" exceeds max_len 16\n")
    assert not out.exists()


@pytest.mark.parametrize("extra, reason", [
    (("--groups", "100", "--beams", "2"), "num_groups*beams_per_group = 200 exceeds vocab size "),
    (("--max-new", "32",), "max_new_tokens 32 cannot fit under max_len 32"),
])
def test_generate_config_the_checkpoint_cannot_serve_exits_1(pipeline, tmp_path, capsys,
                                                              extra, reason):
    corpus, ckpt = pipeline
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(corpus, ckpt, out, *extra))
    assert code == 1
    assert err.endswith("\n") and err.splitlines()[-1].startswith(f"error: {reason}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("alpha, divisor", [("2000", "inf"), ("-2000", "0.0")])
def test_generate_length_penalty_ranking_cannot_divide_by_exits_1(pipeline, tmp_path, capsys,
                                                                   alpha, divisor):
    # 12 ** 2000 overflows a float and 12 ** -2000 is 0.0.
    corpus, ckpt = pipeline
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(corpus, ckpt, out, f"--length-penalty={alpha}"))
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        f"error: length_penalty {float(alpha)}: max_new_tokens ** length_penalty is "
        f"{divisor}, not a finite nonzero divisor"]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def overflowing(pipeline, tmp_path_factory):
    """The pipeline checkpoint with every parameter times 1e160: finite, so it
    loads, but the encoder's arithmetic overflows to NaN."""
    corpus, ckpt = pipeline
    params, tokens = load_checkpoint(ckpt)
    huge = tmp_path_factory.mktemp("overflowing") / "huge.ckpt"
    save_checkpoint(huge, ModelParams(params.config, params.vector * 1e160), tokens)
    return huge


# Any numpy overflow warning fails the test: the named error is all of stderr.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generate_overflowing_checkpoint_exits_3_with_one_line_naming_the_product(
        pipeline, overflowing, tmp_path, capsys):
    corpus, _ = pipeline
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(corpus, overflowing, out))
    first = split(load_jsonl(corpus), seed=0).test[0].product_id
    assert code == 3
    assert err == f"numeric failure: product {first}: encoder output is not finite\n"
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
    assert report["bleu_top1"] == report["avg_bleu_top3"] == 100.0


def test_evaluate_reports_do_not_depend_on_the_string_hash_seed(tmp_path):
    # BLEU's n-gram bit table and evaluate's per-call caches are sets and dicts
    # keyed on strings, so no figure may depend on their iteration order: fresh
    # interpreters under two hash seeds write the same report bytes.
    gold = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "0", "--products", "500", "--out", str(gold)]) == 0
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "pqgen", "evaluate",
             "--generations", str(BENCH_INPUTS / "generations.jsonl"), "--gold", str(gold),
             "--checkpoint", str(BENCH_INPUTS / "ltd6.ckpt"), "--report", str(tmp_path / seed)],
            env=child_env(PYTHONHASHSEED=seed), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for ext in ("txt", "json", "csv"):
        assert (tmp_path / f"0.{ext}").read_bytes() == (tmp_path / f"1.{ext}").read_bytes(), ext


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_overflowing_checkpoint_exits_3_with_one_line_naming_the_question(
        pipeline, overflowing, tmp_path, capsys):
    corpus, ckpt = pipeline
    gen = tmp_path / "gen.jsonl"
    assert run(capsys, *generate_args(corpus, ckpt, gen))[0] == 0
    top1 = json.loads(gen.read_text().splitlines()[1])["questions"][0]
    code, out, err = run(capsys, "evaluate", "--generations", str(gen), "--gold", str(corpus),
                         "--checkpoint", str(overflowing), "--report", str(tmp_path / "r"))
    assert code == 3
    assert err == (f"numeric failure: question {' '.join(tokenize(top1))!r}: "
                   "embedding is not finite\n")
    assert "products evaluated" not in out
    assert not list(tmp_path.glob("r.*"))


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


def test_evaluate_question_longer_than_max_len_exits_2(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    ckpt = tmp_path / "short.ckpt"
    code, _, _ = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                     *TINY_MODEL, "--max-len", "16", "--epochs", "1", "--batch-size", "4")
    assert code == 0
    first, second = load_jsonl(corpus)[:2]
    long = " ".join([first.questions[0]] * 3)
    gen = tmp_path / "gen.jsonl"
    gen.write_text(
        json.dumps({"product_id": first.product_id, "questions": [first.questions[0]]}) + "\n"
        + json.dumps({"product_id": second.product_id, "questions": [long, "is it ok ?"]})
        + "\n")
    code, out, err = run(capsys, "evaluate", "--generations", str(gen),
                         "--gold", str(corpus), "--checkpoint", str(ckpt),
                         "--report", str(tmp_path / "r"))
    assert code == 2
    assert err == (f"data error: product {second.product_id}: question length "
                   f"{len(long.split())} exceeds max_len 16\n")
    assert "products evaluated" not in out
    assert not list(tmp_path.glob("r.*"))


@pytest.mark.parametrize("record", [
    {"product_id": "p00001", "questions": [5, "x"]},
    {"product_id": ["p00001"], "questions": ["is it ?"]},
    {"product_id": "p00001", "questions": [None]},
])
def test_evaluate_bad_generation_record_exits_2(pipeline, tmp_path, capsys, record):
    corpus, ckpt = pipeline
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"kind": "config"}) + "\n" + json.dumps(record) + "\n")
    code, _, err = run(capsys, "evaluate", "--generations", str(gen),
                       "--gold", str(corpus), "--checkpoint", str(ckpt),
                       "--report", str(tmp_path / "r"))
    assert code == 2
    assert err == (f"data error: {gen}, line 2: expected a generation record with "
                   "a string product_id and a list of string questions\n")
    assert not list(tmp_path.glob("r.*"))


def test_train_repeated_product_id_exits_2(tmp_path, capsys):
    corpus = make_corpus(capsys, tmp_path / "c.jsonl")
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines + [lines[0]]) + "\n")
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
                         *TINY_MODEL, "--epochs", "1")
    assert code == 2
    assert err == (f"data error: {corpus}, line {len(lines) + 1}: product_id "
                   "'p00000' repeats line 1\n")
    assert "checkpoint:" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]


def test_evaluate_repeated_generation_product_id_exits_2(pipeline, tmp_path, capsys):
    corpus, ckpt = pipeline
    gen = tmp_path / "gen.jsonl"
    record = json.dumps({"product_id": "p00001", "questions": ["is it red ?"]})
    gen.write_text(json.dumps({"kind": "config"}) + "\n" + record + "\n" + record + "\n")
    code, out, err = run(capsys, "evaluate", "--generations", str(gen),
                         "--gold", str(corpus), "--checkpoint", str(ckpt),
                         "--report", str(tmp_path / "r"))
    assert code == 2
    assert err == f"data error: {gen}, line 3: product_id 'p00001' repeats line 2\n"
    assert "products evaluated" not in out
    assert not list(tmp_path.glob("r.*"))


# JSON that json.loads refuses without a JSONDecodeError: nesting this deep
# overflows the parser's recursion limit, and an integer literal of more than
# 4,300 digits raises a plain ValueError.
DEEP_JSON = "[" * 100_000
LONG_INT_JSON = "1" * 5000
LONG_INT_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"
JSONL_FLAGS = [("evaluate", "--generations"), ("evaluate", "--gold"), ("train", "--corpus")]


def run_on_bad_jsonl(pipeline, tmp_path, capsys, command, flag, text):
    """stderr of `command` given a `flag` file whose one line is `text`; the
    command must exit 2 and write nothing."""
    corpus, ckpt = pipeline
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"product_id": "p00001", "questions": ["is it red ?"]}) + "\n")
    args = {"evaluate": {"--generations": gen, "--gold": corpus, "--checkpoint": ckpt,
                         "--report": tmp_path / "r"},
            "train": {"--corpus": corpus, "--out": tmp_path / "m.ckpt"}}[command]
    args[flag] = tmp_path / "bad.jsonl"
    args[flag].write_bytes((text if isinstance(text, bytes) else text.encode()) + b"\n")
    code, _, err = run(capsys, command, *(str(x) for pair in args.items() for x in pair))
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "gen.jsonl"]
    return err


@pytest.mark.parametrize("command, flag", JSONL_FLAGS)
def test_deeply_nested_jsonl_line_exits_2(pipeline, tmp_path, capsys, command, flag):
    err = run_on_bad_jsonl(pipeline, tmp_path, capsys, command, flag, DEEP_JSON)
    assert err == (f"data error: {tmp_path / 'bad.jsonl'}, line 1: "
                   "invalid JSON (nested too deeply)\n")


@pytest.mark.parametrize("command, flag", JSONL_FLAGS)
def test_overlong_integer_jsonl_line_exits_2(pipeline, tmp_path, capsys, command, flag):
    err = run_on_bad_jsonl(pipeline, tmp_path, capsys, command, flag, LONG_INT_JSON)
    assert err.startswith(f"data error: {tmp_path / 'bad.jsonl'}, line 1: "
                          f"invalid JSON ({LONG_INT_ERROR}")


@pytest.mark.parametrize("command, flag", JSONL_FLAGS)
def test_jsonl_line_that_is_not_utf8_exits_2(pipeline, tmp_path, capsys, command, flag):
    line = b'{"product_id": "p00001", "context": "red \xff pan", "questions": ["is it red ?"]}'
    err = run_on_bad_jsonl(pipeline, tmp_path, capsys, command, flag, line)
    assert err == f"data error: {tmp_path / 'bad.jsonl'}, line 1: not UTF-8 (byte 0xff)\n"


def run_on_bad_header(pipeline, tmp_path, capsys, text):
    """stderr of `evaluate` with a checkpoint whose header is `text`; it must
    exit 2 and write no report."""
    corpus, _ = pipeline
    blob = text.encode("utf-8")
    (tmp_path / "bad.ckpt").write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"product_id": "p00001", "questions": ["is it red ?"]}) + "\n")
    code, out, err = run(capsys, "evaluate", "--generations", str(gen), "--gold", str(corpus),
                         "--checkpoint", str(tmp_path / "bad.ckpt"),
                         "--report", str(tmp_path / "r"))
    assert code == 2
    assert "products evaluated" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt", "gen.jsonl"]
    return err


def test_deeply_nested_checkpoint_header_exits_2(pipeline, tmp_path, capsys):
    err = run_on_bad_header(pipeline, tmp_path, capsys, DEEP_JSON)
    assert err == (f"data error: corrupt checkpoint header in {tmp_path / 'bad.ckpt'}: "
                   "JSON nested too deeply\n")


def test_overlong_integer_checkpoint_header_exits_2(pipeline, tmp_path, capsys):
    err = run_on_bad_header(pipeline, tmp_path, capsys, LONG_INT_JSON)
    assert err.startswith(f"data error: corrupt checkpoint header in {tmp_path / 'bad.ckpt'}: "
                          f"{LONG_INT_ERROR}")


def run_on_bad_config(tmp_path, capsys, text):
    """stderr of `train --config` on a file holding `text`; it must exit 1
    and write nothing."""
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    code, _, err = run(capsys, "train", "--config", str(conf), "--out", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json"]
    return err


def test_deeply_nested_config_file_is_usage_error(tmp_path, capsys):
    err = run_on_bad_config(tmp_path, capsys, DEEP_JSON)
    assert err == (f"error: config file {tmp_path / 'conf.json'} is not valid JSON: "
                   "nested too deeply\n")


def test_overlong_integer_config_file_is_usage_error(tmp_path, capsys):
    err = run_on_bad_config(tmp_path, capsys, LONG_INT_JSON)
    assert err.startswith(f"error: config file {tmp_path / 'conf.json'} is not valid JSON: "
                          f"{LONG_INT_ERROR}")


@pytest.mark.parametrize("field, value", [("d_model", 8.0), ("n_enc_layers", True),
                                          ("n_heads", 0)])
def test_checkpoint_config_value_that_is_not_a_dimension_exits_2(pipeline, tmp_path, capsys,
                                                                 field, value):
    # 8.0 == 8 and True == 1, so the manifest check alone would pass them.
    corpus, ckpt = pipeline
    config = dataclasses.asdict(load_checkpoint(ckpt)[0].config)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header(ckpt.read_bytes(), config={**config, field: value}))
    code, _, err = run(capsys, *generate_args(corpus, bad, tmp_path / "g.jsonl"))
    assert code == 2
    assert err.startswith("data error: invalid config in checkpoint: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]


def test_generate_on_checkpoint_that_redefines_eos_exits_2(pipeline, tmp_path, capsys):
    # A checkpoint saying EOS is token 9 would cut every question at that
    # token; it is refused with one named line and no output file.
    corpus, ckpt = pipeline
    raw = ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header(raw, config={**header_of(raw)["config"], "eos_id": 9}))
    out = tmp_path / "g.jsonl"
    code, _, err = run(capsys, *generate_args(corpus, bad, out))
    assert code == 2
    assert err.startswith("data error: invalid config in checkpoint: the reserved ids ")
    assert err.count("\n") == 1 and "'eos_id': 9" in err
    assert not out.exists()


@pytest.mark.parametrize("vocab", [5, [1, 2], {"a": 1}], ids=["int", "ints", "object"])
def test_generate_malformed_checkpoint_vocab_exits_2(pipeline, tmp_path, capsys, vocab):
    corpus, ckpt = pipeline
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header(ckpt.read_bytes(), vocab=vocab))
    out_path = tmp_path / "g.jsonl"
    code, _, err = run(capsys, "generate", "--checkpoint", str(bad),
                       "--corpus", str(corpus), "--out", str(out_path))
    assert code == 2
    assert err.startswith("data error: checkpoint vocab must be a list of ")
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_checkpoint_without_vocab_exits_2(pipeline, tmp_path, capsys, command):
    corpus, ckpt = pipeline
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header(ckpt.read_bytes(), vocab=None))
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({"product_id": "p00001", "questions": ["is it red ?"]}) + "\n")
    args = {"generate": ["--corpus", corpus, "--out", tmp_path / "g.jsonl"],
            "evaluate": ["--generations", gen, "--gold", corpus, "--report", tmp_path / "r"]}
    code, _, err = run(capsys, command, "--checkpoint", str(bad), *map(str, args[command]))
    assert code == 2
    assert err == (f"data error: checkpoint {bad} stores no vocabulary; "
                   "generate and evaluate need one\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt", "gen.jsonl"]

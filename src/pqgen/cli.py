"""Command-line entry point: synth -> train -> generate -> evaluate.

Config precedence is flags > --config file > built-in defaults; the effective
config is echoed at startup (suppress with PQGEN_VERBOSE=0) and can be saved
back out with --save-config for bit-identical re-runs.

Exit codes follow the error's class: 0 success, 1 usage or bad configuration
(`ConfigError`), 2 data, schema or IO problems (any other `ValueError`, or an
`OSError`), 3 numeric failures (a `FloatingPointError` such as a non-finite
loss or model output, or a `DecodingStuckError`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from .corpus import (
    RESERVED_TOKENS,
    CorpusSchemaError,
    SplitCorpus,
    Vocab,
    build_vocab,
    iter_jsonl,
    load_jsonl,
    save_jsonl,
    split,
    synth_corpus,
)
from .decoding import DecodingStuckError, GenerationConfig, generate_split
from .fileio import atomic_write
from .metrics import cluster_curve_csv, evaluate, format_report_table
from .model import ConfigError, ModelConfig, load_checkpoint, save_checkpoint
from .training import MODES, TrainConfig, train


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage exit code is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _probability(text: str) -> float:
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _verbose() -> bool:
    return os.environ.get("PQGEN_VERBOSE", "1") != "0"


def _say(message: str) -> None:
    if _verbose():
        print(message)


# One row per option: (config key, flag, converter, default[, choices]).
# The parser's flags and the defaults come from these rows, and `_resolve`
# checks every --config value with the converter and choices of its flag.
SYNTH_OPTIONS = (
    ("seed", "--seed", _nonnegative, 0),
    ("products", "--products", _positive, 100),
    ("out", "--out", str, None),
    ("questions_min", "--questions-min", _positive, 3),
    ("questions_max", "--questions-max", _positive, 6),
    ("skew", "--skew", _probability, 0.7),
)
TRAIN_OPTIONS = (
    ("corpus", "--corpus", str, None),
    ("mode", "--mode", str, "ltd", MODES),
    ("lambda_div", "--lambda", _finite, TrainConfig.lambda_div),
    ("seed", "--seed", _nonnegative, TrainConfig.seed),
    ("split_seed", "--split-seed", _nonnegative, 0),
    ("out", "--out", str, None),
    ("log", "--log", str, None),
    ("d_model", "--d-model", _positive, ModelConfig.d_model),
    ("n_heads", "--n-heads", _positive, ModelConfig.n_heads),
    ("enc_layers", "--enc-layers", _positive, ModelConfig.n_enc_layers),
    ("dec_layers", "--dec-layers", _positive, ModelConfig.n_dec_layers),
    ("d_ff", "--d-ff", _positive, ModelConfig.d_ff),
    ("max_len", "--max-len", _positive, ModelConfig.max_len),
    ("min_count", "--min-count", _positive, 1),
    ("lr", "--lr", _finite, TrainConfig.learning_rate),
    ("batch_size", "--batch-size", _positive, TrainConfig.batch_size),
    ("epochs", "--epochs", _positive, TrainConfig.epochs),
    ("max_pairs", "--max-pairs", _positive, TrainConfig.max_pairs_per_product),
)
GENERATE_OPTIONS = (
    ("checkpoint", "--checkpoint", str, None),
    ("corpus", "--corpus", str, None),
    ("corpus_split", "--corpus-split", str, "test", tuple(f.name for f in fields(SplitCorpus))),
    ("split_seed", "--split-seed", _nonnegative, 0),
    ("out", "--out", str, None),
    ("groups", "--groups", _positive, GenerationConfig.num_groups),
    ("beams", "--beams", _positive, GenerationConfig.beams_per_group),
    ("diversity_penalty", "--diversity-penalty", _finite, GenerationConfig.diversity_penalty),
    ("length_penalty", "--length-penalty", _finite, GenerationConfig.length_penalty),
    ("no_repeat", "--no-repeat", _nonnegative, GenerationConfig.no_repeat_ngram),
    ("max_new", "--max-new", _positive, GenerationConfig.max_new_tokens),
    ("questions", "--questions", _positive, GenerationConfig.questions_per_product),
)
EVALUATE_OPTIONS = (
    ("generations", "--generations", str, None),
    ("gold", "--gold", str, None),
    ("checkpoint", "--checkpoint", str, None),
    ("report", "--report", str, None),
)


def _config_value(key: str, value, convert, default, choices=None):
    """A --config value as its flag would parse it: numbers and strings go
    through the flag's converter as text; null only stands for an unset
    option that has no default."""
    if value is None and default is None:
        return None
    if value is None or isinstance(value, (bool, list, dict)):
        raise ConfigError(f"config key {key!r}: expected a number or a string, "
                          f"got {json.dumps(value)}")
    try:
        parsed = convert(str(value))
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise ConfigError(f"config key {key!r}: invalid value {value!r}: {e}")
    if choices is not None and parsed not in choices:
        raise ConfigError(f"config key {key!r}: {parsed!r} is not one of {list(choices)}")
    return parsed


def _resolve(ns: argparse.Namespace, options) -> dict:
    """defaults, overlaid by --config file values, overlaid by explicit flags
    (every flag uses a None sentinel so absence is detectable)."""
    effective = {key: default for key, _, _, default, *_ in options}
    if ns.config is not None:
        try:
            with open(ns.config) as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}")
        except ValueError as e:
            raise ConfigError(f"config file {ns.config} is not valid JSON: {e}")
        except RecursionError:
            raise ConfigError(f"config file {ns.config} is not valid JSON: nested too deeply")
        if not isinstance(data, dict):
            raise ConfigError(f"config file {ns.config} must hold a JSON object")
        unknown = sorted(set(data) - set(effective))
        if unknown:
            raise ConfigError(f"unknown config keys in {ns.config}: {unknown}")
        for key, _, convert, default, *choices in options:
            if key in data:
                effective[key] = _config_value(key, data[key], convert, default, *choices)
    for key in effective:
        value = getattr(ns, key)
        if value is not None:
            effective[key] = value
    _say(f"config: {json.dumps(effective, sort_keys=True)}")
    if ns.save_config is not None:
        with atomic_write(ns.save_config) as f:
            json.dump(effective, f, indent=2, sort_keys=True)
            f.write("\n")
    return effective


def _require(effective: dict, *keys: str) -> None:
    missing = [k for k in keys if effective[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ConfigError(f"missing required options: {flags}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, SYNTH_OPTIONS)
    _require(eff, "out")
    if eff["questions_min"] > eff["questions_max"]:
        raise ConfigError("--questions-min cannot exceed --questions-max")
    records = synth_corpus(
        seed=eff["seed"], n_products=eff["products"],
        questions_range=(eff["questions_min"], eff["questions_max"]),
        general_skew=eff["skew"])
    save_jsonl(records, eff["out"])
    _say(f"wrote {len(records)} products to {eff['out']}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, TRAIN_OPTIONS)
    _require(eff, "corpus", "out")
    records = load_jsonl(eff["corpus"])
    corpus_split = split(records, seed=eff["split_seed"])
    vocab = build_vocab(corpus_split.train, min_count=eff["min_count"])
    model_config = ModelConfig(
        vocab_size=len(vocab), d_model=eff["d_model"],
        n_heads=eff["n_heads"], n_enc_layers=eff["enc_layers"],
        n_dec_layers=eff["dec_layers"], d_ff=eff["d_ff"],
        max_len=eff["max_len"])
    train_config = TrainConfig(
        lambda_div=eff["lambda_div"], learning_rate=eff["lr"],
        batch_size=eff["batch_size"], epochs=eff["epochs"],
        seed=eff["seed"], max_pairs_per_product=eff["max_pairs"])
    log_path = eff["log"] if eff["log"] is not None else eff["out"] + ".log.jsonl"
    result = train(corpus_split, vocab, model_config, train_config,
                   mode=eff["mode"], log_path=log_path)
    save_checkpoint(eff["out"], result.params,
                    vocab_tokens=list(vocab.id_to_token[len(RESERVED_TOKENS):]))
    _say(f"checkpoint: {eff['out']}")
    _say(f"log: {log_path}")
    _say(f"best_epoch={result.best_epoch}")
    print(f"best_val_cg={result.best_val_cg:.10f}")
    print(f"final_val_cg={result.final_val_cg:.10f}")
    return 0


def cmd_generate(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, GENERATE_OPTIONS)
    _require(eff, "checkpoint", "corpus", "out")
    params, tokens = load_checkpoint(eff["checkpoint"])
    records = load_jsonl(eff["corpus"])
    corpus_split = split(records, seed=eff["split_seed"])
    chosen = getattr(corpus_split, eff["corpus_split"])
    config = GenerationConfig(
        num_groups=eff["groups"], beams_per_group=eff["beams"],
        diversity_penalty=eff["diversity_penalty"],
        length_penalty=eff["length_penalty"],
        no_repeat_ngram=eff["no_repeat"], max_new_tokens=eff["max_new"],
        questions_per_product=eff["questions"])
    results = generate_split(params, Vocab(tokens), chosen, config)
    with atomic_write(eff["out"]) as f:
        # The output path is not decoding config; leaving it out keeps reruns
        # byte-identical wherever they write.
        header = {"kind": "config", **{k: v for k, v in eff.items() if k != "out"}}
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for rec, result in zip(chosen, results):
            f.write(json.dumps({"product_id": rec.product_id, "questions": result.questions,
                                "scores": result.scores, "shortage": result.shortage},
                               sort_keys=True) + "\n")
    _say(f"wrote {len(results)} generation records to {eff['out']}")
    return 0


def _load_generations(path: str) -> list[dict]:
    records = []
    for where, obj in iter_jsonl(path):
        if isinstance(obj, dict) and obj.get("kind") == "config":
            continue
        if not (isinstance(obj, dict) and isinstance(obj.get("product_id"), str)
                and isinstance(obj.get("questions"), list)
                and all(isinstance(q, str) for q in obj["questions"])):
            raise CorpusSchemaError(
                f"{where}: expected a generation record with a string "
                "product_id and a list of string questions")
        records.append(obj)
    return records


def cmd_evaluate(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, EVALUATE_OPTIONS)
    _require(eff, "generations", "gold", "checkpoint", "report")
    generations = _load_generations(eff["generations"])
    gold = load_jsonl(eff["gold"])
    params, tokens = load_checkpoint(eff["checkpoint"])
    report = evaluate(generations, gold, params, Vocab(tokens))
    prefix = eff["report"]
    table = format_report_table(report)
    with atomic_write(prefix + ".txt") as f:
        f.write(table)
    with atomic_write(prefix + ".json") as f:
        json.dump(asdict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    with atomic_write(prefix + ".csv") as f:
        f.write(cluster_curve_csv(report))
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


_COMMANDS = (
    ("synth", "write a synthetic corpus", SYNTH_OPTIONS, cmd_synth),
    ("train", "train a model on a corpus", TRAIN_OPTIONS, cmd_train),
    ("generate", "generate questions from a checkpoint", GENERATE_OPTIONS, cmd_generate),
    ("evaluate", "score generations against gold", EVALUATE_OPTIONS, cmd_evaluate),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="pqgen",
                     description="Train and evaluate diversity-regularized "
                                 "product question generators.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, func in _COMMANDS:
        p = commands.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option values")
        p.add_argument("--save-config", help="write the effective config as JSON")
        for key, flag, convert, _, *choices in options:
            p.add_argument(flag, dest=key, type=convert, choices=choices[0] if choices else None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FloatingPointError, DecodingStuckError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2

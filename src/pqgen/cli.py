"""Command-line entry point: synth -> train -> generate -> evaluate.

Config precedence is flags > --config file > built-in defaults; the effective
config is echoed at startup (suppress with PQGEN_VERBOSE=0) and can be saved
back out with --save-config for bit-identical re-runs.

Exit codes: 0 success, 1 usage or bad configuration, 2 data/schema problems,
3 numeric failures (non-finite loss, stuck decoding).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .corpus import (
    CorpusSchemaError,
    DataSplitError,
    Vocab,
    build_vocab,
    load_jsonl,
    save_jsonl,
    split,
    synth_corpus,
)
from .decoding import DecodingStuckError, GenerationConfig, generate_questions
from .metrics import (
    MetricInputError,
    cluster_curve_csv,
    evaluate,
    format_report_table,
    report_to_json,
)
from .model import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    SequenceLengthError,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import DegenerateVectorError, EmptyPoolError
from .training import NumericError, TrainConfig, train


class _UsageError(Exception):
    pass


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


def _verbose() -> bool:
    return os.environ.get("PQGEN_VERBOSE", "1") != "0"


def _say(message: str) -> None:
    if _verbose():
        print(message)


SYNTH_DEFAULTS = {
    "seed": 0, "products": 100, "out": None,
    "questions_min": 3, "questions_max": 6, "skew": 0.7,
}
TRAIN_DEFAULTS = {
    "corpus": None, "mode": "ltd", "lambda_div": 0.1, "seed": 0,
    "split_seed": 0, "out": None, "log": None,
    "d_model": 64, "n_heads": 2, "enc_layers": 2, "dec_layers": 2,
    "d_ff": 128, "max_len": 64, "min_count": 1,
    "lr": 1e-4, "batch_size": 8, "epochs": 3, "max_pairs": 10,
}
GENERATE_DEFAULTS = {
    "checkpoint": None, "corpus": None, "corpus_split": "test",
    "split_seed": 0, "out": None,
    "groups": 3, "beams": 2, "diversity_penalty": 5.0, "length_penalty": 1.0,
    "no_repeat": 2, "max_new": 16, "questions": 6, "workers": 1,
}
EVALUATE_DEFAULTS = {
    "generations": None, "gold": None, "checkpoint": None, "report": None,
    "workers": 1,
}


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """defaults, overlaid by --config file values, overlaid by explicit flags
    (every flag uses a None sentinel so absence is detectable)."""
    effective = dict(defaults)
    if ns.config is not None:
        try:
            with open(ns.config) as f:
                data = json.load(f)
        except OSError as e:
            raise _UsageError(f"cannot read config file: {e}")
        except json.JSONDecodeError as e:
            raise _UsageError(f"config file {ns.config} is not valid JSON: {e}")
        if not isinstance(data, dict):
            raise _UsageError(f"config file {ns.config} must hold a JSON object")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise _UsageError(f"unknown config keys in {ns.config}: {unknown}")
        effective.update(data)
    for key in defaults:
        value = getattr(ns, key)
        if value is not None:
            effective[key] = value
    _say(f"config: {json.dumps(effective, sort_keys=True)}")
    if ns.save_config is not None:
        with open(ns.save_config, "w") as f:
            json.dump(effective, f, indent=2, sort_keys=True)
            f.write("\n")
    return effective


def _require(effective: dict, *keys: str) -> None:
    missing = [k for k in keys if effective[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise _UsageError(f"missing required options: {flags}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, SYNTH_DEFAULTS)
    _require(eff, "out")
    if eff["questions_min"] > eff["questions_max"]:
        raise _UsageError("--questions-min cannot exceed --questions-max")
    records = synth_corpus(
        seed=eff["seed"], n_products=eff["products"],
        questions_range=(eff["questions_min"], eff["questions_max"]),
        general_skew=eff["skew"])
    save_jsonl(records, eff["out"])
    _say(f"wrote {len(records)} products to {eff['out']}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, TRAIN_DEFAULTS)
    _require(eff, "corpus", "out")
    if eff["mode"] not in ("traditional", "ltd"):
        raise _UsageError(f"mode must be traditional or ltd, got {eff['mode']!r}")
    records = load_jsonl(eff["corpus"])
    corpus_split = split(records, seed=eff["split_seed"])
    vocab = build_vocab(corpus_split.train, min_count=eff["min_count"])
    try:
        model_config = ModelConfig(
            vocab_size=len(vocab), d_model=eff["d_model"],
            n_heads=eff["n_heads"], n_enc_layers=eff["enc_layers"],
            n_dec_layers=eff["dec_layers"], d_ff=eff["d_ff"],
            max_len=eff["max_len"])
        train_config = TrainConfig(
            lambda_div=eff["lambda_div"], learning_rate=eff["lr"],
            batch_size=eff["batch_size"], epochs=eff["epochs"],
            seed=eff["seed"], max_pairs_per_product=eff["max_pairs"])
    except (ConfigError, ValueError) as e:
        raise _UsageError(str(e))
    log_path = eff["log"] if eff["log"] is not None else eff["out"] + ".log.jsonl"
    result = train(corpus_split, vocab, model_config, train_config,
                   mode=eff["mode"], log_path=log_path)
    save_checkpoint(eff["out"], result.params,
                    vocab_tokens=list(vocab.id_to_token[4:]))
    _say(f"checkpoint: {eff['out']}")
    _say(f"log: {log_path}")
    _say(f"best_epoch={result.best_epoch}")
    print(f"best_val_cg={result.best_val_cg:.10f}")
    print(f"final_val_cg={result.final_val_cg:.10f}")
    return 0


_GEN_STATE: dict = {}


def _init_gen_worker(checkpoint_path: str, gen_config_kwargs: dict) -> None:
    params, tokens = load_checkpoint(checkpoint_path)
    _GEN_STATE["params"] = params
    _GEN_STATE["vocab"] = Vocab(tokens)
    _GEN_STATE["config"] = GenerationConfig(**gen_config_kwargs)


def _gen_worker(task: tuple[str, str]) -> dict:
    pid, context = task
    params = _GEN_STATE["params"]
    vocab = _GEN_STATE["vocab"]
    config = _GEN_STATE["config"]
    ids = vocab.encode_text(context)[:params.config.max_len]
    result = generate_questions(params, vocab, ids, config)
    return {"product_id": pid, "questions": result.questions,
            "scores": result.scores, "shortage": result.shortage}


def cmd_generate(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, GENERATE_DEFAULTS)
    _require(eff, "checkpoint", "corpus", "out")
    params, tokens = load_checkpoint(eff["checkpoint"])
    if tokens is None:
        raise CheckpointError(
            f"checkpoint {eff['checkpoint']} stores no vocabulary; "
            "it cannot drive generation")
    if eff["corpus_split"] not in ("train", "validation", "test"):
        raise _UsageError(f"corpus_split must be train, validation, or test, "
                          f"got {eff['corpus_split']!r}")
    records = load_jsonl(eff["corpus"])
    corpus_split = split(records, seed=eff["split_seed"])
    chosen = getattr(corpus_split, eff["corpus_split"])
    try:
        gen_kwargs = dict(
            num_groups=eff["groups"], beams_per_group=eff["beams"],
            diversity_penalty=eff["diversity_penalty"],
            length_penalty=eff["length_penalty"],
            no_repeat_ngram=eff["no_repeat"], max_new_tokens=eff["max_new"],
            questions_per_product=eff["questions"])
        GenerationConfig(**gen_kwargs)
    except ValueError as e:
        raise _UsageError(str(e))
    tasks = [(rec.product_id, rec.context) for rec in chosen]
    if eff["workers"] > 1:
        with ProcessPoolExecutor(
                max_workers=eff["workers"],
                initializer=_init_gen_worker,
                initargs=(eff["checkpoint"], gen_kwargs)) as pool:
            outputs = list(pool.map(_gen_worker, tasks))
    else:
        _init_gen_worker(eff["checkpoint"], gen_kwargs)
        outputs = [_gen_worker(task) for task in tasks]
    with open(eff["out"], "w") as f:
        # workers and the output path are run mechanics, not decoding config;
        # leaving them out keeps reruns byte-identical wherever they write.
        header = {"kind": "config", **{k: v for k, v in eff.items()
                                       if k not in ("workers", "out")}}
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for record in outputs:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    _say(f"wrote {len(outputs)} generation records to {eff['out']}")
    return 0


def _load_generations(path: str) -> list[dict]:
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusSchemaError(f"{path}:{lineno}: invalid JSON: {e}")
            if isinstance(obj, dict) and obj.get("kind") == "config":
                continue
            if (not isinstance(obj, dict) or "product_id" not in obj
                    or "questions" not in obj
                    or not isinstance(obj["questions"], list)):
                raise CorpusSchemaError(
                    f"{path}:{lineno}: expected a generation record with "
                    "product_id and questions")
            records.append(obj)
    return records


def cmd_evaluate(ns: argparse.Namespace) -> int:
    eff = _resolve(ns, EVALUATE_DEFAULTS)
    _require(eff, "generations", "gold", "checkpoint", "report")
    generations = _load_generations(eff["generations"])
    gold = load_jsonl(eff["gold"])
    params, tokens = load_checkpoint(eff["checkpoint"])
    if tokens is None:
        raise CheckpointError(
            f"checkpoint {eff['checkpoint']} stores no vocabulary; "
            "it cannot embed questions")
    vocab = Vocab(tokens)
    if eff["workers"] > 1:
        with ProcessPoolExecutor(max_workers=eff["workers"]) as pool:
            report = evaluate(generations, gold, params, vocab,
                              mapper=pool.map)
    else:
        report = evaluate(generations, gold, params, vocab)
    prefix = eff["report"]
    table = format_report_table(report)
    with open(prefix + ".txt", "w") as f:
        f.write(table)
    with open(prefix + ".json", "w") as f:
        json.dump(report_to_json(report), f, indent=2, sort_keys=True)
        f.write("\n")
    with open(prefix + ".csv", "w") as f:
        f.write(cluster_curve_csv(report))
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of option values")
    sub.add_argument("--save-config", help="write the effective config as JSON")


def build_parser() -> _Parser:
    parser = _Parser(prog="pqgen",
                     description="Train and evaluate diversity-regularized "
                                 "product question generators.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", parents=[], help="write a synthetic corpus")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--products", type=_positive)
    p.add_argument("--out")
    p.add_argument("--questions-min", type=_positive, dest="questions_min")
    p.add_argument("--questions-max", type=_positive, dest="questions_max")
    p.add_argument("--skew", type=float)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("train", help="train a model on a corpus")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--mode", choices=("traditional", "ltd"))
    p.add_argument("--lambda", type=float, dest="lambda_div")
    p.add_argument("--seed", type=int)
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--out")
    p.add_argument("--log")
    p.add_argument("--d-model", type=_positive, dest="d_model")
    p.add_argument("--n-heads", type=_positive, dest="n_heads")
    p.add_argument("--enc-layers", type=_positive, dest="enc_layers")
    p.add_argument("--dec-layers", type=_positive, dest="dec_layers")
    p.add_argument("--d-ff", type=_positive, dest="d_ff")
    p.add_argument("--max-len", type=_positive, dest="max_len")
    p.add_argument("--min-count", type=_positive, dest="min_count")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=_positive, dest="batch_size")
    p.add_argument("--epochs", type=_positive)
    p.add_argument("--max-pairs", type=_positive, dest="max_pairs")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("generate", help="generate questions from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--corpus-split", choices=("train", "validation", "test"),
                   dest="corpus_split")
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--out")
    p.add_argument("--groups", type=_positive)
    p.add_argument("--beams", type=_positive)
    p.add_argument("--diversity-penalty", type=float, dest="diversity_penalty")
    p.add_argument("--length-penalty", type=float, dest="length_penalty")
    p.add_argument("--no-repeat", type=int, dest="no_repeat")
    p.add_argument("--max-new", type=_positive, dest="max_new")
    p.add_argument("--questions", type=_positive)
    p.add_argument("--workers", type=_positive)
    p.set_defaults(func=cmd_generate)

    p = commands.add_parser("evaluate", help="score generations against gold")
    _add_common(p)
    p.add_argument("--generations")
    p.add_argument("--gold")
    p.add_argument("--checkpoint")
    p.add_argument("--report", help="output path prefix (.txt/.json/.csv)")
    p.add_argument("--workers", type=_positive)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericError, DecodingStuckError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CorpusSchemaError, DataSplitError, CheckpointError,
            SequenceLengthError, EmptyPoolError, DegenerateVectorError,
            MetricInputError, OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: set-up, one round of work, and the correctness checks.

Every workload runs on the criterion-6 configuration: a 500-product synthetic
corpus (seed 0), the 80/10/10 split (seed 0), d_model 32, two heads, one
layer each side, d_ff 64, batch 8, lr 1e-3. `--seed` chooses what varies:

- `train`: the training seed of one `ltd` run (lambda 0.1) and one
  `traditional` run, one epoch each. The seed sets the initial parameters,
  the pair sampling and the batch order; the items are the same, so the work
  per round is too.
- `generate`: the order of the 100 held-out products decoded with the stored
  6-epoch `ltd` checkpoint and the default `GenerationConfig`.
- `evaluate`: the order in which one `metrics.evaluate` call scores the
  stored generations (made by that checkpoint) of the 400 train-split
  products. Which 400 of the 500 are scored moved the call's time by up to
  7%, so the set is fixed and only its order varies.

A round is a fixed list of operations: optimiser steps, products, or one
evaluate call. `round(ops)` does the work, appends each operation's
(start, end) perf_counter stamps to `ops` and returns its outputs; `check`
tests them against computations made apart from the program or properties
the method must have, and is never timed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from time import perf_counter

import numpy as np

import pqgen.corpus as C
import pqgen.decoding as D
import pqgen.metrics as MX
import pqgen.model as M
import pqgen.training as TR
import pqgen.tensor as T

import oracle_checks

CORPUS_SEED = 0
SPLIT_SEED = 0
N_PRODUCTS = 500
MODEL = dict(d_model=32, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=64, max_len=64)
TRAIN = dict(learning_rate=1e-3, batch_size=8)
LTD_LAMBDA = 0.1
TRAIN_EPOCHS = 1
CHECKPOINT_SEED = 0
CHECKPOINT_EPOCHS = 6

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS_DIR = os.path.join(HERE, "inputs")
OUT_DIR = os.path.join(HERE, "out")
CHECKPOINT_NAME = "ltd6.ckpt"
GENERATIONS_NAME = "generations.jsonl"


def load_corpus() -> list[C.ProductRecord]:
    """Synthesize the corpus and read it back from JSONL, as `pqgen synth`
    followed by `pqgen train --corpus` does."""
    records = C.synth_corpus(CORPUS_SEED, N_PRODUCTS)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"corpus-{os.getpid()}.jsonl")
    try:
        C.save_jsonl(records, path)
        return C.load_jsonl(path)
    finally:
        os.remove(path)


def load_model():
    params, tokens = M.load_checkpoint(os.path.join(INPUTS_DIR, CHECKPOINT_NAME))
    return params, C.Vocab(tokens)


class StepClock:
    """Records each optimiser step as (start, end), from `reset_tape` (a
    step's first call in `train`) to the return of `adam_step` (its last),
    with the regime it belongs to."""

    def __init__(self):
        self.regime = ""
        self.regimes: list[str] = []
        self.ops: list[tuple[float, float]] = []
        self._t0 = 0.0

    @contextlib.contextmanager
    def installed(self):
        reset, adam = T.reset_tape, TR.adam_step

        def timed_reset():
            self._t0 = perf_counter()
            return reset()

        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.ops.append((self._t0, perf_counter()))
            self.regimes.append(self.regime)
            return out

        T.reset_tape, TR.adam_step = timed_reset, timed_adam
        try:
            yield
        finally:
            T.reset_tape, TR.adam_step = reset, adam


class Train:
    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.clock = StepClock()
        self.initial_val_cg = None

    def setup(self):
        records = load_corpus()
        self.split = C.split(records, seed=SPLIT_SEED)
        self.vocab = C.build_vocab(self.split.train)
        self.mcfg = M.ModelConfig(vocab_size=len(self.vocab), **MODEL)

    def round(self, ops):
        results = {}
        self.clock.ops = ops
        for mode, lam in (("ltd", LTD_LAMBDA), ("traditional", 0.0)):
            self.tracer.tag = self.clock.regime = mode
            cfg = TR.TrainConfig(lambda_div=lam, epochs=TRAIN_EPOCHS, seed=self.seed, **TRAIN)
            with self.clock.installed():
                res = TR.train(self.split, self.vocab, self.mcfg, cfg, mode=mode)
            results[mode] = (res.log_rows, res.final_val_cg,
                             [t.data.tobytes() for t in res.params.tensors()])
        self.tracer.tag = ""
        return results

    def check(self, results) -> list[str]:
        errors = []
        # With no single-question product every ltd batch is all triplets.
        singles = [r.product_id for r in self.split.train
                   if len({tuple(self.vocab.encode_text(q)) for q in r.questions}) < 2]
        if singles:
            errors.append(f"train split has single-question products {singles[:3]}")
        if self.initial_val_cg is None:
            init = M.init_params(self.mcfg, self.seed)
            self.initial_val_cg = TR.mean_cg(init, self.split.validation, self.vocab)
        for mode, (rows, final_val, _) in results.items():
            steps = [r for r in rows if r["kind"] == "step"]
            for r in steps:
                if not math.isfinite(r["objective"]):
                    errors.append(f"{mode} step {r['step']}: objective {r['objective']}")
                if mode == "ltd":
                    want = (r["cg1"] + r["cg2"] + LTD_LAMBDA * r["div"]) / 2.0
                    if abs(r["objective"] - want) > 1e-12:
                        errors.append(f"ltd step {r['step']}: objective {r['objective']!r} "
                                      f"!= (cg1 + cg2 + {LTD_LAMBDA} div) / 2 = {want!r}")
                    if not -1.0 <= r["div"] <= 1.0:
                        errors.append(f"ltd step {r['step']}: div {r['div']} outside [-1, 1]")
            if not final_val < self.initial_val_cg:
                errors.append(f"{mode}: final validation CG {final_val} not below the "
                              f"initial {self.initial_val_cg}")
        return errors

    def reference(self, results) -> dict:
        return {f"training.val_cg.{m}": v[1] for m, v in results.items()}


class Generate:
    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.config = D.GenerationConfig()

    def setup(self):
        records = load_corpus()
        split = C.split(records, seed=SPLIT_SEED)
        held_out = split.validation + split.test
        self.params, self.vocab = load_model()
        max_len = self.params.config.max_len
        order = np.random.default_rng(self.seed).permutation(len(held_out))
        self.tasks = [(held_out[i].product_id,
                       tuple(self.vocab.encode_text(held_out[i].context)[:max_len]))
                      for i in order]

    def round(self, ops):
        outputs = []
        for _, ids in self.tasks:
            t0 = perf_counter()
            out = D.generate_questions(self.params, self.vocab, ids, self.config)
            ops.append((t0, perf_counter()))
            outputs.append(out)
        self.tracer.counts["questions"] += sum(len(o.questions) for o in outputs)
        self.tracer.counts["shortage_products"] += sum(o.shortage for o in outputs)
        return outputs

    def check(self, outputs) -> list[str]:
        errors = []
        for (pid, ids), out in zip(self.tasks, outputs):
            errors.extend(f"{pid}: {e}" for e in oracle_checks.generation_errors(
                self.params, ids, out, self.config))
        return errors

    def reference(self, outputs) -> dict:
        top1 = [C.tokenize(o.questions[0]) for o in outputs if o.questions]
        return {"decoding.distinct3": oracle_checks.distinct3(top1)}


class Evaluate:
    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self):
        self.gold = load_corpus()
        train_ids = [r.product_id for r in C.split(self.gold, seed=SPLIT_SEED).train]
        self.params, self.vocab = load_model()
        with open(os.path.join(INPUTS_DIR, GENERATIONS_NAME), encoding="utf-8") as fh:
            by_id = {r["product_id"]: r for r in map(json.loads, fh)}
        order = np.random.default_rng(self.seed).permutation(len(train_ids))
        self.generations = [by_id[train_ids[i]] for i in order]

    def round(self, ops):
        t0 = perf_counter()
        report = MX.evaluate(self.generations, self.gold, self.params, self.vocab)
        ops.append((t0, perf_counter()))
        return report

    def check(self, report) -> list[str]:
        return oracle_checks.report_errors(report, self.generations, self.gold,
                                           self.params, self.vocab)

    def reference(self, report) -> dict:
        return {}


WORKLOADS = {"train": Train, "generate": Generate, "evaluate": Evaluate}

"""Correctness checks of the `generate` and `evaluate` outputs.

The metric oracles come from `tests/oracles.py`, which shares no code with the
package; the generation scores are checked against the teacher-forced path
(`model.sequence_log_likelihood`), which shares no code with the stepwise
decoder. Each function returns a list of error messages, empty when the
output is right.
"""

from __future__ import annotations

import math

import numpy as np

import pqgen.corpus as C
import pqgen.metrics as MX
import pqgen.model as M

from tests import oracles

TOL = 1e-9


def generation_errors(params, context_ids, out, config) -> list[str]:
    """One product's `GenerationResult` against the teacher-forced
    log-likelihood and the properties diverse beam search must have."""
    mcfg = params.config
    errors = []
    for q, ids, score in zip(out.questions, out.token_ids, out.scores):
        if ids[-1:] != (mcfg.eos_id,):
            errors.append(f"{q!r} does not end with EOS")
            continue
        if mcfg.pad_id in ids or mcfg.bos_id in ids:
            errors.append(f"{q!r} contains PAD or BOS")
        bigrams = list(zip(ids, ids[1:]))
        if len(set(bigrams)) != len(bigrams):
            errors.append(f"{q!r} repeats a bigram")
        loglik = M.sequence_log_likelihood(params, context_ids, ids[:-1])
        got = score * len(ids) ** config.length_penalty
        if abs(got - loglik) > TOL:
            errors.append(f"{q!r}: score x len^alpha {got!r} != log-likelihood {loglik!r}")
    if any(b > a for a, b in zip(out.scores, out.scores[1:])):
        errors.append(f"scores increase down the list: {out.scores}")
    if len(set(out.questions)) != len(out.questions) or len(set(out.token_ids)) != len(out.token_ids):
        errors.append("questions repeat")
    if out.shortage != (len(out.questions) < config.questions_per_product):
        errors.append(f"shortage {out.shortage} with {len(out.questions)} questions")
    return errors


def distinct3(top1_tokens) -> float:
    return oracles.distinct_n_oracle(top1_tokens, 3)


def report_errors(report, generations, gold, params, vocab) -> list[str]:
    """A `MetricsReport` against the brute-force oracles and scipy."""
    by_id = {rec.product_id: rec for rec in gold}
    bleus, meteors, top1 = [], [], []
    for rec in generations:
        refs = [C.tokenize(q) for q in by_id[rec["product_id"]].questions]
        hyp = C.tokenize(rec["questions"][0]) if rec["questions"] else []
        if not hyp:
            bleus.append(0.0)
            meteors.append(0.0)
            continue
        bleus.append(oracles.bleu_oracle(hyp, refs))
        meteors.append(max(oracles.meteor_oracle(hyp, ref) for ref in refs))
        top1.append(hyp)
    n = len(generations)
    want = {"BLEU-top-1": (report.bleu_top1, math.fsum(bleus) / n),
            "METEOR": (report.meteor_top1, math.fsum(meteors) / n)}
    for k in (1, 2, 3):
        want[f"Distinct-{k}"] = (report.distinct_n[k], oracles.distinct_n_oracle(top1, k))
    rows = MX.embed_questions(params, [vocab.encode(t) for t in top1]).rows
    want["e-Div"] = (report.e_div, oracles.e_div_oracle(rows))
    errors = [f"{name}: report {got!r} != oracle {ref!r}"
              for name, (got, ref) in want.items()
              if got is None or ref is None or abs(got - ref) > TOL]
    thresholds = [t for t, _ in report.cluster_curve]
    counts = [c for _, c in report.cluster_curve]
    scipy_counts = oracles.cluster_counts_scipy(np.asarray(rows), thresholds)
    if counts != scipy_counts:
        errors.append(f"cluster curve {counts} != scipy average linkage {scipy_counts}")
    return errors

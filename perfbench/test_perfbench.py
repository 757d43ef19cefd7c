"""Fast tests of the benchmark's own parts. Not collected by the project's
test command (its testpaths are `tests/`); run them with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import types

import benchenv  # noqa: F401  (must come before numpy)

import numpy as np
import pytest

import pqgen.corpus as C
import pqgen.decoding as D
import pqgen.metrics as MX
import pqgen.model as M
import pqgen.training as TR

import oracle_checks
import run
import spans
import workloads


# ---------------------------------------------------------------------------
# Span self time


def test_self_time_nested_and_sibling_spans():
    names = ["metrics.evaluate", "metrics.bleu", "model.encode", "tensor.matmul"]
    # evaluate [0, 10] holds bleu [1, 3], bleu [4, 5] and encode [6, 9];
    # encode holds matmul [7, 8].
    name_id = [0, 1, 1, 2, 3]
    start = [0.0, 1.0, 4.0, 6.0, 7.0]
    end = [10.0, 3.0, 5.0, 9.0, 8.0]
    parent = [-1, 0, 0, 0, 3]
    st = spans.self_times(names, name_id, start, end, parent)
    np.testing.assert_allclose(st["dur"], [10, 2, 1, 3, 1])
    np.testing.assert_allclose(st["all"], [10 - 2 - 1 - 3, 2, 1, 3 - 1, 1])
    # Within a layer only same-layer children come off: evaluate loses its two
    # bleu siblings but keeps the model-layer encode.
    np.testing.assert_allclose(st["layer"], [10 - 2 - 1, 2, 1, 3, 1])
    totals = spans.totals_by_name(names, name_id, st["layer"])
    assert totals["metrics.bleu"] == (3.0, 2)
    assert totals["tensor.matmul"] == (1.0, 1)


def test_tracer_records_parents_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) + mod.inner(x)
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "a.inner")
    tracer.wrap(mod, "outer", "a.outer", on_call=lambda t, args: t.counts.update(x=args[0]))
    assert mod.outer(1) == 4
    arr = tracer.arrays()
    assert [tracer.names[i] for i in arr["name_id"]] == ["a.outer", "a.inner", "a.inner"]
    assert arr["parent"].tolist() == [-1, 0, 0]
    assert (arr["end"] >= arr["start"]).all()
    assert tracer.counts["x"] == 1
    tracer.restore()
    assert not hasattr(mod.outer, "__wrapped__")


def test_tracer_tags_span_names():
    mod = types.SimpleNamespace(f=lambda: None)
    tracer = spans.Tracer()
    tracer.wrap(mod, "f", "tensor.backward", tagged=True)
    for tag in ("ltd", "traditional", "ltd"):
        tracer.tag = tag
        mod.f()
    arr = tracer.arrays()
    assert [tracer.names[i] for i in arr["name_id"]] == [
        "tensor.backward.ltd", "tensor.backward.traditional", "tensor.backward.ltd"]


# ---------------------------------------------------------------------------
# Percentile helper


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(39))) is None
    assert run.tail(list(range(95))) is None            # p90 would leave 9 beyond
    q, v = run.tail(list(range(100)))
    assert q == 90.0 and sum(x > v for x in range(100)) == 10
    q, v = run.tail(list(range(1000)))                  # p99 leaves 10 beyond
    assert q == 99.0 and sum(x > v for x in range(1000)) == 10
    q, v = run.tail(list(range(10000)))
    assert q == 99.9 and sum(x > v for x in range(10000)) == 10


def test_tail_ignores_input_order():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=500).tolist()
    assert run.tail(xs) == run.tail(sorted(xs)) == run.tail(sorted(xs, reverse=True))


# ---------------------------------------------------------------------------
# Correctness-check glue, on tiny inputs


@pytest.fixture(scope="module")
def tiny():
    """A 12-product corpus and a d_model 8 model trained on it for 3 epochs,
    enough for beam search to finish questions."""
    records = C.synth_corpus(seed=3, n_products=12, questions_range=(2, 2))
    split = C.split(records, seed=0)
    vocab = C.build_vocab(split.train)
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                        n_dec_layers=1, d_ff=16, max_len=32)
    tc = TR.TrainConfig(learning_rate=3e-3, batch_size=4, epochs=3, seed=0)
    return records, vocab, TR.train(split, vocab, cfg, tc).params


def test_generation_check_accepts_real_output_and_catches_a_bad_score(tiny):
    records, vocab, params = tiny
    config = D.GenerationConfig()
    ids = vocab.encode_text(records[0].context)
    out = D.generate_questions(params, vocab, ids, config)
    assert out.questions
    assert oracle_checks.generation_errors(params, ids, out, config) == []
    bad = dataclasses.replace(out, scores=[out.scores[0] + 1e-6] + out.scores[1:])
    assert any("log-likelihood" in e for e in
               oracle_checks.generation_errors(params, ids, bad, config))
    wrong = dataclasses.replace(out, shortage=not out.shortage)
    assert any("shortage" in e for e in
               oracle_checks.generation_errors(params, ids, wrong, config))


def test_report_check_accepts_evaluate_and_catches_each_metric(tiny):
    records, vocab, params = tiny
    gens = [{"product_id": r.product_id,
             "questions": [r.questions[-1], r.questions[0], "is it new ?"]}
            for r in records]
    report = MX.evaluate(gens, records, params, vocab)
    assert oracle_checks.report_errors(report, gens, records, params, vocab) == []
    for field in ("bleu_top1", "meteor_top1", "e_div"):
        bad = dataclasses.replace(report, **{field: getattr(report, field) + 1e-6})
        assert len(oracle_checks.report_errors(bad, gens, records, params, vocab)) == 1
    bad = dataclasses.replace(report, distinct_n={**report.distinct_n, 2: 0.5})
    assert any("Distinct-2" in e for e in
               oracle_checks.report_errors(bad, gens, records, params, vocab))
    curve = [(t, c + 1) for t, c in report.cluster_curve]
    bad = dataclasses.replace(report, cluster_curve=curve)
    assert any("cluster curve" in e for e in
               oracle_checks.report_errors(bad, gens, records, params, vocab))


def test_train_check_catches_a_wrong_objective(tiny, monkeypatch):
    records, vocab, params = tiny
    monkeypatch.setattr(workloads, "load_corpus", lambda: records)
    wl = workloads.Train(seed=0, tracer=spans.Tracer())
    wl.setup()
    wl.mcfg = params.config
    row = {"kind": "step", "step": 1, "cg1": 3.0, "cg2": 2.0, "div": 0.5,
           "objective": (3.0 + 2.0 + 0.1 * 0.5) / 2}
    good = {"ltd": ([row], 0.0, []), "traditional": ([dict(row, cg2=None, div=None)], 0.0, [])}
    assert wl.check(good) == []
    bad = {"ltd": ([dict(row, objective=row["objective"] + 1e-9)], 0.0, [])}
    assert any("objective" in e for e in wl.check(bad))
    assert any("div" in e for e in wl.check({"ltd": ([dict(row, div=1.5)], 0.0, [])}))
    assert any("validation CG" in e for e in wl.check({"traditional": ([], 1e9, [])}))

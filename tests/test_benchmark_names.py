"""The names the benchmark in `perfbench/` reads from pqgen exist.

`perfbench/layers.py` wraps pqgen functions by name for its traced run, and
`perfbench/oracle_checks.py` checks the `generate` and `evaluate` outputs
through others. No test of the package calls some of them, so without these
tests deleting one would break only the benchmark.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pqgen.corpus as C
import pqgen.decoding as D
import pqgen.metrics as MX
import pqgen.model as M
import pqgen.tensor as T
import pqgen.training as TR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_traced_run_wraps_every_name_it_reads_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    before = {module: dict(vars(module)) for module in (C, D, MX, M, T, TR)}
    tracer = spans.Tracer()
    try:
        layers.install(tracer)  # getattr on a missing name raises here
        assert all(getattr(T, op).__wrapped__ is before[T][op] for op in layers.TENSOR_OPS)
    finally:
        tracer.restore()
    for module, names in before.items():
        assert all(getattr(module, name) is value for name, value in names.items()), module


def test_the_output_checks_read_names_that_exist(monkeypatch):
    path = PERFBENCH / "oracle_checks.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.startswith("pqgen.")}
    read = {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert {("pqgen.model", "sequence_log_likelihood"), ("pqgen.metrics", "embed_questions"),
            ("pqgen.corpus", "tokenize")} <= read
    for module, name in sorted(read):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # The fields it reads on the outputs and configs it is handed.
    for cls, names in ((D.GenerationResult, {"questions", "scores", "token_ids", "shortage"}),
                       (D.GenerationConfig, {"length_penalty", "questions_per_product"}),
                       (MX.MetricsReport, {"bleu_top1", "meteor_top1", "distinct_n", "e_div",
                                           "cluster_curve"}),
                       (MX.EmbeddingMatrix, {"rows"}),
                       (C.ProductRecord, {"product_id", "questions"})):
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls
    assert {"pad_id", "bos_id", "eos_id"} <= set(dir(M.ModelConfig))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("oracle_checks")

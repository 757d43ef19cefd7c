"""Which pqgen functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Each layer is one pqgen module. Times are self times within the layer (see
`spans.self_times`): a span keeps the time of the lower layers it calls, so
`model.encode_ms` includes its tensor ops, but `metrics.pairwise_bleu_ms`
leaves out the `bleu` calls it makes, which `metrics.bleu_ms` already holds.
`decoding.self_ms` is the exception: it leaves out every child span, so it is
the beam bookkeeping alone. Every figure covers one traced set-up and one
traced round.
"""

from __future__ import annotations

import statistics

import pqgen.corpus
import pqgen.decoding
import pqgen.metrics
import pqgen.model
import pqgen.tensor
import pqgen.training

import spans

TENSOR_OPS = ("matmul", "matmul_t", "add", "add_n", "scale", "add_const", "relu",
              "embedding", "slice_cols", "concat_cols", "softmax", "layer_norm",
              "cross_entropy", "mean_pool_sequence", "cosine_similarity")
REGIMES = ("ltd", "traditional")
# metric suffix -> wrapped function in pqgen.metrics
METRIC_FUNCS = {"bleu": "bleu", "meteor": "meteor_lite", "pairwise_bleu": "pairwise_bleu",
                "distinct": "distinct_n", "embed": "embed_questions",
                "cluster_sweep": "cluster_count_sweep", "e_div": "e_div"}


def _count_tape(tracer, args):
    tracer.counts[f"tape_ops.{tracer.tag}"] += len(pqgen.tensor.active_tape())
    tracer.counts[f"steps.{tracer.tag}"] += 1


def _count_prefix(tracer, args):
    tracer.counts["prefix_tokens"] += len(args[2])


def _count_embed(tracer, args):
    tracer.counts["embed_rows"] += len(args[1])
    tracer.counts["embed_unique_rows"] += len({tuple(ids) for ids in args[1]})


def install(tracer: spans.Tracer) -> None:
    """Wrap every traced pqgen function on the attribute its caller reads."""
    T, MOD, TR, D, MX, C = (pqgen.tensor, pqgen.model, pqgen.training,
                            pqgen.decoding, pqgen.metrics, pqgen.corpus)
    for op in TENSOR_OPS:
        tracer.wrap(T, op, f"tensor.{op}")
    tracer.wrap(T, "backward", "tensor.backward", on_call=_count_tape, tagged=True)
    tracer.wrap(T, "reset_tape", "tensor.reset_tape")
    tracer.wrap(T, "zero_grad", "tensor.zero_grad")
    for module in (TR, D, MX):
        tracer.wrap(module, "encode", "model.encode")
    tracer.wrap(TR, "decode_teacher_forced", "model.decode_teacher_forced")
    tracer.wrap(D, "decode_step", "model.decode_step", on_call=_count_prefix)
    tracer.wrap(MOD, "load_checkpoint", "model.load_checkpoint")
    for fn in ("train", "adam_step", "clip_gradients", "cg_loss", "div_loss", "mean_cg"):
        tracer.wrap(TR, fn, f"training.{fn}")
    tracer.wrap(D, "generate_questions", "decoding.generate_questions")
    for fn in METRIC_FUNCS.values():
        tracer.wrap(MX, fn, f"metrics.{fn}",
                    on_call=_count_embed if fn == "embed_questions" else None)
    tracer.wrap(MX, "evaluate", "metrics.evaluate")
    for module in (C, MX):
        tracer.wrap(module, "tokenize", "corpus.tokenize")
    tracer.wrap(C, "synth_corpus", "corpus.synth_corpus")
    tracer.wrap(C, "load_jsonl", "corpus.load_jsonl")


def per_layer(tracer: spans.Tracer, to_scaled, step_ms: dict[str, list[float]],
              overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; a layer the workload does
    not touch reads 0. `to_scaled` maps span timestamps to scaled work time
    (see `pace`), so span times read like the end-to-end times."""
    arr = tracer.arrays()
    st = spans.self_times(tracer.names, arr["name_id"], to_scaled(arr["start"]),
                          to_scaled(arr["end"]), arr["parent"])
    layer = spans.totals_by_name(tracer.names, arr["name_id"], st["layer"])
    alone = spans.totals_by_name(tracer.names, arr["name_id"], st["all"])

    def ms(name, totals=layer):
        return 1000.0 * totals.get(name, (0.0, 0))[0], "ms"

    def calls(name):
        return float(layer.get(name, (0.0, 0))[1]), "count"

    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for r in REGIMES:
        steps = counts[f"steps.{r}"]
        out[f"tensor.ops_per_step.{r}"] = (counts[f"tape_ops.{r}"] / steps if steps else 0.0,
                                           "count")
        out[f"tensor.backward_ms.{r}"] = ms(f"tensor.backward.{r}")
    out["tensor.reset_tape_ms"] = ms("tensor.reset_tape")
    out["tensor.zero_grad_ms"] = ms("tensor.zero_grad")
    for op in TENSOR_OPS:
        out[f"tensor.fwd_ms.{op}"] = ms(f"tensor.{op}")
        out[f"tensor.calls.{op}"] = calls(f"tensor.{op}")
    for fn in ("encode", "decode_teacher_forced", "decode_step"):
        out[f"model.{fn}_ms"] = ms(f"model.{fn}")
        out[f"model.{fn}_calls"] = calls(f"model.{fn}")
    out["model.decode_step_prefix_tokens"] = (float(counts["prefix_tokens"]), "count")
    out["model.load_checkpoint_ms"] = ms("model.load_checkpoint")
    for key, fn in (("adam", "adam_step"), ("clip", "clip_gradients"), ("cg_loss", "cg_loss"),
                    ("div_loss", "div_loss"), ("mean_cg", "mean_cg")):
        out[f"training.{key}_ms"] = ms(f"training.{fn}")
    for r in REGIMES:
        out[f"training.steps.{r}"] = (float(counts[f"steps.{r}"]), "count")
        times = step_ms.get(r)
        out[f"training.step_ms.{r}"] = (statistics.median(times) if times else 0.0, "ms")
    out["decoding.self_ms"] = ms("decoding.generate_questions", alone)
    out["decoding.questions"] = (float(counts["questions"]), "count")
    out["decoding.shortage_products"] = (float(counts["shortage_products"]), "count")
    for key, fn in METRIC_FUNCS.items():
        out[f"metrics.{key}_ms"] = ms(f"metrics.{fn}")
    out["metrics.bleu_calls"] = calls("metrics.bleu")
    out["metrics.embed_rows"] = (float(counts["embed_rows"]), "count")
    out["metrics.embed_unique_rows"] = (float(counts["embed_unique_rows"]), "count")
    out["corpus.synth_ms"] = ms("corpus.synth_corpus")
    out["corpus.load_jsonl_ms"] = ms("corpus.load_jsonl")
    out["corpus.tokenize_ms"] = ms("corpus.tokenize")
    out["corpus.tokenize_calls"] = calls("corpus.tokenize")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (float(len(arr["end"])), "count")
    return out

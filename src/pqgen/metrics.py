"""Relevance and diversity metrics: BLEU-4, Avg-BLEU, an exact-match METEOR
variant, Distinct-N, Pairwise-BLEU, e-Div, and an agglomerative cluster-count
sweep, plus the report assembly used by evaluation runs.

All lexical metrics operate on token lists produced by corpus.tokenize so
hypotheses and references are normalized identically. METEOR here is
exact-match only (no stemming or synonym sets); the report header names the
deviation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

from . import tensor as T
from .corpus import ProductRecord, Vocab, tokenize
from .model import ModelParams, NonFiniteOutputError, check_length, encode
from .tensor import DegenerateVectorError


class MetricInputError(ValueError):
    """Metric input missing or too small to evaluate."""


DEFAULT_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))

# BLEU-4: geometric mean of the 1- to 4-gram precisions.
BLEU_MAX_N = 4

# Alignment search budget before meteor falls back to a greedy chunker.
_CHUNK_SEARCH_BUDGET = 200_000


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _all_counts(tokens: Sequence[str]) -> list[Counter]:
    """A sentence's 1- to 4-gram counts, the form `_bleu` scores from."""
    return [_ngram_counts(tokens, n) for n in range(1, BLEU_MAX_N + 1)]


def _merge_refs(refs: Sequence[list[Counter]]) -> list[dict]:
    """Per order, each n-gram's largest count over the `_all_counts` of one or
    more references: the bound `_bleu` clips a hypothesis count to."""
    bounds = [dict(counts) for counts in refs[0]]
    for ref in refs[1:]:
        for bound, counts in zip(bounds, ref):
            for gram, k in counts.items():
                if k > bound.get(gram, 0):
                    bound[gram] = k
    return bounds


def _bleu(hyp: list[Counter], bounds: list[dict], ref_lens: Sequence[int]) -> float:
    """`bleu` of a hypothesis from its `_all_counts`, the `_merge_refs` of its
    references and their lengths; the hypothesis length is its unigram total.
    Each n-gram's count is clipped to its largest count in any one reference:
    the same integers as taking that max per n-gram, so the same floats."""
    c = sum(hyp[0].values())
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        counts = hyp[n - 1]
        total = sum(counts.values())
        bound = bounds[n - 1]
        clipped = 0
        for gram, k in counts.items():
            clipped += min(k, bound.get(gram, 0))
        if total == 0:
            p = 1.0 if n >= 2 else 0.0
        elif clipped == 0:
            if n == 1:
                return 0.0
            p = 1.0 / (total + 1.0)
        else:
            p = clipped / total
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
    r = min((abs(length - c), length) for length in ref_lens)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / BLEU_MAX_N)


def bleu(hypothesis: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """BLEU with multi-reference clipping and brevity penalty against the
    closest reference length (ties to the shorter reference). Zero raw counts
    at n >= 2 are add-one smoothed; a zero-total n >= 2 level counts as
    precision 1; zero matched unigrams give 0. Empty hypothesis gives 0."""
    return avg_bleu([hypothesis], references)  # the mean of one score is that score


def avg_bleu(hypotheses: Sequence[Sequence[str]],
             references: Sequence[Sequence[str]]) -> float:
    if not hypotheses:
        raise MetricInputError("avg_bleu needs at least one hypothesis")
    if not references:
        raise MetricInputError("bleu needs at least one reference")
    bounds = _merge_refs([_all_counts(r) for r in references])
    lens = [len(r) for r in references]
    return math.fsum(_bleu(_all_counts(h), bounds, lens) for h in hypotheses) / len(hypotheses)


def _pairwise_bleu(group: Sequence[list[Counter]], lens: Sequence[int]) -> float:
    scores = [_bleu(group[i], _merge_refs(group[:i] + group[i + 1:]),
                    lens[:i] + lens[i + 1:]) for i in range(len(group))]
    return math.fsum(scores) / len(scores)


def pairwise_bleu(group: Sequence[Sequence[str]]) -> float:
    """Each question scored against the rest of its group; lower means the
    group is locally more diverse."""
    if len(group) < 2:
        raise MetricInputError("pairwise_bleu needs a group of >= 2 questions")
    return _pairwise_bleu([_all_counts(q) for q in group], [len(q) for q in group])


# ---------------------------------------------------------------------------
# METEOR (exact-match variant)


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for h, r in sorted(pairs):
        if prev is None or h != prev[0] + 1 or r != prev[1] + 1:
            chunks += 1
        prev = (h, r)
    return chunks


def _min_chunks_exact(per_type: list[tuple[list[int], list[int], int]],
                      matches: int) -> int:
    """Branch-and-bound over which hypothesis positions match which reference
    positions, minimizing the chunk count of the combined alignment."""
    # Flatten to per-hyp-position decisions ordered left to right.
    slots: list[tuple[int, int]] = []  # (hyp_pos, type_index)
    for ti, (hps, _, _) in enumerate(per_type):
        for h in hps:
            slots.append((h, ti))
    slots.sort()
    need = [m for _, _, m in per_type]
    hyp_left = [len(hps) for hps, _, _ in per_type]
    used_ref: list[set[int]] = [set() for _ in per_type]
    best = matches + 1

    def rec(idx: int, prev: tuple[int, int] | None, chunks: int, remaining: int):
        nonlocal best
        if chunks >= best:
            return
        if remaining == 0:
            best = chunks
            return
        if idx == len(slots):
            return
        h, ti = slots[idx]
        hyp_left[ti] -= 1
        if need[ti] > 0:
            for r in per_type[ti][1]:
                if r in used_ref[ti]:
                    continue
                extra = 0 if (prev is not None and h == prev[0] + 1
                              and r == prev[1] + 1) else 1
                used_ref[ti].add(r)
                need[ti] -= 1
                rec(idx + 1, (h, r), chunks + extra, remaining - 1)
                need[ti] += 1
                used_ref[ti].remove(r)
        # Skip this hypothesis position when enough later ones remain.
        if hyp_left[ti] >= need[ti]:
            rec(idx + 1, prev, chunks, remaining)
        hyp_left[ti] += 1

    rec(0, None, 0, matches)
    return best


def _min_chunks_greedy(per_type: list[tuple[list[int], list[int], int]]) -> int:
    """Fallback when the exact search space is too large: walk hypothesis
    positions left to right, preferring the reference position that continues
    the current chunk, else the smallest available."""
    slots = sorted((h, ti) for ti, (hps, _, _) in enumerate(per_type) for h in hps)
    need = [m for _, _, m in per_type]
    avail = [sorted(rps) for _, rps, _ in per_type]
    pairs: list[tuple[int, int]] = []
    prev = None
    for h, ti in slots:
        if need[ti] == 0:
            continue
        want = prev[1] + 1 if (prev is not None and h == prev[0] + 1) else None
        if want is not None and want in avail[ti]:
            r = want
        else:
            r = avail[ti][0]
        avail[ti].remove(r)
        need[ti] -= 1
        pairs.append((h, r))
        prev = (h, r)
    return _chunk_count(pairs)


def meteor_lite(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Exact-match unigram alignment chosen to minimize the chunk count;
    F_mean = 10PR/(R+9P), fragmentation penalty 0.5*(chunks/matches)^3."""
    hyp = list(hypothesis)
    ref = list(reference)
    if not hyp or not ref:
        return 0.0
    hyp_pos: dict[str, list[int]] = {}
    ref_pos: dict[str, list[int]] = {}
    for i, t in enumerate(hyp):
        hyp_pos.setdefault(t, []).append(i)
    for i, t in enumerate(ref):
        ref_pos.setdefault(t, []).append(i)
    per_type = []
    matches = 0
    space = 1
    for t, hps in hyp_pos.items():
        rps = ref_pos.get(t, [])
        m = min(len(hps), len(rps))
        if m == 0:
            continue
        matches += m
        per_type.append((hps, rps, m))
        space *= math.comb(len(hps), m) * math.perm(len(rps), m)
    if matches == 0:
        return 0.0
    if space <= _CHUNK_SEARCH_BUDGET:
        chunks = _min_chunks_exact(per_type, matches)
    else:
        chunks = _min_chunks_greedy(per_type)
    precision = matches / len(hyp)
    recall = matches / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return 100.0 * f_mean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# Corpus-level diversity


def distinct_n(questions: Sequence[Sequence[str]], n: int) -> float | None:
    """Unique n-grams over total n-grams pooled across all questions; None
    when no question is long enough to contribute any."""
    if n < 1:
        raise MetricInputError(f"distinct_n needs n >= 1, got {n}")
    total = 0
    unique = set()
    for q in questions:
        grams = [tuple(q[i:i + n]) for i in range(len(q) - n + 1)]
        total += len(grams)
        unique.update(grams)
    if total == 0:
        return None
    return len(unique) / total


# ---------------------------------------------------------------------------
# Embedding-space diversity


@dataclass(frozen=True)
class EmbeddingMatrix:
    rows: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def __len__(self) -> int:
        return int(self.rows.shape[0])


@np.errstate(all="ignore")
def embed_questions(params: ModelParams, question_ids: Sequence[Sequence[int]],
                    names: Sequence[str] = ()) -> EmbeddingMatrix:
    """Encoder output mean-pooled over the (unpadded) question tokens; this
    stands in for an external sentence encoder, which is out of scope.
    Overflow prints no numpy warning: an embedding that is not finite is an
    error naming its question, from `names` or else by its ids."""
    if not question_ids:
        raise MetricInputError("embed_questions needs at least one question")
    rows = []
    seen: dict[tuple[int, ...], np.ndarray] = {}
    with T.no_grad():
        for q, ids in enumerate(question_ids):
            if not ids:
                raise MetricInputError("cannot embed an empty question")
            key = tuple(ids)
            row = seen.get(key)
            if row is None:
                # A repeated question reuses its row: the encoder is deterministic.
                row = seen[key] = encode(params, key).h_e.data.mean(axis=0)
                if not np.isfinite(row).all():
                    raise NonFiniteOutputError(f"question {(names[q] if names else key)!r}: "
                                               "embedding is not finite")
            rows.append(row)
    return EmbeddingMatrix(rows=np.stack(rows))


def _rows_of(embeddings) -> np.ndarray:
    rows = embeddings.rows if isinstance(embeddings, EmbeddingMatrix) else embeddings
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or not np.isfinite(rows).all():
        raise MetricInputError(f"embeddings must be a finite 2-D array (shape {rows.shape})")
    return rows


def e_div(embeddings) -> float:
    """Geometric mean (log space, radii clamped below at 1e-12) of the
    per-dimension population standard deviations; exactly 0 when every
    dimension is constant."""
    rows = _rows_of(embeddings)
    if rows.shape[0] < 2:
        raise MetricInputError("e_div needs at least 2 embeddings")
    stds = rows.std(axis=0)
    if np.all(stds == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(np.maximum(stds, 1e-12)))))


def _cosine_distances(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateVectorError("zero-norm embedding row")
    unit = rows / norms[:, None]
    d = 1.0 - unit @ unit.T
    np.fill_diagonal(d, np.inf)  # a row never merges with itself
    return np.maximum(d, 0.0)


def _merge_heights(rows: np.ndarray) -> list[float]:
    """Average-linkage agglomeration over cosine distances; returns the
    nondecreasing list of merge heights. Each merge joins the first minimum
    (i, j) of the symmetric matrix in row-major order, so ties go to the
    smallest i < j; row and column i take the size-weighted mean of i and j
    (Lance-Williams) and row and column j become inf."""
    n = rows.shape[0]
    if n < 2:
        return []
    d = _cosine_distances(rows)
    sizes = np.ones(n)
    heights = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(d)), n)
        heights.append(float(d[i, j]))
        d[i] = d[:, i] = (sizes[i] * d[i] + sizes[j] * d[j]) / (sizes[i] + sizes[j])
        d[i, i] = d[j] = d[:, j] = np.inf
        sizes[i] += sizes[j]
    return heights


def cluster_count_sweep(embeddings, thresholds: Sequence[float] = DEFAULT_THRESHOLDS
                        ) -> list[tuple[float, int]]:
    """Cluster counts from cutting the average-linkage cosine-distance tree at
    each threshold; counts are non-increasing in the threshold."""
    rows = _rows_of(embeddings)
    if rows.shape[0] < 1:
        raise MetricInputError("cluster_count_sweep needs at least one row")
    heights = _merge_heights(rows)
    n = rows.shape[0]
    return [(float(t), n - sum(1 for h in heights if h <= t)) for t in thresholds]


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class MetricsReport:
    n_products: int
    bleu_top1: float
    avg_bleu_top3: float
    meteor_top1: float
    pairwise_bleu: float | None
    distinct_n: dict[int, float | None]
    e_div: float | None
    cluster_curve: list[tuple[float, int]]
    degenerate_products: list[tuple[str, str]] = field(default_factory=list)


def evaluate(generations: Sequence[dict], gold: Sequence[ProductRecord],
             params: ModelParams, vocab: Vocab) -> MetricsReport:
    """Score generation records ({product_id, questions, ...}) against gold
    questions. Relevance metrics average per product; Distinct-N, e-Div, and
    the cluster curve pool the top-1 questions across products."""
    if not generations:
        raise MetricInputError("no generation records to evaluate")
    by_id = {rec.product_id: rec for rec in gold}
    missing = sorted(r["product_id"] for r in generations
                     if r["product_id"] not in by_id)
    if missing:
        raise MetricInputError(
            f"generation product ids missing from gold corpus: {missing}")
    # Generated questions repeat (the paper's finding) and gold questions share
    # templates, so within this call each distinct string is tokenized and
    # counted once, each distinct (top-1, reference) pair METEOR-scored once and
    # each distinct top-3 Pairwise-BLEU-scored once.
    tok = cache(tokenize)
    count = cache(lambda q: _all_counts(tok(q)))
    meteor = cache(lambda hyp, ref: meteor_lite(tok(hyp), tok(ref)))
    pairwise = cache(lambda *top3: _pairwise_bleu([count(q) for q in top3],
                                                  [len(tok(q)) for q in top3]))
    degenerate: list[tuple[str, str]] = []
    bleus, avg3s, meteors, pws = [], [], [], []
    top1_tokens: list[list[str]] = []
    for r in generations:
        pid = r["product_id"]
        top3 = r["questions"][:3]
        if not top3 or not tok(top3[0]):
            bleus.append(0.0)
            avg3s.append(0.0)
            meteors.append(0.0)
            degenerate.append((pid, "no generated question"))
            continue
        refs = by_id[pid].questions
        if not refs:
            raise MetricInputError(f"product {pid}: no gold questions to score against")
        top1 = tok(top3[0])
        check_length(params.config, len(top1), f"product {pid}: question")
        bounds = _merge_refs([count(q) for q in refs])
        ref_lens = [len(tok(q)) for q in refs]
        scores = [_bleu(count(q), bounds, ref_lens) for q in top3]
        bleus.append(scores[0])
        avg3s.append(math.fsum(scores) / len(scores))
        meteors.append(max(meteor(top3[0], q) for q in refs))
        if len(top3) >= 2:
            pws.append(pairwise(*top3))
        else:
            degenerate.append((pid, "fewer than 2 questions for pairwise metrics"))
        top1_tokens.append(top1)
    n = len(generations)
    dn = {k: distinct_n(top1_tokens, k) for k in (1, 2, 3)}
    ediv = None
    curve: list[tuple[float, int]] = []
    if top1_tokens:
        emb = embed_questions(params, [vocab.encode(t) for t in top1_tokens],
                              [" ".join(t) for t in top1_tokens])
        curve = cluster_count_sweep(emb)
        if len(emb) >= 2:
            ediv = e_div(emb)
    return MetricsReport(
        n_products=n,
        bleu_top1=math.fsum(bleus) / n,
        avg_bleu_top3=math.fsum(avg3s) / n,
        meteor_top1=math.fsum(meteors) / n,
        pairwise_bleu=math.fsum(pws) / len(pws) if pws else None,
        distinct_n=dn,
        e_div=ediv,
        cluster_curve=curve,
        degenerate_products=degenerate)


def _fmt(value: float | None, width: int = 8) -> str:
    return f"{value:{width}.2f}" if value is not None else " " * (width - 3) + "n/a"


def format_report_table(report: MetricsReport) -> str:
    """Fixed-width table; Distinct-N scaled to 0-100 for display (the JSON
    form keeps the raw [0,1] values)."""
    lines = [
        "METEOR column is an exact-match variant (no stemming or synonym sets).",
        f"products evaluated: {report.n_products}",
        "",
    ]
    headers = ["BLEU", "Avg-BLEU", "METEOR", "PW-BLEU",
               "Dist-1", "Dist-2", "Dist-3", "e-Div"]
    dn = report.distinct_n
    values = [
        report.bleu_top1, report.avg_bleu_top3, report.meteor_top1,
        report.pairwise_bleu,
        None if dn.get(1) is None else 100.0 * dn[1],
        None if dn.get(2) is None else 100.0 * dn[2],
        None if dn.get(3) is None else 100.0 * dn[3],
        report.e_div,
    ]
    lines.append("  ".join(f"{h:>8}" for h in headers))
    lines.append("  ".join(_fmt(v) for v in values))
    if report.degenerate_products:
        lines.append("")
        lines.append("degenerate products:")
        for pid, reason in report.degenerate_products:
            lines.append(f"  {pid}: {reason}")
    return "\n".join(lines) + "\n"


def report_to_json(report: MetricsReport) -> dict:
    return {
        "n_products": report.n_products,
        "bleu_top1": report.bleu_top1,
        "avg_bleu_top3": report.avg_bleu_top3,
        "meteor_top1": report.meteor_top1,
        "pairwise_bleu": report.pairwise_bleu,
        "distinct_n": {str(k): v for k, v in report.distinct_n.items()},
        "e_div": report.e_div,
        "cluster_curve": [[t, c] for t, c in report.cluster_curve],
        "degenerate_products": [[pid, why] for pid, why in report.degenerate_products],
    }


def cluster_curve_csv(report: MetricsReport) -> str:
    lines = ["threshold,count"]
    lines.extend(f"{t},{c}" for t, c in report.cluster_curve)
    return "\n".join(lines) + "\n"

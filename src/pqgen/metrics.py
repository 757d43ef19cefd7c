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
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache
from itertools import count
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
# The keys a BLEU bit table holds before it starts over: masks stay narrow.
_GRAM_TABLE_BOUND = 4096

# Nodes the exact alignment search visits before meteor falls back to a greedy chunker.
_CHUNK_SEARCH_BUDGET = 10_000


# ---------------------------------------------------------------------------
# BLEU


def _bit_table() -> defaultdict:
    """A BLEU bit table: each new key gets the next free bit."""
    return defaultdict(map((1).__lshift__, count()).__next__)


def _all_counts(tokens: Sequence[str], bits: defaultdict) -> tuple[int, tuple[int, ...]]:
    """A sentence's length and, per order 1-4, the OR of the `bits` of its
    n-gram occurrences: the k-th occurrence of an n-gram g is keyed g for
    k = 1 and (g, k) after that, so each occurrence has a bit of its own."""
    seen: dict[tuple, int] = {}
    masks = []
    for n in range(1, BLEU_MAX_N + 1):
        mask = 0
        for g in zip(*[tokens[i:] for i in range(n)]):
            k = seen[g] = seen.get(g, 0) + 1
            mask |= bits[(g, k) if k > 1 else g]
        masks.append(mask)
    return len(tokens), tuple(masks)


def _merge_refs(refs: Sequence[tuple]) -> tuple[list[int], tuple[int, ...]]:
    """The sorted lengths of one or more references and, per order, the OR of
    their masks: the n-gram occurrences some reference holds."""
    lengths = []
    b1 = b2 = b3 = b4 = 0
    for length, (m1, m2, m3, m4) in refs:
        lengths.append(length)
        b1 |= m1
        b2 |= m2
        b3 |= m3
        b4 |= m4
    return sorted(lengths), (b1, b2, b3, b4)


def _bleu_key(hyp: tuple, refs: tuple) -> tuple[int, ...]:
    """The integers `bleu` scores from, given a hypothesis's `_all_counts` and
    the `_merge_refs` of its references: the effective reference length (the
    closest, ties to the shorter), the hypothesis length and the 1- to 4-gram
    clipped counts. A count k clipped to the largest reference count m is
    min(k, m) = the number of g's first k occurrence keys that some reference
    also holds, so the clipped counts are the bit counts of the ANDs, order by
    order."""
    c, (h1, h2, h3, h4) = hyp
    lens, (b1, b2, b3, b4) = refs
    i = bisect_left(lens, c)  # lens[i - 1] < c <= lens[i]
    r = lens[i - 1] if i == len(lens) or i and c - lens[i - 1] <= lens[i] - c else lens[i]
    return (r, c, (h1 & b1).bit_count(), (h2 & b2).bit_count(), (h3 & b3).bit_count(),
            (h4 & b4).bit_count())


def _bleu_score(key: tuple[int, ...]) -> float:
    """BLEU from its `_bleu_key`: float arithmetic on six small integers only,
    so `evaluate` runs it once per distinct key."""
    r, c, *clipped = key
    log_sum = 0.0
    for n, matched in enumerate(clipped, 1):
        total = max(c - n + 1, 0)
        if total == 0:
            p = 1.0 if n >= 2 else 0.0
        elif matched == 0:
            if n == 1:
                return 0.0
            p = 1.0 / (total + 1.0)
        else:
            p = matched / total
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
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
    scores = []
    for h in hypotheses:
        if not scores or len(bits) > _GRAM_TABLE_BOUND:  # start the table (over)
            bits = _bit_table()
            refs = _merge_refs([_all_counts(r, bits) for r in references])
        scores.append(_bleu_score(_bleu_key(_all_counts(h, bits), refs)))
    return math.fsum(scores) / len(scores)


def _pairwise_bleu(group: Sequence[tuple], score=_bleu_score) -> float:
    scores = [score(_bleu_key(group[i], _merge_refs(group[:i] + group[i + 1:])))
              for i in range(len(group))]
    return math.fsum(scores) / len(scores)


def pairwise_bleu(group: Sequence[Sequence[str]]) -> float:
    """Each question scored against the rest of its group; lower means the
    group is locally more diverse."""
    if len(group) < 2:
        raise MetricInputError("pairwise_bleu needs a group of >= 2 questions")
    bits = _bit_table()
    return _pairwise_bleu([_all_counts(q, bits) for q in group])


# ---------------------------------------------------------------------------
# METEOR (exact-match variant)


def _min_chunks_exact(per_type: list[tuple[list[int], list[int], int]],
                      matches: int) -> int | None:
    """Branch-and-bound over which hypothesis positions match which reference
    positions for the fewest chunks; None past `_CHUNK_SEARCH_BUDGET` nodes."""
    # Per-hyp-position decisions, (hyp_pos, type_index), ordered left to right.
    slots = sorted((h, ti) for ti, (hps, _, _) in enumerate(per_type) for h in hps)
    need = [m for _, _, m in per_type]
    hyp_left = [len(hps) for hps, _, _ in per_type]
    used_ref: list[set[int]] = [set() for _ in per_type]
    best = matches + 1
    budget = _CHUNK_SEARCH_BUDGET

    def rec(idx: int, prev: tuple[int, int] | None, chunks: int, remaining: int):
        nonlocal best, budget
        budget -= 1
        if chunks >= best or budget < 0:
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
    return best if budget >= 0 else None


def _min_chunks_greedy(hyp: list[str], ref: list[str]) -> int:
    """Fallback when the exact search space is too large: walk the hypothesis
    left to right, continuing the current chunk where the reference allows,
    else starting one at the free reference position that begins the longest
    matching run from here (the lowest on ties)."""
    free = set(range(len(ref)))

    def run(h: int, r: int) -> int:  # matching free positions from (h, r) on
        n = 0
        while h + n < len(hyp) and r + n in free and hyp[h + n] == ref[r + n]:
            n += 1
        return n

    chunks, prev = 0, (-2, -2)
    for h, token in enumerate(hyp):
        r = prev[1] + 1
        if h != prev[0] + 1 or not run(h, r):
            starts = [r for r in free if ref[r] == token]
            if not starts:  # every match of this token is made
                continue
            chunks += 1
            r = max(starts, key=lambda r: (run(h, r), -r))
        free.remove(r)
        prev = (h, r)
    return chunks


def _positions(tokens: Sequence[str]) -> tuple[Sequence[str], dict[str, int]]:
    """A sentence's tokens and, per token, the bitmask of its positions."""
    where: dict[str, int] = {}
    for i, t in enumerate(tokens):
        where[t] = where.get(t, 0) | 1 << i
    return tokens, where


def _bits(mask: int) -> list[int]:
    """The positions of a `_positions` bitmask, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def meteor_lite(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Exact-match unigram alignment chosen to minimize the chunk count;
    F_mean = 10PR/(R+9P), fragmentation penalty 0.5*(chunks/matches)^3."""
    return _meteor(*_positions(hypothesis), *_positions(reference))


def _meteor(hyp: Sequence[str], hyp_pos: dict, ref: Sequence[str], ref_pos: dict) -> float:
    """`meteor_lite` from each side's `_positions`."""
    if not hyp or not ref:
        return 0.0
    per_type = []
    matches = candidates = 0
    for t, hmask in hyp_pos.items():
        rmask = ref_pos.get(t)
        if rmask:
            a, b = hmask.bit_count(), rmask.bit_count()
            m = min(a, b)
            matches += m
            candidates += a * b
            per_type.append((hmask, rmask, m))
    if matches == 0:
        return 0.0
    if candidates == matches:  # each matched token once on each side: one alignment
        pairs = sorted((h.bit_length(), r.bit_length()) for h, r, _ in per_type)  # positions + 1
        chunks = 1 + sum((h + 1, r + 1) != pair for (h, r), pair in zip(pairs, pairs[1:]))
    else:  # the exact search, or past its budget the greedy chunker
        chunks = (_min_chunks_exact([(_bits(h), _bits(r), m) for h, r, m in per_type], matches)
                  or _min_chunks_greedy(hyp, ref))
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
    for q, k in Counter(map(tuple, questions)).items():  # each distinct question once
        grams = [q[i:i + n] for i in range(len(q) - n + 1)]
        total += k * len(grams)
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
    """Encoder output mean-pooled over the question tokens; this
    stands in for an external sentence encoder, which is out of scope.
    Overflow prints no numpy warning: an embedding that is not finite is an
    error naming its question, from `names` or else by its ids."""
    if not question_ids:
        raise MetricInputError("embed_questions needs at least one question")
    keys = [tuple(ids) for ids in question_ids]
    if not all(keys):
        raise MetricInputError("cannot embed an empty question")
    # Each distinct question is encoded once, in one stacked pass per length:
    # equal lengths need no padding, so each row keeps the bits it has alone.
    distinct = dict.fromkeys(keys)  # in first-occurrence order
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for key in distinct:
        by_length.setdefault(len(key), []).append(key)
    seen: dict[tuple[int, ...], np.ndarray] = {}
    with T.no_grad():
        for n, block in by_length.items():
            h = encode(params, *block).h_e.data
            seen.update(zip(block, h.reshape(len(block), n, -1).mean(axis=1)))
    for key in distinct:  # the first one not finite is the first such question
        if not np.isfinite(seen[key]).all():
            name = names[keys.index(key)] if names else key
            raise NonFiniteOutputError(f"question {name!r}: embedding is not finite")
    return EmbeddingMatrix(rows=np.stack([seen[key] for key in keys]))


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


def _merge_heights(rows: np.ndarray, sizes: Sequence[float] | None = None) -> list[float]:
    """Average-linkage agglomeration over cosine distances of clusters that
    start at `sizes` rows each (default one); returns the nondecreasing list
    of merge heights. Each merge joins the first minimum (i, j) of the
    symmetric matrix in row-major order, so ties go to the smallest i < j;
    row and column i take the size-weighted mean of i and j (Lance-Williams)
    and row and column j become inf."""
    n = rows.shape[0]
    sizes = np.ones(n) if sizes is None else np.array(sizes, dtype=np.float64)
    if sizes.sum() < 2:
        return []
    d = _cosine_distances(rows)
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
    each threshold; counts are non-increasing in the threshold. Equal rows
    merge first, at height 0 (average linkage merges at the mean pairwise
    distance whatever the order), so the tree is built over the distinct rows
    in first-occurrence order, each starting at its multiplicity."""
    rows = _rows_of(embeddings)
    n = rows.shape[0]
    if n < 1:
        raise MetricInputError("cluster_count_sweep needs at least one row")
    counts = Counter(row.tobytes() for row in rows)
    distinct = np.frombuffer(b"".join(counts)).reshape(len(counts), rows.shape[1])
    zeros = n - len(counts)  # the merges of equal rows, all at height 0
    heights = _merge_heights(distinct, list(counts.values()))
    return [(float(t), n - (zeros if t >= 0 else 0) - sum(1 for h in heights if h <= t))
            for t in thresholds]


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
    # positioned once and counted once per bit table, each distinct (top-1,
    # reference) pair and top-3 METEOR- or Pairwise-BLEU-scored once and each
    # distinct BLEU key (a few small integers) scored once.
    tok = cache(tokenize)
    masks = cache(lambda q: _all_counts(tok(q), bits))  # bits: the bit table, below
    score = cache(_bleu_score)
    where = cache(lambda q: _positions(tok(q)))
    meteor = cache(lambda hyp, ref: _meteor(*where(hyp), *where(ref)))
    pairwise = cache(lambda *top3: _pairwise_bleu([masks(q) for q in top3], score))
    degenerate: list[tuple[str, str]] = []
    bleus, avg3s, meteors, pws = [], [], [], []
    top1s: list[str] = []
    for r in generations:
        if not bleus or len(bits) > _GRAM_TABLE_BOUND:  # start the table (over)
            bits = _bit_table()
            masks.cache_clear()  # masks of the old table
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
        merged = _merge_refs([masks(q) for q in refs])
        scores = [score(_bleu_key(masks(q), merged)) for q in top3]
        bleus.append(scores[0])
        avg3s.append(math.fsum(scores) / len(scores))
        meteors.append(max(meteor(top3[0], q) for q in refs))
        if len(top3) >= 2:
            pws.append(pairwise(*top3))
        else:
            degenerate.append((pid, "fewer than 2 questions for pairwise metrics"))
        top1s.append(top3[0])
    n = len(generations)
    top1_tokens = list(map(tok, top1s))
    dn = {k: distinct_n(top1_tokens, k) for k in (1, 2, 3)}
    ediv = None
    curve: list[tuple[float, int]] = []
    if top1s:  # ids and name of each distinct top-1 question, made once
        named = {q: (tuple(vocab.encode(tok(q))), " ".join(tok(q))) for q in dict.fromkeys(top1s)}
        emb = embed_questions(params, *zip(*map(named.__getitem__, top1s)))
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


def cluster_curve_csv(report: MetricsReport) -> str:
    lines = ["threshold,count"]
    lines.extend(f"{t},{c}" for t, c in report.cluster_curve)
    return "\n".join(lines) + "\n"

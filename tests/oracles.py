"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly from first principles (finite
differences, exhaustive enumeration, counting) and imports nothing from
`pqgen`, so `perfbench/oracle_checks.py` can check a report against it
without trusting the code that made it. It holds `fd_grad` and `max_rel_err`
for gradient checks; `bleu_oracle`, `meteor_oracle` (every alignment),
`distinct_n_oracle` and `e_div_oracle` for the report's metrics;
`merge_heights_oracle` (every pair rescanned per merge) and
`cluster_counts_scipy` for the cluster sweep; and `enumerate_sequences`, every
sequence from per-step log-prob tables.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# Metric oracles


def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu_oracle(hyp, refs, max_n: int = 4) -> float:
    """BLEU-4, multi-reference clipping, add-one smoothing for n>=2 on zero
    raw counts (a zero-total n-gram level counts as precision 1), brevity
    penalty against the closest reference length (ties -> shorter)."""
    if not hyp:
        return 0.0
    log_p_sum = 0.0
    for n in range(1, max_n + 1):
        grams = _ngrams(hyp, n)
        total = len(grams)
        counts = Counter(grams)
        clipped = 0
        for gram, c in counts.items():
            best = max((Counter(_ngrams(r, n))[gram] for r in refs), default=0)
            clipped += min(c, best)
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
        log_p_sum += math.log(p)
    c = len(hyp)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_p_sum / max_n)


def _chunks_of(pairs) -> int:
    """Chunk count of an alignment given as (hyp_idx, ref_idx) pairs."""
    pairs = sorted(pairs)
    chunks = 0
    prev = None
    for h, r in pairs:
        if prev is None or h != prev[0] + 1 or r != prev[1] + 1:
            chunks += 1
        prev = (h, r)
    return chunks


def meteor_oracle(hyp, ref) -> float:
    """Exact-match METEOR variant; minimal chunk count found exhaustively."""
    if not hyp or not ref:
        return 0.0
    hyp_pos = {}
    ref_pos = {}
    for i, t in enumerate(hyp):
        hyp_pos.setdefault(t, []).append(i)
    for i, t in enumerate(ref):
        ref_pos.setdefault(t, []).append(i)
    per_type = []
    matches = 0
    for t, hps in hyp_pos.items():
        rps = ref_pos.get(t, [])
        m = min(len(hps), len(rps))
        if m == 0:
            continue
        matches += m
        options = []
        for hsel in itertools.combinations(hps, m):
            for rsel in itertools.permutations(rps, m):
                options.append(list(zip(hsel, rsel)))
        per_type.append(options)
    if matches == 0:
        return 0.0
    best_chunks = matches + 1
    for combo in itertools.product(*per_type):
        pairs = [p for group in combo for p in group]
        best_chunks = min(best_chunks, _chunks_of(pairs))
    precision = matches / len(hyp)
    recall = matches / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (best_chunks / matches) ** 3
    return 100.0 * f_mean * (1.0 - penalty)


def distinct_n_oracle(questions, n):
    grams = []
    for q in questions:
        grams.extend(_ngrams(q, n))
    if not grams:
        return None
    return len(set(grams)) / len(grams)


def e_div_oracle(rows: np.ndarray) -> float:
    stds = rows.std(axis=0)
    if np.all(stds == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(np.maximum(stds, 1e-12)))))


def merge_heights_oracle(rows: np.ndarray, sizes=None) -> list[float]:
    """Average-linkage merge heights over cosine distances by rescanning every
    active pair on each merge (O(n^3)); ties go to the smallest (d, i, j).
    Row i starts as a cluster of sizes[i] rows (default 1)."""
    n = rows.shape[0]
    if n < 2:
        return []
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    d = 1.0 - unit @ unit.T
    np.fill_diagonal(d, 0.0)
    d = np.maximum(d, 0.0)
    active = list(range(n))
    sizes = {i: 1 if sizes is None else sizes[i] for i in range(n)}
    heights = []
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                key = (d[i, j], i, j)
                if best is None or key < best:
                    best = key
        h, i, j = best
        heights.append(float(h))
        si, sj = sizes[i], sizes[j]
        for k in active:
            if k != i and k != j:
                d[i, k] = d[k, i] = (si * d[i, k] + sj * d[j, k]) / (si + sj)
        sizes[i] = si + sj
        active.remove(j)
    return heights


def cluster_counts_scipy(rows: np.ndarray, thresholds) -> list[int]:
    """Average-linkage cosine-distance cluster counts via scipy (oracle)."""
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    if rows.shape[0] == 1:
        return [1 for _ in thresholds]
    d = pdist(rows, metric="cosine")
    z = linkage(d, method="average")
    return [int(fcluster(z, t, criterion="distance").max()) for t in thresholds]


def enumerate_sequences(step_logprobs, eos_id: int):
    """All sequences of length <= len(step_logprobs) from position-dependent
    log-prob tables, stopping at EOS; yields (tokens, total_logprob, finished)."""
    vocab = len(step_logprobs[0])
    results = []

    def rec(prefix, total, step):
        if prefix and prefix[-1] == eos_id:
            results.append((tuple(prefix), total, True))
            return
        if step == len(step_logprobs):
            results.append((tuple(prefix), total, False))
            return
        for v in range(vocab):
            rec(prefix + [v], total + step_logprobs[step][v], step + 1)

    rec([], 0.0, 0)
    return results

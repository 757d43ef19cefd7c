"""Metric tests: hand-computed worked examples, brute-force oracle agreement
on random micro-inputs, and the report assembly contract."""

import dataclasses
import json
import math
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqgen import metrics as MX
from pqgen import tensor as T
from pqgen.corpus import ProductRecord, Vocab, build_vocab, split, synth_corpus, tokenize
from pqgen.metrics import (
    DEFAULT_THRESHOLDS,
    EmbeddingMatrix,
    MetricInputError,
    _cosine_distances,
    _merge_heights,
    avg_bleu,
    bleu,
    cluster_count_sweep,
    cluster_curve_csv,
    distinct_n,
    e_div,
    embed_questions,
    evaluate,
    format_report_table,
    meteor_lite,
    pairwise_bleu,
)
from pqgen.model import ModelConfig, init_params, load_checkpoint
from pqgen.tensor import DegenerateVectorError

from . import reference
from .oracles import (
    bleu_oracle,
    cluster_counts_scipy,
    distinct_n_oracle,
    e_div_oracle,
    merge_heights_oracle,
    meteor_oracle,
)

ALPHABET = ["a", "b", "c", "d", "e", "f"]


def toks(text):
    return text.split()


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identity_is_100():
    assert bleu(toks("is it dishwasher safe ?"),
                [toks("is it dishwasher safe ?")]) == pytest.approx(100.0)


def test_bleu_disjoint_is_0():
    assert bleu(toks("a b c d"), [toks("e f g h")]) == 0.0


def test_bleu_brevity_penalty_worked_example():
    got = bleu(toks("a b c d"), [toks("a b c d e")])
    assert got == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0), abs=1e-9)
    assert got == pytest.approx(77.8800783071405, abs=1e-6)


def test_bleu_closest_reference_tie_prefers_shorter():
    # Reference lengths 3 and 5 are equally close to the 4-token hypothesis;
    # the shorter wins, so no brevity penalty applies.
    got = bleu(toks("a b c d"), [toks("a b c"), toks("a b c d e")])
    assert got == pytest.approx(100.0)


def test_bleu_smoothing_worked_example():
    # p1=1/2; bigrams: 1 total, 0 matched -> 1/(1+1); tri/quad levels have no
    # n-grams at all -> precision 1.
    got = bleu(toks("a b"), [toks("a c")])
    assert got == pytest.approx(100.0 * (0.5 * 0.5) ** 0.25, abs=1e-9)


def test_bleu_empty_hypothesis_is_0():
    assert bleu([], [toks("a b")]) == 0.0


def test_bleu_requires_references():
    with pytest.raises(MetricInputError):
        bleu(toks("a b"), [])


def test_avg_bleu_is_the_mean_of_bleus():
    hyps = [toks("a b c"), toks("a b"), toks("c d e")]
    refs = [toks("a b c")]
    want = sum(bleu(h, refs) for h in hyps) / 3.0
    assert avg_bleu(hyps, refs) == pytest.approx(want, abs=1e-12)
    assert avg_bleu([refs[0]] * 3, refs) == pytest.approx(100.0)
    with pytest.raises(MetricInputError):
        avg_bleu([], refs)


def test_pairwise_bleu_worked_cases():
    same = [toks("is it safe ?")] * 3
    assert pairwise_bleu(same) == pytest.approx(100.0)
    disjoint = [toks("a b"), toks("c d"), toks("e f")]
    assert pairwise_bleu(disjoint) == 0.0
    group = [toks("a b c"), toks("a b d"), toks("c d e")]
    want = sum(bleu(group[i], group[:i] + group[i + 1:]) for i in range(3)) / 3.0
    assert pairwise_bleu(group) == pytest.approx(want, abs=1e-12)
    with pytest.raises(MetricInputError):
        pairwise_bleu([toks("a b")])


def test_pairwise_bleu_permutation_invariant():
    group = [toks("a b c"), toks("a b d"), toks("c d e a")]
    base = pairwise_bleu(group)
    assert pairwise_bleu(group[::-1]) == pytest.approx(base, abs=1e-9)
    assert pairwise_bleu([group[1], group[2], group[0]]) == pytest.approx(
        base, abs=1e-9)


# ---------------------------------------------------------------------------
# METEOR


def test_meteor_identity_length4():
    got = meteor_lite(toks("is it dishwasher safe"), toks("is it dishwasher safe"))
    assert got == pytest.approx(99.21875, abs=1e-9)


def test_meteor_single_token_identity():
    assert meteor_lite(["a"], ["a"]) == pytest.approx(50.0, abs=1e-12)


def test_meteor_disjoint_and_empty():
    assert meteor_lite(toks("a b"), toks("c d")) == 0.0
    assert meteor_lite([], toks("a")) == 0.0
    assert meteor_lite(toks("a"), []) == 0.0


def test_meteor_two_chunk_example():
    # "a b" and "c d" each align contiguously: 2 chunks over 4 matches.
    got = meteor_lite(toks("a b c d"), toks("c d a b"))
    assert got == pytest.approx(100.0 * (1.0 - 0.5 * (2.0 / 4.0) ** 3), abs=1e-9)


def test_meteor_duplicate_tokens_pick_minimal_chunks():
    got = meteor_lite(toks("a a b"), toks("a b a"))
    assert got == pytest.approx(meteor_oracle(toks("a a b"), toks("a b a")),
                                abs=1e-9)
    # Minimal alignment is 2 chunks, not the 3 a left-to-right pairing gives.
    assert got == pytest.approx(100.0 * (1.0 - 0.5 * (2.0 / 3.0) ** 3), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=8),
       st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=8))
def test_meteor_greedy_fallback_never_beats_the_exact_search(hyp, ref):
    # Same matches, so the score falls as the chunk count rises. Within the
    # budget meteor_lite is the exhaustive oracle's score; at budget 0 it is
    # the fallback's, a real alignment, never fewer chunks than the minimum.
    exact = meteor_oracle(hyp, ref)
    assert meteor_lite(hyp, ref) == pytest.approx(exact, abs=1e-9)
    with mock.patch.object(MX, "_CHUNK_SEARCH_BUDGET", 0):
        assert meteor_lite(hyp, ref) <= exact + 1e-9


def test_meteor_greedy_fallback_starts_chunks_at_the_longest_run():
    # "a b a"*k against "b a a"*k aligns in 2 chunks: hyp[1:] onto ref[:-1],
    # then hyp[0] onto the last "a". From k = 6 the exact search visits more
    # nodes than its budget, and the fallback's count is the one meteor_lite
    # keeps (at k = 20 the search's best so far is 46 chunks).
    for k in (2, 3, 4, 20):
        hyp, ref = toks("a b a " * k), toks("b a a " * k)
        want = 100.0 * (1.0 - 0.5 * (2 / (3 * k)) ** 3)
        with mock.patch.object(MX, "_CHUNK_SEARCH_BUDGET", 0):
            assert meteor_lite(hyp, ref) == pytest.approx(want, abs=1e-12)
        assert meteor_lite(hyp, ref) == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET + ["g", "h"]), unique=True, min_size=1, max_size=8),
       st.lists(st.sampled_from(ALPHABET + ["g", "h"]), unique=True, min_size=1, max_size=8),
       st.lists(st.sampled_from(["x", "y"]), max_size=3))
def test_meteor_counts_the_chunks_of_a_unique_alignment_as_the_exact_search(hyp, ref, extra):
    # Every matched token once on each side (a token only the hypothesis
    # holds may repeat): one alignment, whose chunks meteor_lite counts
    # directly, without the search.
    hyp = hyp + extra
    per_type = [([hyp.index(t)], [ref.index(t)], 1) for t in dict.fromkeys(hyp) if t in ref]
    matches = len(per_type)
    searched = []
    real = MX._min_chunks_exact
    with mock.patch.object(MX, "_min_chunks_exact",
                           lambda *args: searched.append(args) or real(*args)):
        got = meteor_lite(hyp, ref)
    assert searched == []
    if not matches:
        assert got == 0.0
        return
    chunks = real(per_type, matches)
    precision, recall = matches / len(hyp), matches / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    assert got == 100.0 * f_mean * (1.0 - 0.5 * (chunks / matches) ** 3)
    assert got == pytest.approx(meteor_oracle(hyp, ref), abs=1e-9)


def meteor_and_search_nodes(hyp, ref):
    """`meteor_lite`'s score and the number of nodes its exact search visits
    (calls of the search's inner `rec`)."""
    rec = next(c for c in MX._min_chunks_exact.__code__.co_consts
               if getattr(c, "co_name", None) == "rec")
    nodes = []
    before = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is rec
                   and nodes.append(frame))
    try:
        score = meteor_lite(hyp, ref)
    finally:
        sys.setprofile(before)
    return score, len(nodes)


def test_meteor_searches_45_360_alignments_exactly_within_its_node_budget():
    # 3 * 126 * 120 = 45,360 alignments: hyp[1:7] onto the whole reference is
    # one chunk. The greedy fallback starts a chunk at hyp[0] and needs two.
    # The search proves one chunk the minimum long before its budget.
    hyp, ref = toks("a a b b b b b b b b b a"), toks("a b b b b b")
    f_mean = 10.0 * 0.5 * 1.0 / (1.0 + 9.0 * 0.5)
    score, nodes = meteor_and_search_nodes(hyp, ref)
    assert score == pytest.approx(100.0 * f_mean * (1.0 - 0.5 * (1 / 6) ** 3), abs=1e-12)
    assert nodes <= 1_000
    with mock.patch.object(MX, "_CHUNK_SEARCH_BUDGET", 0):
        assert meteor_lite(hyp, ref) == pytest.approx(
            100.0 * f_mean * (1.0 - 0.5 * (2 / 6) ** 3), abs=1e-12)


def test_meteor_searches_exactly_up_to_10_000_nodes():
    # 7 matches in 4 chunks: the exact search takes between 1,000 and 10,000
    # nodes to prove it, and the greedy fallback finds 6 chunks. A budget of
    # 1,000 nodes would stop the search at 5.
    hyp, ref = toks("a b b b a a a a b"), toks("a a b a b a b")
    f_mean = 10.0 * (7 / 9) * 1.0 / (1.0 + 9.0 * (7 / 9))
    score, nodes = meteor_and_search_nodes(hyp, ref)
    assert 1_000 < nodes <= MX._CHUNK_SEARCH_BUDGET == 10_000
    assert score == pytest.approx(meteor_oracle(hyp, ref), abs=1e-12)
    assert score == pytest.approx(100.0 * f_mean * (1.0 - 0.5 * (4 / 7) ** 3), abs=1e-12)
    with mock.patch.object(MX, "_CHUNK_SEARCH_BUDGET", 0):
        assert meteor_lite(hyp, ref) == pytest.approx(
            100.0 * f_mean * (1.0 - 0.5 * (6 / 7) ** 3), abs=1e-12)


def test_meteor_bounds_its_search_by_nodes_not_alignments():
    # 172,800 alignments, and the exact search would visit 693,842 nodes
    # (0.3-0.5 s). It stops after its budget, plus at most one call per
    # remaining branch on its stack, and meteor_lite scores the better of
    # its best so far and the greedy fallback: the search's 11 chunks of 12
    # matches (the minimum), where the fallback alone finds 12.
    hyp, ref = toks("d a c d c d a a c c d c d a"), toks("c a b a d b c c a d d d d b a")
    f_mean = 10.0 * (12 / 14) * (12 / 15) / (12 / 15 + 9.0 * (12 / 14))
    score, nodes = meteor_and_search_nodes(hyp, ref)
    assert nodes <= MX._CHUNK_SEARCH_BUDGET + len(hyp) * (len(ref) + 1)
    assert score == pytest.approx(100.0 * f_mean * (1.0 - 0.5 * (11 / 12) ** 3), abs=1e-12)
    with mock.patch.object(MX, "_CHUNK_SEARCH_BUDGET", 0):
        assert meteor_lite(hyp, ref) == pytest.approx(100.0 * f_mean * 0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Distinct-N


def test_distinct_n_worked_examples():
    qs = [toks("a b c"), toks("a b d")]
    assert distinct_n(qs, 1) == pytest.approx(4.0 / 6.0)
    repeated = [toks("a b c")] * 4
    assert distinct_n(repeated, 2) == pytest.approx(1.0 / 4.0)
    assert distinct_n([toks("a b c")], 3) == 1.0
    # Each distinct question counts by its multiplicity. Bigrams: "a b c"
    # gives ab, bc three times, "c a b" gives ca, ab, and "a" none: 3 unique
    # of 8. Trigrams: abc three times and cab, 2 of 4.
    qs = [toks("a b c"), toks("a"), toks("a b c"), toks("c a b"), toks("a b c")]
    assert distinct_n(qs, 2) == distinct_n_oracle(qs, 2) == 3 / 8
    assert distinct_n(qs[::-1], 3) == distinct_n_oracle(qs, 3) == 2 / 4


def test_distinct_n_zero_total_is_none():
    assert distinct_n([toks("a b")], 5) is None
    assert distinct_n([], 1) is None


def test_distinct_n_rejects_bad_n():
    with pytest.raises(MetricInputError):
        distinct_n([toks("a")], 0)


def test_distinct_n_permutation_invariant():
    qs = [toks("a b"), toks("b c d"), toks("a")]
    assert distinct_n(qs, 1) == distinct_n(qs[::-1], 1)
    assert distinct_n(qs, 2) == distinct_n(qs[::-1], 2)


# ---------------------------------------------------------------------------
# e-Div and clustering


def test_e_div_worked_examples():
    assert e_div(np.array([[0.0, 0.0], [2.0, 2.0]])) == pytest.approx(1.0)
    assert e_div(np.array([[0.0, 0.0], [2.0, 8.0]])) == pytest.approx(2.0)
    assert e_div(np.array([[3.0, 1.0], [3.0, 1.0], [3.0, 1.0]])) == 0.0
    with pytest.raises(MetricInputError):
        e_div(np.array([[1.0, 2.0]]))


def test_e_div_clamps_radii_only_below_1e_12():
    # Three dimensions of std 1 and one of std 1e-9: the geometric mean is
    # (1e-9)^(1/4), which a clamp at any radius above 1e-9 would raise.
    rows = np.array([[1.0, -1.0, 2.0, 0.0], [-1.0, 1.0, 0.0, 2e-9]])
    assert e_div(rows) == pytest.approx(1e-9 ** 0.25, rel=1e-6)
    assert e_div(rows) == pytest.approx(e_div_oracle(rows), rel=1e-12)


def test_e_div_scale_equivariance():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(5, 4))
    base = e_div(rows)
    assert e_div(3.5 * rows) == pytest.approx(3.5 * base, rel=1e-9)


def test_cluster_two_tight_orthogonal_pairs():
    rows = np.array([[1.0, 0.0], [0.999, 0.01], [0.0, 1.0], [0.01, 0.999]])
    counts = dict(cluster_count_sweep(rows, [0.5]))
    assert counts[0.5] == 2


def test_cluster_threshold_extremes():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(6, 3))
    sweep = cluster_count_sweep(rows, [0.0, 2.0])
    assert sweep[0][1] == 6
    assert sweep[1][1] == 1


def test_cluster_single_row():
    sweep = cluster_count_sweep(np.array([[1.0, 2.0]]), [0.1, 0.5])
    assert sweep == [(0.1, 1), (0.5, 1)]
    # One row never merges, so even a zero-norm one is a cluster, not an error.
    assert cluster_count_sweep(np.zeros((1, 2)), [0.1]) == [(0.1, 1)]


def test_cluster_cut_counts_a_merge_at_exactly_the_threshold():
    # Orthogonal rows merge at cosine distance exactly 1.0: "at or below each
    # threshold", as scipy's fcluster(criterion="distance") cuts.
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert _merge_heights(rows) == [1.0]
    assert cluster_count_sweep(rows, [0.5, 1.0, 1.5]) == [(0.5, 2), (1.0, 1), (1.5, 1)]


def test_cosine_distances_refuse_a_row_of_norm_below_1e_12():
    with pytest.raises(DegenerateVectorError):
        _cosine_distances(np.array([[1e-13, 0.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateVectorError):
        cluster_count_sweep(np.array([[0.0, 1e-13], [1.0, 1.0]]))
    assert _cosine_distances(np.array([[1e-11, 0.0], [0.0, 1.0]]))[0, 1] == 1.0


@pytest.mark.parametrize("rows", [
    np.zeros((3, 2)),
    np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]),
], ids=["all zero", "zero row repeated"])
def test_cluster_sweep_refuses_a_zero_row_among_several(rows):
    # Equal rows collapse into one, but a zero row among two or more is still
    # an error, even when every row is that zero row.
    with pytest.raises(DegenerateVectorError):
        cluster_count_sweep(rows)


@pytest.mark.parametrize("row", [[0.0, 1.0, 2.0], [0.3, 0.7, 0.1]])
def test_exact_duplicates_merge_at_height_zero(row):
    # 1 - u.u rounds to 1.1e-16 and 2.2e-16 for these rows, so a sweep over
    # the full rows would leave them apart at threshold 0.
    assert cluster_count_sweep(np.array([row, row]), [0.0]) == [(0.0, 1)]
    # Below height 0 nothing has merged.
    assert cluster_count_sweep(np.array([row, row]), [-0.1]) == [(-0.1, 2)]


def test_cluster_counts_non_increasing_and_permutation_invariant():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(8, 4))
    counts = [c for _, c in cluster_count_sweep(rows, DEFAULT_THRESHOLDS)]
    assert counts == sorted(counts, reverse=True)
    perm = rng.permutation(8)
    assert counts == [c for _, c in cluster_count_sweep(rows[perm], DEFAULT_THRESHOLDS)]


@pytest.mark.parametrize("seed", range(6))
def test_cluster_sweep_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(rng.integers(2, 9), 5))
    got = [c for _, c in cluster_count_sweep(rows, DEFAULT_THRESHOLDS)]
    assert got == cluster_counts_scipy(rows, DEFAULT_THRESHOLDS)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 32), st.integers(2, 60))
@settings(max_examples=200, deadline=None)
def test_sweep_over_repeated_rows_matches_scipy_and_full_row_oracle(seed, k, dim, n):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, dim))[rng.integers(0, k, n)]
    got = [c for _, c in cluster_count_sweep(rows, DEFAULT_THRESHOLDS)]
    assert got == cluster_counts_scipy(rows, DEFAULT_THRESHOLDS)
    heights = merge_heights_oracle(rows)
    assert got == [n - sum(h <= t for h in heights) for t in DEFAULT_THRESHOLDS]


@pytest.mark.parametrize("rows", [
    np.array([1.0, 2.0]),
    np.array([[1.0, 2.0], [np.nan, 1.0], [0.5, 0.5]]),
    np.array([[1.0, 2.0], [np.inf, 1.0], [0.5, 0.5]]),
    np.array([[1.0, 2.0], [-np.inf, 1.0], [0.5, 0.5]]),
], ids=["1-D", "nan", "inf", "-inf"])
@pytest.mark.parametrize("metric", [e_div, cluster_count_sweep])
def test_embedding_metrics_refuse_non_finite_or_non_2d_rows(metric, rows):
    with pytest.raises(MetricInputError):
        metric(rows)
    with pytest.raises(MetricInputError):
        metric(EmbeddingMatrix(rows=rows))


def _nonzero(row) -> bool:
    return float(np.linalg.norm(row)) > 1e-3


@st.composite
def tie_heavy_rows(draw):
    """Inputs whose merges tie: repeated rows, small integer lattice points,
    mutually orthogonal (equidistant) points, regular polygons, one row."""
    kind = draw(st.sampled_from(["duplicates", "lattice", "equidistant", "polygon", "single"]))
    dim = draw(st.integers(1, 4))
    lattice_row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    if kind == "single":
        return np.array([draw(lattice_row)], dtype=np.float64)
    n = draw(st.integers(2, 24))
    if kind == "lattice":
        return np.array(draw(st.lists(lattice_row, min_size=n, max_size=n)), dtype=np.float64)
    if kind == "duplicates":
        real_row = st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim).filter(_nonzero)
        base = np.array(draw(st.lists(real_row, min_size=1, max_size=4)))
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
        return base[picks]
    k = draw(st.integers(2, 6))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    scales = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n)))
    if kind == "equidistant":
        return np.eye(k)[picks] * scales[:, None]
    angles = 2.0 * np.pi * np.array(picks) / k
    return np.stack([np.cos(angles), np.sin(angles)], axis=1) * scales[:, None]


@given(tie_heavy_rows())
@settings(max_examples=300, deadline=None)
def test_merge_heights_match_pair_scan_oracle_on_ties(rows):
    # The first minimum in row-major order is the oracle's smallest (d, i, j)
    # only if the distance matrix is exactly symmetric.
    d = _cosine_distances(rows)
    np.testing.assert_array_equal(d, d.T)
    assert _merge_heights(rows) == merge_heights_oracle(rows)
    # The sweep builds its tree over the distinct rows, weighted by their counts.
    _, first, counts = np.unique(rows, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    distinct, sizes = rows[first[order]], counts[order]
    assert _merge_heights(distinct, sizes) == merge_heights_oracle(distinct, sizes)


def test_tied_merges_take_the_smallest_index_pair():
    # Once the duplicates 0 and 2 have merged, cluster 0 and row 1 tie at
    # distance 1 - 1/sqrt(2) from row 3. The rule joins (0, 3), so row 1 stays
    # apart until a last merge at (2 * 1 + d) / 3 = 0.76. scipy's linkage joins
    # (1, 3) instead and ends at (1 + d) / 2 = 0.65. Both are average-linkage
    # trees: on tied inputs the counts of this loop, like those of the pair
    # scan it replaces, need not equal cluster_counts_scipy.
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d = _cosine_distances(rows)
    assert d[0, 3] == d[1, 3]
    heights = _merge_heights(rows)
    assert heights == merge_heights_oracle(rows)
    assert heights == [0.0, d[0, 3], (2.0 * d[0, 1] + d[0, 3]) / 3.0]


def test_merge_heights_match_oracle_on_evaluate_shaped_rows():
    # Shaped like the benchmark's evaluate input: 32-dim rows, 5 distinct.
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(5, 32))[rng.integers(0, 5, 200)]
    heights = _merge_heights(rows)
    assert heights == merge_heights_oracle(rows)
    assert heights == sorted(heights)
    got = [c for _, c in cluster_count_sweep(rows, DEFAULT_THRESHOLDS)]
    assert got == cluster_counts_scipy(rows, DEFAULT_THRESHOLDS)


# ---------------------------------------------------------------------------
# Oracle agreement on random micro-inputs


@pytest.mark.parametrize("seed", range(20))
def test_lexical_metrics_match_oracles(seed):
    rng = np.random.default_rng(seed)
    qs = [[ALPHABET[i] for i in rng.integers(0, len(ALPHABET), rng.integers(1, 6))]
          for _ in range(5)]
    hyp, refs = qs[0], qs[1:]
    assert bleu(hyp, refs) == pytest.approx(bleu_oracle(hyp, refs), abs=1e-9)
    assert meteor_lite(hyp, refs[0]) == pytest.approx(
        meteor_oracle(hyp, refs[0]), abs=1e-9)
    for n in (1, 2, 3):
        want = distinct_n_oracle(qs, n)
        got = distinct_n(qs, n)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
    rows = rng.normal(size=(5, 6))
    assert e_div(rows) == pytest.approx(e_div_oracle(rows), abs=1e-9)


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=7), min_size=2, max_size=5))
@settings(max_examples=150, deadline=None)
def test_bleu_and_pairwise_bleu_match_the_oracle(group):
    # Three tokens make repeated n-grams common, so clipping counts occurrence
    # keys (g, k) beyond the first on both sides.
    hyp, refs = group[0], group[1:]
    assert bleu(hyp, refs) == pytest.approx(bleu_oracle(hyp, refs), rel=0, abs=1e-9)
    want = np.mean([bleu_oracle(q, group[:i] + group[i + 1:]) for i, q in enumerate(group)])
    assert pairwise_bleu(group) == pytest.approx(want, rel=0, abs=1e-9)


@given(st.data(), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_distinct_n_over_repeated_and_reordered_questions_equals_the_oracle(data, n):
    distinct = data.draw(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=5),
                                  min_size=1, max_size=4))
    questions = data.draw(st.permutations(distinct * data.draw(st.integers(1, 3))
                                          + distinct[:1]))
    assert distinct_n(questions, n) == distinct_n_oracle(questions, n)


@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_bleu_self_and_added_reference(hyp):
    assert bleu(hyp, [list(hyp)]) == pytest.approx(100.0)
    other = ["z", "y"]
    assert bleu(hyp, [other, list(hyp)]) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Embeddings


def small_params(vocab):
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                      n_enc_layers=1, n_dec_layers=1, d_ff=16, max_len=32)
    return init_params(cfg, seed=5)


def test_embed_questions_shapes_and_determinism():
    vocab = Vocab(["is", "it", "safe", "heavy", "?"])
    params = small_params(vocab)
    ids = [vocab.encode_text("is it safe ?"), vocab.encode_text("is it heavy ?"),
           vocab.encode_text("is it safe ?")]
    emb = embed_questions(params, ids)
    assert isinstance(emb, EmbeddingMatrix)
    assert emb.rows.shape == (3, 8)
    assert emb.dim == 8
    np.testing.assert_array_equal(emb.rows[0], emb.rows[2])
    assert not np.allclose(emb.rows[0], emb.rows[1])


def test_embed_questions_encodes_each_distinct_question_once(monkeypatch):
    from pqgen.model import encode

    vocab = Vocab(["is", "it", "safe", "heavy", "?"])
    params = small_params(vocab)
    texts = ["is it safe ?", "is it heavy ?", "is it safe ?", "is it safe ?",
             "is it heavy ?"]
    ids = [vocab.encode_text(t) for t in texts]
    alone = [embed_questions(params, [i]).rows[0] for i in ids]
    calls = []
    monkeypatch.setattr(MX, "encode",
                        lambda p, *contexts: calls.extend(contexts) or encode(p, *contexts))
    emb = embed_questions(params, ids)
    assert len(calls) == 2
    for row, want in zip(emb.rows, alone):
        np.testing.assert_array_equal(row, want)  # bit-identical to a fresh encode


def test_embed_questions_names_a_question_whose_embedding_is_not_finite():
    from pqgen.model import NonFiniteOutputError

    vocab = Vocab(["is", "it", "safe", "heavy", "?"])
    params = small_params(vocab)
    params["tok_emb"].data[vocab.encode(["heavy"])[0]] = np.nan
    ids = [vocab.encode_text(t) for t in ("is it safe ?", "is it heavy ?")]
    with pytest.raises(NonFiniteOutputError,
                       match=r"^question 'is it heavy \?': embedding is not finite$"):
        embed_questions(params, ids, ["is it safe ?", "is it heavy ?"])
    with pytest.raises(NonFiniteOutputError, match=re.escape(f"question {tuple(ids[1])}: ")):
        embed_questions(params, ids)
    # The first offending question in input order is named, though the
    # 4-token questions are encoded before the 2-token one.
    texts = ["is it safe ?", "heavy ?", "is it heavy ?"]
    with pytest.raises(NonFiniteOutputError, match=r"^question 'heavy \?': "):
        embed_questions(params, [vocab.encode_text(t) for t in texts], texts)


def test_embed_questions_encodes_once_per_length_and_keeps_each_row_alone(monkeypatch):
    from pqgen.model import encode

    vocab = Vocab(["is", "it", "safe", "heavy", "?"])
    params = small_params(vocab)
    texts = ["is it safe ?", "heavy ?", "is it heavy ?", "is heavy ?", "heavy ?",
             "is it safe ?", "safe ?", "it is safe ?", "is heavy ?"]
    ids = [vocab.encode_text(t) for t in texts]
    with T.no_grad():
        alone = [encode(params, i).h_e.data.mean(axis=0) for i in ids]
    calls = []
    monkeypatch.setattr(MX, "encode",
                        lambda p, *contexts: calls.append(contexts) or encode(p, *contexts))
    emb = embed_questions(params, ids)
    # One call per distinct length, in first-occurrence order, and each
    # distinct question seen once.
    assert [[len(q) for q in c] for c in calls] == [[4, 4, 4], [2, 2], [3]]
    assert sorted(q for c in calls for q in c) == sorted({tuple(i) for i in ids})
    for row, want in zip(emb.rows, alone, strict=True):
        np.testing.assert_array_equal(row, want)  # the bits of a one-question encode


def count_sentences(monkeypatch):
    """Record the tokens of every sentence `metrics` counts n-grams of."""
    counted = []
    real = MX._all_counts
    monkeypatch.setattr(MX, "_all_counts",
                        lambda tokens, *rest: counted.append(" ".join(tokens))
                        or real(tokens, *rest))
    return counted


def test_bleu_counts_each_sentence_once(monkeypatch):
    counted = count_sentences(monkeypatch)
    hyp = ["a", "b", "c", "d", "e", "a", "b"]
    refs = [["a", "b", "c"], ["b", "c", "d", "e"], ["e", "a", "b", "c", "d"]]
    score = bleu(hyp, refs)
    assert score == pytest.approx(bleu_oracle(hyp, refs), abs=1e-9)
    # the hypothesis plus each reference, once each, all four orders at once
    assert sorted(counted) == sorted(" ".join(s) for s in [hyp, *refs])


def test_bleu_clips_counts_above_one_on_both_sides():
    # a: 5 in the hypothesis, at most 4 in a reference; "a a": 3 against 3;
    # "a a a": 1 against 2. Clipped 5/6, 4/5, 2/4 and 0/3 (smoothed to 1/4);
    # the closest reference length is 4, so no brevity penalty.
    hyp, refs = toks("a a a b a a"), [toks("a a b"), toks("a a a a")]
    assert bleu(hyp, refs) == reference.bleu(hyp, refs)
    assert bleu(hyp, refs) == pytest.approx(bleu_oracle(hyp, refs), abs=1e-9)
    assert bleu(hyp, refs) == pytest.approx(100.0 * 12.0 ** -0.25, abs=1e-9)
    hyps = [hyp, toks("a a a a a"), toks("b a a b")]
    assert avg_bleu(hyps, refs) == reference.avg_bleu(hyps, refs)
    for group in ([hyp, *refs], [refs[1], hyp, toks("a a a a a a")]):
        assert pairwise_bleu(group) == reference.pairwise_bleu(group)


def test_evaluate_counts_and_scores_each_distinct_input_once_per_call(monkeypatch):

    gold, vocab, params = eval_setup()
    gens = [
        {"product_id": "p1", "questions": ["is it safe ?", "how heavy is it ?",
                                           "is it safe ?", "unscored fourth ?"]},
        {"product_id": "p2", "questions": ["does it have bluetooth ?"]},
        {"product_id": "p1", "questions": []},
        {"product_id": "p1", "questions": ["is it safe ?", "how loud is it ?"]},
        {"product_id": "p2", "questions": ["is it safe ?", "how loud is it ?"]},
    ]
    counted = count_sentences(monkeypatch)
    scored, groups = [], []
    real_meteor, real_pairwise = MX._meteor, MX._pairwise_bleu
    monkeypatch.setattr(MX, "_meteor", lambda hyp, hyp_at, ref, ref_at: scored.append(
        (" ".join(hyp), " ".join(ref))) or real_meteor(hyp, hyp_at, ref, ref_at))
    monkeypatch.setattr(MX, "_pairwise_bleu", lambda group, score: groups.append(
        [length for length, _ in group]) or real_pairwise(group, score))
    evaluate(gens, gold, params, vocab)
    # Five distinct scored sentences, each counted once: the four references
    # (three of them also generated) and "is it safe ?"; the fourth question
    # and the empty record are not scored.
    assert sorted(counted) == sorted(set(counted))
    assert set(counted) == {"is it safe ?", "how heavy is it ?", "is it dishwasher safe ?",
                            "does it have bluetooth ?", "how loud is it ?"}
    # One METEOR score per distinct (top-1, reference) pair: the second p1
    # record repeats the first one's pairs.
    assert sorted(scored) == sorted(set(scored))
    assert set(scored) == {("is it safe ?", "is it dishwasher safe ?"),
                           ("is it safe ?", "how heavy is it ?"),
                           ("does it have bluetooth ?", "does it have bluetooth ?"),
                           ("does it have bluetooth ?", "how loud is it ?"),
                           ("is it safe ?", "does it have bluetooth ?"),
                           ("is it safe ?", "how loud is it ?")}
    # One Pairwise-BLEU score per distinct top-3: the last two records share one.
    assert groups == [[4, 5, 4], [4, 5]]


def test_evaluate_encodes_each_top1_and_positions_each_sentence_once_per_call(monkeypatch):
    gold, vocab, params = eval_setup()
    gens = [{"product_id": "p1", "questions": ["is it safe ?", "how heavy is it ?"]},
            {"product_id": "p2", "questions": ["is it safe ?"]},
            {"product_id": "p1", "questions": ["is it safe ?", "is it dishwasher safe ?"]},
            {"product_id": "p2", "questions": ["how loud is it ?"]}]
    encoded, positioned = [], []
    real_encode, real_positions = vocab.encode, MX._positions
    monkeypatch.setattr(vocab, "encode", lambda tokens: encoded.append(" ".join(tokens))
                        or real_encode(tokens))
    monkeypatch.setattr(MX, "_positions", lambda tokens: positioned.append(" ".join(tokens))
                        or real_positions(tokens))
    report = evaluate(gens, gold, params, vocab)
    # Four top-1 questions, two of them distinct: each is encoded once, and the
    # embeddings still hold a row per product.
    assert sorted(encoded) == ["how loud is it ?", "is it safe ?"]
    rows = embed_questions(params, [real_encode(tokenize(g["questions"][0])) for g in gens])
    assert report.cluster_curve == cluster_count_sweep(rows)
    assert report.e_div == e_div(rows)
    # METEOR takes the positions of each distinct top-1 and reference once;
    # "how loud is it ?" is both.
    assert sorted(positioned) == sorted({"is it safe ?", "how loud is it ?",
                                         "is it dishwasher safe ?", "how heavy is it ?",
                                         "does it have bluetooth ?"})


def test_evaluate_keeps_no_state_across_calls(monkeypatch):
    counted = count_sentences(monkeypatch)
    keyed, scored = [], []  # BLEU keys taken, and those whose arithmetic ran
    real_key, real_score = MX._bleu_key, MX._bleu_score
    monkeypatch.setattr(MX, "_bleu_key",
                        lambda hyp, refs: keyed.append(real_key(hyp, refs)) or keyed[-1])
    monkeypatch.setattr(MX, "_bleu_score", lambda key: scored.append(key) or real_score(key))
    gold, vocab, params = eval_setup()
    gens_a = [{"product_id": "p1", "questions": ["is it safe ?", "how heavy is it ?"]},
              {"product_id": "p2", "questions": ["how loud is it ?", "is it safe ?"]}]
    # The same product ids and generated strings against other gold questions.
    gold_b = [ProductRecord("p1", "ctx", ("how loud is it ?", "is it red ?")),
              ProductRecord("p2", "ctx", ("is it safe ?",))]
    gens_b = [{"product_id": "p1", "questions": ["is it safe ?", "how loud is it ?"]},
              {"product_id": "p2", "questions": ["how loud is it ?"]}]
    first = evaluate(gens_a, gold, params, vocab)
    first_counts = len(counted)
    # The arithmetic runs once per distinct key: 8 keys, 4 of them distinct
    # (the top-3 scores and the pairwise scores share some).
    assert len(keyed) == 8 and scored == list(dict.fromkeys(keyed))
    first_scored = scored[:]
    other = evaluate(gens_b, gold_b, params, vocab)
    del counted[:], scored[:]
    again = evaluate(gens_a, gold, params, vocab)
    assert other.bleu_top1 != first.bleu_top1
    # A cache that outlived a call would spare the repeated call some counting
    # and some scoring.
    assert len(counted) == first_counts == 5
    assert scored == first_scored
    for f in dataclasses.fields(first):
        assert getattr(again, f.name) == getattr(first, f.name), f.name


def _distinct_grams(sentences):
    """The occurrence keys of `sentences`: (g, k) for the k-th occurrence of
    n-gram g in one sentence, as many as a bit table gives them bits."""
    keys = set()
    for t in sentences:
        grams = [tuple(t[i:i + n]) for n in range(1, MX.BLEU_MAX_N + 1)
                 for i in range(len(t) - n + 1)]
        keys.update((g, grams[:i].count(g) + 1) for i, g in enumerate(grams))
    return keys


def record_tables(monkeypatch):
    """Record, for every sentence `metrics` counts n-grams of, the size of the
    bit table before the call and the width of the widest mask it returns."""
    seen = []
    real = MX._all_counts

    def counts(tokens, bits):
        before = len(bits)
        out = real(tokens, bits)
        seen.append((before, max(mask.bit_length() for mask in out[1])))
        return out
    monkeypatch.setattr(MX, "_all_counts", counts)
    return seen


def restarts(seen):
    return sum(b < a for (a, _), (b, _) in zip(seen, seen[1:]))


def test_evaluate_restarts_its_bit_table_between_products_with_the_same_report(monkeypatch):
    # synth's gold questions share templates, so a mask cached before a
    # restart would index a table that no longer exists. Each product id is
    # written twice, so (g, k) keys of repeated n-grams cross the restarts too.
    gold = synth_corpus(0, 24)
    gens = [{"product_id": r.product_id,
             "questions": [f"{q} {r.product_id} {r.product_id}" for q in r.questions[:2]]
             + [r.questions[-1]]}
            for r in gold]
    vocab = build_vocab(gold)
    params = small_params(vocab)
    seen = record_tables(monkeypatch)
    plain = evaluate(gens, gold, params, vocab)
    assert restarts(seen) == 0
    del seen[:]
    bound = 60
    monkeypatch.setattr(MX, "_GRAM_TABLE_BOUND", bound)
    restarted = evaluate(gens, gold, params, vocab)
    assert restarts(seen) >= 3
    for f in dataclasses.fields(plain):
        assert getattr(restarted, f.name) == getattr(plain, f.name), f.name
    assert (restarted.bleu_top1, restarted.avg_bleu_top3, restarted.meteor_top1,
            restarted.pairwise_bleu) == reference.evaluate_relevance(gens, gold)
    product = max(len(_distinct_grams([tokenize(q) for q in [*r.questions, *g["questions"][:3]]]))
                  for r, g in zip(gold, gens))
    assert max(width for _, width in seen) <= bound + product


def test_avg_bleu_restarts_its_bit_table_between_hypotheses(monkeypatch):
    refs = [toks("is it safe for the top rack ?"), toks("how heavy is it ?")]
    hyps = [toks(f"is it safe for rack {k} ? {k} heavy") for k in range(40)]
    plain = avg_bleu(hyps, refs)
    bound = 50
    monkeypatch.setattr(MX, "_GRAM_TABLE_BOUND", bound)
    seen = record_tables(monkeypatch)
    assert avg_bleu(hyps, refs) == plain == reference.avg_bleu(hyps, refs)
    assert restarts(seen) >= 3
    unit = max(len(_distinct_grams([*refs, h])) for h in hyps)
    assert max(width for _, width in seen) <= bound + unit


def test_embed_questions_position_sensitive():
    vocab = Vocab(["is", "it", "safe"])
    params = small_params(vocab)
    a = embed_questions(params, [vocab.encode(["is", "it", "safe"])]).rows[0]
    b = embed_questions(params, [vocab.encode(["safe", "it", "is"])]).rows[0]
    assert not np.allclose(a, b)


def test_embed_questions_rejects_empty():
    vocab = Vocab(["is"])
    params = small_params(vocab)
    with pytest.raises(MetricInputError):
        embed_questions(params, [[]])
    with pytest.raises(MetricInputError):
        embed_questions(params, [])


# ---------------------------------------------------------------------------
# evaluate() and report output


def gold_records():
    return [
        ProductRecord("p1", "red mixer for your kitchen",
                      ("is it dishwasher safe ?", "how heavy is it ?")),
        ProductRecord("p2", "blue speaker for your den",
                      ("does it have bluetooth ?", "how loud is it ?")),
    ]


def eval_setup():
    gold = gold_records()
    vocab = build_vocab(gold)
    params = small_params(vocab)
    return gold, vocab, params


def test_evaluate_gold_vs_gold_scores_100():
    gold, vocab, params = eval_setup()
    gens = [{"product_id": r.product_id, "questions": list(r.questions),
             "scores": [0.0, 0.0]} for r in gold]
    report = evaluate(gens, gold, params, vocab)
    assert report.n_products == 2
    assert report.bleu_top1 == pytest.approx(100.0)
    assert report.avg_bleu_top3 == pytest.approx(100.0)
    assert report.meteor_top1 > 90.0
    assert report.pairwise_bleu is not None
    assert report.e_div is not None and report.e_div > 0.0
    assert len(report.cluster_curve) == len(DEFAULT_THRESHOLDS)
    assert report.degenerate_products == []
    top1 = [tokenize(g["questions"][0]) for g in gens]
    for n in (1, 2, 3):
        assert report.distinct_n[n] == pytest.approx(distinct_n(top1, n))


def test_evaluate_rejects_unknown_product_ids():
    gold, vocab, params = eval_setup()
    gens = [{"product_id": "ghost", "questions": ["is it safe ?"], "scores": [0.0]}]
    with pytest.raises(MetricInputError, match="ghost"):
        evaluate(gens, gold, params, vocab)


def test_evaluate_rejects_a_product_without_gold_questions():
    gold, vocab, params = eval_setup()
    gold.append(ProductRecord("p3", "ctx", ()))
    gens = [{"product_id": "p3", "questions": ["is it safe ?"]}]
    with pytest.raises(MetricInputError, match="p3: no gold questions"):
        evaluate(gens, gold, params, vocab)


def test_evaluate_flags_degenerate_products():
    gold, vocab, params = eval_setup()
    gens = [
        {"product_id": "p1", "questions": [], "scores": []},
        {"product_id": "p2", "questions": ["does it have bluetooth ?"],
         "scores": [0.0]},
    ]
    report = evaluate(gens, gold, params, vocab)
    reasons = dict(report.degenerate_products)
    assert "no generated question" in reasons["p1"]
    assert "pairwise" in reasons["p2"]
    assert report.pairwise_bleu is None
    assert report.bleu_top1 == pytest.approx(50.0)  # 0 for p1, 100 for p2


def test_evaluate_requires_records():
    gold, vocab, params = eval_setup()
    with pytest.raises(MetricInputError):
        evaluate([], gold, params, vocab)


def test_report_rendering():
    gold, vocab, params = eval_setup()
    gens = [{"product_id": r.product_id, "questions": list(r.questions),
             "scores": [0.0, 0.0]} for r in gold]
    report = evaluate(gens, gold, params, vocab)
    table = format_report_table(report)
    for header in ["BLEU", "Avg-BLEU", "METEOR", "PW-BLEU", "Dist-1", "Dist-2",
                   "Dist-3", "e-Div"]:
        assert header in table
    assert "exact-match variant" in table
    blob = json.dumps(dataclasses.asdict(report))
    parsed = json.loads(blob)
    assert parsed["n_products"] == 2
    assert 0.0 <= parsed["distinct_n"]["1"] <= 1.0
    csv = cluster_curve_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "threshold,count"
    assert len(lines) == 1 + len(DEFAULT_THRESHOLDS)


GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


@pytest.mark.parametrize("name", ["stored", "no-repeat"])
def test_evaluate_reproduces_the_golden_record(name):
    # tests/golden holds the JSON report of `pqgen evaluate` on the benchmark's
    # stored generations and on the no-repeat input, with the benchmark's
    # checkpoint and corpus, written by the command README's test section
    # gives. Every figure but e-Div is exact; e-Div's tolerance leaves room
    # for the last-digit differences between BLAS builds.
    gold = synth_corpus(0, 500)
    params, tokens = load_checkpoint(BENCH_INPUTS / "ltd6.ckpt")
    if name == "stored":
        with open(BENCH_INPUTS / "generations.jsonl", encoding="utf-8") as fh:
            gens = [json.loads(line) for line in fh]
    else:  # each train-split product's first three gold questions, made unique
        gens = [{"product_id": rec.product_id,
                 "questions": [f"{q} {rec.product_id}" for q in rec.questions[:3]]}
                for rec in split(gold, seed=0).train]
    report = evaluate(gens, gold, params, Vocab(tokens))
    got = json.loads(json.dumps(dataclasses.asdict(report)))
    want = json.loads((GOLDEN / f"evaluate-{name}.json").read_text(encoding="utf-8"))
    assert got.pop("e_div") == pytest.approx(want.pop("e_div"), rel=0, abs=1e-12)
    assert got == want


# One alphabet with repeats and short questions; the pool makes duplicate
# questions within a top-3 likely, and "" gives products an empty top-1.
def _questions(min_tokens):
    return st.lists(st.sampled_from(["a", "b", "c", "?"]),
                    min_size=min_tokens, max_size=6).map(" ".join)


@st.composite
def micro_generation_sets(draw):
    n = draw(st.integers(1, 4))
    gold = [ProductRecord(f"p{i}", "ctx", tuple(draw(st.lists(
        _questions(1), min_size=1, max_size=3)))) for i in range(n)]
    gens = []
    for rec in gold:
        pool = draw(st.lists(_questions(0), min_size=1, max_size=3))
        gens.append({"product_id": rec.product_id,
                     "questions": draw(st.lists(st.sampled_from(pool), max_size=4))})
    return gens, gold


def _micro_case(*products):
    gold = [ProductRecord(f"p{i}", "ctx", refs) for i, (refs, _) in enumerate(products)]
    gens = [{"product_id": f"p{i}", "questions": qs} for i, (_, qs) in enumerate(products)]
    return gens, gold


@given(micro_generation_sets())
@example(_micro_case((("a a a b",), ["a a a a b", "a b", "a a"])))   # repeats, short
@example(_micro_case((("a b c ?", "b c"), ["b c", "b c", "a b c ?"])))  # duplicates
@example(_micro_case((("a b",), ["a b c"]), (("c",), [])))         # one and no question
@example(_micro_case((("a b",), ["", "a b", "b"]), (("c",), ["c ?"])))  # empty top-1
# one top-1 for two products with different references: nothing may leak across
@example(_micro_case((("a b c",), ["a b", "c"]), (("b a ?", "c c"), ["a b", "a"])))
@settings(max_examples=80, deadline=None)
def test_bleu_figures_equal_the_per_call_reference(case):
    gens, gold = case
    vocab = Vocab(["a", "b", "c", "?"])
    report = evaluate(gens, gold, small_params(vocab), vocab)
    assert (report.bleu_top1, report.avg_bleu_top3, report.meteor_top1,
            report.pairwise_bleu) == reference.evaluate_relevance(gens, gold)
    by_id = {rec.product_id: rec for rec in gold}
    for r in gens:
        top3 = [tokenize(q) for q in r["questions"][:3]]
        refs = [tokenize(q) for q in by_id[r["product_id"]].questions]
        for q in top3:
            assert bleu(q, refs) == reference.bleu(q, refs)
        if top3:
            assert avg_bleu(top3, refs) == reference.avg_bleu(top3, refs)
        if len(top3) >= 2:
            assert pairwise_bleu(top3) == reference.pairwise_bleu(top3)

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqgen import corpus as C


def test_tokenize_worked_example():
    assert C.tokenize("Is this Dishwasher safe?") == ["is", "this", "dishwasher", "safe", "?"]


def test_tokenize_empty():
    assert C.tokenize("") == []


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_tokenize_round_trip(s):
    toks = C.tokenize(s)
    assert C.tokenize(C.detokenize(toks)) == toks


def test_tokenizer_idempotent_on_detokenized_text():
    for rec in C.synth_corpus(0, 5):
        toks = C.tokenize(rec.context)
        assert C.tokenize(C.detokenize(toks)) == toks


def make_records():
    return [
        C.ProductRecord("p1", "red pan", ("is it red ?", "is it a pan ?")),
        C.ProductRecord("p2", "blue pan", ("is it blue ?",)),
    ]


def test_build_vocab_round_trip_and_unk():
    v = C.build_vocab(make_records())
    for tok in ("red", "pan", "?", "is"):
        assert v.id_to_token[v.token_to_id[tok]] == tok
    assert v.encode(["zzz"]) == [C.UNK]
    assert v.decode([C.PAD, C.BOS, C.EOS, C.UNK]) == list(C.RESERVED_TOKENS)


def test_build_vocab_order_and_determinism():
    recs = [C.ProductRecord("p", "b a b", ("a c ?",))]
    v = C.build_vocab(recs)
    # freq: b=2, a=2, c=1, ?=1 -> ties alphabetical
    assert v.id_to_token[4:] == ("a", "b", "?", "c")
    assert C.build_vocab(recs).id_to_token == v.id_to_token


def test_build_vocab_min_count():
    recs = [C.ProductRecord("p", "a a b", ("a ?",))]
    v = C.build_vocab(recs, min_count=2)
    assert "b" not in v.token_to_id
    assert v.encode(["b"]) == [C.UNK]


def test_build_vocab_empty_corpus():
    with pytest.raises(C.CorpusSchemaError):
        C.build_vocab([])


def test_jsonl_round_trip(tmp_path):
    recs = make_records()
    path = tmp_path / "c.jsonl"
    C.save_jsonl(recs, path)
    assert C.load_jsonl(path) == recs


def test_jsonl_missing_field_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"product_id": "p", "context": "c", "questions": ["q ?"]})
    bad = json.dumps({"product_id": "p2", "context": "c"})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(C.CorpusSchemaError) as e:
        C.load_jsonl(path)
    assert "line 2" in str(e.value) and "questions" in str(e.value)


def test_jsonl_invalid_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(C.CorpusSchemaError) as e:
        C.load_jsonl(path)
    assert "line 1" in str(e.value)


def test_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert C.load_jsonl(path) == []


def test_split_exact_proportions_and_partition():
    recs = C.synth_corpus(1, 100)
    sp = C.split(recs, seed=5)
    assert (len(sp.train), len(sp.validation), len(sp.test)) == (80, 10, 10)
    ids = [r.product_id for part in (sp.train, sp.validation, sp.test) for r in part]
    assert sorted(ids) == sorted(r.product_id for r in recs)
    assert len(set(ids)) == len(ids)


def test_split_deterministic():
    recs = C.synth_corpus(1, 30)
    a = C.split(recs, seed=9)
    b = C.split(recs, seed=9)
    assert a == b
    assert C.split(recs, seed=10) != a


def test_split_too_few_products():
    with pytest.raises(C.DataSplitError):
        C.split(C.synth_corpus(0, 9), seed=0)


def test_synth_deterministic_and_question_counts():
    a = C.synth_corpus(42, 50)
    assert a == C.synth_corpus(42, 50)
    for rec in a:
        assert 3 <= len(rec.questions) <= 6
        assert len(set(rec.questions)) == len(rec.questions)


def test_synth_questions_range_override():
    for rec in C.synth_corpus(3, 20, questions_range=(1, 1)):
        assert len(rec.questions) == 1
    for rec in C.synth_corpus(3, 20, questions_range=(2, 2)):
        assert len(rec.questions) == 2


def test_synth_marginal_skew():
    general = set(C.GENERAL_QUESTIONS)
    n_gen = n_tot = 0
    for rec in C.synth_corpus(7, 1000):
        for q in rec.questions:
            n_tot += 1
            n_gen += q in general
    assert abs(n_gen / n_tot - 0.7) < 0.05


def test_synth_validation_errors():
    with pytest.raises(ValueError):
        C.synth_corpus(0, 0)
    with pytest.raises(ValueError):
        C.synth_corpus(0, 5, general_questions=(), general_weights=())
    with pytest.raises(ValueError):
        C.synth_corpus(0, 5,
                       general_questions=("a ?",), general_weights=(1,),
                       type_library={"t": {"nouns": ("x",), "setting": "s",
                                           "questions": ("b ?",)}})


def test_synth_zero_unks_in_vocab_coverage():
    recs = C.synth_corpus(11, 40)
    v = C.build_vocab(recs, min_count=1)
    for rec in recs:
        assert C.UNK not in v.encode_text(rec.context)
        for q in rec.questions:
            assert C.UNK not in v.encode_text(q)

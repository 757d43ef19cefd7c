"""Tokenization, product-record I/O, deterministic splits, and a synthetic
corpus generator that encodes the frequent-general vs rare-specific question
phenomenon at desk scale."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fileio import atomic_write

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class CorpusSchemaError(ValueError):
    """A corpus file or record violates the JSONL schema."""


class DataSplitError(ValueError):
    """Not enough products to form a train/validation/test split."""


@dataclass(frozen=True)
class ProductRecord:
    product_id: str
    context: str
    questions: tuple[str, ...]


@dataclass(frozen=True)
class SplitCorpus:
    train: tuple[ProductRecord, ...]
    validation: tuple[ProductRecord, ...]
    test: tuple[ProductRecord, ...]


def tokenize(text: str) -> list[str]:
    """Lowercase word-level tokens; punctuation becomes standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


class Vocab:
    """Token/id bijection with reserved ids PAD=0, BOS=1, EOS=2, UNK=3."""

    def __init__(self, tokens: Sequence[str]):
        seen = set(RESERVED_TOKENS)
        for t in tokens:
            if t in seen:
                raise CorpusSchemaError(f"duplicate or reserved token in vocab: {t!r}")
            seen.add(t)
        self.id_to_token: tuple[str, ...] = RESERVED_TOKENS + tuple(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def encode_text(self, text: str) -> list[int]:
        return self.encode(tokenize(text))


def build_vocab(records: Sequence[ProductRecord], min_count: int = 1) -> Vocab:
    """Count tokens over contexts and questions; order by (freq desc, token asc)."""
    if not records:
        raise CorpusSchemaError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(tokenize(rec.context))
        for q in rec.questions:
            counts.update(tokenize(q))
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    return Vocab(kept)


def iter_jsonl(path) -> Iterator[tuple[str, object]]:
    """(where, obj) for each non-blank line of a JSONL file of product
    records, where `where` names the file and line for error messages. A
    string `product_id` that an earlier line already holds is refused."""
    first_line: dict[str, int] = {}
    # A byte that is not UTF-8 reads as a lone surrogate, refused with its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}, line {lineno}"
            try:
                line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError as e:
                raise CorpusSchemaError(f"{where}: not UTF-8 (byte "
                                        f"0x{ord(line[e.start]) - 0xDC00:02x})") from None
            except ValueError as e:
                raise CorpusSchemaError(f"{where}: invalid JSON ({getattr(e, 'msg', e)})") from e
            except RecursionError as e:
                raise CorpusSchemaError(f"{where}: invalid JSON (nested too deeply)") from e
            pid = obj.get("product_id") if isinstance(obj, dict) else None
            if isinstance(pid, str):
                if pid in first_line:
                    raise CorpusSchemaError(f"{where}: product_id {pid!r} repeats "
                                            f"line {first_line[pid]}")
                first_line[pid] = lineno
            yield where, obj


def _record_from_obj(obj, where: str) -> ProductRecord:
    if not isinstance(obj, dict):
        raise CorpusSchemaError(f"{where}: record is not a JSON object")
    for field in ("product_id", "context", "questions"):
        if field not in obj:
            raise CorpusSchemaError(f"{where}: missing field {field!r}")
    pid, context, questions = obj["product_id"], obj["context"], obj["questions"]
    if not isinstance(pid, str) or not isinstance(context, str):
        raise CorpusSchemaError(f"{where}: product_id and context must be strings")
    if (not isinstance(questions, list) or not questions
            or not all(isinstance(q, str) for q in questions)):
        raise CorpusSchemaError(f"{where}: questions must be a non-empty string array")
    for q in questions:
        if not tokenize(q):
            raise CorpusSchemaError(f"{where}: question tokenizes to nothing: {q!r}")
    return ProductRecord(pid, context, tuple(questions))


def load_jsonl(path) -> list[ProductRecord]:
    return [_record_from_obj(obj, where) for where, obj in iter_jsonl(path)]


def save_jsonl(records: Iterable[ProductRecord], path) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(
                {"product_id": rec.product_id, "context": rec.context,
                 "questions": list(rec.questions)},
                ensure_ascii=False) + "\n")


def split(records: Sequence[ProductRecord], seed: int) -> SplitCorpus:
    """Deterministic 80/10/10 split by product; a product never straddles splits."""
    if len(records) < 10:
        raise DataSplitError(f"need at least 10 products to split, got {len(records)}")
    order = np.random.default_rng(seed).permutation(len(records))
    shuffled = [records[i] for i in order]
    n = len(shuffled)
    n_test = max(1, round(n * 0.10))
    n_val = max(1, round(n * 0.10))
    n_train = n - n_val - n_test
    return SplitCorpus(
        train=tuple(shuffled[:n_train]),
        validation=tuple(shuffled[n_train:n_train + n_val]),
        test=tuple(shuffled[n_train + n_val:]),
    )


# ---------------------------------------------------------------------------
# Synthetic corpus
#
# General questions are fixed strings that apply to any product ("this item",
# "it"); specific questions are fixed per product type and cued by tokens in
# the context. General templates are drawn from a skewed (hot-head)
# distribution so that a likelihood-maximizing generator collapses onto a few
# of them, which is exactly the phenomenon the diversity regularizer targets.

GENERAL_QUESTIONS = (
    "what are the dimensions of this item ?",
    "what is the warranty on this item ?",
    "where is this item made ?",
    "how much does it weigh ?",
    "what color options are available ?",
    "does it come with instructions ?",
    "is it easy to clean ?",
    "can this item be returned ?",
    "what material is it made of ?",
    "is this item durable ?",
)

# Weight of each general template; a near-tied head keeps the most frequent
# templates in close competition with type-specific questions.
GENERAL_WEIGHTS = (14, 13, 12, 11, 10, 9, 8, 8, 8, 7)

TYPE_LIBRARY = {
    "kitchen": {
        "nouns": ("skillet", "blender", "kettle", "baking tray"),
        "setting": "kitchen",
        "questions": (
            "is it dishwasher safe ?",
            "does it work on induction stoves ?",
            "does the coating peel off ?",
        ),
    },
    "electronics": {
        "nouns": ("speaker", "headset", "router", "power bank"),
        "setting": "desk",
        "questions": (
            "how long does the battery last ?",
            "does it support bluetooth ?",
            "is a charger included in the box ?",
        ),
    },
    "furniture": {
        "nouns": ("bookshelf", "armchair", "side table", "cabinet"),
        "setting": "living room",
        "questions": (
            "what is the maximum weight capacity ?",
            "is assembly required ?",
            "is the finish scratch resistant ?",
        ),
    },
    "toys": {
        "nouns": ("puzzle", "building set", "plush bear", "race track"),
        "setting": "playroom",
        "questions": (
            "is it safe for toddlers ?",
            "how many pieces are in the set ?",
            "is the paint non toxic ?",
        ),
    },
    "garden": {
        "nouns": ("pruner", "planter", "hose reel", "trowel"),
        "setting": "garden",
        "questions": (
            "does it rust in the rain ?",
            "is it frost resistant ?",
            "how deep is the soil compartment ?",
        ),
    },
    "sports": {
        "nouns": ("yoga mat", "dumbbell", "tent", "sleeping bag"),
        "setting": "gym",
        "questions": (
            "is it waterproof ?",
            "does it fold flat for storage ?",
            "is a carrying strap included ?",
        ),
    },
    "office": {
        "nouns": ("desk lamp", "monitor stand", "office chair", "paper tray"),
        "setting": "office",
        "questions": (
            "is the height adjustable ?",
            "does it need to be plugged in ?",
            "can it hold a laptop ?",
        ),
    },
    "pet": {
        "nouns": ("dog bed", "cat tower", "leash", "feeder"),
        "setting": "pet corner",
        "questions": (
            "is it machine washable ?",
            "is it chew resistant ?",
            "what size dog fits it ?",
        ),
    },
    "bath": {
        "nouns": ("shower caddy", "bath mat", "towel rack", "soap dispenser"),
        "setting": "bathroom",
        "questions": (
            "does the suction cup hold ?",
            "does it resist mildew ?",
            "how fast does it drain ?",
        ),
    },
    "travel": {
        "nouns": ("carry on", "packing cubes", "neck pillow", "luggage tag"),
        "setting": "next trip",
        "questions": (
            "does it fit airline size limits ?",
            "does it expand when packed ?",
            "is the zipper lockable ?",
        ),
    },
}

BRANDS = ("acme", "norwood", "zenva", "kestrel", "orbit", "lumo", "vanta", "pinefield")
ADJECTIVES = ("compact", "deluxe", "portable", "classic", "sturdy", "modern", "foldable", "premium")
MATERIALS = ("steel", "oak", "bamboo", "aluminum", "cotton", "plastic", "ceramic", "leather")


def synth_corpus(seed: int, n_products: int,
                 questions_range: tuple[int, int] = (3, 6),
                 general_skew: float = 0.7) -> list[ProductRecord]:
    """Deterministic synthetic product corpus.

    Each product gets a type, a templated context mentioning the type's
    setting, and `questions_range` questions sampled without replacement:
    with probability `general_skew` from the weighted general pool, otherwise
    from the type's specific pool.
    """
    if n_products < 1:
        raise ValueError(f"n_products must be >= 1, got {n_products}")
    lo, hi = questions_range
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid questions_range {questions_range}")

    rng = np.random.default_rng(seed)
    gweights = np.asarray(GENERAL_WEIGHTS, dtype=np.float64)
    gweights = gweights / gweights.sum()
    type_names = sorted(TYPE_LIBRARY)
    records = []
    for idx in range(n_products):
        tname = type_names[int(rng.integers(len(type_names)))]
        tinfo = TYPE_LIBRARY[tname]
        noun = tinfo["nouns"][int(rng.integers(len(tinfo["nouns"])))]
        brand = BRANDS[int(rng.integers(len(BRANDS)))]
        adj = ADJECTIVES[int(rng.integers(len(ADJECTIVES)))]
        material = MATERIALS[int(rng.integers(len(MATERIALS)))]
        context = (f"{adj} {brand} {noun} . {material} {noun} for your "
                   f"{tinfo['setting']} , by {brand} .")
        n_q = int(rng.integers(lo, hi + 1))
        specific = tinfo["questions"]
        n_q = min(n_q, len(GENERAL_QUESTIONS) + len(specific))
        # Split the count binomially so the general:specific marginal stays at
        # the configured skew, then sample each pool without replacement.
        n_gen = int(rng.binomial(n_q, general_skew))
        n_spec = min(n_q - n_gen, len(specific))
        n_gen = min(n_q - n_spec, len(GENERAL_QUESTIONS))
        n_spec = n_q - n_gen
        gen_idx = rng.choice(len(GENERAL_QUESTIONS), size=n_gen, replace=False, p=gweights)
        spec_idx = rng.choice(len(specific), size=n_spec, replace=False)
        questions = ([GENERAL_QUESTIONS[i] for i in gen_idx]
                     + [specific[i] for i in spec_idx])
        questions = [questions[i] for i in rng.permutation(len(questions))]
        records.append(ProductRecord(f"p{idx:05d}", context, tuple(questions)))
    return records

"""Make the stored inputs of the `generate` and `evaluate` workloads anew.

The inputs are the 6-epoch `ltd` checkpoint (corpus seed 0, split seed 0,
training seed 0, criterion-6 model configuration) and the generations that
checkpoint makes for every product of the corpus. Training them takes over a
minute, so they are made once and stored in `perfbench/inputs/`; set-up only
loads them.

    python3 perfbench/make_inputs.py            # remake, compare with stored
    python3 perfbench/make_inputs.py --store    # remake and replace stored

Without `--store` the new files go to `perfbench/out/inputs/` and the command
reports, per file, whether the new bytes equal the stored ones. A mismatch
means the training or decoding arithmetic changed; it is reported, and the
exit code stays 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import benchenv  # noqa: F401  (pins BLAS threads and the import path first)

from pqgen import corpus as C
from pqgen import decoding as D
from pqgen import model as M
from pqgen import training as TR

import workloads as W


def make(out_dir: str) -> dict[str, str]:
    """Train the checkpoint and generate for every product; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    records = C.synth_corpus(W.CORPUS_SEED, W.N_PRODUCTS)
    split = C.split(records, seed=W.SPLIT_SEED)
    vocab = C.build_vocab(split.train)
    mcfg = M.ModelConfig(vocab_size=len(vocab), **W.MODEL)
    tcfg = TR.TrainConfig(lambda_div=W.LTD_LAMBDA, epochs=W.CHECKPOINT_EPOCHS,
                          seed=W.CHECKPOINT_SEED, **W.TRAIN)
    t0 = time.perf_counter()
    result = TR.train(split, vocab, mcfg, tcfg, mode="ltd")
    print(f"trained {W.CHECKPOINT_EPOCHS} epochs in {time.perf_counter() - t0:.1f} s, "
          f"best epoch {result.best_epoch}, val CG {result.best_val_cg:.6f}")
    ckpt = os.path.join(out_dir, W.CHECKPOINT_NAME)
    M.save_checkpoint(ckpt, result.params, vocab_tokens=list(vocab.id_to_token[4:]))
    # Decode from the reloaded file, exactly as the workloads will.
    params, tokens = M.load_checkpoint(ckpt)
    vocab = C.Vocab(tokens)
    gen_cfg = D.GenerationConfig()
    t0 = time.perf_counter()
    gens = os.path.join(out_dir, W.GENERATIONS_NAME)
    with open(gens, "w", encoding="utf-8") as fh:
        for rec in records:
            ids = vocab.encode_text(rec.context)[:params.config.max_len]
            out = D.generate_questions(params, vocab, ids, gen_cfg)
            fh.write(json.dumps({"product_id": rec.product_id,
                                 "questions": out.questions,
                                 "scores": out.scores,
                                 "shortage": out.shortage}, sort_keys=True) + "\n")
    print(f"generated for {len(records)} products in "
          f"{time.perf_counter() - t0:.1f} s")
    return {"checkpoint": ckpt, "generations": gens}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--store", action="store_true",
                    help="write into perfbench/inputs/ instead of comparing")
    ns = ap.parse_args(argv)
    out_dir = W.INPUTS_DIR if ns.store else os.path.join(W.OUT_DIR, "inputs")
    made = make(out_dir)
    if ns.store:
        for path in made.values():
            print(f"stored {path} ({os.path.getsize(path)} bytes, sha256 {_digest(path)})")
        return 0
    for label, path in made.items():
        stored = os.path.join(W.INPUTS_DIR, os.path.basename(path))
        if not os.path.exists(stored):
            print(f"{label}: no stored copy at {stored}")
            continue
        with open(path, "rb") as a, open(stored, "rb") as b:
            same = a.read() == b.read()
        print(f"{label}: {'identical to' if same else 'DIFFERS from'} the stored copy "
              f"(new {_digest(path)}, stored {_digest(stored)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

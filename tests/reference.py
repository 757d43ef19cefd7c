"""Slow reference paths the fast ones are tested against.

`decode_step` is the uncached, full-prefix decoder step: it runs the whole
BOS-prefixed prefix through the Tensor forward for every next-token
distribution. `uncached_seam` drives the searches in `pqgen.decoding` with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from pqgen import model as M
from pqgen import tensor as T


def decode_step(params: M.ModelParams, enc: M.EncoderOutput,
                prefix_ids: Sequence[int]) -> np.ndarray:
    """Log-softmax over the next token given a BOS-prefixed prefix."""
    cfg = params.config
    prefix = tuple(int(i) for i in prefix_ids)
    if not prefix or prefix[0] != cfg.bos_id:
        raise ValueError(f"prefix must start with BOS id {cfg.bos_id}: {prefix}")
    M.check_length(cfg, len(prefix), "prefix")
    with T.no_grad():
        _, h = M._decoder_forward(params, enc, prefix)
        logits = T.matmul(h, params["cg_head.w"]).data[-1]
    return logits - T.logsumexp(logits)


class PrefixState:
    """The prefixes fed so far, one per beam, in place of a key/value cache."""

    def __init__(self, prefixes: list[tuple[int, ...]]):
        self.prefixes = prefixes

    def reorder(self, parents: Sequence[int]) -> "PrefixState":
        return PrefixState([self.prefixes[r] for r in parents])


def uncached_seam(enc: M.EncoderOutput):
    """A `pqgen.decoding.decode_step` substitute that computes every row with
    the full-prefix `decode_step` above. The searches start it from a
    `DecoderState`; it carries a `PrefixState` from then on."""
    def step(params, state, tokens):
        past = state.prefixes if isinstance(state, PrefixState) else [()] * len(tokens)
        prefixes = [p + (int(t),) for p, t in zip(past, tokens)]
        return (np.stack([decode_step(params, enc, p) for p in prefixes]),
                PrefixState(prefixes))

    return step

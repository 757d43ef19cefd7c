"""Walk through the model's parameter manifest and one forward pass.

Shows the named parameter tensors, the encoder/decoder shapes for a short
sequence, and a checkpoint round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from pqgen import model as M
from pqgen import tensor as T

cfg = M.ModelConfig(vocab_size=30, d_model=16, n_heads=2, n_enc_layers=2,
                    n_dec_layers=2, d_ff=32, max_len=24)
params = M.init_params(cfg, seed=1)

print(f"{params.n_parameters} parameters in {len(params.names())} tensors")
for name in params.names()[:6]:
    print(f"  {name:18s} {params[name].data.shape}")
print("  ...")

context = [4, 9, 17, 21, 5]
question = (7, 12, 6)
with T.no_grad():
    enc = M.encode(params, context)
    trace = M.decode_teacher_forced(params, enc, question)

print(f"encoder output: {enc.h_e.data.shape} for {len(context)} tokens")
print(f"decoder logits: {trace.logits.data.shape} "
      f"(question + end token rows)")
print(f"layer states tracked: {len(trace.layer_states)} "
      f"(the last one feeds the output head)")

# Stepwise decoding, fed one token at a time with its keys and values
# cached, sees the same distribution the teacher-forced pass saw.
state = M.start_decoding(params, enc)
_, state = M.decode_step(params, state, [cfg.bos_id])
step, state = M.decode_step(params, state, [question[0]])
row = trace.logits.data[1] - np.log(np.sum(np.exp(trace.logits.data[1])))
print(f"step vs teacher-forced log-prob row agree: "
      f"{np.allclose(step[0], row, atol=1e-10)}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    M.save_checkpoint(path, params, vocab_tokens=None)
    reloaded, _ = M.load_checkpoint(path)
    same = all(np.array_equal(params[n].data, reloaded[n].data)
               for n in params.names())
    print(f"checkpoint round trip bit-exact: {same} "
          f"({path.stat().st_size} bytes)")

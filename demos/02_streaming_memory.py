"""Chunk-recursive streaming and its memory cache.

Long sequences are processed in consecutive chunks.  Each global block keeps
a per-layer memory of retained descriptors; chunk t attends to its own bundle
concatenated with that memory, so it sees the whole past without ever
materializing full-resolution history.  Retention keeps every p-th frame's
compressed descriptors (global frame numbering, so frame 0 is always kept)
plus one verbatim copy of the first frame as the coordinate anchor.

Run: python demos/02_streaming_memory.py
"""

import numpy as np

import descattn as d

layout = d.FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)
base = d.AggregatorConfig(layout=layout, layers=2, global_mode="descriptor",
                          method=d.CompressionMethod("bilinear", 4),
                          include_aux=True, seed=3)
cfg = d.StreamConfig(base=base, chunk_size=10, retain_rate=5)
tokens = d.generate_synthetic(40, layout, seed=9)

out, cache = d.run_stream(tokens, cfg)
report = d.cache_report(cache)
model = d.memory_model(cfg, tokens.frames)

print(f"streamed S={tokens.frames} frames in chunks of {cfg.chunk_size}, "
      f"retain rate p={cfg.retain_rate}, compression r={base.method.ratio}")
print(f"\nper-layer cache: {report.layers[0].total_tokens} tokens "
      f"({report.layers[0].compressed_tokens} compressed + "
      f"{report.layers[0].aux_tokens} anchor)")
print(f"closed-form model says:  {model.layers[0].total_tokens} tokens  "
      f"-> live record == model record: {report == model}")
full = tokens.frames * layout.tokens_per_frame * base.layers
limit = 1 / (cfg.retain_rate * base.method.ratio ** 2)
print(f"full-token baseline would hold {full} tokens; "
      f"ratio = {report.ratio_vs_full:.4f} (drop limit 1/(p*r^2) = {limit:.4f})")

print("\n-- cache growth is sublinear in the frame count --")
for frames in (10, 20, 40, 80):
    m = d.memory_model(cfg, frames)
    print(f"  S={frames:>3}: cache {m.layers[0].total_tokens:>4} tokens/layer "
          f"vs {frames * layout.tokens_per_frame:>5} full tokens")

print("\n-- causality: the future cannot touch the past --")
bumped = tokens.values.copy()
bumped[20:] *= -2.0
out2, _ = d.run_stream(d.TokenTensor(layout, bumped), cfg)
leak = float(np.max(np.abs(out.values[:20] - out2.values[:20])))
changed = float(np.max(np.abs(out.values[20:] - out2.values[20:])))
print(f"  perturbing frames 20..39: first 20 outputs move by {leak:.1e}, "
      f"later outputs by {changed:.2f}")

print("\n-- a single chunk covering everything reproduces the offline pass --")
one, _ = d.run_stream(tokens, d.StreamConfig(base=base, chunk_size=40, retain_rate=1))
offline = d.forward_offline(tokens, base)
print(f"  bitwise equal: {np.array_equal(one.values, offline.values)}")

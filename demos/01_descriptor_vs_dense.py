"""Descriptor cross-attention against the dense reference.

Dense global attention lets all K = S * N tokens attend to each other.  The
descriptor variant keeps the same queries but swaps the key/value set for a
compressed bundle: per-frame patch grids resampled by a factor r, plus a few
verbatim anchor tokens.  At r = 1 with anchors off the bundle IS the token
set, so the two modes must agree to float precision; at r > 1 the output
drifts but the attention core shrinks by K / K_d.

Run: python demos/01_descriptor_vs_dense.py
"""

import numpy as np

import descattn as d

layout = d.FrameLayout(h=8, w=8, n_camera=0, n_register=0, channels=32)
tokens = d.generate_synthetic(6, layout, seed=7)
print(f"sequence: S={tokens.frames} frames, N={layout.tokens_per_frame} tokens "
      f"per frame, K={tokens.total_tokens} total")

print("\n-- exact agreement at r=1, anchors off --")
cfg = d.AggregatorConfig(layout=layout, layers=2, global_mode="descriptor",
                         method=d.CompressionMethod("bilinear", 1),
                         include_aux=False, seed=1)
report = d.compare_modes(tokens, cfg)
for i, (mx, mn) in enumerate(zip(report.per_layer_max, report.per_layer_mean)):
    print(f"  layer {i}: max |diff| = {mx:.2e}, mean = {mn:.2e}")

print("\n-- approximation error and core cost vs compression ratio --")
print(f"  {'r':>2} {'K_d':>6} {'core reduction':>14} {'final max err':>14}")
for ratio in (1, 2, 4, 8):
    cfg_r = d.AggregatorConfig(layout=layout, layers=2, global_mode="descriptor",
                               method=d.CompressionMethod("bilinear", ratio),
                               include_aux=False, seed=1)
    err = d.compare_modes(tokens, cfg_r).final_max
    reduction, _, kd = d.attention_core_reduction(cfg_r, tokens.frames)
    print(f"  {ratio:>2} {kd:>6} {reduction:>13.1f}x {err:>14.2e}")

print("\n-- anchors keep full-resolution references in the key set --")
full = d.FrameLayout(h=8, w=8, n_camera=1, n_register=4, channels=32)
t2 = d.generate_synthetic(6, full, seed=7)
keyframes = d.select_keyframes(t2, d.KeyframeSelector("cluster", interval=3))
bundle = d.build_bundle(t2, d.CompressionMethod("bilinear", 4), keyframes)
kinds = {k.name.lower(): int(np.sum(bundle.kinds == int(k))) for k in d.DescriptorKind}
print(f"  bundle of {bundle.count} descriptors: {kinds}")
print("  (the first frame appears compressed AND verbatim; softmax tolerates"
      " duplicate keys, so anchors are free to coexist)")

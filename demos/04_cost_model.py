"""Analytic FLOP and memory accounting.

The attention core of a global block (score matmul + value matmul) costs
4*K*K_d*C FLOPs, so replacing self-attention keys with K_d descriptors cuts
it by exactly K / K_d.  At the production-scale configuration (1000 frames,
37x37 patch grids, r=4, anchors on) that is ~14.6x; the published end-to-end
measurement of the surrounding pipeline reports ~15.8x under its own counting
convention, and both numbers are shown side by side.

Run: python demos/04_cost_model.py
"""

import descattn as d
from descattn.analysis import REFERENCE_RESOURCES, markdown_resource_table

lay = d.image_grid_layout(channels=16)
cfg = d.AggregatorConfig(layout=lay, layers=1, heads=4, global_mode="descriptor",
                         method=d.CompressionMethod("bilinear", 4),
                         include_aux=True, selector=d.KeyframeSelector(interval=200))

print("-- attention-core reduction vs sequence length (r=4, anchors on) --")
print(f"  {'S':>5} {'K':>8} {'K_d':>7} {'K/K_d':>7}")
for frames in (100, 200, 500, 1000):
    reduction, k, kd = d.attention_core_reduction(cfg, frames)
    print(f"  {frames:>5} {k:>8} {kd:>7} {reduction:>6.2f}x")

print("\n-- per-layer FLOP breakdown at S=1000 --")
report = d.flops_attention(cfg, 1000)
for name, flops in sorted(report.components.items()):
    print(f"  {name:<26} {flops / 1e12:10.3f} TFLOPs")
print(f"  {'total per layer':<26} {report.per_layer_total / 1e12:10.3f} TFLOPs")

reduction, _, _ = d.attention_core_reduction(cfg, 1000)
published = d.reference_end_to_end_reduction(1000)
print(f"\ncore reduction here: {reduction:.2f}x; published end-to-end: "
      f"{published:.2f}x (different counting convention, reported as-is)")

print("\n-- streaming memory model (p=5, r=4, chunk 10) --")
scfg = d.StreamConfig(base=cfg, chunk_size=10, retain_rate=5)
print(f"  {'S':>5} {'cache tokens/layer':>19} {'ratio vs full':>14}")
for frames in (200, 500, 1000, 3000):
    m = d.memory_model(scfg, frames)
    print(f"  {frames:>5} {m.layers[0].total_tokens:>19} {m.ratio_vs_full:>13.4f}")

print("\n-- published resource table for the surrounding pipeline --\n")
print(markdown_resource_table({"Time (s)": REFERENCE_RESOURCES["time_s"],
                               "PFLOPs": REFERENCE_RESOURCES["pflops"],
                               "Mem (GB)": REFERENCE_RESOURCES["memory_gb"]}))

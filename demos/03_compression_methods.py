"""The five descriptor compressors at matched budget.

All methods emit floor(H/r) * floor(W/r) descriptors per frame, so the
attention cost downstream is identical; what differs is how much of the grid
structure survives.  Interpolation blends a handful of neighbours with
distance-aware weights, pooling averages whole cells, top-k keeps verbatim
tokens chosen by norm, and the seeded conv compressor mixes channels.

Run: python demos/03_compression_methods.py
"""

import numpy as np

import descattn as d

h = w = 8
yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                     np.arange(w, dtype=np.float64), indexing="ij")
# smooth ramp plus one sharp bump: easy to see who preserves locality
grid = (0.5 * yy - 0.25 * xx)[:, :, None].repeat(4, axis=2)
grid[2, 5] += 8.0
grid = grid.astype(np.float32)

ramp = grid[:, :, 0]
print("source grid (channel 0):")
for row in ramp:
    print("  " + " ".join(f"{v:5.2f}" for v in row))

for kind in ("bilinear", "nearest", "avgpool", "topk_norm", "learned_conv"):
    tokens = d.compress_frame(grid, d.CompressionMethod(kind, 4))
    print(f"\n{kind}: {tokens.shape[0]} descriptors")
    if kind == "topk_norm":
        kept = d.topk_norm_indices(grid, tokens.shape[0])
        print(f"  kept row-major indices {[int(i) for i in kept]}")
    print("  channel-0 values: " + " ".join(f"{v:6.2f}" for v in tokens[:, 0]))

print("\n-- bilinear is exact on affine fields; pooling only preserves means --")
affine = (0.5 * yy - 0.25 * xx)[:, :, None].astype(np.float32)
bil = d.compress_frame(affine, d.CompressionMethod("bilinear", 2))
from descattn.kernels import half_pixel_centers
ys, xs = half_pixel_centers(h, 4), half_pixel_centers(w, 4)
expect = (0.5 * ys[:, None] - 0.25 * xs[None, :]).reshape(-1)
print(f"  bilinear max error vs the affine field: "
      f"{np.max(np.abs(bil[:, 0] - expect)):.2e}")
avg = d.compress_frame(affine.astype(np.float64), d.CompressionMethod("avgpool", 2))
print(f"  avgpool keeps the global mean: {avg.mean():.6f} vs {affine.mean():.6f}")

print("\n-- key-frame selection on two obvious frame groups --")
lay = d.FrameLayout(h=2, w=2, n_camera=0, n_register=0, channels=4)
vals = d.rng(5).standard_normal((8, lay.tokens_per_frame, 4)) * 0.1
vals[:4] += 6.0
vals[4:] -= 6.0
frames = d.TokenTensor(lay, vals.astype(np.float32))
for method in ("cluster", "fixed_stride", "random"):
    picks = d.select_keyframes(frames, d.KeyframeSelector(method, interval=4, seed=1))
    print(f"  {method:>12}: key frames {[int(p) for p in picks]}")
print("  (cluster lands one representative in each group)")

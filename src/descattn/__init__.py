"""Descriptor-compressed global attention.

A multi-frame attention stack alternates per-frame self-attention with a
global block.  The dense global block attends over all K = S * N tokens and
serves as the exact reference; the descriptor block instead cross-attends
from the full token set to a compact bundle of spatially compressed
descriptors plus a few verbatim anchor tokens, cutting the attention core by
K / K_d.  A chunk-recursive streaming mode caches retained descriptors per
layer so long sequences run in bounded memory, and analytic FLOP / memory
models make the reductions auditable.
"""

from .aggregator import AggregatorConfig, LayerWeights, forward_offline, init_weights
from .analysis import (ErrorReport, FlopReport, attention_core_reduction,
                       compare_modes, divergence, flops_attention, memory_model,
                       reference_end_to_end_reduction)
from .attention import (BlockWeights, attention_probabilities, attention_score_histogram,
                        dense_global_attention, descriptor_attention, frame_attention,
                        init_block_weights)
from .compression import (CompressionMethod, DescriptorBundle, DescriptorKind,
                          KeyframeSelector, build_bundle, bundle_token_counts,
                          compress_frame, lloyd, select_keyframes, topk_norm_indices)
from .kernels import (layer_norm, matmul, resample_bilinear, resample_nearest,
                      rng, stable_softmax_rows)
from .streaming import (CacheReport, MemoryCache, StreamConfig, cache_report,
                        run_stream, step)
from .tokens import (FrameLayout, TokenTensor, generate_synthetic, image_grid_layout,
                     split_grid)

__version__ = "0.1.0"

__all__ = [
    "AggregatorConfig", "BlockWeights", "CacheReport",
    "CompressionMethod", "DescriptorBundle", "DescriptorKind", "ErrorReport",
    "FlopReport", "FrameLayout", "KeyframeSelector", "LayerWeights",
    "MemoryCache", "StreamConfig", "TokenTensor",
    "attention_core_reduction", "attention_probabilities",
    "attention_score_histogram", "build_bundle", "bundle_token_counts",
    "cache_report", "compare_modes", "compress_frame",
    "dense_global_attention", "descriptor_attention", "divergence",
    "flops_attention", "forward_offline", "frame_attention",
    "generate_synthetic", "image_grid_layout", "init_block_weights",
    "init_weights", "layer_norm", "lloyd", "matmul", "memory_model",
    "reference_end_to_end_reduction", "resample_bilinear", "resample_nearest",
    "rng", "run_stream", "select_keyframes", "split_grid",
    "stable_softmax_rows", "step", "topk_norm_indices",
]

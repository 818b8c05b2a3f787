"""Grant-free access over second-order Reed-Muller sequences.

Codec, per-slot detector with successive interference cancellation, frame
pipeline with tree-coded sub-blocks, stochastic geometry channel model, and
a Monte Carlo command-line harness.
"""

from .access_pipeline import (
    ErrorMetrics,
    FrameConfig,
    FrameDecodeResult,
    decode_frame,
    draw_messages,
    error_metrics,
    tree_decode,
    tree_encode,
)
from .geometry_channel import (
    GeometryConfig,
    Population,
    classify_neighbors,
    expected_neighbors,
    frame_observations,
    interference_power,
    sample_frame,
    synthesize_slot,
)
from .rm_codec import (
    RmPair,
    binary_index,
    bits_to_int,
    bits_to_pair_batch,
    pair_to_bits,
    rm_samples,
    unpack_bits,
    wht,
)
from .sim_cli import ExperimentSpec, main, presets, run_sweep, scaling_bench
from .slot_detector import (
    Detection,
    DetectorConfig,
    detect_slot,
    fold_layer,
    refine_delay,
    reconstruct_signal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # codec
    "RmPair",
    "binary_index",
    "bits_to_int",
    "bits_to_pair_batch",
    "pair_to_bits",
    "rm_samples",
    "unpack_bits",
    "wht",
    # detector
    "Detection",
    "DetectorConfig",
    "detect_slot",
    "fold_layer",
    "refine_delay",
    "reconstruct_signal",
    # frame pipeline
    "FrameConfig",
    "FrameDecodeResult",
    "ErrorMetrics",
    "tree_encode",
    "tree_decode",
    "draw_messages",
    "decode_frame",
    "error_metrics",
    # geometry and channel
    "GeometryConfig",
    "Population",
    "expected_neighbors",
    "interference_power",
    "sample_frame",
    "classify_neighbors",
    "synthesize_slot",
    "frame_observations",
    # harness
    "ExperimentSpec",
    "run_sweep",
    "scaling_bench",
    "presets",
    "main",
]

from .bases import GmmBase, SphericalGaussian, base_from_descriptor
from .layers import (ACTNORM_SCALE_FLOOR, ActNormLayer, MadeLayer,
                     ReversalLayer, made_degrees, made_masks)
from .model import BLOCK_ROWS, FlowModel, build_maf, push_rows

__all__ = [
    "ACTNORM_SCALE_FLOOR", "ActNormLayer", "BLOCK_ROWS", "FlowModel",
    "GmmBase", "MadeLayer", "ReversalLayer", "SphericalGaussian",
    "base_from_descriptor", "build_maf", "made_degrees", "made_masks",
    "push_rows",
]

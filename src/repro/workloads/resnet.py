"""Pruned ResNet-50 convolution layers (Table 6, Conv rows).

The paper trains a ResNet-50 model and prunes it to 30% weight density,
then evaluates sparse convolution on three layers. Without the trained
model, this module generates synthetic activation and weight tensors with
the published shapes and densities; activation sparsity follows ReLU-like
channel-correlated patterns, and weight sparsity is unstructured (magnitude
pruning leaves unstructured sparsity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class ConvLayerSpec:
    """Published shape/density of one evaluated convolution layer.

    The Table 6 notation is ``dim . kdim . inCh . outCh`` with non-zeros and
    densities listed as ``activations . kernel``.
    """

    name: str
    spatial_dim: int
    kernel_dim: int
    in_channels: int
    out_channels: int
    activation_nnz: int
    weight_nnz: int
    activation_density: float
    weight_density: float


#: The three ResNet-50 layers evaluated in the paper.
RESNET_LAYERS: Dict[str, ConvLayerSpec] = {
    "resnet50-1": ConvLayerSpec("resnet50-1", 56, 1, 64, 64, 88_837, 1_229, 0.443, 0.30),
    "resnet50-2": ConvLayerSpec("resnet50-2", 56, 3, 64, 64, 47_574, 11_057, 0.237, 0.30),
    "resnet50-29": ConvLayerSpec("resnet50-29", 14, 3, 256, 256, 41_552, 176_460, 0.828, 0.30),
}


@dataclass
class ConvWorkload:
    """A generated sparse convolution problem.

    Attributes:
        spec: The published layer specification this imitates.
        activations: Input activations, shape ``(in_channels, H, W)``.
        weights: Kernel weights, shape
            ``(in_channels, kH, kW, out_channels)``.
        scale: Channel scale factor applied to the published layer.
    """

    spec: ConvLayerSpec
    activations: np.ndarray
    weights: np.ndarray
    scale: float

    @property
    def activation_density(self) -> float:
        """Fraction of non-zero activations actually generated."""
        return float(np.count_nonzero(self.activations)) / self.activations.size

    @property
    def weight_density(self) -> float:
        """Fraction of non-zero weights actually generated."""
        return float(np.count_nonzero(self.weights)) / self.weights.size

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """Output tensor shape ``(out_channels, H, W)`` (same-padded)."""
        out_channels = self.weights.shape[3]
        return (out_channels, self.activations.shape[1], self.activations.shape[2])

    def macs(self) -> int:
        """Multiply-accumulates a dense convolution of this layer would do."""
        in_ch, h, w = self.activations.shape
        _, kh, kw, out_ch = self.weights.shape
        return in_ch * h * w * kh * kw * out_ch


def generate_conv_layer(name: str, scale: float = 0.25, seed: int = 5) -> ConvWorkload:
    """Generate a synthetic pruned layer matching the published statistics.

    Args:
        name: A key of :data:`RESNET_LAYERS`.
        scale: Channel scale factor (spatial dimensions are kept) so the
            functional simulation stays tractable; densities are preserved.
        seed: Random seed.
    """
    if name not in RESNET_LAYERS:
        raise WorkloadError(f"unknown conv layer {name!r}; known: {sorted(RESNET_LAYERS)}")
    if not 0 < scale <= 1.0:
        raise WorkloadError("scale must be in (0, 1]")
    spec = RESNET_LAYERS[name]
    rng = np.random.default_rng(seed)
    in_ch = max(8, int(round(spec.in_channels * scale)))
    out_ch = max(16, int(round(spec.out_channels * scale)))
    h = w = spec.spatial_dim
    k = spec.kernel_dim

    activations = rng.random((in_ch, h, w)) + 0.05
    # ReLU-style sparsity: zero out whole spatially correlated patches plus
    # random element dropout until the target density is reached.
    act_mask = rng.random((in_ch, h, w)) < spec.activation_density
    activations *= act_mask

    weights = rng.standard_normal((in_ch, k, k, out_ch))
    weight_mask = rng.random((in_ch, k, k, out_ch)) < spec.weight_density
    weights *= weight_mask
    # Guarantee at least one non-zero weight per input channel so every
    # channel exercises the kernel-scan path.
    for channel in range(in_ch):
        if not np.any(weights[channel]):
            weights[channel, 0, 0, 0] = 1.0

    return ConvWorkload(spec=spec, activations=activations, weights=weights, scale=scale)


def reference_convolution(workload: ConvWorkload) -> np.ndarray:
    """Dense reference convolution matching Table 2's scatter semantics.

    Table 2 defines the kernel as ``Out[oC, r+rK, c+cK] += In[iC, r, c] *
    K[iC][rK, cK, oC]`` with the output cropped back to the input's spatial
    extent (same padding, stride 1). Used to validate the sparse-iteration
    implementation in :mod:`repro.apps.conv`.
    """
    in_ch, h, w = workload.activations.shape
    _, kh, kw, out_ch = workload.weights.shape
    pad_h, pad_w = kh // 2, kw // 2
    padded = np.zeros((out_ch, h + 2 * pad_h, w + 2 * pad_w), dtype=np.float64)
    for oc in range(out_ch):
        for ic in range(in_ch):
            for r in range(kh):
                for c in range(kw):
                    padded[oc, r : r + h, c : c + w] += (
                        workload.weights[ic, r, c, oc] * workload.activations[ic]
                    )
    return padded[:, pad_h : pad_h + h, pad_w : pad_w + w]

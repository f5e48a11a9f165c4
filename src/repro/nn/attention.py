"""Multi-head self-attention.

The attention layer operates on ``(batch, sequence, model_dim)`` tensors and
supports an additive key-padding mask so ``[PAD]`` tokens never contribute to
the representation of real tokens.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention."""

    def __init__(self, model_dim: int, num_heads: int, seed: Optional[int] = None) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        base = 0 if seed is None else seed
        self.query = Linear(model_dim, model_dim, seed=base + 1)
        self.key = Linear(model_dim, model_dim, seed=base + 2)
        self.value = Linear(model_dim, model_dim, seed=base + 3)
        self.output = Linear(model_dim, model_dim, seed=base + 4)

    def _split_heads(self, tensor: Tensor, batch: int, length: int) -> Tensor:
        # (batch, length, model) -> (batch, heads, length, head_dim)
        reshaped = tensor.reshape(batch, length, self.num_heads, self.head_dim)
        return reshaped.transpose(0, 2, 1, 3)

    def forward(self, inputs: Tensor, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention.

        ``padding_mask`` has shape ``(batch, length)`` with 1 for real tokens
        and 0 for padding.
        """
        batch, length, _ = inputs.shape
        queries = self._split_heads(self.query(inputs), batch, length)
        keys = self._split_heads(self.key(inputs), batch, length)
        values = self._split_heads(self.value(inputs), batch, length)

        scores = queries @ keys.transpose(0, 1, 3, 2)
        additive = None
        if padding_mask is not None:
            additive = np.where(np.asarray(padding_mask)[:, None, None, :] > 0, 0.0, -1e9)
        weights = scores.masked_softmax(1.0 / math.sqrt(self.head_dim), additive)
        attended = weights @ values
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, length, self.model_dim)
        return self.output(merged)

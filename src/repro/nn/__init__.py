"""A small numpy-based neural-network library with reverse-mode autograd.

The paper trains its policy with PyTorch/Stable-Baselines3; those libraries
are not available offline, so the reproduction implements the required
machinery from scratch on top of numpy:

* :mod:`repro.nn.tensor` -- a reverse-mode autograd ``Tensor`` and the
  thread-local ``no_grad`` context for forward-only calls;
* :mod:`repro.nn.layers` -- ``Module``, ``Linear``, ``Embedding``,
  ``LayerNorm``, ``MLP``;
* :mod:`repro.nn.attention` / :mod:`repro.nn.transformer` -- multi-head
  self-attention and the Transformer encoder used for the state
  representation (Sec. 5.1);
* :mod:`repro.nn.gru` -- the GRU baseline of the encoder ablation;
* :mod:`repro.nn.optim` -- SGD and Adam;
* :mod:`repro.nn.serialize` -- save/load of module parameters (``.npz``).
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import MLP, Embedding, LayerNorm, Linear, Module, Sequential
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer
from repro.nn.gru import GRU, GRUCell
from repro.nn.optim import SGD, Adam
from repro.nn.serialize import load_module, save_module

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Sequential",
    "MLP",
    "MultiHeadSelfAttention",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "GRU",
    "GRUCell",
    "SGD",
    "Adam",
    "save_module",
    "load_module",
]

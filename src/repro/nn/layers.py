"""Neural-network modules built on the autograd tensor.

``Module`` mirrors the PyTorch API surface the rest of the code needs:
``parameters()``, ``named_parameters()``, ``zero_grad()``, ``state_dict()``
and ``load_state_dict()`` (numpy arrays).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Module", "Parameter", "Linear", "Embedding", "LayerNorm", "Sequential", "MLP", "ReLU"]


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    # -- registration (attribute hooks) -------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access ------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [parameter for _, parameter in self.named_parameters()]

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(parameter.data.size for parameter in self.parameters())

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- (de)serialization ---------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        parameters = dict(self.named_parameters())
        missing = set(parameters) - set(state)
        unexpected = set(state) - set(parameters)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch (missing={sorted(missing)}, unexpected={sorted(unexpected)})"
            )
        for name, parameter in parameters.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {parameter.data.shape}"
                )
            parameter.data = value.copy()

    # -- call protocol -----------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map ``y = x W + b`` with Kaiming-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        bound = math.sqrt(6.0 / in_features)
        self.weight = Parameter(rng.uniform(-bound, bound, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs @ self.weight
        if self.bias is not None:
            output = output + self.bias
        return output


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        return self.weight[ids]


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gain = Parameter(np.ones(features))
        self.shift = Parameter(np.zeros(features))
        self.eps = eps

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.layer_norm(self.gain, self.shift, self.eps)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._ordered.append(module)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for module in self._ordered:
            output = module(output)
        return output


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between hidden layers."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        sizes = [in_features, *hidden, out_features]
        layers: List[Module] = []
        for index in range(len(sizes) - 1):
            layer_seed = None if seed is None else seed + index
            layers.append(Linear(sizes[index], sizes[index + 1], seed=layer_seed))
            if index < len(sizes) - 2:
                layers.append(ReLU())
        self.body = Sequential(*layers)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.body(inputs)

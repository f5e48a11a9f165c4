"""An NN layer lowered through the IR to a compilable workload.

The smallest interesting "private inference" scenario: one quantized
:class:`~repro.nn.layers.Linear` layer evaluated under encryption.  The
layer's integer weights and bias are staged through the compiler DSL into
the paper's textual IR (``out_j = sum_k w[j][k] * x_k + b[j]``, with the
weights as plaintext constants and the activations as ciphertexts), which
makes the layer an ordinary s-expression every compiler and backend in the
repo can consume.

The workload's oracle runs the *same* layer through the numpy autograd
stack (:mod:`repro.nn`): the encrypted circuit and the floating-point
forward pass must agree bit for bit on integer inputs, which pins the
lowering — a mismatch means the DSL staging, the compiler or the backend
broke, not the test.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.workloads.registry import Workload, register_workload

__all__ = ["linear_layer_workload", "quantized_linear_weights"]


def quantized_linear_weights(
    in_features: int, out_features: int, seed: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Deterministic small-integer ``(weights, bias)`` for the layer.

    Weights live in ``[0, 3]`` and biases in ``[0, 7]`` so every output of
    the layer stays far below the plaintext modulus — the circuit computes
    exact integer arithmetic, never wrapped values.
    """
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 4, size=(in_features, out_features))
    bias = rng.integers(0, 8, size=out_features)
    return weights, bias


@register_workload("nn-linear", suite="nn")
def linear_layer_workload(
    in_features: int = 4, out_features: int = 2, seed: int = 0
) -> Workload:
    """A quantized Linear layer evaluated under encryption."""
    from repro.compiler.dsl import Ciphertext, Program
    from repro.ir.printer import to_sexpr
    from repro.nn.layers import Linear

    if in_features < 1 or out_features < 1:
        raise ValueError("nn-linear needs at least one input and output feature")
    weights, bias = quantized_linear_weights(in_features, out_features, seed)

    with Program(f"nn_linear_{in_features}x{out_features}") as program:
        activations = [Ciphertext(f"x_{k}") for k in range(in_features)]
        for j in range(out_features):
            accumulator = activations[0] * int(weights[0, j])
            for k in range(1, in_features):
                accumulator = accumulator + activations[k] * int(weights[k, j])
            (accumulator + int(bias[j])).set_output(f"out_{j}")

    layer = Linear(in_features, out_features, seed=seed)
    layer.weight.data = weights.astype(np.float64)
    layer.bias.data = bias.astype(np.float64)

    def oracle(inputs: Mapping[str, int]) -> List[int]:
        """The same layer forward through the numpy autograd stack."""
        from repro.nn.tensor import Tensor, no_grad

        row = np.array(
            [[float(inputs[f"x_{k}"]) for k in range(in_features)]], dtype=np.float64
        )
        with no_grad():
            output = layer(Tensor(row)).data[0]
        return [int(round(value)) for value in output]

    return Workload(
        name=program.name,
        suite="nn",
        source=to_sexpr(program.output_expr),
        input_range=7,
        compiler="greedy",
        oracle=oracle,
    )

"""A reverse-mode automatic-differentiation tensor on top of numpy.

Only the operations needed by the policy/critic networks, the Transformer
and GRU encoders and the PPO loss are implemented, but each is implemented
with full broadcasting support so the layers read like their PyTorch
counterparts.  Gradients are accumulated in ``Tensor.grad`` by calling
``backward()`` on a scalar loss.

Only what a backward pass will read is kept:

* inside :func:`no_grad` (a thread-local context) an op records no parents
  and no backward closure, so forward-only calls -- acting, value
  estimates, inference -- build no graph at all;
* ``backward()`` frees each interior node as soon as its closure has run:
  the closure, the parent links and the node's ``.grad`` are dropped, so
  after the pass only leaves (parameters, inputs) keep ``.grad``, as in
  PyTorch without ``retain_grad``;
* a closure computes an operand's gradient only when that operand
  ``requires_grad`` (masks and other constants get none), and attention's
  softmax and layer normalisation are single fused nodes.

Trained weights are bit-identical to the plain composed graph: each fused
op and each skipped computation leaves every gradient's bits as they were.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Per thread: the server compiles (running the policy) on its loop thread
# while another thread may be training.
_grad_mode = threading.local()


def is_grad_enabled() -> bool:
    """False inside a :func:`no_grad` block on the calling thread."""
    return getattr(_grad_mode, "enabled", True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no autograd graph on this thread while the block runs.

    Ops inside compute the same values but return tensors with
    ``requires_grad=False``, no parents and no backward closure.
    """
    previous = is_grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _is_basic_index(index) -> bool:
    """True for an index of ints, slices, ``None`` and ``...`` only."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autograd."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[], None]] = None
        self._prev: Tuple[Tensor, ...] = _prev

    # -- basic properties -------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph helpers ------------------------------------------------------------
    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(data: np.ndarray, prev: Sequence["Tensor"]) -> "Tensor":
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in prev)
        return Tensor(data, requires_grad=requires_grad, _prev=tuple(prev) if requires_grad else ())

    def _link(self, backward: Callable[[], None]) -> None:
        """Attach an op's backward closure, if this output is in a graph."""
        if self.requires_grad:
            self._backward = backward

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += grad
        elif np.shape(grad) == self.data.shape:
            # Same bits as zeros + grad (-0.0 becomes +0.0) without the
            # zero fill; ``empty_like`` keeps the parameter's memory layout,
            # which later matmuls' rounding depends on.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad = np.zeros_like(self.data)
            self.grad += grad

    # -- arithmetic ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out = self._make(self.data + other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out._link(_backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))

        def _backward() -> None:
            self._accumulate(-out.grad)

        out._link(_backward)
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out = self._make(self.data * other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._link(_backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        return self * other ** -1.0

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        out = self._make(self.data ** exponent, (self,))

        def _backward() -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._link(_backward)
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._wrap(other)
        out = self._make(self.data @ other.data, (self, other))

        def _backward() -> None:
            grad = out.grad
            if self.requires_grad:
                self_grad = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(self_grad, self.data.shape))
            if other.requires_grad:
                other_grad = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(other_grad, other.data.shape))

        out._link(_backward)
        return out

    __matmul__ = matmul

    # -- elementwise non-linearities ----------------------------------------------------
    def exp(self) -> "Tensor":
        out = self._make(np.exp(self.data), (self,))

        def _backward() -> None:
            self._accumulate(out.grad * out.data)

        out._link(_backward)
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))

        def _backward() -> None:
            self._accumulate(out.grad / self.data)

        out._link(_backward)
        return out

    def tanh(self) -> "Tensor":
        out = self._make(np.tanh(self.data), (self,))

        def _backward() -> None:
            self._accumulate(out.grad * (1.0 - out.data ** 2))

        out._link(_backward)
        return out

    def sigmoid(self) -> "Tensor":
        out = self._make(1.0 / (1.0 + np.exp(-self.data)), (self,))

        def _backward() -> None:
            self._accumulate(out.grad * out.data * (1.0 - out.data))

        out._link(_backward)
        return out

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,))

        def _backward() -> None:
            self._accumulate(out.grad * (self.data > 0.0))

        out._link(_backward)
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # -- reductions -------------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward() -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._link(_backward)
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(out_data, (self,))

        def _backward() -> None:
            grad = out.grad
            expanded = grad if keepdims else np.expand_dims(grad, axis=axis)
            max_expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = self.data == max_expanded
            mask = mask / mask.sum(axis=axis, keepdims=True)
            self._accumulate(expanded * mask)

        out._link(_backward)
        return out

    # -- shape manipulation --------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out = self._make(self.data.reshape(shape), (self,))

        def _backward() -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        out._link(_backward)
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.data.ndim)))
        out = self._make(self.data.transpose(axes), (self,))
        inverse = np.argsort(axes)

        def _backward() -> None:
            self._accumulate(out.grad.transpose(inverse))

        out._link(_backward)
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,))
        basic = _is_basic_index(index)

        def _backward() -> None:
            grad = np.zeros_like(self.data)
            if basic:
                # A basic index names each element at most once.
                grad[index] += out.grad
            else:
                # Repeated integer ids must accumulate.
                np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        out._link(_backward)
        return out

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        out = Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors)

        def _backward() -> None:
            sizes = [t.data.shape[axis] for t in tensors]
            offsets = np.cumsum([0] + sizes)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if not tensor.requires_grad:
                    continue
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(slicer)])

        out._link(_backward)
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        out = Tensor._make(np.stack([t.data for t in tensors], axis=axis), tensors)

        def _backward() -> None:
            grads = np.split(out.grad, len(tensors), axis=axis)
            for tensor, grad in zip(tensors, grads):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(grad, axis=axis))

        out._link(_backward)
        return out

    # -- softmax family --------------------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = self._make(shifted - log_sum, (self,))

        def _backward() -> None:
            softmax = np.exp(out.data)
            grad = out.grad - softmax * out.grad.sum(axis=axis, keepdims=True)
            self._accumulate(grad)

        out._link(_backward)
        return out

    def masked_softmax(self, scale: float, mask: Optional[np.ndarray] = None) -> "Tensor":
        """``exp(log_softmax(self * scale + mask))`` over the last axis, as one op.

        Attention's softmax.  The values and the input gradient have the
        bits of that composed chain: the forward runs the same numpy ops in
        the same order, and the backward runs the chain's closures' arithmetic
        in order, ``+ 0.0`` included where each link's first write in
        :meth:`_accumulate` turns ``-0.0`` into ``+0.0``.  Only the output
        is kept, where the chain kept four intermediate arrays.
        """
        scores = self.data * scale
        if mask is not None:
            scores = scores + mask
        shifted = scores - scores.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out = self._make(np.exp(shifted - log_sum), (self,))

        def _backward() -> None:
            # exp, then log_softmax (whose softmax is this output), then the
            # mask's add and the scale's multiply.
            grad = out.grad * out.data + 0.0
            grad = grad - out.data * grad.sum(axis=-1, keepdims=True) + 0.0
            self._accumulate(grad * scale)

        out._link(_backward)
        return out

    def layer_norm(self, gain: "Tensor", shift: "Tensor", eps: float) -> "Tensor":
        """Layer normalisation over the last axis, as one op.

        ``(x - mean) * (variance + eps) ** -0.5 * gain + shift``, where the
        mean and variance are ``mean(axis=-1, keepdims=True)``.  Values and
        gradients have the bits of that expression built from ``Tensor``
        ops: the forward runs the same numpy ops in the same order, and the
        backward runs each op's closure arithmetic in the order the composed
        graph runs them, ``+ 0.0`` included where a first write in
        :meth:`_accumulate` turns ``-0.0`` into ``+0.0``.  The input gets
        its two contributions (through ``centred``, then through the mean)
        as two accumulations, as the composed graph gives them.
        """
        x = self.data
        inverse_count = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True) * inverse_count
        centred = x + -mean
        variance = (centred * centred).sum(axis=-1, keepdims=True) * inverse_count
        shifted_variance = variance + eps
        scale = shifted_variance ** -0.5
        normalised = centred * scale
        out = self._make(normalised * gain.data + shift.data, (self, gain, shift))

        def _backward() -> None:
            grad = out.grad
            if shift.requires_grad:
                shift._accumulate(_unbroadcast(grad, shift.data.shape))
            grad = grad + 0.0
            if gain.requires_grad:
                gain._accumulate(_unbroadcast(grad * normalised, gain.data.shape))
            grad = grad * gain.data + 0.0
            if not self.requires_grad:
                return
            # normalised = centred * scale
            centred_grad = grad * scale + 0.0
            grad = _unbroadcast(grad * centred, scale.shape) + 0.0
            # scale = shifted_variance ** -0.5, then + eps, then * 1/count
            grad = grad * -0.5 * shifted_variance ** -1.5 + 0.0
            grad = grad * inverse_count + 0.0
            # the sum of squares, then centred * centred (both operands)
            grad = np.broadcast_to(grad, centred.shape) + 0.0
            centred_grad += grad * centred
            centred_grad += grad * centred
            # centred = x + -mean, then -, then * 1/count, then the sum
            self._accumulate(centred_grad)
            grad = -(_unbroadcast(centred_grad, mean.shape) + 0.0) + 0.0
            grad = grad * inverse_count + 0.0
            self._accumulate(np.broadcast_to(grad, x.shape))

        out._link(_backward)
        return out

    # -- backward pass -----------------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (must be scalar unless ``grad`` given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64)

        ordered: List[Optional[Tensor]] = []
        visited: Set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in visited:
                continue
            if expanded:
                visited.add(id(node))
                ordered.append(node)
                continue
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Children come after their parents in ``ordered``, so walking it
        # backwards runs each closure once all of its gradient has arrived.
        # An interior node is then spent: drop its closure (which refers to
        # the node itself, a cycle only the cyclic collector would free),
        # its parents, its gradient and this list's reference, so the graph
        # is released as the pass goes.  Leaves keep their ``.grad``.
        for index in range(len(ordered) - 1, -1, -1):
            node = ordered[index]
            ordered[index] = None
            backward = node._backward
            if backward is None:
                continue
            if node.grad is not None:
                backward()
            node._backward = None
            node._prev = ()
            node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (positional-encoding biases, the Transformer, training)
computes on these tensors. The design is deliberately small: row-major float64
data and a backward pass over a topologically ordered tape. Elementwise ops
broadcast like numpy; `matmul`, `transpose`, `softmax_rows` and
`layer_norm_frames` act on the trailing axes and treat any leading axes as
batch dimensions, so a (B, L, K) stack of clips or a (B, H, L, d) stack of
attention heads runs as one node. Inside `no_grad()` no tape is recorded.

One op has a tape-free form for inference: `softmax_rows(scores, values)`
returns softmax(scores) @ values, consuming `scores` as its buffer. It
normalizes the small (..., m, d) product after the value product rather than
the (..., m, n) weights before it, and floors the shifted scores at
`EXP_FLOOR` so exp stays on numpy's vector path.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator, Sequence
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "ContractError",
    "constant",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "absolute",
    "reduce_sum",
    "reduce_mean",
    "softmax_rows",
    "layer_norm_frames",
    "take",
    "toeplitz",
    "concat_cols",
    "reshape",
    "rotate_pairs",
    "trace",
    "backward",
    "no_grad",
    "grad_enabled",
    "finite_difference",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """An operation was invoked outside its contract."""


class Tensor:
    """N-dimensional float64 array participating in the gradient tape.

    `grad` is populated by `backward` for leaf tensors with
    `requires_grad=True` and accumulates across calls; callers zero it by
    assigning None. Interior nodes drop theirs once it has been propagated.
    Gradients may share memory with each other (`add(w, u)` hands w and u the
    same array) and with views of it, so a gradient is only ever replaced,
    never written into.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(data) -> Tensor:
    """Wrap an array-like as a non-trainable tensor."""
    return Tensor(data, requires_grad=False)


def _promote(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_GRAD_ENABLED: ContextVar[bool] = ContextVar("lgse_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block: results keep no parents and no
    backward closure, so intermediates are freed as soon as they are unused."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def grad_enabled() -> bool:
    """Whether this thread's context records a tape (it is not inside
    `no_grad()`)."""
    return _GRAD_ENABLED.get()


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data, requires_grad=_GRAD_ENABLED.get()
                 and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to `t.grad` without writing into either:
    the first contribution is kept as it is, later ones make a new sum."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape))
                 if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    data = a.data + b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    data = a.data - b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    data = a.data * b.data

    def back(g):
        if a is b:
            # A square, as in the MSE loss: its two contributions in one
            # array, not a sum made beside both. g*a + g*a == 2*(g*a) exactly.
            if a.requires_grad:
                twice = g * a.data
                twice *= 2.0
                _accumulate(a, _unbroadcast(twice, a.shape))
            return
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), back)


def div(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    data = a.data / b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(data, (a, b), back)


def neg(a) -> Tensor:
    a = _promote(a)

    def back(g):
        _accumulate(a, -g)

    return _node(-a.data, (a,), back)


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    """(..., m, k) @ (..., k, n) with numpy broadcasting of the leading axes.

    A 2-D right operand (a shared weight) multiplies a stacked left operand
    as one (rows, k) @ (k, n) product, forward and backward.
    """
    a, b = _promote(a), _promote(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul requires (...,m,k)@(...,k,n); got {a.shape} and {b.shape}")
    if b.data.ndim == 2 and a.data.ndim > 2:
        rows = a.data.reshape(-1, a.shape[-1])
        data = (rows @ b.data).reshape(a.shape[:-1] + b.shape[-1:])

        def back(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accumulate(b, rows.T @ g2)
    else:
        data = a.data @ b.data

        def back(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g @ _swap(b.data), a.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(_swap(a.data) @ g, b.shape))

    return _node(data, (a, b), back)


def transpose(a, axis1: int = -2, axis2: int = -1) -> Tensor:
    """Swap two axes (by default the last two) into a contiguous copy."""
    a = _promote(a)
    if a.data.ndim < 2:
        raise DimensionError(f"transpose expects at least 2 axes, got {a.shape}")

    def back(g):
        _accumulate(a, np.swapaxes(g, axis1, axis2))

    return _node(np.ascontiguousarray(np.swapaxes(a.data, axis1, axis2)), (a,), back)


def relu(a) -> Tensor:
    a = _promote(a)
    mask = a.data > 0.0

    def back(g):
        _accumulate(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), back)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, with one exp of -|x|.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    a = _promote(a)
    s = _stable_sigmoid(a.data)

    def back(g):
        _accumulate(a, g * s * (1.0 - s))

    return _node(s, (a,), back)


def exp(a) -> Tensor:
    a = _promote(a)
    e = np.exp(a.data)

    def back(g):
        _accumulate(a, g * e)

    return _node(e, (a,), back)


def log(a) -> Tensor:
    """Natural log; the caller guarantees strictly positive input."""
    a = _promote(a)

    def back(g):
        _accumulate(a, g / a.data)

    return _node(np.log(a.data), (a,), back)


def absolute(a) -> Tensor:
    """|x| with sign subgradient (0 at the kink)."""
    a = _promote(a)
    s = np.sign(a.data)

    def back(g):
        _accumulate(a, g * s)

    return _node(np.abs(a.data), (a,), back)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = _promote(a)
    data = a.data.sum(axis=axis)

    def back(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _node(data, (a,), back)


def reduce_mean(a, axis: int | None = None) -> Tensor:
    a = _promote(a)
    n = a.data.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis), 1.0 / n)


# Floor of the shifted scores on the tape-free softmax path. numpy's float64
# exp leaves its vector loop for inputs below about -708; e^-600 is a normal
# float, and no weight that small changes a row sum of at least 1.
EXP_FLOOR = -600.0


def softmax_rows(a, values=None) -> Tensor:
    """Softmax along the last axis of a (..., m, n) tensor, computed with max
    subtraction in one buffer.

    Every output row sums to 1 (within float rounding) for finite input.

    With `values`, a (..., n, d) operand, return softmax(a) @ values without
    a tape: the scores are shifted by their row maxima, floored at
    `EXP_FLOOR` and exponentiated in `a`'s own buffer, which the call
    consumes; the unnormalized weights are multiplied by `values` and the
    (..., m, d) product is divided by the row sums. Weights below e^EXP_FLOOR
    relative to a row's largest are raised to it. Neither operand may
    require a gradient (ContractError).
    """
    a = _promote(a)
    if a.data.ndim < 2:
        raise DimensionError(f"softmax_rows expects at least 2 axes, got {a.shape}")
    if values is not None:
        values = _promote(values)
        if a.requires_grad or values.requires_grad:
            raise ContractError(
                "softmax_rows(scores, values) records no tape; "
                "use softmax_rows(scores) and matmul for gradients")
        if values.data.ndim < 2 or values.shape[-2] != a.shape[-1]:
            raise DimensionError(f"softmax_rows values must be (..., {a.shape[-1]}, d), "
                                 f"got {values.shape}")
        s = a.data
        s -= s.max(axis=-1, keepdims=True)
        # Scanning for a value below the floor costs less than flooring.
        if s.min() < EXP_FLOOR:
            np.maximum(s, EXP_FLOOR, out=s)
        np.exp(s, out=s)
        out = s @ values.data
        out /= s.sum(axis=-1, keepdims=True)
        return constant(out)
    s = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - inner))

    return _node(s, (a,), back)


def layer_norm_frames(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each frame (last-axis vector of a (..., L, d) tensor) to
    zero mean / unit variance, then affine."""
    x, gain, bias = _promote(x), _promote(gain), _promote(bias)
    if x.data.ndim < 2 or x.shape[-1] < 2:
        raise DimensionError(
            f"layer_norm_frames expects (...,L,d) with d >= 2, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data

    def back(g):
        _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        dxhat = g * gain.data
        # Standard layer-norm backward, all reductions along the frame axis.
        gx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std
        _accumulate(x, gx)

    return _node(data, (x, gain, bias), back)


def take(a, idx) -> Tensor:
    """Gather `a.data[idx]`; backward scatter-adds into the source.

    `idx` may be an int, a tuple of ints, an integer ndarray, or a tuple such
    as `(Ellipsis, indices)` that gathers along the last axis; it is not a
    differentiable input.
    """
    a = _promote(a)
    data = np.asarray(a.data[idx], dtype=np.float64)

    def back(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            _accumulate(a, ga)

    return _node(data.copy(), (a,), back)


def toeplitz(values, length: int) -> Tensor:
    """(..., 2L-1) per-offset values -> (..., L, L) matrices with entry (i, j)
    equal to `values[..., i - j + L - 1]`.

    The result is a read-only strided view of `values`, not a copy. Backward
    scatter-adds into the 2L-1 offset slots, like `take` with the same index
    matrix.
    """
    values = _promote(values)
    if values.data.ndim < 1 or values.shape[-1] != 2 * length - 1:
        raise DimensionError(
            f"toeplitz({length}) expects (..., {2 * length - 1}) values, "
            f"got {values.shape}")
    windows = np.lib.stride_tricks.sliding_window_view(
        values.data[..., ::-1], length, axis=-1)

    def back(g):
        i = np.arange(length)
        gv = np.zeros_like(values.data)
        np.add.at(gv, (Ellipsis, i[:, None] - i[None, :] + (length - 1)), g)
        _accumulate(values, gv)

    return _node(windows[..., ::-1, :], (values,), back)


def concat_cols(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate 2-D tensors along columns (or rows with `axis=0`)."""
    parts = [_promote(p) for p in parts]
    widths = [p.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)

    def back(g):
        bounds = np.cumsum(widths)[:-1]
        for p, gp in zip(parts, np.split(g, bounds, axis=axis)):
            _accumulate(p, gp)

    return _node(data, parts, back)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _promote(a)
    orig = a.shape

    def back(g):
        _accumulate(a, g.reshape(orig))

    return _node(a.data.reshape(shape), (a,), back)


def rotate_pairs(x) -> Tensor:
    """Map adjacent last-axis pairs (a, b) to (-b, a); the 90-degree pair
    rotation."""
    x = _promote(x)
    if x.data.ndim < 2 or x.shape[-1] % 2 != 0:
        raise DimensionError(
            f"rotate_pairs expects (...,L,d) with even d, got {x.shape}")
    data = np.empty_like(x.data)
    data[..., 0::2] = -x.data[..., 1::2]
    data[..., 1::2] = x.data[..., 0::2]

    def back(g):
        gx = np.empty_like(g)
        gx[..., 1::2] = -g[..., 0::2]
        gx[..., 0::2] = g[..., 1::2]
        _accumulate(x, gx)

    return _node(data, (x,), back)


def trace(root: Tensor) -> list[Tensor]:
    """Tape for `root`: reachable nodes with every parent before its consumer."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate `grad` on every trainable tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}")
    order = trace(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def finite_difference(f: Callable[[np.ndarray], float], x0: np.ndarray,
                      step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g

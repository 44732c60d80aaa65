"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (positional-encoding biases, the Transformer, training)
computes on these tensors. The design is deliberately small: row-major float64
data and a backward pass over a topologically ordered tape. Elementwise ops
broadcast like numpy; `matmul`, `transpose`, `softmax_rows` and
`layer_norm_frames` act on the trailing axes and treat any leading axes as
batch dimensions, so a (B, L, K) stack of clips or a (B, H, L, d) stack of
attention heads runs as one node. Inside `no_grad()` no tape is recorded.

Every op follows one node rule: it is its forward value plus one
local-gradient function per parent, handed to `_op`. `_op` alone records the
node, reduces each local gradient to its parent's shape and accumulates it,
so an op never touches the tape itself.

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


def _op(data, *edges: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The one node constructor: an op is its value plus one local-gradient
    function per parent, given as `(parent, grad_fn)` edges.

    The node is recorded only when a tape is on and some parent requires a
    gradient. Its backward hands each such parent, in parent order,
    `_unbroadcast(grad_fn(g), parent.shape)` through `_accumulate`; a
    `grad_fn` is never called for a parent that requires none.
    """
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p, _ in edges):
        out.requires_grad = True
        out._parents = tuple(p for p, _ in edges)

        def back(g):
            for p, grad_fn in edges:
                if p.requires_grad:
                    _accumulate(p, _unbroadcast(grad_fn(g), p.shape))

        out._backward = back
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to `t.grad` without writing into either:
    the first contribution is kept as it is, later ones make a new sum."""
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
    return _op(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    return _op(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    data = a.data * b.data
    if a is b:
        # A square, as in the MSE loss: its two contributions in one array,
        # not a sum made beside both. g*a + g*a == 2*(g*a) exactly. Without
        # it the bits held, but train-desk's peak RSS rose from 86.0 to 94.3 MB
        # (+9.6%, 4 of 4 paired runs on 2 CPUs, with the heap thresholds
        # `import lgse` sets), past the bench's 5% bound.
        def twice(g):
            out = g * a.data
            out *= 2.0
            return out

        return _op(data, (a, twice))
    return _op(data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    return _op(a.data / b.data, (a, lambda g: g / b.data),
               (b, lambda g: -g * a.data / (b.data * b.data)))


def neg(a) -> Tensor:
    a = _promote(a)
    return _op(-a.data, (a, lambda g: -g))


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
        return _op((rows @ b.data).reshape(a.shape[:-1] + b.shape[-1:]),
                   (a, lambda g: (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.shape)),
                   (b, lambda g: rows.T @ g.reshape(-1, g.shape[-1])))
    return _op(a.data @ b.data, (a, lambda g: g @ _swap(b.data)),
               (b, lambda g: _swap(a.data) @ g))


def transpose(a, axis1: int = -2, axis2: int = -1) -> Tensor:
    """Swap two axes (by default the last two) into a contiguous copy."""
    a = _promote(a)
    if a.data.ndim < 2:
        raise DimensionError(f"transpose expects at least 2 axes, got {a.shape}")
    return _op(np.ascontiguousarray(np.swapaxes(a.data, axis1, axis2)),
               (a, lambda g: np.swapaxes(g, axis1, axis2)))


def relu(a) -> Tensor:
    """max(x, 0) as +0.0 wherever x is not positive, NaN included; gradient
    1 where x > 0, else 0.

    Selects without a branch: fmax maps NaN to 0, and adding 0.0 turns the
    -0.0 fmax may keep into +0.0 while leaving every other value as it is.
    The backward builds its mask from `a.data` when it runs.
    """
    a = _promote(a)
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _op(out, (a, lambda g: g * (a.data > 0.0)))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, with one exp of -|x|.

    The numerator max(e, x >= 0) selects without a branch: e = e^-|x| <= 1,
    so it is 1 where x >= 0 and e (NaN for NaN) elsewhere.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    """Logistic function, overflow-free for any input (`_stable_sigmoid`)."""
    a = _promote(a)
    s = _stable_sigmoid(a.data)
    return _op(s, (a, lambda g: g * s * (1.0 - s)))


def exp(a) -> Tensor:
    a = _promote(a)
    e = np.exp(a.data)
    return _op(e, (a, lambda g: g * e))


def log(a) -> Tensor:
    """Natural log; the caller guarantees strictly positive input."""
    a = _promote(a)
    return _op(np.log(a.data), (a, lambda g: g / a.data))


def absolute(a) -> Tensor:
    """|x| with sign subgradient (0 at the kink)."""
    a = _promote(a)
    s = np.sign(a.data)
    return _op(np.abs(a.data), (a, lambda g: g * s))


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = _promote(a)
    return _op(a.data.sum(axis=axis), (a, lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), a.shape).copy()))


def reduce_mean(a) -> Tensor:
    a = _promote(a)
    return mul(reduce_sum(a), 1.0 / a.data.size)


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
    return _op(s, (a, lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True))))


# Added to each frame's variance before the square root.
LN_EPS = 1e-5


def layer_norm_frames(x, gain, bias) -> Tensor:
    """Normalize each frame (last-axis vector of a (..., L, d) tensor) to
    zero mean / unit variance, then affine.

    Centres and scales one buffer and squares into the output buffer before
    the affine step overwrites it; each in-place step is the operation the
    textbook form (x - mu) / sqrt(var + eps) * gain + bias makes out of
    place, in the same order, so every value is the same.
    """
    x, gain, bias = _promote(x), _promote(gain), _promote(bias)
    if x.data.ndim < 2 or x.shape[-1] < 2:
        raise DimensionError(
            f"layer_norm_frames expects (...,L,d) with d >= 2, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.square(xhat)
    inv_std = out.mean(axis=-1, keepdims=True)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def x_grad(g):
        dxhat = g * gain.data
        # Standard layer-norm backward, all reductions along the frame axis.
        return (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std

    return _op(out, (x, x_grad),
               (gain, lambda g: (g * xhat).reshape(-1, d).sum(axis=0)),
               (bias, lambda g: g.reshape(-1, d).sum(axis=0)))


def take(a, idx) -> Tensor:
    """Gather `a.data[idx]`; backward scatter-adds into the source.

    `idx` may be an int, a tuple of ints, an integer ndarray, or a tuple such
    as `(Ellipsis, indices)` that gathers along the last axis; it is not a
    differentiable input.
    """
    a = _promote(a)

    def scatter(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return ga

    return _op(np.asarray(a.data[idx], dtype=np.float64).copy(), (a, scatter))


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

    def scatter(g):
        i = np.arange(length)
        gv = np.zeros_like(values.data)
        np.add.at(gv, (Ellipsis, i[:, None] - i[None, :] + (length - 1)), g)
        return gv

    return _op(windows[..., ::-1, :], (values, scatter))


def concat_cols(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate 2-D tensors along columns (or rows with `axis=0`); each
    part's gradient is a view of its slice of the upstream one."""
    parts = [_promote(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    ends = np.cumsum([p.shape[axis] for p in parts])

    def piece(start, end):
        cut = (slice(None),) * (axis % data.ndim) + (slice(start, end),)
        return lambda g: g[cut]

    return _op(data, *((p, piece(end - p.shape[axis], end))
                       for p, end in zip(parts, ends)))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _promote(a)
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


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

    def unrotate(g):
        gx = np.empty_like(g)
        gx[..., 1::2] = -g[..., 0::2]
        gx[..., 0::2] = g[..., 1::2]
        return gx

    return _op(data, (x, unrotate))


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


FD_STEP = 1e-5


def finite_difference(f: Callable[[np.ndarray], float], x0: np.ndarray) -> np.ndarray:
    """Central-difference gradient, with step FD_STEP, of a scalar function of
    a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += FD_STEP
        xm[i] -= FD_STEP
        g[i] = (f(xp) - f(xm)) / (2.0 * FD_STEP)
    return g

"""Dense tensors with reverse-mode automatic differentiation.

Values live in contiguous row-major numpy arrays, float32 by default
(the training dtype) with float64 reserved for gradient checking.
Operations record onto an explicitly scoped :class:`GradTape`; replaying
the tape in exact reverse recording order yields deterministic gradients
for every watched leaf. Broadcasting is deliberately narrow: same-shape,
scalar-vs-tensor, and a length-``c`` vector against the last axis of a
``[..., c]`` tensor (the per-channel case). Anything wider is an error.

``finite_difference_gradient`` and ``grad_check`` provide the
independent numeric oracle used to validate every backward rule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericError

DEFAULT_DTYPE = np.float32

_tape_stacks = threading.local()


def _stack() -> list["GradTape"]:
    stk = getattr(_tape_stacks, "stack", None)
    if stk is None:
        stk = []
        _tape_stacks.stack = stk
    return stk


def active_tape() -> Optional["GradTape"]:
    """The innermost tape currently recording on this thread, if any."""
    stk = _stack()
    return stk[-1] if stk else None


def _require_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {where}")


class Tensor:
    """Immutable-by-convention dense array with optional grad tracking.

    Construction copies the given values (value semantics); the only
    sanctioned in-place mutation of ``data`` is the optimizer's
    parameter update.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        arr = np.array(data, dtype=dtype, copy=True, order="C")
        if arr.dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported tensor dtype {arr.dtype}")
        if any(d <= 0 for d in arr.shape):
            raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        _require_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Adopt a freshly computed array without copying (internal)."""
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def copy(self) -> "Tensor":
        return Tensor._wrap(self.data.copy(), self.requires_grad)

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{req})"


@dataclass(frozen=True)
class TapeEntry:
    """One recorded operation: ids obey input < output (topological)."""

    op: str
    input_ids: tuple[int, ...]
    output_id: int
    backward: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]


class GradTape:
    """Ordered record of operations for one forward computation.

    Single-writer: record and replay on one logical thread. Replaying
    ``backward`` never mutates the tape, so repeated calls are
    bit-identical.
    """

    def __init__(self):
        self._entries: list[TapeEntry] = []
        self._ids: dict[int, int] = {}
        self._tensors: list[Tensor] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "GradTape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self

    @property
    def entries(self) -> tuple[TapeEntry, ...]:
        return tuple(self._entries)

    def watch(self, t: Tensor) -> int:
        """Register a tensor as a node; returns its node id."""
        return self._ensure_node(t)

    def on_tape(self, t: Tensor) -> bool:
        return id(t) in self._ids

    def node_id(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            raise ValueError("tensor is not on this tape")
        return nid

    def tensor(self, node_id: int) -> Tensor:
        return self._tensors[node_id]

    def gradient(self, grad_map: dict[int, Tensor], t: Tensor) -> Optional[Tensor]:
        """Look up a tensor's gradient in a map returned by backward()."""
        return grad_map.get(self.node_id(t))

    def _ensure_node(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self._tensors)
            self._ids[id(t)] = nid
            self._tensors.append(t)
        return nid

    def _record(self, op: str, inputs: Sequence[Tensor], output: Tensor, backward_fn) -> None:
        input_ids = tuple(self._ensure_node(t) for t in inputs)
        output_id = self._ensure_node(output)
        self._entries.append(TapeEntry(op, input_ids, output_id, backward_fn))
        self._produced.add(output_id)

    def leaf_ids(self) -> list[int]:
        """Node ids of watched tensors that were not produced by an op."""
        return [i for i in range(len(self._tensors)) if i not in self._produced]


def backward(tape: GradTape, loss: Tensor) -> dict[int, Tensor]:
    """Replay the tape in reverse, returning watched-leaf gradients.

    The loss must be a scalar produced on the tape. The map holds one
    gradient of its own shape for every watched leaf with
    ``requires_grad`` (zeros when the loss does not depend on it) and
    nothing else: the gradient of a node an op produced is freed once
    that op's backward rule has consumed it, and gradients flowing into
    tensors without ``requires_grad`` (data, dropout masks) are dropped.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    loss_id = tape.node_id(loss)
    if loss_id not in tape._produced:
        raise ValueError("loss was not produced by an operation on this tape")

    grads: dict[int, np.ndarray] = {loss_id: np.ones_like(loss.data)}
    for entry in reversed(tape._entries):
        g_out = grads.pop(entry.output_id, None)
        if g_out is None:
            continue
        in_grads = entry.backward(g_out)
        for nid, g_in in zip(entry.input_ids, in_grads):
            if g_in is None or not tape._tensors[nid].requires_grad:
                continue
            if np.isnan(g_in).any():
                raise NumericError(f"NaN gradient emitted by backward rule of '{entry.op}'")
            acc = grads.get(nid)
            grads[nid] = g_in if acc is None else acc + g_in

    result: dict[int, Tensor] = {}
    for nid, arr in grads.items():
        result[nid] = Tensor._wrap(arr)
    for nid in tape.leaf_ids():
        t = tape.tensor(nid)
        if t.requires_grad and nid not in result:
            result[nid] = Tensor._wrap(np.zeros_like(t.data))
    return result


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def _apply(op: str, inputs: Sequence[Tensor], out_data, backward_fn) -> Tensor:
    out_data = np.asarray(out_data)
    _require_finite(out_data, op)
    out = Tensor._wrap(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape._record(op, inputs, out, backward_fn)
    return out


def _as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
    return Tensor._wrap(np.asarray(x, dtype=dtype))


def _check_pair(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 1 and len(sb) >= 1 and sa[0] == sb[-1]:
        return
    if len(sb) == 1 and len(sa) >= 1 and sb[0] == sa[-1]:
        return
    raise ValueError(
        f"{op}: shapes {sa} and {sb} are not broadcast-compatible "
        "(only same-shape, scalar, or last-axis channel vectors)"
    )


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    if shape == ():
        return g.sum(dtype=g.dtype).reshape(())
    # channel vector: sum over the leading axes
    lead = tuple(range(g.ndim - len(shape)))
    out = g.sum(axis=lead, dtype=g.dtype)
    if out.shape != tuple(shape):  # defensive; whitelist should preclude this
        raise ValueError(f"cannot reduce gradient of shape {g.shape} to {shape}")
    return out


def add(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_pair("add", a, b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _apply("add", (a, b), out, bwd)


def sub(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_pair("sub", a, b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _apply("sub", (a, b), out, bwd)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_pair("mul", a, b)
    ad, bd = a.data, b.data
    out = ad * bd

    def bwd(g):
        # an operand without requires_grad (a dropout mask) gets None,
        # not a full-size product that backward would discard
        ga = _unbroadcast(g * bd, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ad, b.shape) if b.requires_grad else None
        return ga, gb

    return _apply("mul", (a, b), out, bwd)


def div(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_pair("div", a, b)
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ad / bd

    def bwd(g):
        ga = _unbroadcast(g / bd, a.shape)
        gb = _unbroadcast(-g * ad / (bd * bd), b.shape)
        return ga, gb

    return _apply("div", (a, b), out, bwd)


def square(a: Tensor) -> Tensor:
    ad = a.data

    def bwd(g):
        return (g * (2.0 * ad).astype(ad.dtype),)

    return _apply("square", (a,), ad * ad, bwd)


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)

    def bwd(g):
        return (g * (0.5 / out),)

    return _apply("sqrt", (a,), out, bwd)


def tsum(a: Tensor, axis=None) -> Tensor:
    """Sum over all elements (axis=None, scalar result) or given axes."""
    shape = a.shape
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.full(shape, g.reshape(()), dtype=g.dtype),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        g_exp = g
        for ax in sorted(axes):
            g_exp = np.expand_dims(g_exp, ax)
        return (np.broadcast_to(g_exp, shape).astype(g.dtype, copy=True),)

    return _apply("sum", (a,), out, bwd)


def tmean(a: Tensor, axis=None) -> Tensor:
    shape = a.shape
    out = a.data.mean(axis=axis, dtype=a.data.dtype)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= shape[ax % len(shape)]

    def bwd(g):
        if axis is None:
            return (np.full(shape, g.reshape(()) / count, dtype=g.dtype),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        g_exp = g / np.asarray(count, dtype=g.dtype)
        for ax in sorted(axes):
            g_exp = np.expand_dims(g_exp, ax)
        return (np.broadcast_to(g_exp, shape).astype(g.dtype, copy=True),)

    return _apply("mean", (a,), out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return _apply("reshape", (a,), np.ascontiguousarray(out), bwd)


# ---------------------------------------------------------------------------
# numeric gradient oracle
# ---------------------------------------------------------------------------


def _scalar_value(y, where: str) -> float:
    if isinstance(y, Tensor):
        if y.data.size != 1:
            raise ValueError(f"{where}: function returned non-scalar shape {y.shape}")
        v = float(y.data.reshape(()))
    else:
        v = float(y)
    if not np.isfinite(v):
        raise NumericError(f"{where}: function returned non-finite value {v}")
    return v


def finite_difference_gradient(f: Callable[[Tensor], object], x: Tensor, h: float) -> Tensor:
    """Central-difference gradient of a scalar function, element by element.

    Runs in 64-bit mode only; 32-bit differences are too noisy for the
    tolerances the gradient suite asserts.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    if x.data.dtype != np.float64:
        raise ValueError("finite differences require a float64 tensor")
    base = x.data.copy()
    flat = base.ravel()
    grad = np.zeros_like(base)
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _scalar_value(f(Tensor._wrap(base.copy())), "finite_difference_gradient")
        flat[i] = orig - h
        fm = _scalar_value(f(Tensor._wrap(base.copy())), "finite_difference_gradient")
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return Tensor._wrap(grad)


@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-numeric gradient comparison."""

    passed: bool
    max_rel_error: float
    tolerance: float
    per_input: dict[int, float] = field(default_factory=dict)

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"grad_check {verdict}: max relative error {self.max_rel_error:.3e} vs tolerance {self.tolerance:.1e}"


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    tolerance: float,
    h: float = 1e-5,
) -> GradCheckReport:
    """Compare tape gradients of ``f(*inputs)`` against finite differences.

    ``f`` must return a scalar tensor; every input must be float64.
    Relative error is ``|a-n| / max(|a|, |n|, 1e-8)`` element-wise.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    inputs = list(inputs)
    for x in inputs:
        if x.data.dtype != np.float64:
            raise ValueError("grad_check runs in 64-bit mode; cast inputs to float64")
        x.requires_grad = True

    with GradTape() as tape:
        out = f(*inputs)
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise ValueError("grad_check requires f to return a scalar tensor")
        grads = backward(tape, out)

    max_err = 0.0
    per_input: dict[int, float] = {}
    for idx, x in enumerate(inputs):
        analytic = tape.gradient(grads, x)
        a = analytic.data if analytic is not None else np.zeros_like(x.data)

        def f_of_x(v: Tensor, _idx=idx) -> Tensor:
            args = list(inputs)
            args[_idx] = v
            return f(*args)

        numeric = finite_difference_gradient(f_of_x, x, h).data
        if a.shape != numeric.shape:
            raise ValueError(
                f"grad_check input {idx}: analytic shape {a.shape} != numeric shape {numeric.shape}"
            )
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        err = float(np.max(np.abs(a - numeric) / denom))
        per_input[idx] = err
        max_err = max(max_err, err)

    return GradCheckReport(
        passed=max_err < tolerance,
        max_rel_error=max_err,
        tolerance=tolerance,
        per_input=per_input,
    )

"""Dense float64 tensors with a tape for reverse-mode differentiation.

The op set is the minimum a small guided transformer needs: matrix
multiply, a linear layer (x W + b as one op), elementwise add/multiply,
scalar scaling, row softmax (plus a fused log-softmax for losses), layer
normalisation, row gather, concatenation and slicing, transpose,
GELU/tanh, an additive mask, multi-head attention fused into one op with
a hand-written backward, and a full reduction. Attention takes no mask:
it applies the causal rule itself, the rows in front of the token rows
exempt. Tensors are float64 and 1-D or 2-D; the row-wise ops take 2-D
operands, and the only broadcasting is adding a row to every row of an
n x k matrix: linear's (k,) bias, or a (k,) or (1, k) row given to add.

Recording is opt-in. Ops executed inside a ``record()`` block append one
tape entry each; outside a block they only compute values, which keeps
decoding cheap. ``Tape.backward`` replays the records in reverse, which
is reverse topological order because the tape is the execution order.

Gradient checking is part of the contract here, not an afterthought:
``finite_diff_check`` compares analytic gradients against central
differences coordinate by coordinate and reports per-parameter maxima.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GatherIndexError, ShapeError, TapeError

# Additive stand-in for -inf: exp() of anything this low underflows to
# exactly 0.0 in float64, so masked softmax weights are exactly zero while
# every stored value stays finite.
MASK_FILL = -1e30

LN_EPS = 1e-5

# central-difference steps finite_diff_check trusts: below this range
# cancellation error swamps float64, above it truncation error does
FD_STEP_RANGE = (1e-7, 1e-4)

_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """A float64 array plus a gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are 1-D or 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None

    def _bump(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Parameter:
    """A named, optionally trainable tensor.

    ``trainable`` is the sole gate an optimizer may consult; frozen
    parameters still pass gradients through during backprop, their values
    are just never updated.
    """

    __slots__ = ("name", "value", "trainable")

    def __init__(self, name: str, data, trainable: bool = True) -> None:
        self.name = name
        self.value = Tensor(np.array(data, dtype=np.float64))
        self.trainable = trainable

    @property
    def grad(self) -> np.ndarray | None:
        return self.value.grad

    def numel(self) -> int:
        return int(self.value.data.size)

    def __repr__(self) -> str:
        flag = "trainable" if self.trainable else "frozen"
        return f"Parameter({self.name!r}, shape={self.value.data.shape}, {flag})"


class Tape:
    """Ordered record of executed ops.

    Each entry is ``(output, pull)`` where ``pull`` routes the output's
    gradient into the inputs. Replaying entries last-to-first visits every
    node in reverse topological order exactly once.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._entries)

    def _append(self, out: Tensor, pull: Callable[[np.ndarray], None]) -> None:
        self._entries.append((out, pull))

    def backward(self, loss: Tensor) -> None:
        """Seed ``loss`` with gradient one and propagate to every input."""
        if self._consumed:
            raise TapeError("backward() was already run on this tape; record a fresh graph first")
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
        if not any(out is loss for out, _ in self._entries):
            raise TapeError("loss was not produced on this tape")
        loss.grad = np.ones_like(loss.data)
        for out, pull in reversed(self._entries):
            if out.grad is not None:
                pull(out.grad)
        self._consumed = True


_ACTIVE: Tape | None = None


@contextmanager
def record() -> Iterator[Tape]:
    """Run ops under a fresh tape; restores the previous tape on exit."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = Tape()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev


def _emit(out_data: np.ndarray, pull: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE is not None:
        _ACTIVE._append(out, pull)
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not chain: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def pull(g: np.ndarray) -> None:
        a._bump(g @ b.data.T)
        b._bump(a.data.T @ g)

    return _emit(out_data, pull)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x W + b as one tape entry; the (k,) bias is added to every row of the n x k product."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs 2-D operands, got {x.data.shape} @ {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes do not chain: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear bias {b.data.shape} does not match weight {w.data.shape}")
    out_data = x.data @ w.data + b.data

    def pull(g: np.ndarray) -> None:
        x._bump(g @ w.data.T)
        w._bump(x.data.T @ g)
        b._bump(g.sum(axis=0))

    return _emit(out_data, pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a (k,) or (1, k) row added to every row of an n x k ``a``."""
    if a.data.shape == b.data.shape:
        def pull(g: np.ndarray) -> None:
            a._bump(g)
            b._bump(g)
        return _emit(a.data + b.data, pull)
    if a.data.ndim == 2 and b.data.shape in ((a.data.shape[1],), (1, a.data.shape[1])):
        def pull(g: np.ndarray) -> None:
            a._bump(g)
            b._bump(g.sum(axis=0).reshape(b.data.shape))
        return _emit(a.data + b.data, pull)
    raise ShapeError(f"add shapes do not match: {a.data.shape} + {b.data.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes do not match: {a.data.shape} * {b.data.shape}")
    out_data = a.data * b.data

    def pull(g: np.ndarray) -> None:
        a._bump(g * b.data)
        b._bump(g * a.data)

    return _emit(out_data, pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def pull(g: np.ndarray) -> None:
        a._bump(g * c)

    return _emit(a.data * c, pull)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along each row of a 2-D operand; rows sum to one."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D operand, got shape {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def pull(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=1, keepdims=True)
        x._bump(p * (g - inner))

    return _emit(p, pull)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Log of row softmax of a 2-D operand, computed stably so outputs are always finite."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows needs a 2-D operand, got shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    p = np.exp(logp)

    def pull(g: np.ndarray) -> None:
        x._bump(g - p * g.sum(axis=1, keepdims=True))

    return _emit(logp, pull)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each row of a 2-D operand to zero mean / unit variance, then apply gain and bias.

    Population variance over the last axis, epsilon inside the square root.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-D operand, got shape {x.data.shape}")
    z = x.data
    k = z.shape[1]
    if gain.data.shape != (k,) or bias.data.shape != (k,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({k},), got {gain.data.shape} and {bias.data.shape}"
        )
    # np.add.reduce / k is bitwise what .mean computes, without its Python wrapper
    mu = np.add.reduce(z, axis=1, keepdims=True) / k
    xc = z - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / k
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv

    def pull(g: np.ndarray) -> None:
        bias._bump(g.sum(axis=0))
        gain._bump((g * xhat).sum(axis=0))
        dxhat = g * gain.data
        x._bump(inv * (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / k
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / k)
        ))

    return _emit(xhat * gain.data + bias.data, pull)


def gather_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a 2-D table, e.g. an embedding lookup."""
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-D table, got shape {table.data.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    size = table.data.shape[0]
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        offender = int(idx[bad][0])
        raise GatherIndexError(f"gather index {offender} out of range for table of {size} rows")
    out_data = table.data[idx]

    def pull(g: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _emit(out_data, pull)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if axis not in (0, 1):
        raise ShapeError(f"concat axis must be 0 or 1, got {axis}")
    if not parts:
        raise ShapeError("concat needs at least one operand")
    for p in parts:
        if p.data.ndim != 2:
            raise ShapeError(f"concat needs 2-D operands, got shape {p.data.shape}")
    if len({p.data.shape[1 - axis] for p in parts}) > 1:
        shapes = [p.data.shape for p in parts]
        raise ShapeError(f"concat along axis {axis} needs equal axis-{1 - axis} sizes, got shapes {shapes}")
    sizes = [p.data.shape[axis] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = list(accumulate(sizes, initial=0))
    kept = list(parts)

    def pull(g: np.ndarray) -> None:
        for p, lo, hi in zip(kept, offsets, offsets[1:]):
            p._bump(g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _emit(out_data, pull)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    return _slice(x, start, stop, axis=0)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    return _slice(x, start, stop, axis=1)


def _slice(x: Tensor, start: int, stop: int, axis: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice needs a 2-D operand, got shape {x.data.shape}")
    n = x.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis of size {n}")
    out_data = x.data[start:stop].copy() if axis == 0 else x.data[:, start:stop].copy()

    def pull(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        if axis == 0:
            x.grad[start:stop] += g
        else:
            x.grad[:, start:stop] += g

    return _emit(out_data, pull)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D operand, got shape {x.data.shape}")

    def pull(g: np.ndarray) -> None:
        x._bump(g.T)

    return _emit(x.data.T.copy(), pull)


def gelu(x: Tensor) -> Tensor:
    """GELU with the usual tanh approximation."""
    z = x.data
    u = _GELU_C * (z + 0.044715 * z ** 3)
    t = np.tanh(u)
    out_data = 0.5 * z * (1.0 + t)

    def pull(g: np.ndarray) -> None:
        du = _GELU_C * (1.0 + 3 * 0.044715 * z ** 2)
        dz = 0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * du
        x._bump(g * dz)

    return _emit(out_data, pull)


def tanh_act(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def pull(g: np.ndarray) -> None:
        x._bump(g * (1.0 - t * t))

    return _emit(t.copy(), pull)


def masked_fill(x: Tensor, mask: np.ndarray) -> Tensor:
    """Push masked positions to an effective -inf ahead of a softmax.

    The mask is plain data (True = blocked), applied additively so the op
    stays differentiable everywhere; after a softmax the blocked positions
    carry exactly zero weight.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.data.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match operand shape {x.data.shape}")
    out_data = x.data + np.where(mask, MASK_FILL, 0.0)

    def pull(g: np.ndarray) -> None:
        x._bump(g)

    return _emit(out_data, pull)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, causal: bool = False) -> Tensor:
    """Multi-head scaled dot-product attention as one tape entry.

    ``q`` is n x d, ``k`` and ``v`` are m x d (any prefix rows already in
    front); head h owns columns [h*dh, (h+1)*dh). Each head computes
    softmax_rows(masked_fill(scale(q_h @ k_h.T, 1/sqrt(dh)), mask)) @ v_h and
    the heads are joined by columns. Without ``causal`` nothing is masked.
    With it, query row i sees the m - n key rows in front of the token rows
    and token rows 0..i; the same n x m mask serves every head. A single
    query row (a cached decode step) sees every key, so it takes no mask.

    The result and the gradients are bitwise those of the per-head ops:
    heads are stacked as C-contiguous (heads, rows, dh) arrays and go
    through the same BLAS calls with the same transposed views, and every
    gradient handed on is C-contiguous, so downstream reductions sum in
    the same order.
    """
    n, d = q.data.shape
    m = k.data.shape[0]
    if n_heads < 1 or d % n_heads != 0:
        raise ShapeError(f"attention width {d} is not a positive multiple of {n_heads} heads")
    if k.data.shape != (m, d) or v.data.shape != (m, d):
        raise ShapeError(f"attention keys {k.data.shape} and values {v.data.shape} must both be (m, {d})")
    if causal and m < n:
        raise ShapeError(f"causal attention needs at least as many keys ({m}) as queries ({n})")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    Q = np.ascontiguousarray(q.data.reshape(n, n_heads, dh).transpose(1, 0, 2))
    Kt = np.ascontiguousarray(k.data.reshape(m, n_heads, dh).transpose(1, 2, 0))
    V = np.ascontiguousarray(v.data.reshape(m, n_heads, dh).transpose(1, 0, 2))
    s = (Q @ Kt) * c
    if causal and n > 1:
        # key column m - n + j holds token row j, hidden from every query row i < j
        s = s + np.where(np.triu(np.ones((n, m), dtype=bool), k=m - n + 1), MASK_FILL, 0.0)
    s = s - s.max(axis=2, keepdims=True)
    e = np.exp(s)
    P = e / e.sum(axis=2, keepdims=True)
    out_data = (P @ V).transpose(1, 0, 2).reshape(n, d)

    def pull(g: np.ndarray) -> None:
        G = np.ascontiguousarray(g.reshape(n, n_heads, dh).transpose(1, 0, 2))
        dP = G @ V.transpose(0, 2, 1)
        dV = P.transpose(0, 2, 1) @ G
        dS = P * (dP - (dP * P).sum(axis=2, keepdims=True)) * c
        dQ = dS @ Kt.transpose(0, 2, 1)
        dKt = Q.transpose(0, 2, 1) @ dS
        q._bump(np.ascontiguousarray(dQ.transpose(1, 0, 2).reshape(n, d)))
        k._bump(np.ascontiguousarray(dKt.transpose(2, 0, 1).reshape(m, d)))
        v._bump(np.ascontiguousarray(dV.transpose(1, 0, 2).reshape(m, d)))

    return _emit(out_data, pull)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum every element down to a scalar."""
    shape = x.data.shape

    def pull(g: np.ndarray) -> None:
        x._bump(np.full(shape, float(g)))

    return _emit(np.asarray(x.data.sum()), pull)


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference sweep over trainable coordinates."""

    max_rel_error: float
    per_param: dict[str, float]
    worst_param: str | None
    worst_index: int
    nonfinite: list[tuple[str, int]] = field(default_factory=list)
    coords_checked: int = 0
    tol: float = 1e-5

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        worst = f"{self.worst_param}[{self.worst_index}]" if self.worst_param else "n/a"
        return (
            f"gradcheck {status}: max rel err {self.max_rel_error:.3e} at {worst} "
            f"({self.coords_checked} coordinates, tol {self.tol:g}, "
            f"{len(self.nonfinite)} non-finite probes)"
        )


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    h: float = 1e-5,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` with central differences.

    ``f`` must be deterministic and return a scalar Tensor. Every
    coordinate of every trainable parameter is perturbed by +/- h; a
    non-finite probe value is reported per coordinate rather than
    aborting the sweep.
    """
    lo, hi = FD_STEP_RANGE
    if not (lo <= h <= hi):
        raise ValueError(f"finite-difference step h={h:g} outside the trusted range [{lo:g}, {hi:g}]")

    checked = [p for p in params if p.trainable]
    for p in checked:
        p.value.grad = None
    with record() as tape:
        out = f()
    tape.backward(out)
    analytic = {
        p.name: (np.zeros_like(p.value.data) if p.value.grad is None else p.value.grad.copy())
        for p in checked
    }

    per_param: dict[str, float] = {}
    nonfinite: list[tuple[str, int]] = []
    worst = (0.0, None, -1)
    coords = 0
    for p in checked:
        flat = p.value.data.reshape(-1)
        grad_flat = analytic[p.name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f().data.reshape(()).item())
            flat[i] = orig - h
            lo = float(f().data.reshape(()).item())
            flat[i] = orig
            coords += 1
            if not (math.isfinite(hi) and math.isfinite(lo)):
                nonfinite.append((p.name, i))
                continue
            numeric = (hi - lo) / (2.0 * h)
            err = _rel_err(float(grad_flat[i]), numeric)
            if err > worst_here:
                worst_here = err
            if err > worst[0]:
                worst = (err, p.name, i)
        per_param[p.name] = worst_here

    return GradCheckReport(
        max_rel_error=worst[0],
        per_param=per_param,
        worst_param=worst[1],
        worst_index=worst[2],
        nonfinite=nonfinite,
        coords_checked=coords,
        tol=tol,
    )

"""Differentiable layers, hand-implemented on numpy in float64.

Conventions shared by every layer:

- Arrays are batch-first: (batch, features) for flat data, (batch, time,
  features) for sequences.
- ``forward(x, keep_cache=True)`` returns ``(y, cache)``;
  ``backward(grad, cache)`` returns ``(grad_input, param_grads)`` where
  param_grads maps the layer's local tensor names to gradient arrays of
  matching shape.
- A cache is single-use, like a framework's autograd graph that is freed
  after backward: pass it to ``backward`` once and drop it.  ``backward``
  may reuse the cache's buffers for its own results; LSTM writes each
  step's gate gradients over that step's activated gates and raises
  ``UsageError`` when handed a cache it has already consumed.
- ``keep_cache=False`` is the cache-free forward used for scoring and by
  the gradient checker: the output is bit-identical, and the layer may
  skip keeping what only ``backward`` needs.  LSTM then reuses one slot of
  recurrent state for every time step instead of storing each step's
  gates and cell state, and returns ``None`` as its cache.  The other
  layers' caches are the input or shape they hold anyway, so they ignore
  the flag.
- A layer's configuration is its constructor's arguments.  Each one is
  annotated ``int``, ``bool`` or ``list`` and kept under its own name
  (a tuple may be kept for a list), so ``Layer.spec()``, the checkpoint
  entry, reads them back from the attributes, ``layer_from_spec`` checks
  a checkpoint's values against the annotations, and ``describe()``, the
  prefix of every ``ShapeError``, is built from the spec.
- Parameters live in ``self.params()`` as named float64 arrays.  Optimizers
  update them in place, and the gradient checker shifts one entry at a
  time in place, so a layer derives nothing from them that outlives one
  ``forward`` call.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, UsageError
from ..rng import SplitMix64, derive_seed
from ..util import field_types, typed_value


# Time steps of the LSTM input projection computed per matmul.
PROJECTION_STEPS = 8


def _glorot(rng: SplitMix64, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    n = int(np.prod(shape))
    return (2.0 * rng.uniforms(n) - 1.0).reshape(shape) * limit


class Layer:
    """Base class; stateless layers inherit the no-op parameter hooks."""

    def params(self):
        return {}

    def init_params(self, seed):
        pass

    def spec(self):
        """The checkpoint entry: the kind and each constructor argument."""
        spec = {"kind": type(self).__name__}
        # The annotations, in argument order; inspect.signature would parse
        # object's text signature on every call for the layers without one.
        for name in field_types(type(self).__init__):
            value = getattr(self, name)
            spec[name] = list(value) if isinstance(value, tuple) else value
        return spec

    def describe(self):
        """The layer as it was built, e.g. ``Dense(in_dim=4,units=3)``."""
        args = ",".join(f"{k}={v}" for k, v in self.spec().items() if k != "kind")
        return f"{type(self).__name__}({args})"

    def forward(self, x, keep_cache=True):
        raise NotImplementedError

    def backward(self, grad, cache):
        raise NotImplementedError


class Dense(Layer):
    """Affine map on the last axis: y = x @ W + b.

    Works on (batch, in_dim) and on (batch, time, in_dim); in the latter
    case the same weights apply at every time step.
    """

    def __init__(self, in_dim: int, units: int):
        self.in_dim = int(in_dim)
        self.units = int(units)
        self.W = np.zeros((self.in_dim, self.units))
        self.b = np.zeros(self.units)

    def params(self):
        return {"W": self.W, "b": self.b}

    def init_params(self, seed):
        self.W = _glorot(SplitMix64(derive_seed(seed, "W")),
                         (self.in_dim, self.units), self.in_dim, self.units)
        self.b = np.zeros(self.units)

    def forward(self, x, keep_cache=True):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"{self.describe()}: expected last axis {self.in_dim}, "
                             f"got {x.shape}")
        y = x @ self.W
        y += self.b
        return y, x

    def backward(self, grad, cache):
        x = cache
        if grad.shape != x.shape[:-1] + (self.units,):
            raise ShapeError(f"{self.describe()}: gradient shape {grad.shape} does not "
                             f"match cached input {x.shape}")
        x2 = x.reshape(-1, self.in_dim)
        g2 = grad.reshape(-1, self.units)
        return grad @ self.W.T, {"W": x2.T @ g2, "b": g2.sum(axis=0)}


class Tanh(Layer):
    def forward(self, x, keep_cache=True):
        y = np.tanh(x)
        return y, y

    def backward(self, grad, cache):
        return grad * (1.0 - cache * cache), {}


class Conv1D(Layer):
    """1-D convolution over time, stride 1, same length (kernel size 2 by default).

    Input (batch, time, in_channels), output (batch, time, filters).  The
    input is zero-padded on the right so output length equals input length.

    The forward is one matmul of a column matrix (im2col; Chellapilla et
    al. 2006) with the (kernel*in_channels, filters) weights.  The columns
    go into one preallocated (batch, time, kernel*in_channels) buffer: the
    block of offset o holds x shifted o steps earlier, and its last o rows
    are the zero pad.  Splitting the matmul per offset, x@W0 + shift(x)@W1,
    needs no columns at all, but it rounds differently (by up to 5e-15)
    and was no faster in total, so the single matmul stays.  The backward
    folds the column gradient back onto the input with one shifted
    ``+=`` per offset, in the same order as the column blocks.
    """

    def __init__(self, in_channels: int, filters: int, kernel_size: int = 2):
        self.in_channels = int(in_channels)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        if self.kernel_size < 1:
            raise ShapeError(f"{self.describe()}: kernel_size must be >= 1")
        self.W = np.zeros((self.kernel_size, self.in_channels, self.filters))
        self.b = np.zeros(self.filters)

    def params(self):
        return {"W": self.W, "b": self.b}

    def init_params(self, seed):
        fan_in = self.kernel_size * self.in_channels
        self.W = _glorot(SplitMix64(derive_seed(seed, "W")),
                         (self.kernel_size, self.in_channels, self.filters),
                         fan_in, self.filters)
        self.b = np.zeros(self.filters)

    def _columns(self, x):
        # (batch, time, kernel*channels): each time step sees offsets 0..k-1.
        batch, time, ch = x.shape
        xcol = np.empty((batch, time, self.kernel_size * ch))
        for o in range(self.kernel_size):
            block = xcol[:, :, o * ch:(o + 1) * ch]
            n = max(time - o, 0)  # the kernel may be longer than the input
            block[:, :n] = x[:, o:]
            block[:, n:] = 0.0
        return xcol

    def forward(self, x, keep_cache=True):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(f"{self.describe()}: expected (batch, time, "
                             f"{self.in_channels}), got {x.shape}")
        xcol = self._columns(x)
        y = xcol @ self.W.reshape(-1, self.filters)
        y += self.b
        return y, xcol

    def backward(self, grad, cache):
        xcol = cache
        time = xcol.shape[1]
        ch = self.in_channels
        g2 = grad.reshape(-1, self.filters)
        gw = (xcol.reshape(-1, self.kernel_size * ch).T @ g2).reshape(self.W.shape)
        dxcol = grad @ self.W.reshape(-1, self.filters).T
        dx = dxcol[:, :, :ch].copy()
        for o in range(1, min(self.kernel_size, time)):
            dx[:, o:] += dxcol[:, :time - o, o * ch:(o + 1) * ch]
        return dx, {"W": gw, "b": g2.sum(axis=0)}


class MaxPool1D(Layer):
    """Max over non-overlapping time windows: (B, T, C) -> (B, T/p, C).

    The forward walks the p positions of each window with ``np.maximum``
    and records, in a small integer array, the position whose value is
    strictly greater (``>``) than the running maximum.  A tie therefore
    keeps the earliest position, which receives the whole gradient.  A
    NaN anywhere in a window makes its output NaN; where the NaN is not at
    the first position, the gradient goes to an earlier position, not to
    the NaN as under ``argmax``.  The backward writes each position's
    share of the gradient, the gradient itself where that position won
    and +0.0 elsewhere, into one buffer.
    """

    def __init__(self, pool_size: int = 2):
        self.pool_size = int(pool_size)
        if self.pool_size < 1:
            raise ShapeError(f"{self.describe()}: pool_size must be >= 1")

    def forward(self, x, keep_cache=True):
        p = self.pool_size
        if x.ndim != 3 or x.shape[1] % p != 0:
            raise ShapeError(f"{self.describe()}: time axis of {x.shape} not divisible by {p}")
        batch, time, ch = x.shape
        xr = x.reshape(batch, time // p, p, ch)
        y = xr[:, :, 0].copy()
        arg = np.zeros(y.shape, dtype=np.min_scalar_type(p - 1))
        for k in range(1, p):
            xk = xr[:, :, k]
            arg[xk > y] = k
            np.maximum(y, xk, out=y)
        return y, (arg, x.shape)

    def backward(self, grad, cache):
        arg, shape = cache
        batch, time, ch = shape
        p = self.pool_size
        dxr = np.empty((batch, time // p, p, ch))
        # AND with an all-ones or all-zeros mask copies the gradient's bits
        # or writes +0.0; multiplying by the mask would write -0.0 under a
        # negative gradient and NaN under an infinite one.
        bits = np.asarray(grad, dtype=np.float64).view(np.int64)
        out = dxr.view(np.int64)
        for k in range(p):
            np.bitwise_and(bits, -(arg == k).view(np.int8), out=out[:, :, k])
        return dxr.reshape(shape), {}


class Upsample1D(Layer):
    """Nearest-neighbor repeat along time: (B, T, C) -> (B, T*factor, C)."""

    def __init__(self, factor: int = 2):
        self.factor = int(factor)
        if self.factor < 1:
            raise ShapeError(f"{self.describe()}: factor must be >= 1")

    def forward(self, x, keep_cache=True):
        if x.ndim != 3:
            raise ShapeError(f"{self.describe()}: expected 3-d input, got {x.shape}")
        return np.repeat(x, self.factor, axis=1), x.shape

    def backward(self, grad, cache):
        batch, time, ch = cache
        g = grad.reshape(batch, time, self.factor, ch)
        # Added in the order of the sum over the factor axis it replaces,
        # which starts from +0.0 (hence "+ 0.0", not a copy).
        dx = g[:, :, 0] + 0.0
        for k in range(1, self.factor):
            dx += g[:, :, k]
        return dx, {}


class RepeatLast(Layer):
    """Repeat a flat vector across time: (B, U) -> (B, repeat_count, U)."""

    def __init__(self, repeat_count: int):
        self.repeat_count = int(repeat_count)

    def forward(self, x, keep_cache=True):
        if x.ndim != 2:
            raise ShapeError(f"{self.describe()}: expected 2-d input, got {x.shape}")
        return np.repeat(x[:, None, :], self.repeat_count, axis=1), None

    def backward(self, grad, cache):
        return grad.sum(axis=1), {}


class Flatten(Layer):
    """(B, T, C) -> (B, T*C)."""

    def forward(self, x, keep_cache=True):
        if x.ndim != 3:
            raise ShapeError(f"{self.describe()}: expected 3-d input, got {x.shape}")
        # Explicit column count: reshape(-1) cannot infer it for zero rows.
        batch, time, ch = x.shape
        return x.reshape(batch, time * ch), x.shape

    def backward(self, grad, cache):
        return grad.reshape(cache), {}


class Reshape(Layer):
    """(B, N) -> (B, *target_shape)."""

    def __init__(self, target_shape: list):
        self.target_shape = tuple(int(v) for v in target_shape)

    def forward(self, x, keep_cache=True):
        want = int(np.prod(self.target_shape))
        if x.ndim != 2 or x.shape[1] != want:
            raise ShapeError(f"{self.describe()}: expected (batch, {want}), "
                             f"got {x.shape}")
        return x.reshape((x.shape[0],) + self.target_shape), x.shape

    def backward(self, grad, cache):
        return grad.reshape(cache), {}


class LSTM(Layer):
    """Single LSTM layer, gate order (input, forget, cell, output).

    z_t = x_t @ W + h_{t-1} @ U + b, split into four gates i, f, g, o with
    sigmoid on i/f/o and tanh on g; c_t = f*c_{t-1} + i*g; h_t = o*tanh(c_t).
    With return_sequences the output is (B, T, units), otherwise the last
    h_T as (B, units).

    One ``tanh`` per step activates all four gates at once, using
    sigmoid(z) = 0.5 * (1 + tanh(z / 2)): the i/f/o columns are scaled by
    0.5 on the way in and mapped back with ``* 0.5 + 0.5``, the g columns
    pass through with scale 1 and shift 0.  Halving is exact in binary
    floating point, so the 0.5 is folded into W, U and b once per call.
    The activated gates of every step live in one fused buffer (Appleyard
    et al. 2016, arXiv:1604.01946, fuse the gates the same way), written
    in place.  Inside the layer every buffer is time-major, (T, B, ...),
    so that each step reads and writes contiguous (B, ...) slices; a
    batch-major slice [:, t] is strided and made elementwise ops several
    times slower.  The sequence output is a (B, T, units) view of it.
    The cache holds the input, h, c and the activated gates of every step;
    backward recomputes tanh(c_t) into one (B, u) buffer, by the same call
    on the same input, so it needs no (T, B, u) buffer of its own.
    """

    def __init__(self, in_dim: int, units: int, return_sequences: bool = True):
        self.in_dim = int(in_dim)
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        u = self.units
        self.W = np.zeros((self.in_dim, 4 * u))
        self.U = np.zeros((u, 4 * u))
        self.b = np.zeros(4 * u)
        # Per-column constants: a = tanh(z * scale) * scale + shift, and
        # da/dz = a * (is_sigmoid - a) + is_tanh.
        self._is_sigmoid = np.ones(4 * u)
        self._is_sigmoid[2 * u:3 * u] = 0.0
        self._is_tanh = 1.0 - self._is_sigmoid
        self._scale = 1.0 - 0.5 * self._is_sigmoid
        self._shift = 0.5 * self._is_sigmoid

    def params(self):
        return {"W": self.W, "U": self.U, "b": self.b}

    def init_params(self, seed):
        u = self.units
        self.W = _glorot(SplitMix64(derive_seed(seed, "W")),
                         (self.in_dim, 4 * u), self.in_dim, 4 * u)
        self.U = _glorot(SplitMix64(derive_seed(seed, "U")), (u, 4 * u), u, 4 * u)
        self.b = np.zeros(4 * u)
        self.b[u:2 * u] = 1.0  # forget-gate bias starts open

    def forward(self, x, keep_cache=True):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"{self.describe()}: expected (batch, time, "
                             f"{self.in_dim}), got {x.shape}")
        batch, time, _ = x.shape
        u = self.units
        scale, shift = self._scale, self._shift
        # Time-major inside the layer, so that every step's slice is contiguous.
        xt = np.ascontiguousarray(x.transpose(1, 0, 2))
        Ws, bs, Us = self.W * scale, self.b * scale, self.U * scale
        # The input projection x_t @ W + b of PROJECTION_STEPS steps at a
        # time, into one reused block; a whole chunk at once would be a
        # (T, B, 4u) array.  Each step's rows are the same matmul either way.
        pre = np.empty((min(PROJECTION_STEPS, time), batch, 4 * u))

        # Without a cache, one slot per buffer is reused by every step; the
        # output still needs all T steps of h when it is the sequence.
        slots = time if keep_cache else 1
        h_slots = time if keep_cache or self.return_sequences else 1
        gates = np.empty((slots, batch, 4 * u))
        cs = np.empty((slots, batch, u))
        hs = np.empty((h_slots, batch, u))
        ig = np.empty((batch, u))
        tc = np.empty((batch, u))
        h = np.zeros((batch, u))
        c = np.zeros((batch, u))
        for t in range(time):
            if t % PROJECTION_STEPS == 0:
                xs = xt[t:t + PROJECTION_STEPS]
                block = pre[:len(xs)]
                np.matmul(xs, Ws, out=block)
                block += bs
            a = gates[t % slots]
            np.matmul(h, Us, out=a)
            a += pre[t % PROJECTION_STEPS]
            np.tanh(a, out=a)
            a *= scale
            a += shift
            c_next = cs[t % slots]
            np.multiply(a[:, u:2 * u], c, out=c_next)
            np.multiply(a[:, :u], a[:, 2 * u:3 * u], out=ig)
            c_next += ig
            c = c_next
            np.tanh(c, out=tc)
            h = hs[t % h_slots]
            np.multiply(a[:, 3 * u:], tc, out=h)
        out = hs.transpose(1, 0, 2) if self.return_sequences else h
        cache = (xt, hs, cs, gates) if keep_cache else None
        return out, cache

    def backward(self, grad, cache):
        xt, hs, cs, gates = cache
        if not gates.flags.writeable:
            raise UsageError(f"{self.describe()}: this cache was already consumed "
                             f"by a backward pass; run forward again")
        time, batch, _ = xt.shape
        u = self.units
        if self.return_sequences:
            if grad.shape != (batch, time, u):
                raise ShapeError(f"{self.describe()}: gradient shape {grad.shape} "
                                 f"does not match output {(batch, time, u)}")
            grad_t = grad.transpose(1, 0, 2)
            dh = np.zeros((batch, u))
        else:
            if grad.shape != (batch, u):
                raise ShapeError(f"{self.describe()}: gradient shape {grad.shape} "
                                 f"does not match output {(batch, u)}")
            dh = grad.copy()

        # Each step's dz overwrites that step's activated gates, which are
        # read for the last time in the same step, so ``gates`` ends up
        # holding every dz and no (T, B, 4u) buffer is allocated.
        dc = np.zeros((batch, u))
        dtc = np.empty((batch, u))
        tc = np.empty((batch, u))
        swap = np.empty((batch, u))
        deriv = np.empty((batch, 4 * u))
        Ut = self.U.T
        for t in range(time - 1, -1, -1):
            if self.return_sequences:
                dh += grad_t[t]
            a = gates[t]
            np.tanh(cs[t], out=tc)
            # dL/dc_t = dh * o * (1 - tanh(c)^2) + dc, with o * tanh(c) = h.
            np.multiply(hs[t], tc, out=dtc)
            np.subtract(a[:, 3 * u:], dtc, out=dtc)
            dtc *= dh
            dtc += dc
            # Gate derivatives: a * (1 - a) for sigmoid, 1 - a^2 for tanh.
            np.subtract(self._is_sigmoid, a, out=deriv)
            deriv *= a
            deriv += self._is_tanh
            np.multiply(dtc, a[:, u:2 * u], out=dc)
            # From here on a becomes dz: dz_i = dtc * g and dz_g = dtc * i
            # swap through one (B, u) temporary.
            np.multiply(dtc, a[:, :u], out=swap)
            np.multiply(dtc, a[:, 2 * u:3 * u], out=a[:, :u])
            a[:, 2 * u:3 * u] = swap
            if t:
                np.multiply(dtc, cs[t - 1], out=a[:, u:2 * u])
            else:
                a[:, u:2 * u] = 0.0
            np.multiply(dh, tc, out=a[:, 3 * u:])
            a *= deriv
            np.matmul(a, Ut, out=dh)
        dz_all = gates
        dz_all.flags.writeable = False  # marks the cache as consumed
        dz2 = dz_all.reshape(-1, 4 * u)
        grads = {
            "W": xt.reshape(-1, self.in_dim).T @ dz2,
            "U": hs[:-1].reshape(-1, u).T @ dz_all[1:].reshape(-1, 4 * u),
            "b": dz2.sum(axis=0),
        }
        return (dz_all @ self.W.T).transpose(1, 0, 2), grads


LAYER_KINDS = {cls.__name__: cls for cls in
               (Dense, Tanh, Conv1D, MaxPool1D, Upsample1D, LSTM,
                RepeatLast, Flatten, Reshape)}


def layer_from_spec(spec: dict, what="layer") -> Layer:
    """The layer a ``spec()`` describes, with every constructor argument given.

    A missing argument, a value that does not have its argument's annotated
    type, such as ``"units": 64.7``, and a list element that is not an
    integer (a list argument is a shape) are each a ``UsageError`` naming it.
    """
    kind = spec.get("kind")
    if kind not in LAYER_KINDS:
        raise ShapeError(f"unknown layer kind {kind!r}")
    cls = LAYER_KINDS[kind]
    types = field_types(cls.__init__)
    missing = [k for k in types if k not in spec]
    if missing:
        raise UsageError(f"{kind} {what} lacks the key {missing[0]!r}")
    kwargs = {k: typed_value(v, types[k], f"{k} of {what}", UsageError)
              if k in types else v for k, v in spec.items() if k != "kind"}
    for k in [k for k, tp in types.items() if tp is list]:
        for i, item in enumerate(kwargs[k]):
            typed_value(item, int, f"{k}[{i}] of {what}", UsageError)
    return cls(**kwargs)

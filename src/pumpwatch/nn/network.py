"""Layer stack container: forward/backward wiring and checkpoint I/O.

Parameter names are "L{index}.{local}", e.g. "L0.W", "L5.b".  Checkpoints
are a single JSON document holding the layer specs plus every parameter
tensor as base64-encoded little-endian float64 bytes, so save/load is
lossless and byte-deterministic (no archive timestamps, no text rounding).
"""

from __future__ import annotations

import base64
from collections import OrderedDict

import numpy as np

from ..errors import ShapeError, UsageError
from ..rng import derive_seed
from ..util import read_json, typed_fields, write_json
from .layers import layer_from_spec

_CHECKPOINT_TAG = "pumpwatch-model-v1"
_CHECKPOINT = {"format": str, "layers": list, "params": dict}
_TENSOR = {"shape": list, "data": str}

# Rows per chunk of ``by_chunks``, which bounds the memory of all scoring:
# ``Network.predict`` runs one forward per chunk, and the score stage of the
# harness calls every detector's ``window_errors`` per chunk.  Measured on 2
# cores with one OpenBLAS thread and numpy 2.4.6: on 640 windows a 3-channel
# CNN holds a tracemalloc peak of 16.0 / 11.3 / 8.1 MiB at 512 / 256 / 128
# rows, and a 3-channel LSTM (n=64) 34.6 / 18.8 / 10.0 MiB; 256 is also no
# slower.  The CNN's largest column buffer is one block of
# ``layers.COLUMN_WINDOWS`` windows, 4.2 MB, at any of these chunk sizes.
# glibc sets its heap trim threshold to twice the largest mmapped block
# freed so far.  While a 128-row chunk held the CNN's whole column matrix,
# that left the threshold below what one training step frees, so every step
# of a later fit returned its memory and faulted it back in: 102k minor
# faults per train_conv_dense benchmark call against 5k at 256 rows, and
# 7-18% more wall time.  With the blocked columns 128 rows take 2.0k faults
# and 45.5 MiB max RSS (47.5 at 256), but the chunk size is part of the
# outputs: BM_PCA and DNN window errors are 2-D matmuls whose last bits
# depend on the row count, so 128 rows change their timelines and reports.
PREDICT_ROWS = 256


def by_chunks(fn, x, rows=PREDICT_ROWS):
    """``fn`` applied to each ``rows``-row chunk of ``x``, written into one new array.

    Only one chunk's temporaries are alive at a time, beside the output.  An
    empty ``x`` still makes one call, which gives the output its trailing
    shape and dtype.  ``fn`` must return one row per row of its chunk.
    """
    out = None
    for start in range(0, max(len(x), 1), rows):
        chunk = x[start:start + rows]
        part = fn(chunk)
        if len(part) != len(chunk):
            raise ShapeError(f"{len(chunk)} rows in, {len(part)} rows out")
        if out is None:
            out = np.empty((len(x),) + part.shape[1:], dtype=part.dtype)
        out[start:start + len(chunk)] = part
    return out


def mse_loss(output, target):
    """Mean over all elements of squared difference; returns (value, grad)."""
    if output.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {output.shape} vs {target.shape}")
    diff = output - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


class Network:
    def __init__(self, layers):
        self.layers = list(layers)

    def initialize(self, seed):
        """Draw fresh weights; every layer gets its own derived stream."""
        for idx, layer in enumerate(self.layers):
            layer.init_params(derive_seed(seed, "layer", idx))
        return self

    def forward(self, x, keep_caches=True):
        """Run all layers; returns (output, caches).

        With keep_caches=False the forward is cache-free: each layer is
        called with keep_cache=False, so LSTM layers keep one reused slot of
        recurrent state instead of every step's gates, and the caches that
        other layers return are dropped as soon as the next layer has run.
        ``caches`` is then None, large inference batches stay memory-flat,
        and the output is bit-identical to the cached forward.  ``predict``
        and the gradient checker use it.
        """
        caches = [] if keep_caches else None
        for idx, layer in enumerate(self.layers):
            try:
                x, cache = layer.forward(np.asarray(x, dtype=np.float64), keep_caches)
            except ShapeError as e:
                raise ShapeError(f"layer {idx}: {e}")
            if keep_caches:
                caches.append(cache)
        return x, caches

    def backward(self, loss_grad, caches):
        """Propagate the loss gradient; returns {param_name: gradient}.

        The caches are single-use: each layer's cache is popped off the
        list as the walk reaches it, so its activations are freed as soon
        as that layer's gradient is done, and the list is empty afterwards.
        A second call on the same list raises ``UsageError``.
        """
        if caches is None or len(caches) != len(self.layers):
            raise UsageError("backward needs the caches from a matching forward "
                             "call; caches are used up by one backward")
        grads = {}
        grad = loss_grad
        for idx in range(len(self.layers) - 1, -1, -1):
            grad, pgrads = self.layers[idx].backward(grad, caches.pop())
            for local, g in pgrads.items():
                grads[f"L{idx}.{local}"] = g
        return grads

    def predict(self, x):
        """Forward pass in chunks of ``PREDICT_ROWS`` rows without retaining caches.

        The chunk bounds the memory of inference: a chunk's activations are
        freed before the next chunk runs, and each chunk's output is written
        into one preallocated array (``by_chunks``), which is always a new
        array.
        """
        return by_chunks(lambda chunk: self.forward(chunk, keep_caches=False)[0], x)

    def parameters(self) -> OrderedDict:
        """Live references, ordered by layer then local name."""
        out = OrderedDict()
        for idx, layer in enumerate(self.layers):
            for local, arr in layer.params().items():
                out[f"L{idx}.{local}"] = arr
        return out

    def set_parameters(self, values: dict):
        params = self.parameters()
        if set(values) != set(params):
            raise UsageError(f"parameter names do not match: "
                             f"{sorted(set(values) ^ set(params))}")
        for name, arr in params.items():
            src = np.asarray(values[name], dtype=np.float64)
            if src.shape != arr.shape:
                raise ShapeError(f"{name}: shape {src.shape} != {arr.shape}")
            arr[...] = src

    def param_count(self) -> int:
        return sum(arr.size for arr in self.parameters().values())

    def save(self, path):
        doc = {"format": _CHECKPOINT_TAG,
               "layers": [layer.spec() for layer in self.layers],
               "params": {}}
        for name, arr in self.parameters().items():
            doc["params"][name] = {
                "shape": list(arr.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
            }
        write_json(doc, path)

    @classmethod
    def load(cls, path):
        """A saved network, each layer checked by ``layer_from_spec`` and each tensor finite;
        the document and each tensor entry hold exactly the keys ``save`` writes."""
        doc = read_json(path)
        tag = doc.get("format") if isinstance(doc, dict) else None
        if tag != _CHECKPOINT_TAG:
            raise UsageError(f"{path} is not a model checkpoint: format tag {tag!r}")
        doc = typed_fields(doc, _CHECKPOINT, str(path), UsageError, required=_CHECKPOINT)
        try:
            net = cls([layer_from_spec(s, f"layer {idx} of {path}")
                       for idx, s in enumerate(doc["layers"])])
            values = {}
            for name, entry in doc["params"].items():
                entry = typed_fields(entry, _TENSOR, f"tensor {name} of {path}", UsageError,
                                     required=_TENSOR)
                raw = base64.b64decode(entry["data"])
                values[name] = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()
                if not np.isfinite(values[name]).all():
                    raise UsageError(f"{name} in {path} must be finite")
        except (TypeError, ValueError) as e:  # a size no layer or tensor can take
            raise UsageError(f"{path} is a malformed model checkpoint: {e!r}")
        net.set_parameters(values)
        return net

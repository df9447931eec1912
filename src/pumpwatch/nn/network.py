"""Layer stack container: forward/backward wiring and checkpoint I/O.

Parameter names are "L{index}.{local}", e.g. "L0.W", "L5.b".  Checkpoints
are a single JSON document holding the layer specs plus every parameter
tensor as base64-encoded little-endian float64 bytes, so save/load is
lossless and byte-deterministic (no archive timestamps, no text rounding).
"""

from __future__ import annotations

import base64
import json
from collections import OrderedDict

import numpy as np

from ..errors import ShapeError, UsageError
from ..rng import derive_seed
from ..util import read_json
from .layers import layer_from_spec

_CHECKPOINT_TAG = "pumpwatch-model-v1"

# Rows per forward in ``Network.predict``.  Measured on 2 cores with one
# OpenBLAS thread and numpy 2.4.6: on 640 windows a 3-channel CNN
# holds a tracemalloc peak of 28.1 / 14.4 / 7.8 MiB at 512 / 256 / 128 rows,
# and a 3-channel LSTM (n=64) 34.6 / 17.8 / 9.6 MiB; 256 is also no slower.
# 128 is worse: glibc sets its heap trim threshold to twice the largest
# mmapped block freed so far, and at 128 rows the CNN's largest column
# buffer (4.2 MB) leaves it below what one training step frees, so every
# step of a later fit returns its memory and faults it back in: a
# train_conv_dense benchmark call took about 96k minor faults against 6k at
# 256 rows, and 18% more wall time.
PREDICT_ROWS = 256


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

    def predict(self, x, batch_size=PREDICT_ROWS):
        """Forward pass in chunks of ``batch_size`` rows without retaining caches.

        The chunk bounds the memory of inference: a chunk's activations are
        freed before the next chunk runs.  The default of 256 rows
        (``PREDICT_ROWS``) holds half the activations of 512 at no loss of
        speed; 128 would hold less again, but then the heap returns every
        later training step's memory to the OS and faults it back in.
        The output is always a new array.
        """
        if (not isinstance(batch_size, (int, np.integer)) or isinstance(batch_size, bool)
                or batch_size < 1):
            raise UsageError(f"batch_size must be a positive integer, got {batch_size!r}")
        outs = []
        # An empty x still runs one forward, which gives the empty output.
        for start in range(0, max(len(x), 1), batch_size):
            out, _ = self.forward(x[start:start + batch_size], keep_caches=False)
            outs.append(out)
        return np.concatenate(outs, axis=0)

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
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
            f.write("\n")

    @classmethod
    def load(cls, path):
        doc = read_json(path)
        tag = doc.get("format") if isinstance(doc, dict) else None
        if tag != _CHECKPOINT_TAG:
            raise UsageError(f"{path} is not a model checkpoint: format tag {tag!r}")
        try:
            net = cls([layer_from_spec(s) for s in doc["layers"]])
            values = {}
            for name, entry in doc["params"].items():
                raw = base64.b64decode(entry["data"])
                values[name] = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise UsageError(f"{path} is a malformed model checkpoint: {e!r}")
        net.set_parameters(values)
        return net

"""Finite-difference gradient verification.

For each selected parameter entry the checker compares the analytic
gradient of the autoencoding MSE loss against a central difference
(loss(theta + eps) - loss(theta - eps)) / (2 eps).  The error is reported
per tensor as ||analytic - numeric||_2 / max(||analytic||_2, ||numeric||_2,
1e-12) over the checked entries, and the result is the maximum across
tensors.

Each loss is one cache-free forward of the network with that one entry
shifted in place.  The entry gets its old value back afterwards, also when
a forward raises, so the checked network ends bit-identical.
``sample_per_tensor`` optionally checks a seeded random subset of each
tensor's entries instead of every entry, which is how the large recipes
stay inside a test-time budget; omit it for a full sweep.
"""

from __future__ import annotations

import numpy as np

from ..errors import UsageError
from ..rng import SplitMix64, derive_seed
from .network import Network, mse_loss


def _select_indices(size, sample_per_tensor, seed, name):
    if sample_per_tensor is None or size <= sample_per_tensor:
        return np.arange(size)
    rng = SplitMix64(derive_seed(seed, "gradcheck", name))
    draws = np.minimum((rng.uniforms(4 * sample_per_tensor) * size).astype(np.int64),
                       size - 1)
    unique = np.unique(draws)
    return unique[:sample_per_tensor]


def grad_check(model, x, epsilon=1e-5, sample_per_tensor=None, seed=0) -> float:
    """Max relative gradient error of ``model`` at input window ``x``.

    ``model`` is a Network or anything exposing one as ``.network``; ``x``
    is a single input without the batch axis, and the loss is the
    reconstruction MSE against ``x`` itself.
    """
    net = getattr(model, "network", model)
    if not isinstance(net, Network):
        raise UsageError("grad_check expects a Network or an object with .network")
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    params = net.parameters()
    if sum(a.size for a in params.values()) < 1:
        raise UsageError("model has no parameters to check")

    x = np.asarray(x, dtype=np.float64)
    x1 = x[None]
    out, caches = net.forward(x1)
    _, lgrad = mse_loss(out, x1)
    analytic = net.backward(lgrad, caches)

    def loss():
        return mse_loss(net.forward(x1, keep_caches=False)[0], x1)[0]

    worst = 0.0
    for name, arr in params.items():
        idx = _select_indices(arr.size, sample_per_tensor, seed, name)
        numeric = np.empty(len(idx))
        for k, i in enumerate(idx):
            # .flat writes through to arr; reshape(-1) would copy a
            # non-contiguous parameter and leave it unshifted.
            old = arr.flat[i]
            try:
                arr.flat[i] = old + epsilon
                plus = loss()
                arr.flat[i] = old - epsilon
                minus = loss()
            finally:
                arr.flat[i] = old
            numeric[k] = (plus - minus) / (2.0 * epsilon)
        a = analytic[name].ravel()[idx]
        err = np.linalg.norm(a - numeric) / max(np.linalg.norm(a),
                                                np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(err))
    return worst

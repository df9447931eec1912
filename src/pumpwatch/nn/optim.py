"""Adaptive-moment gradient optimizer (the standard first/second-moment
scheme with bias correction), updating parameters in place."""

from __future__ import annotations

import numpy as np

# The scheme's decay rates of the two moment estimates and its guard against
# a zero denominator.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    def __init__(self, params, learning_rate=1e-3):
        self.params = dict(params)
        self.lr = float(learning_rate)
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in self.params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in self.params.items()}

    def step(self, grads: dict):
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for name, arr in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            arr -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPSILON)

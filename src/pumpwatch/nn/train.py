"""Autoencoder training loop: target = input, mini-batches, early stopping.

The last 10% of the given windows (in their given order) are held out as a
validation slice; training runs until max_epochs or until validation loss
has not improved for early_stop_patience consecutive epochs.  Everything is
deterministic given the config seed: the per-epoch shuffle comes from the
seeded generator and batch losses are combined weighted by batch size, so
the recorded epoch loss does not depend on how the data happened to split
into batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import ConfigError, TrainingError, UsageError
from ..rng import SplitMix64, derive_seed
from ..util import check_types_and_finiteness
from .network import Network, mse_loss
from .optim import Adam


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    early_stop_patience: int = 10
    seed: int = 0

    def validate(self):
        check_types_and_finiteness(self)
        # learning_rate 0 is allowed and means "evaluate but never update".
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")


@dataclass
class TrainResult:
    loss_history: List[float] = field(default_factory=list)
    val_history: List[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False


def _step(net: Network, opt: Adam, batch: np.ndarray) -> float:
    """One forward, loss, backward and update; returns the batch loss.

    Everything the step allocates is local here, so none of it is still
    alive when the next step's forward runs.
    """
    out, caches = net.forward(batch)
    loss, lgrad = mse_loss(out, batch)
    opt.step(net.backward(lgrad, caches))
    return loss


def train(net: Network, inputs: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Train ``net`` to reconstruct ``inputs`` (first axis = window index)."""
    cfg.validate()
    inputs = np.asarray(inputs, dtype=np.float64)
    if len(inputs) < 1:
        raise UsageError("train needs at least one window")

    n_val = int(len(inputs) * 0.1)
    train_x = inputs[:len(inputs) - n_val] if n_val else inputs
    val_x = inputs[len(inputs) - n_val:] if n_val else None

    opt = Adam(net.parameters(), learning_rate=cfg.learning_rate)
    result = TrainResult()
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = SplitMix64(derive_seed(cfg.seed, "shuffle", epoch)).permutation(len(train_x))
        total = 0.0
        for start in range(0, len(train_x), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            total += _step(net, opt, train_x[rows]) * len(rows)
        epoch_loss = total / len(train_x)
        if not np.isfinite(epoch_loss):
            raise TrainingError("training loss became non-finite", epoch=epoch)

        if val_x is not None:
            val_loss, _ = mse_loss(net.predict(val_x), val_x)
        else:
            val_loss = epoch_loss
        if not np.isfinite(val_loss):
            raise TrainingError("validation loss became non-finite", epoch=epoch)

        result.loss_history.append(epoch_loss)
        result.val_history.append(val_loss)
        result.epochs_run = epoch + 1

        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                result.stopped_early = True
                break
    return result

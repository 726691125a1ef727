"""Training and evaluation loops with deterministic, seeded batching.

Each epoch draws a fresh seeded shuffle of the training split and consumes a
fixed number of fixed-size batches, cycling the shuffle if the split is
smaller than one epoch's worth. Dense inputs are built per batch, never for
a whole dataset. The tensor model's encoder (``encoding.BatchEncoder``)
keeps the sparse upper-half counts of every repetition pattern it has seen,
so a word that comes back in a later epoch, in validation or as an
alphabet-permuted twin is not counted again. That cache grows with the
distinct patterns of a run: about 7 KB each at n=10, 38 KB at n=15 and
220 KB at n=20 with channels capped at length 3. It never changes a bit of
a batch. Everything is sequential, so identical seeds reproduce identical
epoch records byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, task_alphabet
from .encoding import BatchEncoder, EncodingConfig, onehot_batch
from .network import Network, binary_cross_entropy


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    steps_per_epoch: int = 30
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" | "sgd-momentum"
    momentum: float = 0.9
    seed: int = 0
    stop_at_val_acc: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.steps_per_epoch < 1:
            raise ValueError("batch_size and steps_per_epoch must be >= 1")
        if self.optimizer not in ("adam", "sgd-momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= (self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)).astype(p.dtype, copy=False)


class SGDMomentum:
    def __init__(self, params: list[np.ndarray], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr, self.momentum = lr, momentum
        self.vel = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g, v in zip(self.params, grads, self.vel):
            v *= self.momentum
            v -= self.lr * g
            p += v.astype(p.dtype, copy=False)


def make_optimizer(cfg: TrainConfig, params: list[np.ndarray]):
    if cfg.optimizer == "adam":
        return Adam(params, cfg.learning_rate)
    return SGDMomentum(params, cfg.learning_rate, cfg.momentum)


def combinatorial_encoder(cfg: EncodingConfig) -> BatchEncoder:
    return BatchEncoder(cfg)


def char_encoder(task: str):
    alphabet = task_alphabet(task)
    return lambda words: onehot_batch(words, alphabet)


def encoder_for(model: Network, task: str):
    """The batch encoder matching a model's input, from its build metadata."""
    if model.meta.get("model") == "char":
        return char_encoder(task)
    return combinatorial_encoder(EncodingConfig.from_dict(model.meta["encoding"]))


def evaluate(model: Network, ds: LabeledDataset, encoder, batch_size: int = 32) -> float:
    """Fraction of samples with (probability > 0.5) == label; 0.5 counts as class 0."""
    return _accuracy(predict_probs(model, ds, encoder, batch_size), np.asarray(ds.labels()))


def predict_probs(model: Network, ds: LabeledDataset, encoder, batch_size: int = 32) -> np.ndarray:
    words = ds.words()
    out = []
    for i in range(0, len(words), batch_size):
        out.append(model.forward(encoder(words[i : i + batch_size])))
    return np.concatenate(out)


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean((probs > 0.5).astype(np.int64) == labels))


def train(
    model: Network,
    train_ds: LabeledDataset,
    val_ds: LabeledDataset,
    cfg: TrainConfig,
    encoder,
) -> tuple[Network, list[EpochRecord]]:
    """Run the seeded training loop, returning the model and per-epoch records.

    Train loss and accuracy are accumulated from each batch's pre-update
    forward pass; validation accuracy is measured after each epoch. Stops
    early once stop_at_val_acc is reached, and aborts on non-finite loss.
    """
    params = model.params()
    opt = make_optimizer(cfg, params)
    rng = np.random.default_rng(cfg.seed)
    items = train_ds.items
    labels_all = np.asarray(train_ds.labels(), dtype=np.float64)
    per_epoch = cfg.batch_size * cfg.steps_per_epoch
    records: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(items))
        while order.size < per_epoch:
            order = np.concatenate([order, rng.permutation(len(items))])
        losses = []
        correct = 0
        for step in range(cfg.steps_per_epoch):
            take = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            words = [items[i][0] for i in take]
            y = labels_all[take]
            probs = model.forward(encoder(words))
            loss, dprobs = binary_cross_entropy(probs, y)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at epoch {epoch} step {step + 1}")
            model.backward(dprobs.astype(probs.dtype, copy=False))
            opt.step(model.grads())
            losses.append(loss)
            correct += int(np.sum((probs > 0.5).astype(np.int64) == y.astype(np.int64)))
        val_acc = evaluate(model, val_ds, encoder, cfg.batch_size)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                train_acc=correct / (cfg.steps_per_epoch * cfg.batch_size),
                val_acc=val_acc,
            )
        )
        if cfg.stop_at_val_acc is not None and val_acc >= cfg.stop_at_val_acc:
            break
    return model, records


def records_to_csv_lines(records: list[EpochRecord]) -> list[str]:
    lines = ["epoch,train_loss,train_acc,val_acc"]
    lines.extend(f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},{r.val_acc:.6f}" for r in records)
    return lines

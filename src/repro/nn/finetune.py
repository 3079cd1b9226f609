"""Supervised fine-tuning of a pre-trained deep network.

The deep-learning recipe the paper's Fig. 1 feeds into: greedy
unsupervised pre-training initialises the hidden layers, then the whole
network is trained supervised with back-propagation.  This module is the
second half; it also provides the classic pretrained-vs-random
comparison used by the examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.mlp import DeepNetwork, one_hot
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointStore,
    as_store,
    capture_rng,
    engine_state,
    load_npz,
    resolve_resume_path,
    restore_engine_state,
    restore_rng_into,
)
from repro.train.callbacks import TrainingCallback
from repro.train.loop import EVENT_LOG_KEY, EventLog, ModelStep, TrainLoop
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int, check_positive


@dataclass
class FinetuneResult:
    """Outcome of a fine-tuning run."""

    network: DeepNetwork
    losses: List[float] = field(default_factory=list)  # per update
    train_accuracy: List[float] = field(default_factory=list)  # per epoch
    n_updates: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class _ResultRecorder(TrainingCallback):
    """Mirrors loop events into the legacy :class:`FinetuneResult` fields.

    Attached *after* any checkpoint-log replay, so restored histories are
    not double-counted.
    """

    def __init__(self, result: "FinetuneResult", softmax: bool):
        self.result = result
        self.softmax = softmax

    def on_update(self, event) -> None:
        self.result.losses.append(event.loss)
        self.result.n_updates += 1

    def on_epoch(self, event) -> None:
        if self.softmax:
            self.result.train_accuracy.append(event.metric)


def _network_meta(network: DeepNetwork) -> dict:
    return {
        "layer_sizes": list(network.layer_sizes),
        "head": network.head,
        "weight_decay": network.weight_decay,
    }


def _save_finetune_checkpoint(
    store: CheckpointStore,
    network: DeepNetwork,
    epochs_done: int,
    rng: np.random.Generator,
    engine,
    result: "FinetuneResult",
    loop: TrainLoop,
) -> None:
    header = {
        "kind": "finetune",
        "phase": "finetune",
        "model": _network_meta(network),
        "epochs_done": epochs_done,
        "rng_state": capture_rng(rng),
        "engine": engine_state(engine),
        "losses": [float(v) for v in result.losses],
        "train_accuracy": [float(v) for v in result.train_accuracy],
        "n_updates": result.n_updates,
    }
    arrays = {EVENT_LOG_KEY: loop.log.to_array()}
    for i, layer in enumerate(network.layers):
        arrays[f"w{i}"] = layer.w
        arrays[f"b{i}"] = layer.b
    store.save(header, arrays, tag=f"epoch{epochs_done}")


def _restore_finetune(
    network: DeepNetwork,
    resume_from,
    rng: np.random.Generator,
    engine,
    result: "FinetuneResult",
) -> Tuple[int, EventLog]:
    path = resolve_resume_path(resume_from)
    header, arrays = load_npz(path)
    if header.get("kind") != "finetune":
        raise CheckpointError(
            f"{path}: not a finetune checkpoint (kind={header.get('kind')!r})"
        )
    if header.get("model") != _network_meta(network):
        raise CheckpointError(f"{path}: checkpoint does not match this network")
    restore_engine_state(header.get("engine"), engine)
    restore_rng_into(rng, header["rng_state"])
    for i, layer in enumerate(network.layers):
        layer.w = np.ascontiguousarray(arrays[f"w{i}"], dtype=np.float64)
        layer.b = np.ascontiguousarray(arrays[f"b{i}"], dtype=np.float64)
    result.losses = [float(v) for v in header["losses"]]
    result.train_accuracy = [float(v) for v in header["train_accuracy"]]
    result.n_updates = int(header["n_updates"])
    return int(header["epochs_done"]), EventLog.from_array(arrays.get(EVENT_LOG_KEY))


def finetune(
    network: DeepNetwork,
    x: np.ndarray,
    labels: np.ndarray,
    learning_rate: float = 0.3,
    batch_size: int = 64,
    epochs: int = 10,
    seed: SeedLike = None,
    engine=None,
    checkpoint=None,
    resume_from=None,
    callbacks=None,
    chunks=None,
) -> FinetuneResult:
    """Mini-batch supervised training of ``network`` on (x, labels).

    ``labels`` are integer class ids for the softmax head, or target
    rows for regression heads.

    With ``engine`` (a :class:`repro.runtime.executor.ParallelGradientEngine`)
    each mini-batch's back-propagation is split across the engine's
    workers and reduced before the synchronized update; the gradients are
    deterministic, so the trajectory matches the serial path to floating-
    point reduction order.  The engine is borrowed — the caller closes it.

    ``checkpoint`` (directory path or
    :class:`~repro.runtime.checkpoint.CheckpointStore`) writes an atomic
    snapshot — network parameters, the shuffle RNG position, the engine's
    worker streams, and the loss history — after every epoch;
    ``resume_from`` (snapshot file, checkpoint directory or store) restores one
    and continues, bit-identical to an uninterrupted run at the same
    seed, execution mode, and worker count.  When ``seed`` is a live
    ``Generator``, resuming rewinds that generator in place.

    ``callbacks`` (a :class:`~repro.train.TrainingCallback`, a list of
    them, or a :class:`~repro.train.CallbackList`) observe the unified
    loop's structured events; on resume the persisted event log is
    replayed through them first, so a restored :class:`History` matches
    an uninterrupted run.  ``chunks`` (a
    :class:`~repro.train.ChunkSchedule`) stages each epoch through the
    background chunk prefetcher (paper Fig. 5) without changing the
    update sequence.
    """
    check_positive(learning_rate, "learning_rate")
    check_int(batch_size, "batch_size", minimum=1)
    check_int(epochs, "epochs", minimum=1)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != network.n_in:
        raise ConfigurationError(f"x must be (n, {network.n_in}), got {x.shape}")

    if network.head == "softmax":
        targets = one_hot(np.asarray(labels), network.n_out)
    else:
        targets = np.asarray(labels, dtype=np.float64)
        if targets.shape != (x.shape[0], network.n_out):
            raise ConfigurationError(
                f"targets must be (n, {network.n_out}), got {targets.shape}"
            )

    rng = as_generator(seed)
    store = as_store(checkpoint)
    result = FinetuneResult(network=network)
    loop = TrainLoop(callbacks=callbacks)
    start_epoch = 0
    if resume_from is not None:
        start_epoch, log = _restore_finetune(network, resume_from, rng, engine, result)
        loop.resume_from_log(log)
    # The recorder mirrors loop events into the legacy result fields; it
    # is attached after replay because _restore_finetune already reloaded
    # the persisted history.
    loop.monitor.callbacks.append(_ResultRecorder(result, network.head == "softmax"))
    step = ModelStep(
        network, (x, targets), learning_rate, engine=engine, rng=rng,
        metric=(lambda _losses: network.accuracy(x, labels))
        if network.head == "softmax" else None,
    )

    def _epoch_end(epochs_done: int, _metrics) -> None:
        if store is not None:
            _save_finetune_checkpoint(
                store, network, epochs_done, rng, engine, result, loop
            )

    loop.run_epochs(
        step,
        epochs=epochs,
        batch_size=batch_size,
        rng=rng,
        start_epoch=start_epoch,
        epoch_end=_epoch_end,
        chunks=chunks,
    )
    return result


def pretrain_then_finetune(
    stack,
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    learning_rate: float = 0.3,
    batch_size: int = 64,
    epochs: int = 10,
    weight_decay: float = 1e-4,
    seed: SeedLike = None,
) -> FinetuneResult:
    """Pre-train ``stack`` on ``x`` (unsupervised), then fine-tune a
    classifier built from it.  ``stack`` may already be pre-trained, in
    which case the unsupervised pass is skipped."""
    if not getattr(stack, "blocks", None):
        stack.pretrain(x)
    network = DeepNetwork.from_pretrained_stack(
        stack, n_classes, weight_decay=weight_decay, seed=seed
    )
    return finetune(
        network, x, labels,
        learning_rate=learning_rate, batch_size=batch_size, epochs=epochs, seed=seed,
    )


def compare_pretrained_vs_random(
    stack,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    n_classes: int,
    epochs: int = 10,
    learning_rate: float = 0.3,
    batch_size: int = 64,
    seed: SeedLike = 0,
) -> dict:
    """The classic experiment: the same architecture fine-tuned from the
    pre-trained stack vs from random initialisation.

    Returns test accuracies and loss curves for both arms.  The stack
    must already be pre-trained (so the caller controls what data the
    unsupervised phase saw).
    """
    if not getattr(stack, "blocks", None):
        raise ConfigurationError("stack must be pre-trained before comparing")
    pretrained_net = DeepNetwork.from_pretrained_stack(stack, n_classes, seed=seed)
    random_net = DeepNetwork(
        list(stack.layer_sizes) + [n_classes], head="softmax", seed=seed
    )
    results = {}
    for name, net in (("pretrained", pretrained_net), ("random", random_net)):
        run = finetune(
            net, x_train, y_train,
            learning_rate=learning_rate, batch_size=batch_size, epochs=epochs,
            seed=seed,
        )
        results[name] = {
            "test_accuracy": net.accuracy(x_test, y_test),
            "train_accuracy": run.train_accuracy[-1],
            "losses": run.losses,
        }
    return results

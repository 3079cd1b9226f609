"""Greedy layer-wise pre-training containers (paper §II.A, Fig. 1).

A deep network of L+1 layers is decomposed into L unsupervised building
blocks.  Block i is trained on the hidden representation produced by the
already-trained blocks 1..i−1; the original data feeds block 1.  Both
flavours from the paper are provided:

* :class:`StackedAutoencoder` — blocks are sparse autoencoders;
* :class:`DeepBeliefNetwork` — blocks are RBMs (Hinton's DBN).

:meth:`_GreedyStack._cascade` is the one greedy block loop: ``pretrain``
runs it over the stack's own full-width blocks, and
:func:`repro.nn.sharded.sharded_pretrain` over N shards (see
:class:`_Cascade`).

Pre-training is **crash-consistent**: pass ``checkpoint=`` to
:meth:`~_GreedyStack.pretrain` to write an atomic epoch-granular snapshot
(parameters of every block so far, all RNG stream positions, per-worker
engine streams) after each epoch, and ``resume_from=`` to continue a
killed run.  A resumed run is bit-identical to an uninterrupted one at
the same seed and worker count — the invariant enforced by
``tests/chaos/`` (see ``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.rbm import RBM
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
from repro.train.loop import EVENT_LOG_KEY, EventLog, ModelStep, TrainLoop
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.validation import check_matrix_shapes


@dataclass(frozen=True)
class LayerSpec:
    """Training hyper-parameters for one building block of the stack."""

    n_hidden: int
    learning_rate: float = 0.1
    epochs: int = 5
    batch_size: int = 100

    def __post_init__(self):
        if self.n_hidden < 1:
            raise ConfigurationError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")


def _spec_meta(specs: Sequence[LayerSpec]) -> list:
    return [
        {
            "n_hidden": s.n_hidden,
            "learning_rate": s.learning_rate,
            "epochs": s.epochs,
            "batch_size": s.batch_size,
        }
        for s in specs
    ]


def _as_param(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


class _Cascade:
    """What :meth:`_GreedyStack._cascade` trains: here the stack's own
    full-width blocks.

    The loop is the same for every greedy run; this class supplies the
    points where runs differ.  :func:`repro.nn.sharded.sharded_pretrain`
    trains N sub-stacks side by side through a subclass.
    """

    def __init__(self, stack: "_GreedyStack"):
        self.stack = stack
        #: the stacks whose blocks train side by side, each on its own input
        self.models = [stack]

    def place(self, index: int, block) -> None:
        """Take block ``index``, freshly initialised at full width."""
        self.stack.blocks.append(block)

    def loop_step(self, index: int, steps: list, first_epoch: int):
        """The loop's step for block ``index`` from the models' block
        steps; ``first_epoch`` is where the loop starts (resume)."""
        return steps[0]

    def transform(self, index: int, inputs: list) -> list:
        """Each model's inputs through its trained block ``index``."""
        return [
            m._block_transform(m.blocks[index], x) for m, x in zip(self.models, inputs)
        ]

    def trained(self, index: int):
        """What ``callback`` receives for block ``index``."""
        return self.stack.blocks[index]

    def finish(self) -> None:
        pass

    # -- snapshots -------------------------------------------------------
    def save(self, store: CheckpointStore, state: dict, arrays: dict, tag: str) -> None:
        stack = self.stack
        for j, block in enumerate(stack.blocks):
            arrays.update(stack._block_arrays(j, block))
        header = {
            "kind": stack._ckpt_kind,
            "phase": "pretrain",
            "model": stack._ckpt_model_meta(),
            **state,
        }
        store.save(header, arrays, tag=tag)

    def read(self, resume_from) -> Tuple[dict, dict]:
        return self.stack._read_snapshot(resume_from, "greedy")

    def restore(self, header: dict, arrays: dict, rngs) -> None:
        """Rebuild blocks ``0 … block_index`` from the snapshot's arrays."""
        stack = self.stack
        stack.blocks = [
            stack._block_from_arrays(stack.layer_sizes[j], stack.layer_specs[j], arrays, j)
            for j in range(int(header["block_index"]) + 1)
        ]


class _GreedyStack:
    """Shared machinery for layer-wise stacks; subclasses plug in the block type."""

    #: checkpoint archive kind tag (set by subclasses)
    _ckpt_kind = "stack"

    def __init__(self, n_visible: int, layer_specs: Sequence[LayerSpec], seed: SeedLike = None):
        if not layer_specs:
            raise ConfigurationError("a stack needs at least one layer")
        self.n_visible = int(n_visible)
        self.layer_specs: List[LayerSpec] = list(layer_specs)
        self._seed = seed
        self.blocks: list = []
        self.layer_errors: List[List[float]] = []

    @property
    def layer_sizes(self) -> List[int]:
        """[n_visible, h₁, h₂, …] — the deep network's layer widths."""
        return [self.n_visible] + [s.n_hidden for s in self.layer_specs]

    @property
    def is_trained(self) -> bool:
        return len(self.blocks) == len(self.layer_specs)

    # -- subclass hooks --------------------------------------------------
    def _make_block(self, n_in: int, spec: LayerSpec, rng):
        raise NotImplementedError

    def _block_step(self, block, x, spec: LayerSpec, rng, engine) -> ModelStep:
        """The block's training step on ``engine`` (``None``: serial, its
        CD chains drawing from the shuffle generator ``rng``)."""
        raise NotImplementedError

    def _block_transform(self, block, x) -> np.ndarray:
        raise NotImplementedError

    def _ckpt_model_meta(self) -> dict:
        raise NotImplementedError

    def _block_arrays(self, index: int, block) -> dict:
        raise NotImplementedError

    def _block_from_arrays(self, n_in: int, spec: LayerSpec, arrays: dict, index: int):
        raise NotImplementedError

    # -- checkpoint plumbing ---------------------------------------------
    def _read_snapshot(self, resume_from, strategy: str) -> Tuple[dict, dict]:
        """Load a pretrain snapshot of this stack that ``strategy`` wrote;
        returns ``(header, arrays)``."""
        path = resolve_resume_path(resume_from)
        header, arrays = load_npz(path)
        if header.get("kind") != self._ckpt_kind or header.get("phase") != "pretrain":
            raise CheckpointError(
                f"{path}: not a {self._ckpt_kind} pretrain checkpoint "
                f"(found kind={header.get('kind')!r}, phase={header.get('phase')!r})"
            )
        written = (header.get("strategy") or {}).get("name", "greedy")
        if written != strategy:
            raise CheckpointError(
                f"{path}: checkpoint was written by the {written!r} strategy; "
                f"resume with strategy={written!r}"
            )
        if header.get("model") != self._ckpt_model_meta():
            raise CheckpointError(
                f"{path}: checkpoint hyper-parameters do not match this stack"
            )
        return header, arrays

    # -- the layer-wise cascade ------------------------------------------
    def pretrain(
        self,
        x: np.ndarray,
        callback: Optional[Callable[[int, object, List[float]], None]] = None,
        engine=None,
        checkpoint=None,
        resume_from=None,
        callbacks=None,
        chunks=None,
        strategy: str = "greedy",
        sync: str = "synchronized",
        engine_mode: str = "serial",
        n_workers: Optional[int] = None,
        queue_slots: Optional[int] = None,
        checkpoint_every: int = 1,
    ) -> "_GreedyStack":
        """Run the greedy layer-wise procedure of paper Fig. 1.

        ``callback(layer_index, block, per_epoch_errors)`` fires after each
        block finishes, letting callers monitor the cascade.

        ``callbacks`` — ``None``, a single
        :class:`~repro.train.callbacks.TrainingCallback`, or a sequence —
        receives the unified loop's structured events
        (:class:`~repro.train.events.UpdateEvent` per parameter update,
        :class:`~repro.train.events.EpochEvent` per epoch,
        :class:`~repro.train.events.LayerEvent` per completed block) on
        the serial and parallel paths alike.  An
        :class:`~repro.train.callbacks.EarlyStopping` stop request ends
        the *current block's* remaining epochs; the cascade then moves on
        to the next block.  Checkpointed runs persist the event log and
        replay it on resume, so a resumed run's recorded
        :class:`~repro.train.callbacks.History` equals an uninterrupted
        run's.

        ``chunks`` — a :class:`~repro.train.loop.ChunkSchedule` — stages
        every epoch's shuffled data chunk-by-chunk through a background
        :class:`~repro.runtime.executor.ChunkPrefetcher` (the paper's
        Fig. 5 loading/training overlap), bit-identical to unchunked
        iteration because chunk boundaries align with batch boundaries.

        ``engine`` — a :class:`repro.runtime.executor.ParallelGradientEngine`
        — runs every mini-batch update data-parallel across its workers
        (the paper's synchronized layer-wise multi-core pre-training);
        omitted, each block trains serially, through a W=1 engine whose
        CD chains draw from the block's shuffle generator.  The engine is
        borrowed, not owned: the caller closes it.

        ``checkpoint`` — a directory path or
        :class:`~repro.runtime.checkpoint.CheckpointStore` — writes an
        atomic snapshot after every epoch of every block (parameters of
        all blocks so far, the positions of every RNG stream including the
        engine's worker streams, and the error history).

        ``resume_from`` — a snapshot file, or a checkpoint directory or
        store (its newest snapshot) — restores that state and continues.  The resumed
        run is **bit-identical** to the uninterrupted one provided the
        stack hyper-parameters, seed, execution mode, and worker count
        match (all four are validated).  For a block that was checkpointed
        complete but whose ``callback`` may already have fired before the
        crash, the callback fires again on resume.

        ``strategy`` — ``"greedy"`` (the sequential cascade above) or
        ``"pipelined"`` (Santara et al.: every layer trains concurrently
        on the evolving representation of the layer below, see
        :mod:`repro.train.pipeline` and ``docs/pipeline.md``).  The
        pipelined strategy takes ``sync`` (``"synchronized"`` epoch
        barriers or ``"free"`` run-ahead), per-stage engines built with
        :func:`repro.runtime.procexec.make_engine` from ``engine_mode`` /
        ``n_workers`` (instead of a borrowed ``engine=``), an optional
        activation ``queue_slots`` capacity, and a ``checkpoint_every``
        snapshot period in epochs.  Checkpoints are strategy-tagged and
        only resume under the strategy that wrote them; within the
        pipelined strategy, kill-anywhere resume is bit-identical per
        layer at a fixed seed (``sync="synchronized"`` only).  Sharded
        pre-training, :func:`repro.nn.sharded.sharded_pretrain`, runs the
        greedy loop over the stack's shards.
        """
        if strategy not in ("greedy", "pipelined"):
            raise ConfigurationError(
                f"strategy must be 'greedy' or 'pipelined', got {strategy!r}"
            )
        if strategy == "pipelined":
            if engine is not None:
                raise ConfigurationError(
                    "strategy='pipelined' builds one engine per stage from "
                    "engine_mode/n_workers; a borrowed engine= cannot be "
                    "shared across stage threads"
                )
            if chunks is not None:
                raise ConfigurationError(
                    "strategy='pipelined' does not compose with chunks=: "
                    "upper stages train from in-memory activation buffers, "
                    "not file-backed chunks"
                )
            return self._pretrain_pipelined(
                x,
                callback=callback,
                checkpoint=checkpoint,
                resume_from=resume_from,
                callbacks=callbacks,
                sync=sync,
                engine_mode=engine_mode,
                n_workers=n_workers,
                queue_slots=queue_slots,
                checkpoint_every=checkpoint_every,
            )
        if (
            sync != "synchronized"
            or engine_mode != "serial"
            or n_workers is not None
            or queue_slots is not None
            or checkpoint_every != 1
        ):
            raise ConfigurationError(
                "sync=, engine_mode=, n_workers=, queue_slots= and "
                "checkpoint_every= only apply to strategy='pipelined'"
            )
        self._cascade(
            _Cascade(self),
            x,
            engine=engine,
            checkpoint=checkpoint,
            resume_from=resume_from,
            callbacks=callbacks,
            callback=callback,
            chunks=chunks,
        )
        return self

    def _cascade(
        self,
        plan: "_Cascade",
        x: np.ndarray,
        *,
        engine,
        checkpoint,
        resume_from,
        callbacks,
        callback,
        chunks=None,
    ) -> None:
        """The one greedy block loop: block i trains on the output of
        blocks 0…i−1, through ``plan``'s models side by side."""
        x = check_matrix_shapes(x, self.n_visible, "x")
        store = as_store(checkpoint)
        n_layers = len(self.layer_specs)
        rngs = spawn_generators(self._seed, 2 * n_layers)
        self.blocks = []
        self.layer_errors = []
        loop = TrainLoop(callbacks=callbacks)
        start_block, start_epoch, current_errors = 0, 0, []
        if resume_from is not None:
            header, arrays = plan.read(resume_from)
            restore_engine_state(header.get("engine"), engine)
            states = header["rng_states"]
            if len(states) != len(rngs):
                raise CheckpointError(
                    f"checkpoint carries {len(states)} RNG streams, expected {len(rngs)}"
                )
            plan.restore(header, arrays, rngs)
            for gen, state in zip(rngs, states):
                restore_rng_into(gen, state)
            start_block = int(header["block_index"])
            start_epoch = int(header["epochs_done"])
            current_errors = [float(e) for e in header["current_errors"]]
            self.layer_errors = [list(e) for e in header["layer_errors"]]
            # Legacy checkpoints (pre repro.train) carry no event log; resume
            # still works, with an empty replayed history.
            loop.resume_from_log(EventLog.from_array(arrays.get(EVENT_LOG_KEY)))
        # The input of the resumed block is a pure function of the completed
        # blocks, so it is recomputed rather than checkpointed.
        currents = [x] * len(plan.models)
        for j in range(start_block):
            currents = plan.transform(j, currents)
        for i in range(start_block, n_layers):
            spec = self.layer_specs[i]
            if i == start_block and len(plan.models[0].blocks) > i:
                errors = current_errors  # in-progress block from the snapshot
            else:
                plan.place(i, self._make_block(self.layer_sizes[i], spec, rngs[2 * i]))
                errors = []
            first_epoch = start_epoch if i == start_block else 0
            step = plan.loop_step(
                i,
                [
                    m._block_step(m.blocks[i], cur, m.layer_specs[i], rngs[2 * i + 1], engine)
                    for m, cur in zip(plan.models, currents)
                ],
                first_epoch,
            )
            epoch_end = None
            if store is not None:
                def epoch_end(done, metrics, _i=i):
                    state = {
                        "block_index": _i,
                        "epochs_done": done,
                        "rng_states": [capture_rng(g) for g in rngs],
                        "engine": engine_state(engine),
                        "layer_errors": [list(e) for e in self.layer_errors],
                        "current_errors": [float(e) for e in metrics],
                    }
                    arrays = {EVENT_LOG_KEY: loop.log.to_array()}
                    plan.save(store, state, arrays, tag=f"block{_i}-epoch{done}")
            loop.run_epochs(
                step,
                epochs=spec.epochs,
                batch_size=spec.batch_size,
                rng=rngs[2 * i + 1],
                start_epoch=first_epoch,
                metrics=errors,
                epoch_end=epoch_end,
                chunks=chunks,
            )
            self.layer_errors.append(errors)
            loop.end_layer(i, errors[-1] if errors else float("nan"))
            if callback is not None:
                callback(i, plan.trained(i), errors)
            # The output dataset of this block becomes the next training set
            # (paper: "the output dataset is then used as the input training
            # set of the second Autoencoder"); the last block's has no reader.
            if i + 1 < n_layers:
                currents = plan.transform(i, currents)
        plan.finish()

    # -- the pipelined cascade (Santara et al., arXiv:1603.02836) --------
    def _pretrain_pipelined(
        self,
        x: np.ndarray,
        *,
        callback,
        checkpoint,
        resume_from,
        callbacks,
        sync: str,
        engine_mode: str,
        n_workers: Optional[int],
        queue_slots: Optional[int],
        checkpoint_every: int,
    ) -> "_GreedyStack":
        """All layers at once: one stage per block, queues in between."""
        # Lazy imports keep the nn → runtime.procexec edge off the module
        # import path (the pipeline is an opt-in strategy).
        from repro.runtime.procexec import make_engine
        from repro.train.pipeline import PipelinedPretrainer, StagePlan

        x = check_matrix_shapes(x, self.n_visible, "x")
        epoch_counts = {s.epochs for s in self.layer_specs}
        if len(epoch_counts) != 1:
            raise ConfigurationError(
                f"strategy='pipelined' needs the same LayerSpec.epochs on "
                f"every layer (the stages train in epoch lock-step), got "
                f"{sorted(epoch_counts)}; use strategy='greedy' for "
                f"heterogeneous per-layer epochs"
            )
        store = as_store(checkpoint)
        n_layers = len(self.layer_specs)
        rngs = spawn_generators(self._seed, 2 * n_layers)
        engines = [
            make_engine(
                engine_mode,
                n_workers=n_workers,
                seed=i,
                name=f"{self._ckpt_kind}-stage{i}",
            )
            for i in range(n_layers)
        ]
        try:
            start_epoch, buffers, metrics, event_logs = 0, None, None, None
            if resume_from is not None:
                start_epoch, buffers, metrics, event_logs = self._restore_pipelined(
                    resume_from, rngs, engines, sync, engine_mode
                )
            else:
                # Same generator layout as greedy (block i inits from
                # rngs[2i]), so stage 0 is bit-identical to greedy block 0.
                self.blocks = []
                for i, spec in enumerate(self.layer_specs):
                    self.blocks.append(
                        self._make_block(self.layer_sizes[i], spec, rngs[2 * i])
                    )
            plans = []
            for i, spec in enumerate(self.layer_specs):
                block = self.blocks[i]

                def make_step(buffer, _i=i, _block=block, _spec=spec):
                    # Called on the stage thread: the engine's workspace
                    # arenas pin to it.
                    return self._block_step(
                        _block, buffer, _spec, rngs[2 * _i + 1], engines[_i]
                    )

                plans.append(
                    StagePlan(
                        index=i,
                        epochs=spec.epochs,
                        batch_size=spec.batch_size,
                        out_width=spec.n_hidden,
                        make_step=make_step,
                        encode=lambda rows, _b=block: self._block_transform(_b, rows),
                        rng=rngs[2 * i + 1],
                    )
                )
            pretrainer = PipelinedPretrainer(
                plans,
                sync=sync,
                queue_slots=queue_slots,
                callbacks=callbacks,
                checkpoint_every=checkpoint_every,
            )
            on_snapshot = None
            if store is not None:
                on_snapshot = lambda epochs_done: self._save_pipelined_checkpoint(
                    store, epochs_done, pretrainer, rngs, engines,
                    sync, engine_mode, checkpoint_every,
                )
            metrics = pretrainer.run(
                x,
                start_epoch=start_epoch,
                buffers=buffers,
                metrics=metrics,
                event_logs=event_logs,
                on_snapshot=on_snapshot,
            )
        finally:
            for eng in engines:
                if eng is not None:
                    eng.close()
        self.layer_errors = [list(m) for m in metrics]
        if callback is not None:
            for i, block in enumerate(self.blocks):
                callback(i, block, self.layer_errors[i])
        return self

    def _save_pipelined_checkpoint(
        self,
        store: CheckpointStore,
        epochs_done: int,
        pretrainer,
        rngs,
        engines,
        sync: str,
        engine_mode: str,
        checkpoint_every: int,
    ) -> None:
        """Snapshot inside a checkpoint window: every stage parked, every
        activation queue provably empty, so per-stage state is the whole
        state — block parameters, all RNG streams, the upper stages'
        input buffers, and each stage's event log."""
        header = {
            "kind": self._ckpt_kind,
            "phase": "pretrain",
            "strategy": {
                "name": "pipelined",
                "sync": sync,
                "engine_mode": engine_mode,
                "checkpoint_every": checkpoint_every,
            },
            "model": self._ckpt_model_meta(),
            "epochs_done": int(epochs_done),
            "rng_states": [capture_rng(g) for g in rngs],
            "engines": [engine_state(eng) for eng in engines],
            "metrics": [[float(v) for v in m] for m in pretrainer.metrics],
            "queues": [
                {"pushed": q.pushed, "popped": q.popped} for q in pretrainer.queues
            ],
        }
        arrays = {}
        for j, block in enumerate(self.blocks):
            arrays.update(self._block_arrays(j, block))
        for k in range(1, len(self.blocks)):
            arrays[f"pipebuf_{k}"] = pretrainer.buffers[k]
        for k, loop in enumerate(pretrainer.loops):
            arrays[f"evlog_{k}"] = loop.log.to_array()
        store.save(header, arrays, tag=f"pipeline-epoch{epochs_done}")

    def _restore_pipelined(
        self, resume_from, rngs, engines, sync: str, engine_mode: str
    ):
        """Rebuild every stage's state from a pipelined snapshot; returns
        ``(start_epoch, buffers, metrics, event_logs)``."""
        header, arrays = self._read_snapshot(resume_from, "pipelined")
        strategy = header["strategy"]
        for key, value in (("sync", sync), ("engine_mode", engine_mode)):
            if strategy.get(key) != value:
                raise CheckpointError(
                    f"checkpoint was taken with {key}={strategy.get(key)!r} "
                    f"but this run uses {key}={value!r}; bit-identical resume "
                    f"requires the same pipeline configuration"
                )
        for k, (state, eng) in enumerate(zip(header["engines"], engines)):
            restore_engine_state(state, eng, where=f"stage {k}: ")
        states = header["rng_states"]
        if len(states) != len(rngs):
            raise CheckpointError(
                f"checkpoint carries {len(states)} RNG streams, expected {len(rngs)}"
            )
        for gen, state in zip(rngs, states):
            restore_rng_into(gen, state)
        self.blocks = []
        for j, spec in enumerate(self.layer_specs):
            self.blocks.append(
                self._block_from_arrays(self.layer_sizes[j], spec, arrays, j)
            )
        buffers = [None] + [
            arrays[f"pipebuf_{k}"] for k in range(1, len(self.layer_specs))
        ]
        metrics = [[float(v) for v in m] for m in header["metrics"]]
        event_logs = [
            EventLog.from_array(arrays.get(f"evlog_{k}"))
            for k in range(len(self.layer_specs))
        ]
        self.layer_errors = [list(m) for m in metrics]
        return int(header["epochs_done"]), buffers, metrics, event_logs

    def sample_dropout_masks(
        self, dropout: float, rng=None
    ) -> List[np.ndarray]:
        """Inverted-dropout masks, one per trained block's hidden layer.

        Entries are ``{0, 1/(1-dropout)}`` per unit: the inverse-keep scale
        is paid at train time so the evaluation forward needs none.
        """
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {dropout}")
        from repro.utils.rng import as_generator

        gen = as_generator(rng)
        keep = 1.0 - dropout
        masks = []
        for spec in self.layer_specs:
            mask = (gen.random(spec.n_hidden) < keep).astype(np.float64)
            mask /= keep
            masks.append(mask)
        return masks

    def transform(
        self,
        x: np.ndarray,
        n_layers: Optional[int] = None,
        dropout: float = 0.0,
        rng=None,
        training: bool = False,
        dropout_masks: Optional[Sequence[np.ndarray]] = None,
    ) -> np.ndarray:
        """Propagate ``x`` through the first ``n_layers`` trained blocks.

        ``dropout`` uses inverted scaling: with ``training=True`` each
        block's output is multiplied by a fresh per-unit mask with entries
        ``{0, 1/(1-dropout)}`` drawn from ``rng``; at evaluation time (the
        default) dropout is a no-op, so a trained encoder serves unscaled.
        ``dropout_masks`` pins the per-layer masks explicitly (fixed-mask
        parity tests, shard keep-masks); an entry may be ``None`` to leave
        that layer unmasked.
        """
        if not self.blocks:
            raise ConfigurationError("stack has not been pre-trained yet")
        x = check_matrix_shapes(x, self.n_visible, "x")
        depth = len(self.blocks) if n_layers is None else n_layers
        if not 0 <= depth <= len(self.blocks):
            raise ConfigurationError(
                f"n_layers must be in [0, {len(self.blocks)}], got {n_layers}"
            )
        if dropout_masks is None and training and dropout > 0.0:
            dropout_masks = self.sample_dropout_masks(dropout, rng)
        if dropout_masks is not None and len(dropout_masks) < depth:
            raise ConfigurationError(
                f"dropout_masks needs one entry per transformed layer "
                f"({depth}), got {len(dropout_masks)}"
            )
        out = x
        for i, block in enumerate(self.blocks[:depth]):
            out = self._block_transform(block, out)
            if dropout_masks is not None and dropout_masks[i] is not None:
                out = out * dropout_masks[i]
        return out

    def partition(self, n_shards: int):
        """Split into ``n_shards`` dropout-decoupled :class:`ModelShard`\\ s.

        Delegates to :func:`repro.shard.partition` (imported lazily so the
        model substrate carries no hard dependency on the shard layer);
        :func:`repro.shard.merge` reconstructs this stack exactly.
        """
        from repro.shard.shards import partition as _partition

        return _partition(self, n_shards)


class StackedAutoencoder(_GreedyStack):
    """Stack of sparse autoencoders (the paper's Table I workload shape).

    Parameters
    ----------
    n_visible:
        Input dimensionality.
    layer_specs:
        One :class:`LayerSpec` per autoencoder in the stack.
    cost:
        Shared objective hyper-parameters for every block.
    """

    _ckpt_kind = "stacked_autoencoder"

    def __init__(
        self,
        n_visible: int,
        layer_specs: Sequence[LayerSpec],
        cost: Optional[SparseAutoencoderCost] = None,
        seed: SeedLike = None,
    ):
        super().__init__(n_visible, layer_specs, seed)
        self.cost = cost if cost is not None else SparseAutoencoderCost()

    def _make_block(self, n_in, spec, rng):
        return SparseAutoencoder(n_in, spec.n_hidden, cost=self.cost, seed=rng)

    def _block_step(self, block: SparseAutoencoder, x, spec, rng, engine):
        return ModelStep(
            block, x, spec.learning_rate, engine=engine, rng=rng,
            metric=lambda _losses: block.reconstruction_error(x),
        )

    def _block_transform(self, block: SparseAutoencoder, x):
        return block.encode(x)

    def _ckpt_model_meta(self):
        return {
            "n_visible": self.n_visible,
            "layer_specs": _spec_meta(self.layer_specs),
            "weight_decay": self.cost.weight_decay,
            "sparsity_target": self.cost.sparsity_target,
            "sparsity_weight": self.cost.sparsity_weight,
        }

    def _block_arrays(self, index, block):
        return {
            f"w1_{index}": block.w1,
            f"b1_{index}": block.b1,
            f"w2_{index}": block.w2,
            f"b2_{index}": block.b2,
        }

    def _block_from_arrays(self, n_in, spec, arrays, index):
        block = SparseAutoencoder(n_in, spec.n_hidden, cost=self.cost)
        block.w1 = _as_param(arrays[f"w1_{index}"])
        block.b1 = _as_param(arrays[f"b1_{index}"])
        block.w2 = _as_param(arrays[f"w2_{index}"])
        block.b2 = _as_param(arrays[f"b2_{index}"])
        return block

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Encode through the full stack, then decode back layer by layer."""
        if not self.blocks:
            raise ConfigurationError("stack has not been pre-trained yet")
        code = self.transform(x)
        out = code
        for block in reversed(self.blocks):
            out = block.decode(out)
        return out


class DeepBeliefNetwork(_GreedyStack):
    """Stack of RBMs trained with CD-1 — Hinton's DBN (paper §I)."""

    _ckpt_kind = "deep_belief_network"

    def __init__(
        self,
        n_visible: int,
        layer_specs: Sequence[LayerSpec],
        cd_k: int = 1,
        seed: SeedLike = None,
    ):
        super().__init__(n_visible, layer_specs, seed)
        if cd_k < 1:
            raise ConfigurationError(f"cd_k must be >= 1, got {cd_k}")
        self.cd_k = int(cd_k)

    def _make_block(self, n_in, spec, rng):
        return RBM(n_in, spec.n_hidden, seed=rng)

    def _block_step(self, block: RBM, x, spec, rng, engine):
        return ModelStep(
            block, x, spec.learning_rate, engine=engine, rng=rng, k=self.cd_k
        )

    def _block_transform(self, block: RBM, x):
        return block.transform(x)

    def _ckpt_model_meta(self):
        return {
            "n_visible": self.n_visible,
            "layer_specs": _spec_meta(self.layer_specs),
            "cd_k": self.cd_k,
        }

    def _block_arrays(self, index, block):
        return {
            f"w_{index}": block.w,
            f"b_{index}": block.b,
            f"c_{index}": block.c,
        }

    def _block_from_arrays(self, n_in, spec, arrays, index):
        block = RBM(n_in, spec.n_hidden)
        block.w = _as_param(arrays[f"w_{index}"])
        block.b = _as_param(arrays[f"b_{index}"])
        block.c = _as_param(arrays[f"c_{index}"])
        return block

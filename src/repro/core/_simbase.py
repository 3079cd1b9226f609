"""Shared machinery of the simulated trainers (internal).

Both trainers follow the paper's Algorithm 1: stage a chunk, split it
into mini-batches, compute the gradient per batch, update.  The timing
side memoizes the per-update kernel execution per distinct batch size
(only the last batch of an epoch can be short), which lets million-update
runs simulate in microseconds while keeping exact per-kernel accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import TrainingConfig
from repro.core.results import TrainingRunResult
from repro.data.datasets import plan_chunks
from repro.phi.kernels import Kernel
from repro.phi.machine import SimulatedMachine
from repro.phi.pcie import PCIeModel
from repro.phi.trace import TimingBreakdown
from repro.runtime.fusion import fuse_elementwise
from repro.runtime.offload import OffloadPipeline, OffloadTimeline
from repro.train.callbacks import TrainingCallback
from repro.train.loop import ModelStep, TrainLoop

_F64 = 8


class _FitRecorder(TrainingCallback):
    """Internal: mirrors loop events into the legacy result lists."""

    def __init__(self):
        self.losses: List[float] = []
        self.n_updates = 0

    def on_update(self, event) -> None:
        self.losses.append(event.loss)
        self.n_updates += 1


class SimulatedTrainerBase:
    """Owns the machine, the memoized per-update cost, and the pipeline."""

    #: subclasses name their model for allocations/messages
    model_kind: str = "model"

    def __init__(self, config: TrainingConfig):
        self.config = config
        self.machine = SimulatedMachine(config.machine, config.effective_backend)
        self._update_cache: Dict[int, Tuple[float, TimingBreakdown]] = {}
        self._allocated = False

    # ------------------------------------------------------------------
    # interface for subclasses
    # ------------------------------------------------------------------
    def step_levels(self, batch_size: int) -> List[List[Kernel]]:
        """Kernel levels of one parameter update at this batch size."""
        raise NotImplementedError

    def parameter_bytes(self) -> int:
        """Resident parameter + gradient bytes on the device."""
        raise NotImplementedError

    def workspace_bytes(self, batch_size: int) -> int:
        """Per-batch temporary bytes (activations, deltas)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _ensure_device_allocations(self) -> None:
        """Model the paper's resident allocations (§IV.B.1): parameters,
        temporaries, and the multi-chunk loading buffer, held permanently."""
        if self._allocated:
            return
        cfg = self.config
        mem = self.machine.memory
        mem.allocate(f"{self.model_kind}:parameters", self.parameter_bytes())
        mem.allocate(
            f"{self.model_kind}:workspace", self.workspace_bytes(cfg.batch_size)
        )
        if cfg.machine.is_coprocessor:
            chunk_bytes = cfg.effective_chunk_examples * cfg.n_visible * _F64
            mem.allocate("loading_buffer", chunk_bytes * cfg.n_buffers)
        self._allocated = True

    def _update_cost(self, batch_size: int) -> Tuple[float, TimingBreakdown]:
        """Simulated (seconds, breakdown) of one update — memoized.

        Executes the kernel levels once on a scratch machine sharing this
        trainer's spec/backend; fusion is applied per the backend.
        """
        cached = self._update_cache.get(batch_size)
        if cached is not None:
            return cached
        backend = self.config.effective_backend
        scratch = SimulatedMachine(self.config.machine, backend)
        levels = self.step_levels(batch_size)
        if backend.fused_elementwise:
            levels = [fuse_elementwise(list(level)) for level in levels]
        scratch.execute_levels(levels)
        result = (scratch.clock, scratch.breakdown())
        self._update_cache[batch_size] = result
        return result

    def _epoch_batch_sizes(self) -> List[Tuple[int, int]]:
        """[(batch_size, count)] per epoch (full batches + optional tail)."""
        cfg = self.config
        n_full, tail = divmod(cfg.n_examples, cfg.batch_size)
        sizes = []
        if n_full:
            sizes.append((cfg.batch_size, n_full))
        if tail:
            sizes.append((tail, 1))
        return sizes

    def _simulate_compute(self) -> Tuple[float, TimingBreakdown, int]:
        """Total device compute seconds over all epochs (no transfers)."""
        total_s = 0.0
        breakdown = TimingBreakdown()
        n_updates = 0
        for size, count in self._epoch_batch_sizes():
            seconds, bd = self._update_cost(size)
            reps = count * self.config.epochs
            total_s += seconds * reps
            breakdown = breakdown + bd.scaled(reps)
            n_updates += reps
        return total_s, breakdown, n_updates

    def _simulate_transfers(self, compute_seconds: float) -> Optional[OffloadTimeline]:
        """Pipeline the chunk staging against compute (coprocessors only).

        The dataset crosses PCIe once; every epoch reuses the resident
        chunks (the paper trains each staged chunk before moving on, and
        re-staging per epoch would only inflate the transfer column —
        configs whose chunk pool can't hold the dataset pay per-epoch
        staging instead).
        """
        cfg = self.config
        if not cfg.machine.is_coprocessor:
            return None
        plan = plan_chunks(
            cfg.n_examples, cfg.n_visible, cfg.effective_chunk_examples, cfg.batch_size
        )
        pool_holds_dataset = plan.n_chunks <= cfg.n_buffers
        repeats = 1 if pool_holds_dataset else cfg.epochs
        chunk_bytes = [plan.chunk_bytes(i) for i in range(plan.n_chunks)] * repeats
        per_chunk_compute = [
            compute_seconds * (size / (plan.n_examples * repeats))
            for size in plan.chunk_sizes
        ] * repeats
        # Spread epoch compute uniformly over staged chunks: with a resident
        # pool the remaining epochs' compute extends the last chunk's share.
        if pool_holds_dataset and cfg.epochs > 1:
            staged = sum(per_chunk_compute)
            per_chunk_compute[-1] += compute_seconds - staged
        pipeline = OffloadPipeline(
            self.machine.cost_model.pcie or PCIeModel.paper_calibrated(),
            n_buffers=cfg.n_buffers,
            double_buffering=cfg.double_buffering,
        )
        return pipeline.run_analytic(chunk_bytes, per_chunk_compute)

    # ------------------------------------------------------------------
    def _fit(
        self,
        model,
        data,
        rng,
        callbacks,
        *,
        metric=None,
        keep_metrics: bool = True,
        **options,
    ) -> TrainingRunResult:
        """Train ``model`` on ``data`` through the unified loop for this
        trainer's schedule, charging each update's memoized kernel cost
        to the simulated clock.  ``metric`` and ``options`` go to the
        :class:`~repro.train.loop.ModelStep`; with ``keep_metrics`` the
        epoch metrics become the result's ``reconstruction_errors``."""
        breakdown = TimingBreakdown()
        epoch_metrics: List[float] = []

        def charge(n_rows: int) -> float:
            nonlocal breakdown
            seconds, bd = self._update_cost(n_rows)
            breakdown = breakdown + bd
            return seconds

        cfg = self.config
        step = ModelStep(
            model, data, cfg.learning_rate, rng=rng, metric=metric, charge=charge,
            **options,
        )
        loop = TrainLoop(callbacks=callbacks)
        recorder = _FitRecorder()
        loop.monitor.callbacks.append(recorder)
        loop.run_epochs(
            step,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            rng=rng,
            metrics=epoch_metrics if keep_metrics else None,
        )
        timeline = self._simulate_transfers(loop.simulated_seconds)
        transfer_total = timeline.transfer_total_s if timeline else 0.0
        transfer_exposed = timeline.exposed_transfer_s if timeline else 0.0
        total = timeline.total_s if timeline else loop.simulated_seconds
        return TrainingRunResult(
            machine_name=self.config.machine.name,
            backend_name=self.config.effective_backend.name,
            simulated_seconds=total,
            breakdown=breakdown,
            n_updates=recorder.n_updates,
            losses=recorder.losses,
            reconstruction_errors=epoch_metrics,
            transfer_seconds_total=transfer_total,
            transfer_seconds_exposed=transfer_exposed,
            device_memory_peak=self.machine.memory.peak,
        )

    # ------------------------------------------------------------------
    def simulate(self) -> TrainingRunResult:
        """Timing-only run at the configured (paper-scale) dimensions."""
        self._ensure_device_allocations()
        compute_s, breakdown, n_updates = self._simulate_compute()
        timeline = self._simulate_transfers(compute_s)
        if timeline is None:
            total = compute_s
            transfer_total = transfer_exposed = 0.0
        else:
            total = timeline.total_s
            transfer_total = timeline.transfer_total_s
            transfer_exposed = timeline.exposed_transfer_s
        breakdown = breakdown + TimingBreakdown(
            total_s=transfer_exposed, transfer_s=transfer_total
        )
        return TrainingRunResult(
            machine_name=self.config.machine.name,
            backend_name=self.config.effective_backend.name,
            simulated_seconds=total,
            breakdown=breakdown,
            n_updates=n_updates,
            transfer_seconds_total=transfer_total,
            transfer_seconds_exposed=transfer_exposed,
            device_memory_peak=self.machine.memory.peak,
        )

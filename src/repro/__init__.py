"""repro — reproduction of "Training Large Scale Deep Neural Networks on
the Intel Xeon Phi Many-core Coprocessor" (Jin et al., IPDPSW 2014).

The package pairs *functional* NumPy implementations of the paper's
networks (sparse autoencoder, RBM, greedy deep pre-training) with a
*simulated* many-core coprocessor (roofline cost model + discrete-event
offload pipeline) so the paper's parallelization study — Table I's
optimization ladder, Figs. 7–10's sweeps, the Fig. 5 transfer overlap —
can be regenerated on any machine.

Quick tour::

    from repro import TrainingConfig, SparseAutoencoderTrainer, digit_dataset

    x, _ = digit_dataset(512, size=16, seed=0)
    cfg = TrainingConfig(n_visible=256, n_hidden=64,
                         n_examples=512, batch_size=64, epochs=20)
    result = SparseAutoencoderTrainer(cfg).fit(x)
    print(result.reconstruction_errors[-1], result.simulated_seconds)

Sub-packages:

* :mod:`repro.nn` — the networks (real numerics);
* :mod:`repro.train` — the unified training loop, callbacks, events;
* :mod:`repro.optim` — SGD, schedules, L-BFGS, CG;
* :mod:`repro.data` — synthetic digits / natural images, patches, chunks;
* :mod:`repro.phi` — the simulated Xeon Phi / Xeon machines;
* :mod:`repro.runtime` — backends, parallel-for, task graphs, fusion,
  the offload pipeline;
* :mod:`repro.core` — the paper's trainers and pre-training driver;
* :mod:`repro.bench` — workloads + harness for every table and figure;
* :mod:`repro.serve` — micro-batched inference serving (one engine);
* :mod:`repro.cluster` — sharded multi-replica serving: router, hedging,
  zero-downtime swap, autoscaler;
* :mod:`repro.shard` — dropout-decoupled model parallelism: column
  partitioner, per-shard checkpoints (sharded pre-training is
  :func:`repro.nn.sharded.sharded_pretrain`);
* :mod:`repro.workloads` — replayable workload traces, the pattern
  catalog, the trace replayer, and SLO gates.
"""

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeviceMemoryError,
    ReproError,
    SchedulingError,
    ServingError,
    ShapeError,
    SimulationError,
)

# networks
from repro.nn import (
    RBM,
    DeepBeliefNetwork,
    LayerSpec,
    SparseAutoencoder,
    SparseAutoencoderCost,
    StackedAutoencoder,
)

# the unified training runtime
from repro.train import (
    CallbackList,
    ChunkSchedule,
    EarlyStopping,
    EpochEvent,
    History,
    LayerEvent,
    PhaseTimings,
    ProgressLogger,
    TrainLoop,
    TrainStep,
    TrainingCallback,
    UpdateEvent,
)

# data
from repro.data import (
    Dataset,
    digit_dataset,
    extract_patches,
    make_digit_images,
    make_natural_images,
    normalize_patches,
    plan_chunks,
    whiten_patches,
)

# machines
from repro.phi import (
    MachineSpec,
    PCIeModel,
    SimulatedMachine,
    XEON_E5620,
    XEON_E5620_DUAL,
    XEON_E5620_SINGLE_CORE,
    XEON_PHI_5110P,
    XEON_PHI_5110P_30C,
    get_machine,
    phi_with_cores,
)

# runtime
from repro.runtime import (
    ExecutionBackend,
    OffloadPipeline,
    OptimizationLevel,
    TaskGraph,
    backend_for_level,
    fuse_elementwise,
    matlab_backend,
    optimized_cpu_backend,
    rbm_cd1_taskgraph,
)

# the paper's trainers
from repro.core import (
    ChunkedTrainingPipeline,
    DeepPretrainer,
    HeterogeneousSplit,
    RBMTrainer,
    SparseAutoencoderTrainer,
    SpeedupReport,
    TrainingConfig,
    TrainingRunResult,
)

# bench harness conveniences
from repro.bench import (
    format_series,
    format_table,
    format_timeline,
    simulate_seconds,
    sweep,
    table1_pretrainer,
    write_csv,
    write_json,
)

__version__ = "1.0.0"

# Serving (repro.serve) and cluster (repro.cluster) layers — resolved
# lazily via __getattr__ below so training-only users pay no import cost
# for the deployment subsystems.
_SERVE_EXPORTS = frozenset(
    {
        "BatchPolicy",
        "MicroBatcher",
        "FeatureCache",
        "ConstantServiceModel",
        "SimulatedServiceModel",
        "ServingEngine",
        "WorkerPool",
        "PoissonArrivals",
        "BurstArrivals",
        "ServingMetrics",
        "ModelRegistry",
        "ServableModel",
        "run_serve_bench",
    }
)


_CLUSTER_EXPORTS = frozenset(
    {
        "Autoscaler",
        "AutoscalerConfig",
        "ClusterMetrics",
        "ConsistentHashPolicy",
        "HedgePolicy",
        "LeastLoadedPolicy",
        "Replica",
        "ReplicaConfig",
        "ReplicatedRegistry",
        "RoundRobinPolicy",
        "Router",
        "SwapTicket",
        "run_cluster_bench",
    }
)


_SHARD_EXPORTS = frozenset(
    {
        "Partition",
        "CrossBlock",
        "ModelShard",
        "partition_model",
        "merge_shards",
        "gather_outputs",
        "shard_servables",
        "save_shard_checkpoint",
        "read_shard_checkpoint",
        "ShardRouter",
        "sharded_pretrain",
        "run_shard_bench",
    }
)


_WORKLOADS_EXPORTS = frozenset(
    {
        "Trace",
        "TraceEvent",
        "TraceReplayer",
        "ReplayReport",
        "SLOGate",
        "trace_from_arrivals",
        "generate_trace",
    }
)


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        import repro.serve as _serve

        return getattr(_serve, name)
    if name in _CLUSTER_EXPORTS:
        import repro.cluster as _cluster

        return getattr(_cluster, name)
    if name in _SHARD_EXPORTS:
        if name == "ShardRouter":
            from repro.cluster import ShardRouter

            return ShardRouter
        if name == "sharded_pretrain":
            from repro.nn.sharded import sharded_pretrain

            return sharded_pretrain
        if name == "run_shard_bench":
            from repro.bench.shardbench import run_shard_bench

            return run_shard_bench
        import repro.shard as _shard

        # partition/merge get explicit names at the top level: "partition"
        # alone would read as a generic verb next to the training API.
        if name == "partition_model":
            return _shard.partition
        if name == "merge_shards":
            return _shard.merge
        return getattr(_shard, name)
    if name in _WORKLOADS_EXPORTS:
        import repro.workloads as _workloads

        if name == "generate_trace":  # avoid shadowing a generic name
            return _workloads.generate
        return getattr(_workloads, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "ConvergenceError",
    "DeviceMemoryError",
    "SimulationError",
    "SchedulingError",
    "ServingError",
    # networks
    "SparseAutoencoder",
    "SparseAutoencoderCost",
    "RBM",
    "StackedAutoencoder",
    "DeepBeliefNetwork",
    "LayerSpec",
    # training runtime
    "TrainLoop",
    "TrainStep",
    "ChunkSchedule",
    "TrainingCallback",
    "CallbackList",
    "History",
    "EarlyStopping",
    "ProgressLogger",
    "UpdateEvent",
    "EpochEvent",
    "LayerEvent",
    "PhaseTimings",
    # data
    "Dataset",
    "digit_dataset",
    "make_digit_images",
    "make_natural_images",
    "extract_patches",
    "normalize_patches",
    "whiten_patches",
    "plan_chunks",
    # machines
    "MachineSpec",
    "XEON_PHI_5110P",
    "XEON_PHI_5110P_30C",
    "XEON_E5620",
    "XEON_E5620_SINGLE_CORE",
    "XEON_E5620_DUAL",
    "phi_with_cores",
    "get_machine",
    "SimulatedMachine",
    "PCIeModel",
    # runtime
    "OptimizationLevel",
    "ExecutionBackend",
    "backend_for_level",
    "optimized_cpu_backend",
    "matlab_backend",
    "TaskGraph",
    "rbm_cd1_taskgraph",
    "fuse_elementwise",
    "OffloadPipeline",
    # trainers
    "TrainingConfig",
    "TrainingRunResult",
    "SpeedupReport",
    "SparseAutoencoderTrainer",
    "RBMTrainer",
    "DeepPretrainer",
    "ChunkedTrainingPipeline",
    "HeterogeneousSplit",
    # bench
    "format_table",
    "format_series",
    "format_timeline",
    "write_csv",
    "write_json",
    "sweep",
    "simulate_seconds",
    "table1_pretrainer",
    # serving (lazy — see __getattr__)
    "ModelRegistry",
    "ServableModel",
    "ServingEngine",
    "BatchPolicy",
    "FeatureCache",
    "PoissonArrivals",
    "BurstArrivals",
    "run_serve_bench",
    # cluster (lazy — see __getattr__)
    "Router",
    "ReplicatedRegistry",
    "Autoscaler",
    "HedgePolicy",
    "ConsistentHashPolicy",
    "run_cluster_bench",
    # shard (lazy — see __getattr__)
    "Partition",
    "CrossBlock",
    "ModelShard",
    "partition_model",
    "merge_shards",
    "gather_outputs",
    "shard_servables",
    "save_shard_checkpoint",
    "read_shard_checkpoint",
    "ShardRouter",
    "sharded_pretrain",
    "run_shard_bench",
    # workloads (lazy — see __getattr__)
    "Trace",
    "TraceEvent",
    "TraceReplayer",
    "ReplayReport",
    "SLOGate",
    "trace_from_arrivals",
    "generate_trace",
    "__version__",
]

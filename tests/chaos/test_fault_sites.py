"""Regression: the registered fault-site surface survived the loop refactor.

The chaos drills and the resilience docs address kill points by name
(``engine.worker``, ``prefetch.load``, …).  Routing the CLI training
paths through :class:`repro.train.loop.TrainLoop` must not rename,
drop, or duplicate any of them.
"""

import threading

import numpy as np
import pytest

from repro.testing.faults import FaultError, FaultPlan, inject, registered_sites

# The complete kill-anywhere surface as of the model-parallel shard tier.
EXPECTED_SITES = {
    "engine.worker",
    "engine.reduce",
    "prefetch.load",
    "prefetch.chunk",
    "taskgraph.node",
    "offload.chunk",
    "router.dispatch",
    "replica.serve",
    "pipeline.stage",
    "pipeline.queue",
    "shard.exchange",
    "shard.gather",
}


def _import_instrumented_modules():
    # Importing the runtime package pulls in every instrumented module.
    import repro.runtime.executor  # noqa: F401
    import repro.runtime.offload  # noqa: F401
    import repro.runtime.taskgraph  # noqa: F401

    # The cluster tier registers its own sites on import.
    import repro.cluster.replica  # noqa: F401
    import repro.cluster.router  # noqa: F401

    # The pipelined pre-training stages register theirs.
    import repro.train.pipeline  # noqa: F401


class TestRegisteredSites:
    def test_site_list_is_unchanged(self):
        _import_instrumented_modules()
        assert set(registered_sites()) == EXPECTED_SITES

    def test_every_site_has_a_description(self):
        _import_instrumented_modules()
        for site, description in registered_sites().items():
            assert description.strip(), f"site {site!r} has no description"


class TestSitesStillFireThroughTheUnifiedLoop:
    def test_engine_worker_fires_under_trainloop_pretrain(self, tmp_path):
        """A worker kill during pretrain still raises from the named site
        now that the stack trains through TrainLoop."""
        from repro.data.synth_digits import digit_dataset
        from repro.nn.stacked import LayerSpec, StackedAutoencoder
        from repro.runtime.executor import ParallelGradientEngine
        from repro.testing.faults import FaultError

        x, _ = digit_dataset(32, size=5, seed=3)
        stack = StackedAutoencoder(
            25, [LayerSpec(6, epochs=1, batch_size=16)], seed=3
        )
        plan = FaultPlan.kill_worker(worker=1, nth=0)
        with ParallelGradientEngine(2, blas_threads=None, seed=3) as eng:
            with inject(plan):
                try:
                    stack.pretrain(np.asarray(x, dtype=np.float64), engine=eng)
                    raised = None
                except FaultError as exc:
                    raised = exc
        assert raised is not None
        assert raised.site == "engine.worker"
        assert plan.fired("engine.worker") == 1

    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
    def test_engine_worker_fault_surfaces_from_the_thread_that_ran_the_shard(
        self, threaded, request
    ):
        """Below the dispatch cutoff the fault fires on the calling thread;
        with the cutoff at 0 it fires on slot thread 1 and still surfaces
        through that shard's future."""
        from repro.data.synth_digits import digit_dataset
        from repro.nn.stacked import LayerSpec, StackedAutoencoder
        from repro.runtime.executor import ParallelGradientEngine

        if threaded:
            request.getfixturevalue("threaded_dispatch")
        fired_on = []

        def fault():
            fired_on.append(threading.current_thread().name)
            return FaultError("engine.worker", 0)

        x, _ = digit_dataset(32, size=5, seed=3)
        stack = StackedAutoencoder(
            25, [LayerSpec(6, epochs=1, batch_size=16)], seed=3
        )
        plan = FaultPlan.fail("engine.worker", match={"worker": 1}, exc=fault)
        with ParallelGradientEngine(2, blas_threads=None, seed=3, name="eng") as eng:
            with inject(plan):
                with pytest.raises(FaultError) as info:
                    stack.pretrain(np.asarray(x, dtype=np.float64), engine=eng)
        assert plan.fired("engine.worker") == 1
        caller = threading.current_thread().name
        assert fired_on == ["eng-worker-1" if threaded else caller]

    def test_prefetch_sites_fire_in_chunked_mode(self):
        """TrainLoop's chunked staging visits the prefetcher's sites."""
        from repro.data.synth_digits import digit_dataset
        from repro.nn.stacked import LayerSpec, StackedAutoencoder
        from repro.train import ChunkSchedule

        x, _ = digit_dataset(32, size=5, seed=3)
        stack = StackedAutoencoder(
            25, [LayerSpec(6, epochs=1, batch_size=16)], seed=3
        )
        plan = FaultPlan.perturb(seed=0, jitter_s=0.0)
        with inject(plan):
            stack.pretrain(
                np.asarray(x, dtype=np.float64),
                chunks=ChunkSchedule(chunk_examples=16),
            )
        assert plan.visits("prefetch.load") > 0
        assert plan.visits("prefetch.chunk") > 0

"""Tests for repro.runtime.taskgraph — DAG scheduling and paper Fig. 6."""

import threading

import pytest

from repro.errors import SchedulingError
from repro.phi.kernels import elementwise, gemm
from repro.runtime.taskgraph import TaskGraph, rbm_cd1_taskgraph


class TestTaskGraphBasics:
    def test_add_and_lookup(self):
        g = TaskGraph()
        g.add("a")
        g.add("b", deps=["a"])
        assert "a" in g and "b" in g
        assert len(g) == 2
        assert g.node("b").deps == ("a",)

    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add("a")
        with pytest.raises(SchedulingError, match="duplicate"):
            g.add("a")

    def test_unknown_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(SchedulingError, match="unknown task"):
            g.add("b", deps=["ghost"])

    def test_unknown_node_lookup(self):
        with pytest.raises(SchedulingError):
            TaskGraph().node("x")


class TestWavefronts:
    def test_diamond(self):
        g = TaskGraph()
        g.add("src")
        g.add("left", deps=["src"])
        g.add("right", deps=["src"])
        g.add("sink", deps=["left", "right"])
        fronts = [[n.name for n in level] for level in g.wavefronts()]
        assert fronts == [["src"], ["left", "right"], ["sink"]]

    def test_chain_has_no_parallelism(self):
        g = TaskGraph()
        g.add("a")
        g.add("b", deps=["a"])
        g.add("c", deps=["b"])
        assert all(len(level) == 1 for level in g.wavefronts())

    def test_independent_nodes_share_level_zero(self):
        g = TaskGraph()
        g.add("x")
        g.add("y")
        fronts = g.wavefronts()
        assert len(fronts) == 1 and len(fronts[0]) == 2

    def test_kernel_levels_drop_empty_nodes(self):
        g = TaskGraph()
        g.add("data")  # no kernel
        g.add("work", kernel=gemm(8, 8, 8), deps=["data"])
        levels = g.kernel_levels()
        assert levels[0] == []
        assert levels[1][0].name == "gemm"


class TestCriticalPath:
    def test_picks_heaviest_chain(self):
        g = TaskGraph()
        g.add("a")
        g.add("fast", deps=["a"])
        g.add("slow", deps=["a"])
        g.add("end", deps=["fast", "slow"])
        cost = {"a": 1.0, "fast": 1.0, "slow": 10.0, "end": 1.0}
        path = g.critical_path(lambda n: cost[n.name])
        assert path == ["a", "slow", "end"]
        assert g.critical_path_cost(lambda n: cost[n.name]) == 12.0

    def test_serial_cost_is_total(self):
        g = TaskGraph()
        g.add("a")
        g.add("b", deps=["a"])
        assert g.serial_cost(lambda n: 2.0) == 4.0

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.critical_path(lambda n: 1.0) == []


class TestFig6Graph:
    """The paper's stated schedule: 'Once V1 is calculated, then we can
    only compute H1 … the computations of V2 and C1 can run in parallel
    … compute Vb, H2 after V2, and compute Vb, Vc and Vw after H2'."""

    def test_node_set(self):
        g = rbm_cd1_taskgraph()
        assert set(g.names) == {"V1", "H1", "V2", "C1", "H2", "Vb", "C2", "Vc", "Vw"}

    def test_h1_is_alone_after_v1(self):
        fronts = [[n.name for n in lvl] for lvl in rbm_cd1_taskgraph().wavefronts()]
        assert fronts[0] == ["V1"]
        assert fronts[1] == ["H1"]

    def test_v2_and_c1_run_in_parallel(self):
        fronts = [{n.name for n in lvl} for lvl in rbm_cd1_taskgraph().wavefronts()]
        assert {"V2", "C1"} <= fronts[2]

    def test_gradients_wait_for_their_inputs(self):
        g = rbm_cd1_taskgraph()
        assert set(g.node("Vw").deps) == {"C1", "C2"}
        assert g.node("Vb").deps == ("V2",)
        assert g.node("Vc").deps == ("H2",)

    def test_kernels_attached_by_name(self):
        kernels = {"V1": gemm(4, 4, 4), "Vw": elementwise(16)}
        g = rbm_cd1_taskgraph(kernels)
        assert g.node("V1").kernel is kernels["V1"]
        assert g.node("Vw").kernel is kernels["Vw"]
        assert g.node("H1").kernel is None

    def test_cd1_graph_runs_on_its_own_pool(self):
        g = rbm_cd1_taskgraph()
        trace = []

        def make(name):
            def fn(deps):
                trace.append((name, threading.current_thread().name))
                return name

            return fn

        results = g.execute({name: make(name) for name in g.names}, n_workers=2)
        assert results == {name: name for name in g.names}
        assert all(thread.startswith("taskgraph") for _, thread in trace)
        # Every node ran after all of its dependencies.
        order = {name: i for i, (name, _) in enumerate(trace)}
        for name in g.names:
            for dep in g.node(name).deps:
                assert order[dep] < order[name]

    def test_wavefront_parallelism_shortens_critical_path(self):
        """The graph's reason to exist: the critical path is strictly
        shorter than serial execution."""
        g = rbm_cd1_taskgraph()
        cost = lambda n: 1.0
        assert g.critical_path_cost(cost) < g.serial_cost(cost)

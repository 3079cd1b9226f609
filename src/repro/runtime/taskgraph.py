"""Dependency-graph scheduling of kernel computations (paper Fig. 6).

The paper draws the dependency graph of the CD-1 temporaries — "Each
arrow pointing from A to B denotes that the calculation of B depends on
the calculation of A" — and schedules independent nodes concurrently:
after H1, {V2} runs; after V2, {Vb, H2} run in parallel; after H2,
{Vb, Vc, Vw} run in parallel.

:class:`TaskGraph` is a general DAG with Kahn-layer ("wavefront")
scheduling and critical-path analysis; :func:`rbm_cd1_taskgraph` ships
the paper's Fig. 6 instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.phi.kernels import Kernel
from repro.testing.faults import fault_point, register_fault_site

SITE_TASKGRAPH_NODE = register_fault_site(
    "taskgraph.node", "on a pool thread, before a TaskGraph.execute node runs"
)


def _run_node(fn: Callable, name: str, deps: Dict[str, object]):
    """Pool-side wrapper so injected faults fire on the worker thread."""
    fault_point(SITE_TASKGRAPH_NODE, node=name)
    return fn(deps)


@dataclass
class TaskNode:
    """One node of the DAG: a named kernel plus its dependency names."""

    name: str
    kernel: Optional[Kernel]
    deps: tuple

    def __hash__(self):
        return hash(self.name)


class TaskGraph:
    """A DAG of kernels with wavefront scheduling.

    Nodes are added with explicit dependency lists; :meth:`wavefronts`
    returns the Kahn levels (every node appears exactly one level after
    its deepest dependency), which is the concurrency structure the
    paper exploits in Fig. 6.
    """

    def __init__(self):
        self._nodes: Dict[str, TaskNode] = {}
        self._order: List[str] = []

    def add(self, name: str, kernel: Optional[Kernel] = None, deps: Sequence[str] = ()) -> TaskNode:
        """Add a node; dependencies must already exist (build in topo order)."""
        if name in self._nodes:
            raise SchedulingError(f"duplicate task name {name!r}")
        for dep in deps:
            if dep not in self._nodes:
                raise SchedulingError(f"task {name!r} depends on unknown task {dep!r}")
        node = TaskNode(name=name, kernel=kernel, deps=tuple(deps))
        self._nodes[name] = node
        self._order.append(name)
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> TaskNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise SchedulingError(f"unknown task {name!r}") from None

    @property
    def names(self) -> List[str]:
        return list(self._order)

    # ------------------------------------------------------------------
    def wavefronts(self) -> List[List[TaskNode]]:
        """Topological levels: level(n) = 1 + max(level(dep)).

        Nodes within a level are mutually independent and may run
        concurrently.  Insertion requires deps to pre-exist, so the
        graph is acyclic by construction; this recomputes levels fresh
        each call (graphs are small).
        """
        level: Dict[str, int] = {}
        for name in self._order:
            node = self._nodes[name]
            level[name] = 1 + max((level[d] for d in node.deps), default=-1)
        n_levels = 1 + max(level.values(), default=-1)
        fronts: List[List[TaskNode]] = [[] for _ in range(n_levels)]
        for name in self._order:
            fronts[level[name]].append(self._nodes[name])
        return fronts

    def kernel_levels(self) -> List[List[Kernel]]:
        """Wavefronts with the kernels extracted (barrier-only nodes dropped)."""
        return [
            [node.kernel for node in front if node.kernel is not None]
            for front in self.wavefronts()
        ]

    def execute(
        self,
        fns: Optional[Dict[str, Callable[[Dict[str, object]], object]]] = None,
        n_workers: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run the graph's wavefronts *concurrently* on a thread pool.

        This is the executable counterpart of :meth:`wavefronts`: nodes in
        the same Kahn level are submitted together and joined before the
        next level starts — the paper's Fig. 6 schedule ("the computations
        of V2 and C1 can run in parallel").

        Parameters
        ----------
        fns:
            Callables keyed by node name.  Each is invoked as
            ``fn(deps)`` where ``deps`` maps dependency names to their
            results; nodes without a callable yield ``None`` (barrier
            nodes).  Unknown keys raise :class:`~repro.errors.SchedulingError`.
        n_workers:
            Threads of the private ``ThreadPoolExecutor`` the call creates
            and tears down; default: the widest wavefront.

        Returns the full ``{node name: result}`` mapping.
        """
        fns = dict(fns or {})
        for name in fns:
            if name not in self._nodes:
                raise SchedulingError(f"execute() got callable for unknown task {name!r}")
        from concurrent.futures import ThreadPoolExecutor

        fronts = self.wavefronts()
        width = max((len(f) for f in fronts), default=1)
        results: Dict[str, object] = {}
        with ThreadPoolExecutor(
            max_workers=n_workers or width, thread_name_prefix="taskgraph"
        ) as pool:
            for front in fronts:
                futures = {}
                for node in front:
                    fn = fns.get(node.name)
                    if fn is None:
                        results[node.name] = None
                        continue
                    deps = {d: results[d] for d in node.deps}
                    futures[node.name] = pool.submit(_run_node, fn, node.name, deps)
                for name, future in futures.items():
                    results[name] = future.result()
        return results

    def critical_path(self, cost: Callable[[TaskNode], float]) -> List[str]:
        """The dependency chain with the largest summed ``cost``."""
        best: Dict[str, float] = {}
        parent: Dict[str, Optional[str]] = {}
        for name in self._order:
            node = self._nodes[name]
            dep_best, dep_parent = 0.0, None
            for d in node.deps:
                if best[d] > dep_best:
                    dep_best, dep_parent = best[d], d
            best[name] = dep_best + cost(node)
            parent[name] = dep_parent
        if not best:
            return []
        end = max(best, key=best.get)
        path = [end]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return list(reversed(path))

    def critical_path_cost(self, cost: Callable[[TaskNode], float]) -> float:
        """Summed cost along :meth:`critical_path`."""
        return sum(cost(self._nodes[name]) for name in self.critical_path(cost))

    def serial_cost(self, cost: Callable[[TaskNode], float]) -> float:
        """Total cost if every node runs back-to-back."""
        return sum(cost(node) for node in self._nodes.values())


# ---------------------------------------------------------------------------
# Fig. 6: dependency graph of one RBM CD-1 gradient computation
# ---------------------------------------------------------------------------

def rbm_cd1_taskgraph(kernels: Optional[Dict[str, Kernel]] = None) -> TaskGraph:
    """The paper's Fig. 6 graph over the CD-1 temporaries.

    Node names follow the figure: V1 (the clamped data batch / its hidden
    drive), H1 (first hidden probabilities+samples), V2 (reconstruction),
    H2 (second hidden probabilities), C1/C2 (the positive/negative phase
    correlation products ⟨vh⟩), and the gradients Vb, Vc, Vw.

    Edges (paper §IV.B.1): V1→H1; H1→{V2, C1}; V2→{Vb, H2}; H2→{Vc, C2};
    {C1, C2}→Vw.  "Once V1 is calculated, then we can only compute H1 …
    the computations of V2 and C1 can run in parallel … compute Vb, H2
    after V2, and compute Vb, Vc and Vw after H2 in parallel."

    ``kernels`` optionally attaches a kernel to each node (keys must be
    node names); omitted nodes carry ``None`` and cost nothing.
    """
    kernels = kernels or {}
    g = TaskGraph()
    g.add("V1", kernels.get("V1"))
    g.add("H1", kernels.get("H1"), deps=["V1"])
    g.add("V2", kernels.get("V2"), deps=["H1"])
    g.add("C1", kernels.get("C1"), deps=["H1"])  # positive phase v₀ᵀh₀
    g.add("H2", kernels.get("H2"), deps=["V2"])
    g.add("Vb", kernels.get("Vb"), deps=["V2"])  # Δb = v₀ − v₁
    g.add("C2", kernels.get("C2"), deps=["H2"])  # negative phase v₁ᵀh₁
    g.add("Vc", kernels.get("Vc"), deps=["H2"])  # Δc = h₀ − h₁
    g.add("Vw", kernels.get("Vw"), deps=["C1", "C2"])  # ΔW = C1 − C2
    return g

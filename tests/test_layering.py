"""The import-layering lint passes on the real tree and catches violations."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_layering  # noqa: E402


class TestRealTree:
    def test_src_tree_is_clean(self):
        assert check_layering.check(REPO / "src") == []

    def test_cli_entry_point(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py"), "src"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "import layering OK" in proc.stdout


class TestBoundaryTable:
    """docs/architecture.md's boundary table states the lint's rules."""

    @staticmethod
    def table():
        """``{module: [prefix, ...]}`` from the first table after the
        "The enforced boundary" heading; prose after a ``—`` is skipped."""
        text = (REPO / "docs" / "architecture.md").read_text()
        lines = text.split("## The enforced boundary", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            module, rule = (c.strip() for c in line.strip().strip("|").split("|"))
            name = re.fullmatch(r"`(repro[\w.]*)`", module)
            if name is None:
                continue  # header and separator
            assert name.group(1) not in rows, f"{name.group(1)} listed twice"
            rows[name.group(1)] = re.findall(r"`([\w.]+)`", rule.split(" — ")[0])
        return rows

    def test_table_lists_every_rule_with_exactly_its_prefixes(self):
        table = {pkg: sorted(prefixes) for pkg, prefixes in self.table().items()}
        assert table == {
            pkg: sorted(banned) for pkg, banned in check_layering.FORBIDDEN.items()
        }


class TestDetection:
    def _tree(self, tmp_path, body):
        pkg = tmp_path / "repro" / "train"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "loop.py").write_text(body)
        return tmp_path

    def test_flags_module_level_violation(self, tmp_path):
        root = self._tree(tmp_path, "from repro.phi.spec import XEON_PHI_5110P\n")
        violations = check_layering.check(root)
        assert len(violations) == 1
        _, lineno, mod, imported, banned = violations[0]
        assert (lineno, mod, imported, banned) == (
            1, "repro.train.loop", "repro.phi.spec", "repro.phi"
        )

    def test_flags_function_level_violation(self, tmp_path):
        root = self._tree(
            tmp_path,
            "def f():\n    import repro.nn.mlp\n",
        )
        violations = check_layering.check(root)
        assert [v[3] for v in violations] == ["repro.nn.mlp"]

    def test_flags_pipeline_module_reaching_into_nn(self, tmp_path):
        """repro.train.pipeline schedules opaque StagePlans — a model
        import there is a boundary break the lint must catch."""
        root = self._pkg(
            tmp_path, "repro.train", "pipeline.py",
            "from repro.nn.stacked import StackedAutoencoder\n",
        )
        violations = check_layering.check(root)
        assert [(v[2], v[4]) for v in violations] == [
            ("repro.train.pipeline", "repro.nn")
        ]

    def test_allows_permitted_imports(self, tmp_path):
        root = self._tree(
            tmp_path,
            "import numpy\nfrom repro.runtime.executor import ChunkPrefetcher\n",
        )
        assert check_layering.check(root) == []

    def test_nn_must_not_import_core(self, tmp_path):
        pkg = tmp_path / "repro" / "nn"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "bad.py").write_text("from repro.core import TrainingConfig\n")
        violations = check_layering.check(tmp_path)
        assert [v[4] for v in violations] == ["repro.core"]

    def test_data_imports_nothing_above_utils(self, tmp_path):
        root = self._pkg(
            tmp_path, "repro.data", "loader.py",
            "from repro.utils.rng import as_generator\n"
            "from repro.workloads.trace import Trace\n"
            "from repro.testing.faults import fault_point\n",
        )
        violations = check_layering.check(root)
        assert [v[4] for v in violations] == ["repro.workloads", "repro.testing"]

    def test_runtime_must_not_import_nn(self, tmp_path):
        """The engines take per-shard maths from the model's shard
        protocol; a model import in repro.runtime, even a lazy one, would
        put the per-model engine code back."""
        root = self._pkg(
            tmp_path, "repro.runtime", "executor.py",
            "def f():\n    from repro.nn.rbm import CDStatistics\n",
        )
        violations = check_layering.check(root)
        assert [(v[2], v[3], v[4]) for v in violations] == [
            ("repro.runtime.executor", "repro.nn.rbm", "repro.nn")
        ]

    def _pkg(self, tmp_path, dotted, filename, body):
        pkg = tmp_path / Path(*dotted.split("."))
        pkg.mkdir(parents=True)
        for parent in [pkg, *pkg.parents]:
            if parent == tmp_path:
                break
            (parent / "__init__.py").write_text("")
        (pkg / filename).write_text(body)
        return tmp_path

    def test_serve_must_not_import_cluster(self, tmp_path):
        root = self._pkg(
            tmp_path, "repro.serve", "bad.py",
            "from repro.cluster.router import Router\n",
        )
        violations = check_layering.check(root)
        assert [v[4] for v in violations] == ["repro.cluster"]

    def test_serve_sits_below_shard_and_bench(self, tmp_path):
        """The shard layer wraps models as serve servables and the bench
        drives engines; neither edge may point back up from serve."""
        root = self._pkg(
            tmp_path, "repro.serve", "bad.py",
            "from repro.shard.shards import ModelShard\n"
            "def f():\n    from repro.bench.gate import validate\n",
        )
        violations = check_layering.check(root)
        assert sorted(v[4] for v in violations) == ["repro.bench", "repro.shard"]

    def test_cluster_must_not_reach_model_internals(self, tmp_path):
        root = self._pkg(
            tmp_path, "repro.cluster", "bad.py",
            "from repro.nn.mlp import DeepNetwork\n"
            "def f():\n    import repro.train.loop\n",
        )
        violations = check_layering.check(root)
        assert sorted(v[4] for v in violations) == ["repro.nn", "repro.train"]

    def test_cluster_must_not_import_bench(self, tmp_path):
        """The bench layer declares and gates the cluster bench; the
        cluster tier keeps only its drills."""
        root = self._pkg(
            tmp_path, "repro.cluster", "bad.py",
            "def f():\n    from repro.bench.gate import validate\n",
        )
        violations = check_layering.check(root)
        assert [v[4] for v in violations] == ["repro.bench"]

    def test_cluster_may_import_serve(self, tmp_path):
        root = self._pkg(
            tmp_path, "repro.cluster", "ok.py",
            "from repro.serve.engine import ServingEngine\n"
            "from repro.serve.registry import ServableModel\n",
        )
        assert check_layering.check(root) == []

    def test_workloads_must_not_import_the_tiers_it_drives(self, tmp_path):
        """Traces drive targets through the duck-typed submit/poll
        surface — a serve/cluster import in repro.workloads would close
        the dependency cycle the replayer exists to avoid."""
        root = self._pkg(
            tmp_path, "repro.workloads", "bad.py",
            "from repro.serve.engine import ServingEngine\n"
            "def f():\n    import repro.cluster.router\n"
            "def g():\n    from repro.train.loop import TrainLoop\n",
        )
        violations = check_layering.check(root)
        assert sorted(v[4] for v in violations) == [
            "repro.cluster", "repro.serve", "repro.train"
        ]

    def test_workloads_may_import_utility_layers(self, tmp_path):
        root = self._pkg(
            tmp_path, "repro.workloads", "ok.py",
            "import numpy\n"
            "from repro.errors import ConfigurationError\n"
            "from repro.utils.rng import spawn_generators\n"
            "from repro.phi.events import EventSimulator\n",
        )
        assert check_layering.check(root) == []

    def test_shard_must_not_import_train_or_cluster(self, tmp_path):
        """repro.shard is a model-substrate extension: the training loop
        composes *it* (via ShardedTrainStep closures) and the cluster
        tier wraps its servables — a reverse import is a cycle."""
        root = self._pkg(
            tmp_path, "repro.shard", "bad.py",
            "from repro.train.loop import TrainLoop\n"
            "def f():\n    import repro.cluster.shardrouter\n"
            "def g():\n    from repro.workloads import Trace\n",
        )
        violations = check_layering.check(root)
        assert sorted(v[4] for v in violations) == [
            "repro.cluster", "repro.train", "repro.workloads"
        ]

    def test_shard_may_import_nn_and_serve(self, tmp_path):
        """Slicing repro.nn models and wrapping them as repro.serve
        servables is the package's job — both edges are legal."""
        root = self._pkg(
            tmp_path, "repro.shard", "ok.py",
            "from repro.nn.mlp import DeepNetwork\n"
            "from repro.serve.registry import ServableModel\n"
            "from repro.runtime.checkpoint import CheckpointStore\n",
        )
        assert check_layering.check(root) == []

    def test_cluster_may_import_shard(self, tmp_path):
        root = self._pkg(
            tmp_path, "repro.cluster", "ok2.py",
            "from repro.shard.servables import gather_outputs\n"
            "from repro.shard.shards import ModelShard\n",
        )
        assert check_layering.check(root) == []

    @pytest.mark.parametrize("package", [
        "repro.nn", "repro.train", "repro.runtime", "repro.shard",
    ])
    def test_nothing_below_the_bench_imports_it(self, tmp_path, package):
        """The benches measure training code; a training driver kept in
        repro.bench, reached from below, is the edge this rule closes."""
        root = self._pkg(
            tmp_path, package, "bad.py",
            "from repro.bench.shardbench import run_shard_bench\n"
            "def f():\n    import repro.bench\n",
        )
        violations = check_layering.check(root)
        assert [(v[2], v[3], v[4]) for v in violations] == [
            (f"{package}.bad", "repro.bench.shardbench", "repro.bench"),
            (f"{package}.bad", "repro.bench", "repro.bench"),
        ]

    def test_nn_may_import_shard_and_train(self, tmp_path):
        """repro.nn.sharded runs the stack's cascade over shards: the
        nn → shard edge (as in _GreedyStack.partition) and nn → train
        are both legal."""
        root = self._pkg(
            tmp_path, "repro.nn", "ok.py",
            "from repro.shard.shards import partition\n"
            "from repro.train.shardstep import ShardedTrainStep\n",
        )
        assert check_layering.check(root) == []

"""The import-layering lint passes on the real tree and catches violations."""

import subprocess
import sys
from pathlib import Path

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

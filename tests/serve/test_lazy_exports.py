"""Smoke tests: repro.serve is reachable from `repro` without import-time cost."""

import subprocess
import sys

import repro


class TestLazyServeExports:
    def test_import_repro_does_not_import_serve(self):
        """Training-only users must not pay for the serving subsystem."""
        code = (
            "import sys; import repro; "
            "sys.exit(1 if any(m.startswith('repro.serve') for m in sys.modules) else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code])
        assert proc.returncode == 0, "importing repro eagerly imported repro.serve"

    def test_serve_names_resolve_lazily(self):
        assert repro.ServingEngine is not None
        assert repro.ModelRegistry is not None
        assert repro.BatchPolicy(max_batch_size=4).max_batch_size == 4
        from repro.serve import ServingEngine

        assert repro.ServingEngine is ServingEngine

    def test_lazy_names_in_all(self):
        for name in ("ServingEngine", "ModelRegistry", "PoissonArrivals"):
            assert name in repro.__all__

    def test_unknown_attribute_still_raises(self):
        try:
            repro.definitely_not_a_symbol
        except AttributeError as err:
            assert "definitely_not_a_symbol" in str(err)
        else:  # pragma: no cover
            raise AssertionError("expected AttributeError")

#!/usr/bin/env python3
"""Import-layering lint: freeze the package boundaries of the refactor.

The repository layers as ``data → nn → train → runtime → serve`` (see
docs/architecture.md), with :mod:`repro.train` owning the one training
loop and :mod:`repro.core` composing everything above it.  This script
fails the build when a package reaches *down* the wrong way:

* ``repro.train`` must not import ``repro.nn`` / ``repro.core`` /
  ``repro.phi`` / ``repro.serve`` / ``repro.cluster`` — models plug
  into the loop through the ``TrainStep`` adapter, never the other way
  around.  This covers :mod:`repro.train.pipeline` too: the pipelined
  pre-trainer schedules opaque ``StagePlan`` objects, and the
  model-aware stage construction lives on the nn side
  (``_GreedyStack._pretrain_pipelined``);
* ``repro.nn`` must not import ``repro.core`` / ``repro.serve`` /
  ``repro.cluster``;
* ``repro.runtime`` must not import ``repro.nn`` — the gradient engines
  run any model through its shard protocol (``shard_gradients`` and
  friends on the model), so the per-shard maths lives with the model;
* nothing below the bench — ``repro.nn``, ``repro.train``,
  ``repro.runtime``, ``repro.shard`` — imports ``repro.bench``: the
  benches measure the training code, they do not hold any of it;
* ``repro.data`` imports nothing above the utility layer
  (``repro.utils``, ``repro.errors``);
* ``repro.serve`` must not import ``repro.cluster``, ``repro.shard`` or
  ``repro.bench`` — the cluster tier composes engines, a single engine
  never knows it is replicated, sharded or benchmarked;
* ``repro.cluster`` reaches models only *through* the serve layer's
  ``ServableModel`` boundary — never ``repro.train`` / ``repro.nn`` /
  ``repro.core`` / ``repro.data`` internals directly — and never imports
  ``repro.bench``, which declares and gates the cluster bench;
* ``repro.workloads`` is pure data + replay: traces drive engines and
  routers through their duck-typed ``submit``/``poll`` surface, so the
  package must never import the serve / cluster / train / nn tiers it
  exercises (the bench layer composes them instead);
* ``repro.shard`` is a model-substrate extension (it slices ``repro.nn``
  models and wraps them as ``repro.serve`` servables), so it must never
  import the training loop, the cluster tier, or the workloads layer
  above it — ``repro.cluster`` may import ``repro.shard`` (the
  ``ShardRouter`` composes shard servables), never the reverse, and the
  sharded *training* driver is ``repro.nn.sharded``, which runs the
  stack's own greedy cascade.

Every import statement counts, module-level or function-level, so a
"lazy" import cannot smuggle a forbidden edge in.

Usage: ``python tools/check_layering.py [src-root]`` (default: ``src``).
Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: package → import prefixes it must never reference
FORBIDDEN = {
    "repro.train": (
        "repro.nn",
        "repro.core",
        "repro.phi",
        "repro.serve",
        "repro.cluster",
        "repro.bench",
    ),
    "repro.nn": (
        "repro.core",
        "repro.serve",
        "repro.cluster",
        "repro.bench",
    ),
    "repro.runtime": (
        "repro.nn",
        "repro.bench",
    ),
    "repro.data": (
        "repro.nn",
        "repro.train",
        "repro.runtime",
        "repro.phi",
        "repro.core",
        "repro.optim",
        "repro.serve",
        "repro.cluster",
        "repro.shard",
        "repro.workloads",
        "repro.bench",
        "repro.testing",
    ),
    "repro.serve": (
        "repro.cluster",
        "repro.shard",
        "repro.bench",
    ),
    "repro.cluster": (
        "repro.train",
        "repro.nn",
        "repro.core",
        "repro.data",
        "repro.bench",
    ),
    "repro.workloads": (
        "repro.serve",
        "repro.cluster",
        "repro.train",
        "repro.nn",
        "repro.core",
        "repro.data",
        "repro.runtime",
    ),
    "repro.shard": (
        "repro.train",
        "repro.cluster",
        "repro.workloads",
        "repro.core",
        "repro.phi",
        "repro.bench",
    ),
}


def module_name(path: Path, src_root: Path) -> str:
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_modules(tree: ast.AST):
    """Yield (lineno, dotted-module) for every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                yield node.lineno, node.module


def check(src_root: Path) -> list:
    violations = []
    for path in sorted(src_root.rglob("*.py")):
        mod = module_name(path, src_root)
        rules = [
            banned
            for pkg, banned in FORBIDDEN.items()
            if mod == pkg or mod.startswith(pkg + ".")
        ]
        if not rules:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, imported in imported_modules(tree):
            for banned in rules:
                hit = next(
                    (
                        b
                        for b in banned
                        if imported == b or imported.startswith(b + ".")
                    ),
                    None,
                )
                if hit is not None:
                    violations.append((path, lineno, mod, imported, hit))
    return violations


def main(argv) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not src_root.is_dir():
        print(f"check_layering: source root {src_root} not found", file=sys.stderr)
        return 2
    violations = check(src_root)
    if violations:
        print("import-layering violations:")
        for path, lineno, mod, imported, banned in violations:
            print(f"  {path}:{lineno}: {mod} imports {imported} "
                  f"(layer boundary: no {banned})")
        return 1
    n_checked = sum(
        1
        for p in src_root.rglob("*.py")
        for pkg in FORBIDDEN
        if module_name(p, src_root).startswith(pkg)
    )
    print(f"import layering OK ({n_checked} modules checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

"""The ``repro`` imports in the documentation's code examples resolve.

Every ``python`` code block of ``README.md`` and ``docs/*.md`` is parsed
with :mod:`ast`, and only its ``import repro…`` and ``from repro… import
…`` statements run; nothing else in the blocks executes.  A name that a
change moves or deletes then fails here, not in a reader's session.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _is_repro_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "repro"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "repro" for alias in node.names)
    return False


def doc_imports():
    """``(where, statement)`` for every repro import in the docs' blocks."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text(encoding="utf-8")
        for block in PYTHON_BLOCK.finditer(text):
            first_line = text.count("\n", 0, block.start(1)) + 1
            for node in ast.walk(ast.parse(block.group(1))):
                if _is_repro_import(node):
                    where = f"{path.relative_to(ROOT)}:{first_line + node.lineno - 1}"
                    found.append((where, ast.unparse(node)))
    return found


def test_every_repro_import_in_the_docs_resolves():
    imports = doc_imports()
    assert len(imports) >= 29  # the parser found the blocks
    failures = []
    for where, statement in imports:
        try:
            exec(compile(statement, where, "exec"), {})
        except ImportError as exc:
            failures.append(f"{where}: {statement}  ->  {exc}")
    assert not failures, "\n".join(failures)

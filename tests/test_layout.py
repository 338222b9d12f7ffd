"""Package layout: every name a ``stia`` module imports is used there or re-exported."""

import ast
from pathlib import Path

import pytest

import stia

_SRC = Path(stia.__file__).parent

# Imports kept only so perfbench's tracer can wrap the function at that lookup site.
# ROADMAP item 7 (stage timings from in-package trace records) removes them.
_PERFBENCH_LOOKUP_SITES = (("protocol", "build_stia_precoders"), ("precoding", "solve_right"))


def _unused_imports(path: Path) -> set[str]:
    """Names ``path`` imports that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported - used - exported


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    # Equality: a lookup site that is gone, or read again, must also leave the tuple.
    allowed = {name for module, name in _PERFBENCH_LOOKUP_SITES if module == path.stem}
    assert _unused_imports(path) == allowed


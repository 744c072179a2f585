"""Guards on the package's surface, read from the source with ``ast``.

Every name in ``covertcap.__all__`` must have a caller outside the tests: in
the package's own modules, the demos or the benchmark harness.  And no module
of the package may import a name it never reads.  Nothing here imports the
package, so the checks see the source as it is written.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "covertcap"

# exported paper quantities whose caller is still to come; a name leaves this
# set when it gains a caller, and the set may not outlive the names it holds
PENDING = {
    "binary_dichotomy",  # ROADMAP item 10: a caller in `capacity`, or item 4's "bounds meet" verdict
    "key_rate_threshold",  # ROADMAP item 8
    "prescribed_log_sizes",  # ROADMAP item 8
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` lists, or none when it has no ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(tree: ast.Module) -> set[str]:
    """Identifiers and attribute names a module loads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; ``__future__`` imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def test_every_export_has_a_caller_outside_the_tests():
    exported = set(_exported(_tree(PACKAGE / "__init__.py")))
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*(_reads(_tree(p)) for p in callers))
    assert sorted(exported - read - PENDING) == [], "exported with no caller outside the tests"
    assert sorted(PENDING & read) == [], "pending names that gained a caller: drop them from PENDING"
    assert sorted(PENDING - exported) == [], "pending names no longer exported: drop them from PENDING"


def test_no_module_imports_a_name_it_never_reads():
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        read = _reads(tree) | set(_exported(tree))
        names = [f"{name} (line {line})" for name, line in _imports(tree).items() if name not in read]
        if names:
            unread[path.name] = names
    assert unread == {}

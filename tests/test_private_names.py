"""No module of the package reads another module's private (``_``-prefixed)
names, so each module can change its own without breaking the others."""

import ast
from pathlib import Path

import ddopt

PACKAGE = Path(ddopt.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """``line: name`` for each read of a sibling module's private name in
    ``path``, through ``from .mod import _name`` or ``mod._name``."""
    tree = ast.parse(path.read_text(), str(path))
    modules, reads = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level == 1 or (node.module or "").split(".")[0] == "ddopt"
        if sibling and node.module in (None, "ddopt"):     # from . import mod [as m]
            modules.update(alias.asname or alias.name for alias in node.names)
        elif sibling:                                        # from .mod import name
            reads += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if _is_private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            reads.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    found = {path.name: private_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}
    assert "sim.py" in found and "checks.py" in found

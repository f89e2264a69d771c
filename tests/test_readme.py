"""The README's "Library" example is the package root's one user: it runs as
printed, and the root exports exactly the names it imports."""

import ast
import math
import re
import types
from pathlib import Path

import ddopt

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The first fenced python block under the README's ``## Library`` heading."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_block(), str(README), "exec"), {"__name__": "__main__"})
    loss, est_error = map(float, capsys.readouterr().out.split())
    assert math.isfinite(loss) and math.isfinite(est_error)
    assert (tmp_path / "run.csv").read_text().startswith("t,theta_0,")


def test_package_root_exports_what_the_example_imports():
    imported = {alias.name for node in ast.walk(ast.parse(_library_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "ddopt"
                for alias in node.names}
    public = {name for name, value in vars(ddopt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported

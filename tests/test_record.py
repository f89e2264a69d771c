import ast
import sys
from pathlib import Path

from ddopt import record


def test_imports_only_numpy_and_the_standard_library():
    # The record and its CSV bytes depend on no other ddopt module.
    tree = ast.parse(Path(record.__file__).read_text())
    modules = {"." * node.level + (node.module or "") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    tops = {name.split(".")[0] for name in modules}
    assert "numpy" in tops
    assert all(top == "numpy" or top in sys.stdlib_module_names for top in tops), modules

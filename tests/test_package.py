"""Properties of the package's source as a whole."""

import ast
from pathlib import Path

import depgrowth

SOURCE = Path(depgrowth.__file__).parent


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.split(".")[0] != "depgrowth":
                continue  # another package's import
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []

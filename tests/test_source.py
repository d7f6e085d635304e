"""Checks on the package source itself."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hierarchon")


def _unused_imports(path):
    """The names a module imports at top level and never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports(os.path.join(SRC, module)) == []


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport numpy as np\nfrom a.b import c, d\n\nx = np.zeros(c)\n")
    assert _unused_imports(str(path)) == [(1, "os"), (3, "d")]

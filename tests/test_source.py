"""Checks on the package source itself."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hierarchon")


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


def test_every_module_parses_with_the_python_3_10_grammar():
    """requires-python is 3.10; this checks grammar only, not the numpy 1.24 API."""
    refused = []
    paths = [
        os.path.join(dirpath, f)
        for top in ("src/hierarchon", "tests", "clibench")
        for dirpath, _, files in os.walk(os.path.join(ROOT, top))
        for f in files
        if f.endswith(".py")
    ]
    assert len(paths) > 30
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            try:
                ast.parse(fh.read(), path, feature_version=(3, 10))
            except SyntaxError as e:
                refused.append("%s: %s" % (os.path.relpath(path, ROOT), e.msg))
    assert refused == []


def test_the_3_10_grammar_check_refuses_except_star():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))

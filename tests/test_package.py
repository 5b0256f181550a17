import ast
import sys
from pathlib import Path

import bettikit


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from bettikit import *", namespace)
    assert len(bettikit.__all__) == len(set(bettikit.__all__))
    assert set(bettikit.__all__) <= namespace.keys()


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(bettikit.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                # one dot is this package; more would leave it
                assert node.level == 1, f"{path.name}:{node.lineno} imports outside bettikit"
                continue
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"


def test_runtime_has_no_assert():
    # `python -O` strips assert statements, so no invariant may rest on one
    for path in sorted(Path(bettikit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"

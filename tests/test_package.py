import ast
from pathlib import Path

import pytest

import perispec

SRC = Path(perispec.__file__).resolve().parent


def _nested_perispec_imports(module):
    """Imports of perispec modules below the top level of ``module``'s source."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if id(node) in top:
            continue
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("perispec")):
            found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("perispec") for a in node.names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", ["material", "eigenvalues", "asymptotics", "oracle", "tables"])
def test_package_imports_only_at_module_level(module):
    # a deferred import inside a function or method would hide an import cycle
    assert _nested_perispec_imports(module) == []


def test_oracle_imports_only_material():
    # the oracle shares no code with the series route it cross-checks
    tree = ast.parse((SRC / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("perispec")):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("perispec"))
    assert imported == {".material"}


@pytest.mark.parametrize("name", perispec.__all__)
def test_every_public_name_resolves(name):
    assert getattr(perispec, name) is not None

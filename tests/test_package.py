"""The package's public names."""

import ast
import re
import types
from pathlib import Path

import pytest

import it2ipa

PACKAGE = Path(it2ipa.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_all_lists_every_public_name_the_package_imports():
    tree = ast.parse(Path(it2ipa.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported
              if not name.startswith("_") and not isinstance(getattr(it2ipa, name), types.ModuleType)}
    assert len(it2ipa.__all__) == len(set(it2ipa.__all__))
    assert set(it2ipa.__all__) == public


def test_the_package_version_is_the_project_version():
    # one ``version = "..."`` line in pyproject.toml, read without ``tomllib`` (new in 3.11)
    versions = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert versions == [it2ipa.__version__]


@pytest.mark.parametrize("module", sorted(
    path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")
    if path != PACKAGE / "__init__.py"))  # the package's own re-exports are checked above
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - used) == []

"""The package's public names."""

import ast
import types
from pathlib import Path

import it2ipa


def test_all_lists_every_public_name_the_package_imports():
    tree = ast.parse(Path(it2ipa.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported
              if not name.startswith("_") and not isinstance(getattr(it2ipa, name), types.ModuleType)}
    assert len(it2ipa.__all__) == len(set(it2ipa.__all__))
    assert set(it2ipa.__all__) == public

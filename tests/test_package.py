"""The package's public surface, ``lbpstego.__all__``."""

import ast
from pathlib import Path

import lbpstego


def test_all_lists_exactly_the_public_names_the_package_imports():
    tree = ast.parse(Path(lbpstego.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(lbpstego.__all__) == sorted(name for name in imported if not name.startswith("_"))

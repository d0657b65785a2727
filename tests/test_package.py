import ast
from pathlib import Path
from types import ModuleType

import eub


def test_all_is_the_public_names_the_package_imports():
    """__all__ is sorted, holds no module, names everything public that
    __init__.py imports, and is what ``from eub import *`` binds."""
    tree = ast.parse(Path(eub.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public and public <= set(eub.__all__)
    assert eub.__all__ == sorted(eub.__all__)
    assert not any(isinstance(getattr(eub, name), ModuleType) for name in eub.__all__)
    star = {}
    exec("from eub import *", star)
    assert set(star) - {"__builtins__"} == set(eub.__all__)

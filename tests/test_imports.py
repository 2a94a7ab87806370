"""Every module of the package uses each name it imports; ``__init__`` alone re-exports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import twoqfa

_MODULES = sorted(
    path for path in Path(twoqfa.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in the order it imports them."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=[path.stem for path in _MODULES])
def test_a_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nimport os.path\nfrom numpy import array as a, zeros\nzeros(math.pi)\n"
    assert _unused_imports(source) == ["os", "a"]

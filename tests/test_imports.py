"""Every name a module of the package imports at module level is used in it."""
import ast
from pathlib import Path

import pytest

import clgcd

MODULES = sorted(Path(clgcd.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that no
    expression of the module reads; annotations are expressions too."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_import_finder():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from typing import Iterator, Optional, Sequence\n"
              "def f(x: Optional[int]) -> Iterator[int]:\n"
              "    yield np.int64(x)\n")
    assert _unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_import_is_used(path):
    assert _unused_imports(path.read_text()) == []

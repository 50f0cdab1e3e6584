"""The package's names: every export resolves once, every import is used."""
import ast
import pathlib

import skewlab

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "skewlab"


def test_all_exports_resolve_once():
    names = skewlab.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(skewlab, n)]
    assert missing == []


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module reads what it imports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []

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


def test_one_product_under_src():
    # every product goes through poly.NormalProducts; the token rewriting
    # engine and its powers live in tests/oracles.py as the reference
    engine = {
        "_normalize_tokens", "_term_tokens", "_mul_terms", "poly_is_nilpotent", "mono_times_coeff_engine"
    }
    users = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = engine & {getattr(node, k, None) for k in ("id", "attr", "name")}
            token = (
                isinstance(node, ast.Tuple)
                and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in ("c", "v")
            )
            if named or token:
                users.append(f"{path.name}:{node.lineno}")
    assert users == []
    assert "mono_times_coeff_engine" not in skewlab.__all__


def test_one_row_block_split_under_src():
    # every pass over a carrier takes its blocks from rings._row_blocks;
    # the kernels' pair sweep sizes its chunks by its own _CHUNK_ELEMS
    users = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) and top.name == "_row_blocks":
                continue
            for node in ast.walk(top):
                read = getattr(node, "id", getattr(node, "attr", None)) == "_CHUNK" and isinstance(
                    node.ctx, ast.Load
                )
                if read or isinstance(node, ast.alias) and node.name == "_CHUNK":
                    users.append(f"{path.name}:{node.lineno}")
    assert users == []


def test_one_first_failure_sweep_under_src():
    # every first-failure search is a mask handed to rings._first_violation;
    # TableRing._neg_table reads each row's additive inverse, and kernels.py
    # keeps the pair sweep and the full (a, b, c) law witnesses
    allowed = {"rings.py:_first_violation", "rings.py:TableRing._neg_table"}
    users = []

    def visit(node, path, scope=()):
        where = f"{path}:{'.'.join(scope)}"
        for child in ast.iter_child_nodes(node):
            named = getattr(child, "attr", getattr(child, "name", None))
            if named in ("argmax", "unravel_index") and where not in allowed:
                users.append(f"{where}:{child.lineno}")
            scoped = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, path, scope + (child.name,) if scoped else scope)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "kernels.py":
            visit(ast.parse(path.read_text()), path.name)
    assert users == []

"""Layout rules of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "charsum"


def test_every_source_line_fits_in_100_columns():
    # a line count compares two versions only if neither joins lines to shrink
    wide = [
        f"{path.name}:{n}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not wide, wide


def foreign_private_stores(tree: ast.AST) -> list[str]:
    """Each store to a private attribute of an object other than self, as
    x._name = ... or x._name[k] = ..., as "line: target"."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        owner = node
        while isinstance(owner, ast.Subscript):
            owner = owner.value
        if (isinstance(owner, ast.Attribute) and owner.attr.startswith("_")
                and not (isinstance(owner.value, ast.Name) and owner.value.id == "self")):
            out.append(f"{node.lineno}: {ast.unparse(node)}")
    return out


def test_no_module_stores_to_another_objects_private_attributes():
    # each object declares and fills its own private state; a memo that
    # another module builds lives in the owner's memo store
    stores = [
        f"{path.name}:{store}"
        for path in sorted(SRC.glob("*.py"))
        for store in foreign_private_stores(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not stores, stores


def test_the_store_rule_sees_both_forms():
    src = "tower._rows[key] = row\nctx._table = {}\nself._v = None\nself._memo[k] = v\nx.memo[k] = v"
    src += "\nval = tower._sums[k] = 0\nctx.field._table += 1"
    assert foreign_private_stores(ast.parse(src)) == [
        "1: tower._rows[key]", "2: ctx._table", "6: tower._sums[k]", "7: ctx.field._table",
    ]

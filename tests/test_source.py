"""Layout rules of the package source."""

import ast
from pathlib import Path

from test_mutations import GAPS, MUTATIONS

SRC = Path(__file__).resolve().parents[1] / "src" / "charsum"


def findings(rule) -> list[str]:
    """rule(tree) over every module of the package, each finding as
    "file:finding"."""
    return [
        f"{path.name}:{found}"
        for path in sorted(SRC.glob("*.py"))
        for found in rule(ast.parse(path.read_text(encoding="utf-8")))
    ]


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
    stores = findings(foreign_private_stores)
    assert not stores, stores


def test_the_store_rule_sees_both_forms():
    src = "tower._rows[key] = row\nctx._table = {}\nself._v = None\nself._memo[k] = v\nx.memo[k] = v"
    src += "\nval = tower._sums[k] = 0\nctx.field._table += 1"
    assert foreign_private_stores(ast.parse(src)) == [
        "1: tower._rows[key]", "2: ctx._table", "6: tower._sums[k]", "7: ctx.field._table",
    ]


def private_relative_imports(tree: ast.AST) -> list[str]:
    """Each underscore name taken by a relative import, as "line: name"."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_another_modules_private_names():
    # a name another module reads is public: it drops its underscore
    imports = findings(private_relative_imports)
    assert not imports, imports


def test_the_import_rule_sees_parenthesised_imports():
    src = "from .katz import (\n    KatzContext,\n    _jacobi_bracket,\n)\n"
    src += "from .classical_sums import _fiber_transform, gauss\nfrom os import _exit\n"
    assert private_relative_imports(ast.parse(src)) == ["1: _jacobi_bracket", "5: _fiber_transform"]


def multchar_uses(tree: ast.AST) -> list[str]:
    """The function around each use of the name MultChar as a value (a call,
    or the class handed to a builder), as "line: function"; an annotation is
    not a use."""
    annotations = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            annotations.update(map(id, ast.walk(ann)) if ann else ())
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Name) and child.id == "MultChar":
                if id(child) not in annotations:
                    out.append(f"{child.lineno}: {where}")
            else:
                visit(child, where)

    visit(tree, "<module>")
    return out


def test_a_character_is_built_only_by_char():
    # one MultChar per (field, index) holds only if nothing else builds one
    uses = [
        f"{path.name}:{use.split(': ')[1]}"
        for path in sorted(SRC.glob("*.py"))
        for use in multchar_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert uses == ["characters.py:char"]


def test_the_build_rule_sees_calls_and_handed_classes():
    src = "def f(a: MultChar) -> MultChar:\n    return MultChar(a.field, 0)\n"
    src += "def g(x: 'MultChar'):\n    y: MultChar = memoized(t, 1, MultChar, x)\n"
    src += "z = isinstance(w, MultChar)\n"
    assert multchar_uses(ast.parse(src)) == ["2: f", "4: g", "5: <module>"]


def test_a_deviation_is_formed_in_the_suite_that_records_it():
    # a suite reads its values by index and forms each deviation itself, so a
    # wrong value served to it reaches every family that reads the value; the
    # Gauss-ratio bridge too, from the two sides that katz.bridge_sides returns
    found = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_deviation")
    ]
    assert found == []


def memo_decorator_imports(tree: ast.AST) -> list[str]:
    """Each import of functools' lru_cache or cache, as from functools import
    ... or as an attribute of an imported functools, as "line: name"."""
    names = {"lru_cache", "cache"}
    out = [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in names
    ]
    out += [
        f"{node.lineno}: functools.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
    ]
    return out


def test_every_memo_is_read_through_memoized():
    # one memo reader: a functools cache would key on the call's spelling,
    # so build_tower(7) and build_tower(7, 1) would be two towers
    imports = findings(memo_decorator_imports)
    assert not imports, imports


def test_the_memo_rule_sees_both_forms():
    src = "from functools import lru_cache, reduce\nimport functools\n"
    src += "@functools.cache\ndef f(): pass\nfrom functools import cache as c\n"
    assert memo_decorator_imports(ast.parse(src)) == [
        "1: lru_cache", "5: cache", "3: functools.cache",
    ]


def family_ids(tree: ast.AST) -> list[str]:
    """The check_id of each call x.family(check_id, ...), as "line: check_id",
    or as the source of an argument that is not a string literal."""
    return [
        f"{node.lineno}: {arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "family" and node.args
        for arg in node.args[:1]
    ]


def test_every_check_id_is_in_the_mutation_matrix():
    # a family lands with a row that fails it, or with its reason as a gap
    written = {family.split(": ")[1] for family in findings(family_ids)}
    named = set(GAPS) | {check_id for row in MUTATIONS for ids in row.fails.values()
                         for check_id in ids}
    assert written == named, (written - named, named - written)


def test_the_family_rule_sees_literals_and_names():
    src = 'rep.family("point-identity", "j={}", tol)\nfam = report.family(name, "", 1)\n'
    src += 'family("x", "", 1)\nrep.families["y"]\n'
    assert family_ids(ast.parse(src)) == ["1: point-identity", "2: name"]

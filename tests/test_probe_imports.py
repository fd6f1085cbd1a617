"""Every name that the benchmark's child process, perfbench/probe.py, takes
from charsum must exist.  perfbench is changed only together with the
benchmark, so a rename or deletion in charsum has to fail here first."""

import ast
import importlib
import types
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def probe_names() -> set[tuple[str, str]]:
    """(module, name) for each name probe.py imports from charsum, and for
    each attribute it reads off a charsum module it imported by name."""
    tree = ast.parse(PROBE.read_text(encoding="utf-8"))
    names = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "charsum"
        for alias in node.names
    }
    modules = {
        name: f"{module}.{name}"
        for module, name in names
        if isinstance(getattr(importlib.import_module(module), name, None), types.ModuleType)
    }
    return names | {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_name_the_probe_takes_from_charsum_exists():
    names = probe_names()
    assert {
        ("charsum", "gauss"),
        ("charsum", "KatzContext"),
        ("charsum.harness", "build_tasks"),
        ("charsum.harness", "suite_mellin"),
        ("charsum.katz", "verify_master_identity"),
    } <= names
    missing = [f"{m}.{n}" for m, n in sorted(names) if not hasattr(importlib.import_module(m), n)]
    assert missing == []

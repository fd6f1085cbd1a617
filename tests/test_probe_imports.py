"""Every name that the benchmark's child process, perfbench/probe.py, takes
from charsum must exist.  perfbench is changed only together with the
benchmark, so a rename or deletion in charsum has to fail here first."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from conftest import records

from charsum.report import VerificationReport, write_json

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


def test_report_sorted_gives_records_in_write_order(tmp_path):
    # the probe calls rep.sorted() on an instance, which the name check above
    # cannot see
    assert callable(getattr(VerificationReport, "sorted", None))
    rep = VerificationReport("master", 7, 1, wall_time=0.5)
    for check_id, j, deviation in [("b", 2, 1e-9), ("a", 9, 2e-9), ("b", 10, 3e-9)]:
        rep.family(check_id, "j={}", 1e-6).extend([deviation], [j])
    got = rep.sorted()
    assert (got.suite, got.q, got.a_index, got.wall_time) == ("master", 7, 1, 0.5)
    keys = [(check_id, inputs) for check_id, inputs, *_ in records(got)]
    assert keys == [("b", "j=2"), ("b", "j=10"), ("a", "j=9")]
    path = tmp_path / "report.json"
    write_json([got], str(path))
    assert [(o["check_id"], o["inputs"]) for o in json.loads(path.read_text())] == keys


def test_probe_replay_writes_the_json_of_charsum_run(tmp_path):
    # the probe also calls rep.sorted(), ctx.v_vector() and
    # ctx.mixed_sum_matrix() on instances: its traced replay of
    # default-family runs them all, and must write what `charsum run` writes
    env = {**os.environ, "PYTHONPATH": str(PROBE.parents[1] / "src")}
    replay, run_json = tmp_path / "replay", tmp_path / "run.json"
    replay.mkdir()
    for args in (
        [str(PROBE), "replay", "default-family", "--seed", "1", "--out", str(replay)],
        ["-m", "charsum", "run", "--out", str(run_json)],
    ):
        subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
    assert (replay / "report.json").read_bytes() == run_json.read_bytes()

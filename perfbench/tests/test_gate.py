"""The benchmark's own tests: the gate must reject a failed, missing or
perturbed result.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = Workload(
    "small",
    ("hypergeometric", "theorem-4.1", "mellin", "theorem-5.x", "master"),
    (7, 19),
    "sample-2",
)


@pytest.fixture(scope="module")
def small_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "report.json"
    env = {k: v for k, v in os.environ.items() if k != "CHARSUM_PARALLELISM"}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, "-m", "charsum", "run", *SMALL.cli_args(), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return gate.load_report(out)


def test_gate_accepts_a_correct_report(small_records):
    assert len(small_records) == SMALL.n_checks()
    assert gate.check_records(small_records, SMALL.inventory()) == []


def test_gate_rejects_one_failed_record(small_records):
    bad = copy.deepcopy(small_records)
    bad[len(bad) // 2]["pass"] = False
    assert gate.check_records(bad, SMALL.inventory())


def test_gate_rejects_one_dropped_record(small_records):
    bad = small_records[:17] + small_records[18:]
    assert gate.check_records(bad, SMALL.inventory())


def test_gate_rejects_a_repeated_record_in_place_of_another(small_records):
    bad = small_records[:17] + [small_records[16]] + small_records[18:]
    assert gate.check_records(bad, SMALL.inventory())


def test_replay_comparison_sees_flag_and_key_changes(small_records):
    assert gate.check_same_flags(small_records, small_records, "x") == []
    flipped = copy.deepcopy(small_records)
    flipped[0]["pass"] = not flipped[0]["pass"]
    assert gate.check_same_flags(flipped, small_records, "x")
    assert gate.check_same_flags(small_records[1:], small_records, "x")


def test_workload_inventories_match_the_cli_report_counts():
    counts = {name: w.n_checks() for name, w in WORKLOADS.items()}
    assert counts == {"default-family": 98173, "master-263": 69237, "suites-59": 40788}


def test_reference_matches_the_frozen_anchors():
    # anchors of tests/test_acceptance.py, from an independent oracle
    for p, anchor in {7: 14, 11: 14, 19: -34, 23: 46, 5: 0, 13: 0, 17: 36}.items():
        assert reference.double_sum(p) == anchor == reference.double_sum_closed_form(p)


@pytest.fixture(scope="module")
def spots():
    return probe.spot_checks("default-family", seed=5)


def test_spot_checks_pass_and_depend_on_the_seed(spots):
    assert gate.check_spots(spots) == []
    again = probe.spot_checks("default-family", seed=5)
    other = probe.spot_checks("default-family", seed=6)
    assert [s["label"] for s in again] == [s["label"] for s in spots]
    assert [s["label"] for s in other] != [s["label"] for s in spots]


@pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-3j])
def test_gate_rejects_a_perturbed_reference_value(spots, delta):
    for i in (0, len(spots) - 1):
        bad = copy.deepcopy(spots)
        want = complex(*bad[i]["expected"]) + delta
        bad[i]["expected"] = [want.real, want.imag]
        assert gate.check_spots(bad)


def test_reference_mixed_sum_matches_the_library_at_small_q():
    from charsum import KatzContext, build_tower, mixed_sum

    for p, a in ((7, 3), (11, 1), (19, 5)):
        ctx = KatzContext(build_tower(p), a)
        for j in range(p):
            for k in range(p):
                assert abs(mixed_sum(ctx, j, k) - reference.mixed_sum(p, a, j, k)) < 1e-9


def test_self_time_subtracts_child_spans():
    tree = [
        {"id": 0, "name": "harness.task", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "katz.p_matrix", "parent": 0, "start": 2.0, "end": 5.0},
        {"id": 2, "name": "harness.suite.master", "parent": 0, "start": 5.0, "end": 9.0},
    ]
    assert spans.self_times(tree) == {"harness": 7.0, "katz": 3.0}


def test_layer_metrics_of_a_single_task_run():
    tree = [
        {"id": 0, "name": "harness.task", "parent": None, "start": 0.0, "end": 4.0,
         "rss0": 0, "rss1": 0},
        {"id": 1, "name": "katz.p_matrix", "parent": 0, "start": 1.0, "end": 3.0,
         "rss0": 0, "rss1": 2048, "q": 263, "terms": 10**6},
    ]
    m = spans.layer_metrics(tree)
    assert m["harness.task_s.p50"] == (4.0, "s")
    assert m["katz.p_matrix.mterms_per_s"] == (0.5, "Mterms/s")
    assert "harness.task_s.p90" not in m and "characters.value_tables_s" not in m


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites-59", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / "perfbench" / "out").exists()
    json.loads((tmp_path / "BENCHMARK.json").read_text())

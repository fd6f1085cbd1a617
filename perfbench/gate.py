"""Correctness gate: a timed result counts only if the program's output is right.

Each check returns a list of problems; an empty list means the gate holds.
run.py calls it as a child process,

    python3 perfbench/gate.py WORKLOAD REPORT [REPORT ...]

so that the benchmark process never holds a parsed report: a child's peak
RSS, as os.wait4 reports it, starts from its parent's size at spawn.  It
prints {"checks": [...], "failed": [...], "problems": [...]} as JSON.
"""

import hashlib
import json
import os
import sys
from collections import Counter

# library values against the independent reference; both sides are sums of
# at most ~10^5 unit terms in double precision, a wrong value is off by O(1)
SPOT_TOL = 1e-6


def record_key(rec: dict) -> tuple:
    return (rec["suite"], rec["q"], rec["a_index"], rec["check_id"], rec["inputs"])


def load_report(path) -> list[dict]:
    """The records of a `charsum run --out` report."""
    with open(path, "rb") as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_records(records: list[dict], inventory: dict[tuple, int]) -> list[str]:
    """Every record passes, no record repeats, and the record count per
    (suite, q, a_index, check_id) equals the workload's inventory."""
    problems = []
    failed = [record_key(r) for r in records if r["pass"] is not True]
    if failed:
        problems.append(f"{len(failed)} failed check(s), first {failed[0]}")
    dup = [k for k, n in Counter(record_key(r) for r in records).items() if n > 1]
    if dup:
        problems.append(f"{len(dup)} repeated record key(s), first {dup[0]}")
    counts = Counter(record_key(r)[:4] for r in records)
    for key in sorted(set(counts) | set(inventory), key=repr):
        got, want = counts.get(key, 0), inventory.get(key, 0)
        if got != want:
            problems.append(f"{key}: {got} records, inventory says {want}")
    return problems


def n_failed(records: list[dict]) -> int:
    return sum(1 for r in records if r["pass"] is not True)


def check_same_flags(records: list[dict], other: list[dict], what: str) -> list[str]:
    """Two reports hold the same record keys with the same pass flags."""
    a = {record_key(r): r["pass"] for r in records}
    b = {record_key(r): r["pass"] for r in other}
    if a == b:
        return []
    only_a, only_b = set(a) - set(b), set(b) - set(a)
    differ = [k for k in set(a) & set(b) if a[k] != b[k]]
    return [
        f"{what}: {len(only_a)} record(s) missing, {len(only_b)} extra, "
        f"{len(differ)} with another pass flag"
    ]


def check_spots(spots: list[dict], tol: float = SPOT_TOL) -> list[str]:
    """Each spot check pairs a value with the reference value it must match."""
    problems = []
    if not spots:
        problems.append("no reference spot checks were made")
    for s in spots:
        dev = abs(complex(*s["value"]) - complex(*s["expected"]))
        if not dev <= tol:
            problems.append(f"{s['label']}: {s['value']}, expected {s['expected']}")
    return problems


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    name, paths = argv[0], argv[1:]
    inventory = WORKLOADS[name].inventory()
    out = {"checks": [], "failed": [], "problems": []}
    first = load_report(paths[0])
    for i, path in enumerate(paths):
        records = load_report(path) if i else first
        out["checks"].append(len(records))
        out["failed"].append(n_failed(records))
        label = os.path.basename(path)
        out["problems"] += [f"{label}: {p}" for p in check_records(records, inventory)]
        if i:
            out["problems"] += check_same_flags(
                records, first, f"{label} vs {os.path.basename(paths[0])}"
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

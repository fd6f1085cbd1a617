"""charsum benchmark: one workload, timed through the real `charsum run` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; charsum is imported from its `src`.

--trace 0 measures the end-to-end metrics with tracing off: 3 to 11 fresh
set-up processes (import charsum and build the workload's fields), then
whole `charsum run` rounds, each a fresh serial process writing its JSON and
CSV reports, until S seconds have passed.  Times, throughput and peak RSS are
medians over the rounds.

--trace 1 runs one untraced round and then the traced replay (probe.py),
which wraps each layer call in a span.  It prints the per-layer metrics that
every workload has and writes every span and metric to
perfbench/out/trace-<workload>-seed<N>.json.

Either way the correctness gate must hold (gate.py), or the result line says
"correct": false and the exit code is 1.  The last line of stdout is the
result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gate
import spans as spanlib
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up is repeated at least SETUP_MIN times, and up to SETUP_MAX times
# while the repeats take under SETUP_BUDGET_S; the median is reported
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 11, 2.0
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170  # every child is killed once the run has taken this long

# metrics the result line carries with --trace 1; each is measured on every
# workload (the full per-layer table goes to the trace file)
PER_LAYER = (
    "cli.import_s",
    "finite_field.build_s",
    "finite_field.rss_mb",
    "katz.context_s",
    "katz.contexts",
    "harness.suite_s",
    "harness.task_s.p50",
    "report.write_json_s",
    "report.write_csv_s",
    "report.json_mb",
)


class BenchError(RuntimeError):
    """The run could not be measured at all."""


class Runner:
    """Starts the children of one benchmark run and bounds their total time."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k != "CHARSUM_PARALLELISM"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def start(self, cmd, **kw) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *cmd], env=self.env, cwd=ROOT, **kw)

    def reap(self, proc: subprocess.Popen, on_start=None):
        """Wait for proc, killing it at the deadline; (exit code, peak RSS MB).

        os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
        the largest over all children so far.
        """
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        status = None
        try:
            if on_start is not None:
                on_start(proc)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def timed(self, cmd, log: Path, ok=(0,)) -> tuple[float, float, int]:
        """Wall seconds from launch to exit, peak RSS MB and exit code of one
        child; an exit code outside ok is an error."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = self.start(cmd, stdout=fh, stderr=subprocess.STDOUT)
            code, rss = self.reap(proc)
            wall = time.perf_counter() - t0
        if code not in ok:
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{' '.join(cmd)} exited with {code}:\n{tail}")
        return wall, rss, code

    def setup(self, w, spots_seed: int | None) -> tuple[float, list | None]:
        """Seconds from launch to "ready" of a probe that imports charsum and
        builds the workload's fields; optionally its reference spot checks."""
        towers, fields = w.fields()
        cmd = [str(HERE / "probe.py"), "setup"]
        cmd += [f"--tower={q}" for q in towers] + [f"--field={q}" for q in fields]
        if spots_seed is not None:
            cmd += ["--spots", w.name, f"--seed={spots_seed}"]
        out = {}

        def read(proc):
            out["ready"] = proc.stdout.readline()
            out["t"] = time.perf_counter()
            out["rest"] = proc.stdout.read()

        t0 = time.perf_counter()
        proc = self.start(cmd, stdout=subprocess.PIPE, text=True)
        with proc.stdout:
            code, _ = self.reap(proc, on_start=read)
        if code != 0 or out["ready"] != "ready\n":
            raise BenchError(f"set-up probe failed with exit code {code}")
        spots = json.loads(out["rest"]) if spots_seed is not None else None
        return out["t"] - t0, spots


def cli_round(runner: Runner, w, tmp: Path, i: int) -> dict:
    json_path, csv_path = tmp / f"round{i}.json", tmp / f"round{i}.csv"
    cmd = ["-m", "charsum", "run", *w.cli_args(), "--out", str(json_path), "--csv", str(csv_path)]
    # exit code 1 means some check failed; the reports are written and gated
    wall, rss, code = runner.timed(cmd, tmp / f"round{i}.log", ok=(0, 1))
    return {
        "run_s": wall,
        "peak_rss_mb": rss,
        "exit_code": code,
        "sha256": gate.file_sha256(json_path),
        "json": str(json_path),
    }


def gate_reports(runner: Runner, w, paths: list[str], tmp: Path) -> dict:
    """Run gate.py on the reports in a child; see its docstring for why."""
    log = tmp / "gate.log"
    runner.timed([str(HERE / "gate.py"), w.name, *paths], log)
    return json.loads(log.read_text().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "charsum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_repeatable(w, digest: str) -> list[str]:
    """The JSON must match what earlier runs of the same sources wrote.

    Digests are kept per workload and source hash in perfbench/out, so a
    workload with one round per run is still compared across runs.
    """
    store = OUT / "json-sha256.json"
    key = f"{w.name} {source_digest()}"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != digest:
            return [f"JSON report differs from an earlier run of the same sources ({key})"]
        return []
    known[key] = digest
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1) + "\n")
    os.replace(tmp, store)
    return []


def gate_rounds(runner: Runner, w, rounds: list[dict], tmp: Path, others=()) -> dict:
    """Gate the first round in full, and the reports named in others against
    it; every later round, and every earlier run of the same sources, must
    have written the same bytes."""
    res = gate_reports(runner, w, [rounds[0]["json"], *others], tmp)
    for i, r in enumerate(rounds):
        if r["exit_code"] != 0:
            res["problems"].append(f"round {i}: charsum run exited with {r['exit_code']}")
        if r["sha256"] != rounds[0]["sha256"]:
            res["problems"].append(f"round {i} wrote a JSON report that differs from round 0")
    res["problems"] += check_repeatable(w, rounds[0]["sha256"])
    return res


def timed_run(runner: Runner, w, seed: int, seconds: float, tmp: Path) -> dict:
    t, spots = runner.setup(w, seed)
    setups = [t]
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
        setups.append(runner.setup(w, None)[0])
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(cli_round(runner, w, tmp, len(rounds)))
    res = gate_rounds(runner, w, rounds, tmp)
    # every round wrote the bytes of round 0, or the gate already failed
    checks, failed = res["checks"][0], res["failed"][0]
    metrics = {
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "checks_per_s": (statistics.median(checks / r["run_s"] for r in rounds), "checks/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {
        "metrics": metrics,
        "attempted": checks * len(rounds) + len(spots),
        "failed": failed * len(rounds),
        "problems": res["problems"] + gate.check_spots(spots),
        "detail": {
            "setup_s": setups,
            "rounds": [{k: v for k, v in r.items() if k != "json"} for r in rounds],
            "checks_per_round": checks,
            "spots": spots,
        },
    }


def traced_run(runner: Runner, w, seed: int, tmp: Path) -> dict:
    rnd = cli_round(runner, w, tmp, 0)
    imports = [
        runner.timed(["-c", "import charsum"], tmp / "import.log")[0] for _ in range(IMPORT_REPEATS)
    ]
    replay_dir = tmp / "replay"
    replay_dir.mkdir()
    cmd = [str(HERE / "probe.py"), "replay", w.name, f"--seed={seed}", f"--out={replay_dir}"]
    traced_s, _, _ = runner.timed(cmd, tmp / "replay.log")
    replay_json = replay_dir / "report.json"
    # the replay's records must equal the CLI's: same keys, same pass flags
    res = gate_rounds(runner, w, [rnd], tmp, others=[str(replay_json)])
    trace = json.loads((replay_dir / "trace.json").read_text())
    problems = res["problems"] + gate.check_spots(trace["spots"])

    spans = trace["spans"]
    metrics = spanlib.layer_metrics(spans)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["report.json_mb"] = (replay_json.stat().st_size / 2**20, "MB")
    bench_s = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("bench."))
    metrics["trace.overhead_s"] = (traced_s - bench_s - rnd["run_s"], "s")
    for layer, t in spanlib.self_times(spans).items():
        metrics[f"{layer}.self_s"] = (t, "s")
    detail = {
        "untraced_run_s": rnd["run_s"],
        "traced_s": traced_s,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spots": trace["spots"],
        "spans": spans,
    }
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "attempted": sum(res["checks"]) + len(trace["spots"]),
        "failed": sum(res["failed"]),
        "problems": problems,
        "detail": detail,
    }


def run_info() -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "charsum" / "__init__.py").is_file():
        print(f"perfbench: no charsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
            if args.trace:
                res = traced_run(runner, w, args.seed, Path(tmp))
            else:
                res = timed_run(runner, w, args.seed, args.seconds, Path(tmp))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1

    info = run_info()
    kind = "trace" if args.trace else "result"
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, **info,
        "correct": not res["problems"], "problems": res["problems"], **res["detail"],
    }
    (OUT / f"{kind}-{w.name}-seed{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")

    shown = res["detail"].get("all_metrics") or {
        k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()
    }
    print(f"# {w.name} seed={args.seed} trace={args.trace} python {info['python']} "
          f"git {info['git_sha'][:12]} nproc {info['nproc']}")
    for name, m in shown.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"checks attempted {res['attempted']}, failed {res['failed']}")
    for p in res["problems"]:
        print(f"GATE: {p}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0 if not res["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())

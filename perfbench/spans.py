"""Spans recorded around the calls into each layer, and the metrics they give.

A span is a dict: id, name ("<layer>.<what>"), parent span id, task id,
start and end (perf_counter seconds), peak RSS in KiB at start and end, and
optional attributes such as q.  Spans stay in memory until the run ends.
"""

import resource
import statistics
from contextlib import contextmanager
from time import perf_counter


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, task: int | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        if task is None and parent is not None:
            task = self.spans[parent]["task"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "task": task, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["rss0"] = _peak_rss_kib()
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            rec["rss1"] = _peak_rss_kib()
            self._open.pop()


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _rss_mb(s: dict) -> float:
    return (s["rss1"] - s["rss0"]) / 1024


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + _dur(s) - child_time.get(s["id"], 0.0)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the spans support, name -> (value, unit).

    A metric whose layer never ran in the workload is left out rather than
    reported as 0.
    """
    m = {}

    def named(prefix):
        return [s for s in spans if s["name"] == prefix or s["name"].startswith(prefix + ".")]

    def add_time(name, group):
        if group:
            m[name] = (sum(_dur(s) for s in group), "s")

    def add_rss(name, group):
        if group:
            m[name] = (sum(_rss_mb(s) for s in group), "MB")

    builds = named("finite_field")
    add_time("finite_field.build_s", builds)
    add_rss("finite_field.rss_mb", builds)
    for q in sorted({s["q"] for s in builds}):
        add_time(f"finite_field.build_s.q{q}", [s for s in builds if s["q"] == q])

    add_time("characters.value_tables_s", named("characters.value_tables"))
    add_rss("characters.rss_mb", named("characters.value_tables"))
    add_time("classical_sums.gauss_all_s", named("classical_sums.gauss_all"))

    contexts = named("katz.context")
    add_time("katz.context_s", contexts)
    m["katz.contexts"] = (len(contexts), "count")
    add_time("katz.v_vector_s", named("katz.v_vector"))
    pms = named("katz.p_matrix")
    add_time("katz.p_matrix_s", pms)
    m["katz.p_matrices"] = (len(pms), "count")
    for q in sorted({s["q"] for s in pms}):
        add_time(f"katz.p_matrix_s.q{q}", [s for s in pms if s["q"] == q])
    if pms:
        terms = sum(s["terms"] for s in pms)
        m["katz.p_matrix.mterms_per_s"] = (terms / 1e6 / sum(_dur(s) for s in pms), "Mterms/s")

    suites = named("harness.suite")
    add_time("harness.suite_s", suites)
    for name in sorted({s["name"] for s in suites}):
        group = [s for s in suites if s["name"] == name]
        add_time(f"{name}_s", group)
        add_rss(f"{name}.rss_mb", group)
    tasks = [_dur(s) for s in named("harness.task")]
    m["harness.tasks"] = (len(tasks), "count")
    if tasks:
        m["harness.task_s.p50"] = (statistics.median(tasks), "s")
    if len(tasks) >= 10:
        m["harness.task_s.p90"] = (statistics.quantiles(tasks, n=10)[-1], "s")

    add_time("report.write_json_s", named("report.write_json"))
    add_time("report.write_csv_s", named("report.write_csv"))
    return m

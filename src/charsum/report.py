"""Per-identity check records and suite reports, with JSON/CSV serialization."""

import csv
import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str


def _sig3(x: float) -> float:
    """Round to 3 significant digits for output; reports are not bit-exact."""
    return float(f"{x:.3g}")


def nan_max(values) -> float:
    """max(values, default=0.0), but nan if any value is NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


@dataclass
class VerificationReport:
    suite: str
    q: int
    a_index: int | None  # dlog of the parameter a, None when a-independent
    # (check_id, inputs, deviation, passed) in check order; no (check_id, inputs)
    # repeats, so tuple order is (check_id, inputs) order
    records: list[tuple[str, str, float, bool]] = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, check_id: str, inputs: str, deviation: float, tol: float):
        self.records.append((check_id, inputs, deviation, deviation <= tol))

    @property
    def max_deviation(self) -> float:
        return nan_max(r[2] for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if not r[3])

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def sorted(self) -> "VerificationReport":
        return replace(self, records=sorted(self.records))

    def summary_line(self) -> str:
        a_part = "" if self.a_index is None else f" a_index={self.a_index}"
        status = "PASS" if self.all_passed else f"FAIL ({self.n_failed} checks)"
        return (
            f"{self.suite:14s} q={self.q:<4d}{a_part:14s} "
            f"checks={len(self.records):<6d} max_dev={self.max_deviation:.3g}  {status}"
        )


def report_sort_key(rep: VerificationReport):
    return (rep.suite, rep.q, -1 if rep.a_index is None else rep.a_index)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(reports: list[VerificationReport], path: str):
    """One object per check, byte for byte what json.dump(..., indent=1)
    writes for the list of {"suite", "q", "a_index", "check_id", "inputs",
    "deviation", "pass"} records, followed by a newline.  Each record fills
    a fixed template and is written as it is formatted."""
    with open(path, "w", encoding="utf-8") as fh:
        sep = "[\n"
        for rep in reports:
            head = (
                f' {{\n  "suite": {json.dumps(rep.suite)},\n  "q": {json.dumps(rep.q)},\n'
                f'  "a_index": {json.dumps(rep.a_index)},\n  "check_id": '
            )
            for check_id, inputs, deviation, passed in sorted(rep.records):
                dev = float.__repr__(_sig3(deviation))
                fh.write(
                    f'{sep}{head}{_json_str(check_id)},\n  "inputs": {_json_str(inputs)},\n'
                    f'  "deviation": {_JSON_NONFINITE.get(dev, dev)},\n'
                    f'  "pass": {"true" if passed else "false"}\n }}'
                )
                sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def write_csv(reports: list[VerificationReport], path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["suite", "q", "a_index", "n_checks", "n_failed", "max_deviation", "wall_time_s"])
        for rep in sorted(reports, key=report_sort_key):
            w.writerow(
                [
                    rep.suite,
                    rep.q,
                    "" if rep.a_index is None else rep.a_index,
                    len(rep.records),
                    rep.n_failed,
                    f"{rep.max_deviation:.3g}",
                    f"{rep.wall_time:.3f}",
                ]
            )

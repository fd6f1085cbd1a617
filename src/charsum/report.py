"""Suite reports stored by check family, with JSON/CSV serialization.

A VerificationReport maps each check id, in first-use order, to one
CheckFamily: the inputs template (e.g. "j={},k={}"), the family's one
tolerance, an array('d') of deviations and an array('q') column per
placeholder.  A check passes when deviation <= tol, evaluated when read, so a
NaN deviation fails.  No record tuple and no inputs string exist between a
check and the writer: write_json formats each inputs string as it writes
that record.  A suite appends its checks to a family a row at a time,
rep.family(check_id, template, tol).extend(deviations, *columns), which is
the one way a check is recorded.

Every aggregate a run prints or writes (the exit code, the summary line, the
CSV row and the CLI's total) reads the report's totals: one Summary, folded
from the families' when its task ends (harness._run_task).

Records come out in check order everywhere: a report's families in
first-use order, the checks of each in the order they were appended.  One task
builds each report in a fixed loop order, so the same configuration writes
the same bytes, in serial and parallel runs alike.
"""

import csv
import json
import math
import string
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple


def _nan_or(pick, values, default: float) -> float:
    """pick(values, default=default), but nan if any value is NaN: the one
    NaN rule of every summary.  A NaN sum screens for a NaN in one pass;
    inf - inf gives one too, so any() confirms it."""
    if math.isnan(sum(values)) and any(map(math.isnan, values)):
        return math.nan
    return pick(values, default=default)


class Summary(NamedTuple):
    """The aggregate of a family, a report or a run: the checks, the failed
    ones, the largest deviation (0 with no checks) and the smallest tol /
    max deviation over the families (inf when every deviation is 0).  A NaN
    deviation makes both nan."""

    n_checks: int
    n_failed: int
    max_deviation: float
    min_margin: float

    @classmethod
    def fold(cls, summaries) -> "Summary":
        n, failed, worst, margins = list(zip(*summaries)) or [()] * 4
        return cls(sum(n), sum(failed), _nan_or(max, worst, 0.0), _nan_or(min, margins, math.inf))


def _placeholders(template: str) -> int:
    """The number of placeholders of an inputs template; ValueError unless
    each is a bare {}, which str.format fills with the positional ints."""
    parts = list(string.Formatter().parse(template))
    if any(name or spec or conversion for _, name, spec, conversion in parts):
        raise ValueError(f"inputs template {template!r}: placeholders must be bare {{}}")
    return sum(name is not None for _, name, _, _ in parts)


class CheckFamily:
    """The checks of one check id, stored by column; see the module docstring."""

    __slots__ = ("template", "tol", "deviations", "columns")

    def __init__(self, template: str, tol: float):
        self.template, self.tol = template, float(tol)
        self.deviations = array("d")
        self.columns = [array("q") for _ in range(_placeholders(template))]

    def __len__(self) -> int:
        return len(self.deviations)

    def extend(self, deviations, *columns):
        """Append checks: check i has deviation deviations[i] and inputs the
        template filled with columns[c][i] for each placeholder c, each an int
        of 64 bits; any iterables will do.  A wrong column count, a non-int or
        out-of-range argument or a deviation that is not a number raises
        TypeError or OverflowError, and columns of unequal lengths
        ValueError, before anything is appended."""
        if len(columns) != len(self.columns):
            raise TypeError(f"{self.template!r} takes {len(self.columns)} columns")
        new = [array("d", deviations), *(array("q", col) for col in columns)]
        if len({len(values) for values in new}) != 1:
            raise ValueError(f"{self.template!r}: columns of unequal lengths")
        for old, values in zip([self.deviations, *self.columns], new):
            old.extend(values)

    def formatted(self):
        """The inputs string of each check in check order, each formatted
        when it is read."""
        if not self.columns:
            return repeat(self.template.format(), len(self.deviations))
        return map(self.template.format, *self.columns)

    def summary(self) -> Summary:
        devs, tol = self.deviations, self.tol
        worst = _nan_or(max, devs, 0.0)
        # the common case, all passed, needs no counting pass
        n_failed = 0 if worst <= tol else len(devs) - sum(map(tol.__ge__, devs))
        return Summary(len(devs), n_failed, worst, tol / worst if worst else math.inf)


@dataclass
class VerificationReport:
    suite: str
    q: int
    a_index: int | None  # dlog of the parameter a, None when a-independent
    wall_time: float = 0.0
    # check_id -> its family, in first-use order
    families: dict[str, CheckFamily] = field(default_factory=dict)
    totals: Summary | None = None  # the summary, stored when the report is done

    def family(self, check_id: str, template: str, tol: float) -> CheckFamily:
        """The check_id family, registered on first use; asking again gives
        the same family, and ValueError for another template or tol."""
        fam = self.families.get(check_id)
        if fam is None:
            fam = self.families[check_id] = CheckFamily(template, tol)
        elif (fam.template, fam.tol) != (template, float(tol)):
            raise ValueError(
                f"check {check_id!r} is {fam.template!r} at tol {fam.tol!r}, "
                f"not {template!r} at tol {tol!r}"
            )
        return fam

    def summary(self) -> Summary:
        """The stored totals if set, else folded from the families now."""
        return self.totals or Summary.fold(fam.summary() for fam in self.families.values())

    @property
    def all_passed(self) -> bool:
        return self.summary().n_failed == 0

    def sorted(self) -> "VerificationReport":
        """The report itself, already in the order write_json writes; kept
        for the benchmark's probe (perfbench/probe.py)."""
        return self

    def summary_line(self, s: Summary) -> str:
        """One line for this report, read from its summary() s."""
        a_part = "" if self.a_index is None else f" a_index={self.a_index}"
        status = "PASS" if s.n_failed == 0 else f"FAIL ({s.n_failed} checks)"
        return (
            f"{self.suite:14s} q={self.q:<4d}{a_part:14s} "
            f"checks={s.n_checks:<6d} max_dev={s.max_deviation:.3g}  {status}"
        )


def report_sort_key(rep: VerificationReport):
    return (rep.suite, rep.q, -1 if rep.a_index is None else rep.a_index)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _deviation_text(deviation: float) -> str:
    """The deviation rounded to 3 significant digits (reports are not
    bit-exact), as json.dumps writes the rounded float.  For a normal float,
    a rounded text with a negative exponent is already that float's repr."""
    text = "%.3g" % deviation
    if "e-" in text and deviation >= 2.0**-1022:  # sys.float_info.min
        return text
    text = float.__repr__(float(text))
    return _JSON_NONFINITE.get(text, text)


def write_json(reports: list[VerificationReport], path: str):
    """One object per check, byte for byte what json.dump(..., indent=1)
    writes for the list of {"suite", "q", "a_index", "check_id", "inputs",
    "deviation", "pass"} records of each report in check order, followed by
    a newline.  Each record fills a fixed template and is written as it is
    formatted."""
    with open(path, "w", encoding="utf-8") as fh:
        sep = "[\n"
        for rep in reports:
            head = (
                f' {{\n  "suite": {json.dumps(rep.suite)},\n  "q": {json.dumps(rep.q)},\n'
                f'  "a_index": {json.dumps(rep.a_index)},\n  "check_id": '
            )
            for check_id, fam in rep.families.items():
                lead, tol = f'{head}{_json_str(check_id)},\n  "inputs": ', fam.tol
                for inputs, deviation in zip(map(_json_str, fam.formatted()), fam.deviations):
                    fh.write(
                        f'{sep}{lead}{inputs},\n'
                        f'  "deviation": {_deviation_text(deviation)},\n'
                        f'  "pass": {"true" if deviation <= tol else "false"}\n }}'
                    )
                    sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def write_csv(reports: list[VerificationReport], path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["suite", "q", "a_index", "n_checks", "n_failed", "max_deviation", "wall_time_s",
             "min_margin"]
        )
        for rep in sorted(reports, key=report_sort_key):
            s = rep.summary()
            w.writerow(
                [
                    rep.suite,
                    rep.q,
                    "" if rep.a_index is None else rep.a_index,
                    s.n_checks,
                    s.n_failed,
                    f"{s.max_deviation:.3g}",
                    f"{rep.wall_time:.3f}",
                    f"{s.min_margin:.3g}",
                ]
            )

"""Suite reports stored by check family, with JSON/CSV serialization.

A VerificationReport maps each check id, in first-use order, to one
CheckFamily: the inputs template (e.g. "j={},k={}"), the family's one
tolerance, an array('d') of deviations and an array('q') column per
placeholder.  A check passes when deviation <= tol, evaluated when read, so a
NaN deviation fails.  No record tuple and no inputs string exist between a
check and the writer: write_json formats each inputs string as it writes
that record.

Records come out in check order everywhere: a report's families in
first-use order, the checks of each in the order they were added.  One task
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


def nan_max(values) -> float:
    """max(values, default=0.0), but nan if any value is NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


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

    def adder(self):
        """add(deviation, *args): one check whose inputs are the template
        filled with args, each an int of 64 bits.  A wrong argument count, a
        non-int or out-of-range argument or a deviation that is not a number
        raises TypeError or OverflowError and leaves the family unchanged."""
        cols, devs, k = self.columns, self.deviations, len(self.columns)

        def add(deviation, *args):
            if len(args) != k:
                raise TypeError(f"{self.template!r} takes {k} arguments, got {len(args)}")
            try:
                for col, value in zip(cols, args):
                    col.append(value)
                devs.append(deviation)
            except (TypeError, OverflowError):
                n = len(devs)
                for col in cols:
                    del col[n:]  # the appends before the one that failed
                raise

        return add

    def formatted(self):
        """The inputs string of each check in check order, each formatted
        when it is read."""
        if not self.columns:
            return repeat(self.template.format(), len(self.deviations))
        return map(self.template.format, *self.columns)

    @property
    def n_failed(self) -> int:
        if self.max_deviation <= self.tol:  # the common case, in one pass less
            return 0
        return len(self.deviations) - sum(map(self.tol.__ge__, self.deviations))

    @property
    def max_deviation(self) -> float:
        devs = self.deviations
        # a NaN sum screens for a NaN cheaply; inf - inf gives one too
        if math.isnan(sum(devs)) and any(map(math.isnan, devs)):
            return math.nan
        return max(devs, default=0.0)

    @property
    def margin(self) -> float:
        """tol / max deviation: inf when every deviation is 0, nan for a NaN."""
        worst = self.max_deviation
        return self.tol / worst if worst else math.inf


@dataclass
class VerificationReport:
    suite: str
    q: int
    a_index: int | None  # dlog of the parameter a, None when a-independent
    wall_time: float = 0.0
    # check_id -> its family, in first-use order
    families: dict[str, CheckFamily] = field(default_factory=dict)

    def family(self, check_id: str, template: str, tol: float):
        """The adder add(deviation, *args) of the check_id family; asking
        again gives the same family, and ValueError for another template or
        tol."""
        fam = self.families.get(check_id)
        if fam is None:
            fam = self.families[check_id] = CheckFamily(template, tol)
        elif (fam.template, fam.tol) != (template, float(tol)):
            raise ValueError(
                f"check {check_id!r} is {fam.template!r} at tol {fam.tol!r}, "
                f"not {template!r} at tol {tol!r}"
            )
        return fam.adder()

    @property
    def records(self) -> list[tuple[str, str, float, bool]]:
        """(check_id, inputs, deviation, passed) of every check, family by
        family in first-use order and each in check order, built when read."""
        return [
            (check_id, inputs, dev, dev <= fam.tol)
            for check_id, fam in self.families.items()
            for inputs, dev in zip(fam.formatted(), fam.deviations)
        ]

    @property
    def n_checks(self) -> int:
        return sum(map(len, self.families.values()))

    @property
    def max_deviation(self) -> float:
        return nan_max(fam.max_deviation for fam in self.families.values())

    @property
    def min_margin(self) -> float:
        """Smallest tol / max deviation over the families: inf when every
        deviation is 0, nan when any is NaN."""
        margins = [fam.margin for fam in self.families.values()]
        return math.nan if any(map(math.isnan, margins)) else min(margins, default=math.inf)

    @property
    def n_failed(self) -> int:
        return sum(fam.n_failed for fam in self.families.values())

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def sorted(self) -> "VerificationReport":
        """The report itself, already in the order write_json writes; kept
        for the benchmark's probe (perfbench/probe.py)."""
        return self

    def summary_line(self) -> str:
        a_part = "" if self.a_index is None else f" a_index={self.a_index}"
        status = "PASS" if self.all_passed else f"FAIL ({self.n_failed} checks)"
        return (
            f"{self.suite:14s} q={self.q:<4d}{a_part:14s} "
            f"checks={self.n_checks:<6d} max_dev={self.max_deviation:.3g}  {status}"
        )


def report_sort_key(rep: VerificationReport):
    return (rep.suite, rep.q, -1 if rep.a_index is None else rep.a_index)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _deviation_text(deviation: float) -> str:
    """The deviation rounded to 3 significant digits (reports are not
    bit-exact), as json.dumps writes the rounded float."""
    text = float.__repr__(float(f"{deviation:.3g}"))
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
            w.writerow(
                [
                    rep.suite,
                    rep.q,
                    "" if rep.a_index is None else rep.a_index,
                    rep.n_checks,
                    rep.n_failed,
                    f"{rep.max_deviation:.3g}",
                    f"{rep.wall_time:.3f}",
                    f"{rep.min_margin:.3g}",
                ]
            )

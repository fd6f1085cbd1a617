"""Suite reports stored by check family, with JSON/CSV serialization.

A VerificationReport maps each check id, in first-use order, to one
CheckFamily: the inputs template (e.g. "j={},k={}"), the family's one
tolerance, an array('d') of deviations and one argument column per
placeholder, an array('q') while every value is an int and a plain list
otherwise.  A check passes when deviation <= tol, evaluated when read, so a
NaN deviation fails.  No record tuple and no inputs string exist between a
check and the writer: write_json formats each inputs string as it writes
that record.

The JSON orders records by the string order of (check_id, inputs), in which
"j=10" sorts before "j=2".  For int columns the writer takes that order from
per-column ranks, each int ranked by the string order of its decimal form,
and puts each row in the slot of its tuple of ranks.  That equals the order
of the formatted inputs because family() accepts only templates whose
placeholders are each followed by the end of the template or by a character
that sorts below '0'.  A family with other values, repeated inputs or few
rows per slot sorts its formatted inputs instead.
"""

import csv
import json
import math
import operator
import string
from array import array
from dataclasses import dataclass, field, replace
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str


def nan_max(values) -> float:
    """max(values, default=0.0), but nan if any value is NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _placeholders(template: str) -> int:
    """The number of placeholders of an inputs template; ValueError unless
    each is a bare {} followed by the end of the template or by a character
    below '0', so that the string order of the filled template is the order
    of its int arguments' decimal strings, column by column."""
    parts = list(string.Formatter().parse(template))
    for i, (_, name, spec, conversion) in enumerate(parts):
        if name is None:
            continue
        if name or spec or conversion:
            raise ValueError(f"inputs template {template!r}: placeholders must be bare {{}}")
        after = parts[i + 1][0] if i + 1 < len(parts) else None
        if after is not None and not (after and after[0] < "0"):
            raise ValueError(
                f"inputs template {template!r}: a placeholder must end the template "
                "or be followed by a character below '0'"
            )
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
        filled with args.  A column moves from array('q') to a list at its
        first value that is not an int; a bool while it is an array('q') is
        stored as 0 or 1."""
        cols, dev, k = self.columns, self.deviations.append, len(self.columns)

        def slow(deviation, args):
            n = len(self.deviations)
            for col in cols:
                del col[n:]  # the appends of the fast path before it failed
            dev(deviation)  # a bad deviation raises here, with the family unchanged
            for i, value in enumerate(args):
                if type(cols[i]) is array and not (
                    isinstance(value, int) and -(2**63) <= value < 2**63
                ):
                    cols[i] = list(cols[i])
                cols[i].append(value)

        def add(deviation, *args):
            if len(args) != k:
                raise TypeError(f"{self.template!r} takes {k} arguments, got {len(args)}")
            try:
                for col, value in zip(cols, args):
                    col.append(value)
                dev(deviation)
            except (TypeError, OverflowError):
                slow(deviation, args)

        return add

    def inputs(self, i: int) -> str:
        return self.template.format(*[col[i] for col in self.columns])

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

    def order(self):
        """Row indices in the string order of their inputs; rows with equal
        inputs keep check order."""
        n, cols = len(self.deviations), self.columns
        if not cols or not n:
            return range(n)
        if all(type(col) is array for col in cols):
            ranks = [sorted(set(col), key=str) for col in cols]
            size = math.prod(map(len, ranks))
            if size <= 2 * n + 64:
                # each row's slot is the rank of its argument tuple, with the
                # first column most significant; rows share a slot only if
                # they share their inputs
                stride, row_slots = size, None
                for values, col in zip(ranks, cols):
                    stride //= len(values)
                    part = map({v: r * stride for r, v in enumerate(values)}.__getitem__, col)
                    row_slots = part if row_slots is None else map(operator.add, row_slots, part)
                slots = array("q", [-1]) * size
                for i, slot in enumerate(row_slots):
                    slots[slot] = i
                if slots.count(-1) == size - n:
                    return slots if size == n else array("q", filter((-1).__ne__, slots))
        return sorted(range(n), key=self.inputs)

    def json_inputs(self, order):
        """The JSON-encoded inputs of the rows in order, each formatted only
        when it is read."""
        cols = [map(col.__getitem__, order) for col in self.columns]
        if not cols:
            return repeat(_json_str(self.template.format()), len(order))
        return map(_json_str, map(self.template.format, *cols))

    def permuted(self) -> "CheckFamily":
        """A copy with the rows in order()."""
        order = self.order()
        fam = CheckFamily(self.template, self.tol)
        fam.deviations = array("d", map(self.deviations.__getitem__, order))
        for i, col in enumerate(self.columns):
            rows = map(col.__getitem__, order)
            fam.columns[i] = array("q", rows) if type(col) is array else list(rows)
        return fam


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
            (check_id, fam.inputs(i), dev, dev <= fam.tol)
            for check_id, fam in self.families.items()
            for i, dev in enumerate(fam.deviations)
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
        """A copy with the families in check_id order and the rows of each in
        inputs order, the order write_json writes."""
        fams = self.families
        return replace(self, families={cid: fams[cid].permuted() for cid in sorted(fams)})

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
    "deviation", "pass"} records sorted by (check_id, inputs) within each
    report, followed by a newline.  Each record fills a fixed template and is
    written as it is formatted."""
    with open(path, "w", encoding="utf-8") as fh:
        sep = "[\n"
        for rep in reports:
            head = (
                f' {{\n  "suite": {json.dumps(rep.suite)},\n  "q": {json.dumps(rep.q)},\n'
                f'  "a_index": {json.dumps(rep.a_index)},\n  "check_id": '
            )
            for check_id in sorted(rep.families):
                fam = rep.families[check_id]
                order, devs, tol = fam.order(), fam.deviations, fam.tol
                lead = f'{head}{_json_str(check_id)},\n  "inputs": '
                for inputs, deviation in zip(fam.json_inputs(order), map(devs.__getitem__, order)):
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

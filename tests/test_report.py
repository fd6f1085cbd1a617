"""The JSON report writer against json.dumps(..., indent=1), byte for byte,
and the NaN-aware maxima of the summaries."""

import csv
import json
import math

import pytest

from charsum import cli
from charsum.report import VerificationReport, _sig3, write_csv, write_json


def json_dump_reference(reports) -> str:
    objs = [
        {
            "suite": rep.suite,
            "q": rep.q,
            "a_index": rep.a_index,
            "check_id": check_id,
            "inputs": inputs,
            "deviation": _sig3(deviation),
            "pass": passed,
        }
        for rep in reports
        for check_id, inputs, deviation, passed in sorted(rep.records, key=lambda r: (r[0], r[1]))
    ]
    return json.dumps(objs, indent=1) + "\n"


def report(suite, q, a_index, rows):
    rep = VerificationReport(suite, q, a_index)
    for check_id, inputs, deviation in rows:
        rep.add(check_id, inputs, deviation, 1e-6)
    return rep


CASES = {
    "no reports": lambda: [],
    "only empty reports": lambda: [report("master", 7, 3, []), report("classical", 3, None, [])],
    "mixed": lambda: [
        report("classical", 3, None, [
            ("gauss-norm", "chi=1", 1.2345e-16),
            ("gauss-norm", "chi=0", 0.0),
            ("a-check", "big", 123456.789),
        ]),
        report("master", 7, 0, []),
        report("master", 7, 4, [
            ("point-identity", "j=1,k=2", math.inf),
            ("point-identity", 'q"uote and back\\slash', math.nan),
            ("mellin-match", "non-ascii χ=φ ü   \x01 \U0001d53d", -math.inf),
            ("mellin-match", "tab\tnew\nline", 1e300),
            ('id "quoted"', "", 2.5e-7),
        ]),
        report("remark-Z", 5, None, [("Z-anchor", "q=5", 4e-15)]),
    ],
}


@pytest.mark.parametrize("case", CASES)
def test_write_json_matches_json_dump(tmp_path, case):
    reports = CASES[case]()
    path = tmp_path / "report.json"
    write_json(reports, str(path))
    assert path.read_bytes() == json_dump_reference(reports).encode("utf-8")


SORT_CASES = [
    ([("b", "2", 0.0), ("a", "9", 0.0), ("b", "1", 0.0)], [("a", "9"), ("b", "1"), ("b", "2")]),
    # string order, not numeric order
    ([("p", "j=2,k=0", 0.0), ("p", "j=10,k=0", 0.0)], [("p", "j=10,k=0"), ("p", "j=2,k=0")]),
    # keys descending, deviations ascending: the deviation never decides
    ([("b", "2", 1e-9), ("b", "1", 2e-9), ("a", "9", 3e-9)], [("a", "9"), ("b", "1"), ("b", "2")]),
]


def test_write_json_sorts_records_within_a_report(tmp_path):
    path = tmp_path / "report.json"
    for rows, want in SORT_CASES:
        rep = report("master", 7, 1, rows)
        before = list(rep.records)
        write_json([rep], str(path))
        got = [(o["check_id"], o["inputs"]) for o in json.loads(path.read_text())]
        assert got == want
        assert rep.records == before  # the report itself stays in check order


@pytest.mark.parametrize("devs", [[1e-15, math.nan], [math.nan, 1e-15]], ids=["nan-last", "nan-first"])
def test_a_nan_deviation_is_the_maximum_in_either_order(tmp_path, monkeypatch, capsys, devs):
    rep = report("master", 7, 1, [("point-identity", f"j={i},k=0", d) for i, d in enumerate(devs)])
    assert math.isnan(rep.max_deviation)
    assert "max_dev=nan" in rep.summary_line()
    path = tmp_path / "report.csv"
    write_csv([rep], str(path))
    assert next(csv.DictReader(path.open()))["max_deviation"] == "nan"
    # the total line over reports: the NaN report comes after a finite one
    finite = report("master", 7, 0, [("point-identity", "j=0,k=0", 1e-15)])
    monkeypatch.setattr(cli, "run", lambda cfg: (1, [finite, rep]))
    assert cli.main(["run", "--q", "7"]) == 1
    assert "max deviation nan -> FAIL" in capsys.readouterr().out


def test_max_deviation_without_nan():
    assert report("master", 7, 1, []).max_deviation == 0.0
    rows = [("p", "1", 2e-15), ("p", "2", math.inf), ("p", "3", 0.0)]
    assert report("master", 7, 1, rows).max_deviation == math.inf

"""The JSON report writer against json.dumps(..., indent=1), byte for byte."""

import json
import math

import pytest

from charsum.report import VerificationReport, _sig3, write_json


def json_dump_reference(reports) -> str:
    objs = [
        {
            "suite": rep.suite,
            "q": rep.q,
            "a_index": rep.a_index,
            "check_id": r.check_id,
            "inputs": r.inputs,
            "deviation": _sig3(r.deviation),
            "pass": r.passed,
        }
        for rep in reports
        for r in rep.sorted().records
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


def test_write_json_sorts_records_within_a_report(tmp_path):
    rep = report("master", 7, 1, [("b", "2", 0.0), ("a", "9", 0.0), ("b", "1", 0.0)])
    path = tmp_path / "report.json"
    write_json([rep], str(path))
    got = [(o["check_id"], o["inputs"]) for o in json.loads(path.read_text())]
    assert got == [("a", "9"), ("b", "1"), ("b", "2")]

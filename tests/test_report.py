"""The check families of a report, the JSON report writer against
json.dumps(..., indent=1), byte for byte, and the NaN-aware maxima and
margins of the summaries."""

import csv
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import cli
from charsum.report import VerificationReport, write_csv, write_json


def json_dump_reference(reports) -> str:
    objs = [
        {
            "suite": rep.suite,
            "q": rep.q,
            "a_index": rep.a_index,
            "check_id": check_id,
            "inputs": inputs,
            "deviation": float(f"{deviation:.3g}"),  # 3 significant digits
            "pass": passed,
        }
        for rep in reports
        for check_id, inputs, deviation, passed in sorted(rep.records, key=lambda r: (r[0], r[1]))
    ]
    return json.dumps(objs, indent=1) + "\n"


def report(suite, q, a_index, rows):
    # any inputs string, as the one value of a "{}" template
    rep = VerificationReport(suite, q, a_index)
    for check_id, inputs, deviation in rows:
        rep.family(check_id, "{}", 1e-6)(deviation, inputs)
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


def test_records_are_the_check_tuples_family_by_family():
    rep = VerificationReport("master", 7, 1)
    point = rep.family("point-identity", "j={},k={}", 1e-6)
    point(1e-9, 2, 10)
    rep.family("z", "", 0.5)(1.0)
    point(math.nan, 0, 3)
    rep.family("point-identity", "j={},k={}", 1e-6)(0.0, 1, 1)  # the same family
    records = rep.records
    assert [(c, inputs, passed) for c, inputs, _, passed in records] == [
        ("point-identity", "j=2,k=10", True),
        ("point-identity", "j=0,k=3", False),
        ("point-identity", "j=1,k=1", True),
        ("z", "", False),
    ]
    assert records[0][2] == 1e-9 and math.isnan(records[1][2])
    assert (rep.n_checks, rep.n_failed) == (4, 2)


@pytest.mark.parametrize("template", ["x={}0", "{}{}", "{}a", "{0}", "{:d}", "{!r}", "{x}"])
def test_family_rejects_a_template_out_of_string_order(template):
    with pytest.raises(ValueError, match="template"):
        VerificationReport("master", 7, 1).family("p", template, 1e-6)


def test_family_rejects_another_template_or_tol():
    rep = VerificationReport("master", 7, 1)
    rep.family("p", "j={},k={}", 1e-6)(0.0, 1, 2)
    for template, tol in [("j={},k={}", 2e-6), ("j={}", 1e-6)]:
        with pytest.raises(ValueError, match="'p'"):
            rep.family("p", template, tol)
    rep.family("p", "j={},k={}", 1e-6)(0.0, 3, 4)
    assert [inputs for _, inputs, *_ in rep.records] == ["j=1,k=2", "j=3,k=4"]


def test_a_column_takes_any_value_after_ints():
    rep = VerificationReport("master", 7, 1)
    add = rep.family("p", "a={},b={},c={},d={}", 1e-6)
    add(0.0, 1, 2, 3, 4)
    add(0.0, 1, "x", 2**70, 1.5)
    add(0.0, 5, 6, 7, True)
    with pytest.raises(TypeError):
        add(0.0, 1, 2, 3)
    with pytest.raises(TypeError):
        add("not a deviation", 1, 2, 3, 4)
    pair = rep.family("q", "{},{}", 1e-6)
    pair(0.0, 9, 10)
    pair(0.0, "s", -(2**64))
    with pytest.raises(TypeError):
        pair("not a deviation", 1, 2)
    assert [inputs for _, inputs, *_ in rep.records] == [
        "a=1,b=2,c=3,d=4", f"a=1,b=x,c={2**70},d=1.5", "a=5,b=6,c=7,d=True",
        "9,10", f"s,{-(2**64)}",
    ]


def test_min_margin_in_the_csv(tmp_path):
    margin = report("master", 7, 1, [("p", "1", 1e-12), ("p", "2", 1e-13), ("z", "", 0.0)])
    margin.family("w", "{}", 1e-3)(1e-8, 0)
    zeros = report("master", 7, 2, [("p", "1", 0.0)])
    nan = report("master", 7, 3, [("p", "1", 1e-12), ("z", "", math.nan)])
    empty = report("master", 7, 4, [])
    path = tmp_path / "report.csv"
    write_csv([margin, zeros, nan, empty], str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0][-2:] == ["wall_time_s", "min_margin"]
    assert [row[-1] for row in rows[1:]] == ["1e+05", "inf", "nan", "inf"]
    assert margin.min_margin == pytest.approx(1e5)


_SEPARATORS = st.sampled_from([",", ", ", "-", "/", ".", ",k=", " x=", "\t"])


@st.composite
def templated_rows(draw):
    k = draw(st.integers(0, 4))
    template = draw(st.sampled_from(["", "j=", "D=", "chi1="]))
    for i in range(k):
        template += "{}"
        if i < k - 1 or draw(st.booleans()):
            template += draw(_SEPARATORS)
    value = st.one_of(
        st.sampled_from([0, 1, 2, 9, 10, 100, 1000]), st.integers(-1000, 10**6)
    )
    rows = draw(st.lists(st.tuples(*[value] * k), max_size=40))
    return template, rows


@settings(max_examples=200, deadline=None)
@given(templated_rows())
def test_writer_order_is_the_string_order_of_the_inputs(tmp_path_factory, case):
    template, rows = case
    rep = VerificationReport("master", 7, 1)
    add = rep.family("p", template, 1e-6)
    for i, row in enumerate(rows):
        add(float(i), *row)
    path = tmp_path_factory.mktemp("order") / "report.json"
    write_json([rep], str(path))
    got = [o["inputs"] for o in json.loads(path.read_text())]
    assert got == sorted(template.format(*row) for row in rows)
    assert path.read_bytes() == json_dump_reference([rep]).encode("utf-8")
    assert [inputs for _, inputs, *_ in rep.sorted().records] == got


def test_int_records_stay_small_and_are_formatted_as_written(tmp_path):
    # 100k point-identity-like records; a tuple with its inputs string took
    # about 155 B each, and a list of one inputs string per record at write
    # time would take more than 60 B each
    n_j, n_k = 400, 250
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = VerificationReport("master", 7, 1)
        add = rep.family("point-identity", "j={},k={}", 1e-6)
        for j in range(n_j):
            for k in range(n_k):
                add(1e-15, j, k)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        write_json([rep], str(path))
        written = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert held <= 40 * n_j * n_k
    assert written <= 40 * n_j * n_k
    with path.open() as fh:
        assert json.load(fh)[1]["inputs"] == "j=0,k=1"

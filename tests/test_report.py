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
        for check_id, inputs, deviation, passed in rep.records
    ]
    return json.dumps(objs, indent=1) + "\n"


def report(suite, q, a_index, rows):
    # rows of (check_id, inputs template, deviation, *int arguments)
    rep = VerificationReport(suite, q, a_index)
    for check_id, template, deviation, *args in rows:
        rep.family(check_id, template, 1e-6)(deviation, *args)
    return rep


CASES = {
    "no reports": lambda: [],
    "only empty reports": lambda: [report("master", 7, 3, []), report("classical", 3, None, [])],
    "mixed": lambda: [
        report("classical", 3, None, [
            ("gauss-norm", "chi={}", 1.2345e-16, 1),
            ("gauss-norm", "chi={}", 0.0, 0),
            ("a-check", "big", 123456.789),
        ]),
        report("master", 7, 0, []),
        report("master", 7, 4, [
            ("point-identity", "j={},k={}", math.inf, 1, 2),
            ("point-identity", "j={},k={}", math.nan, -(2**63), 2**63 - 1),
            ('q"uote', 'q"uote and back\\slash {}', 1e-300, 3),
            ("mellin-match χ", "non-ascii χ=φ ü   \x01 \U0001d53d {}", -math.inf, 5),
            ("tab\tnew\nline", "tab\t{}\nline", 1e300, 0),
            ('id "quoted"', "", 2.5e-7),
            ("braces", "{{{}}}", 0.0, 6),
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


def test_write_json_keeps_check_order(tmp_path):
    # families in first-use order, the checks of each in the order added:
    # neither the check id, the inputs nor the deviation decides
    rep = report("master", 7, 1, [
        ("b", "j={}", 1e-9, 10), ("a", "j={}", 3e-9, 9), ("b", "j={}", 2e-9, 2),
    ])
    path = tmp_path / "report.json"
    write_json([rep], str(path))
    got = [(o["check_id"], o["inputs"]) for o in json.loads(path.read_text())]
    assert got == [("b", "j=10"), ("b", "j=2"), ("a", "j=9")]
    assert got == [(check_id, inputs) for check_id, inputs, *_ in rep.records]


@pytest.mark.parametrize("devs", [[1e-15, math.nan], [math.nan, 1e-15]], ids=["nan-last", "nan-first"])
def test_a_nan_deviation_is_the_maximum_in_either_order(tmp_path, monkeypatch, capsys, devs):
    rep = report("master", 7, 1, [("point-identity", "j={},k=0", d, i) for i, d in enumerate(devs)])
    assert math.isnan(rep.max_deviation)
    assert "max_dev=nan" in rep.summary_line()
    path = tmp_path / "report.csv"
    write_csv([rep], str(path))
    assert next(csv.DictReader(path.open()))["max_deviation"] == "nan"
    # the total line over reports: the NaN report comes after a finite one
    finite = report("master", 7, 0, [("point-identity", "j={},k=0", 1e-15, 0)])
    monkeypatch.setattr(cli, "run", lambda cfg: (1, [finite, rep]))
    assert cli.main(["run", "--q", "7"]) == 1
    assert "max deviation nan -> FAIL" in capsys.readouterr().out


def test_max_deviation_without_nan():
    assert report("master", 7, 1, []).max_deviation == 0.0
    rows = [("p", "{}", 2e-15, 1), ("p", "{}", math.inf, 2), ("p", "{}", 0.0, 3)]
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


@pytest.mark.parametrize("template", ["{0}", "{:d}", "{!r}", "{x}", "{", "j={}}"])
def test_family_rejects_a_template_without_bare_placeholders(template):
    with pytest.raises(ValueError):
        VerificationReport("master", 7, 1).family("p", template, 1e-6)


def test_family_rejects_another_template_or_tol():
    rep = VerificationReport("master", 7, 1)
    rep.family("p", "j={},k={}", 1e-6)(0.0, 1, 2)
    for template, tol in [("j={},k={}", 2e-6), ("j={}", 1e-6)]:
        with pytest.raises(ValueError, match="'p'"):
            rep.family("p", template, tol)
    rep.family("p", "j={},k={}", 1e-6)(0.0, 3, 4)
    assert [inputs for _, inputs, *_ in rep.records] == ["j=1,k=2", "j=3,k=4"]


@pytest.mark.parametrize("args,error", [
    ((1, 2, 3), TypeError),
    ((1, 2, 3, 4, 5), TypeError),
    ((1, "x", 3, 4), TypeError),
    ((1, 2, 3, 1.5), TypeError),
    ((1, 2, 2**63, 4), OverflowError),
    ((1, 2, 3, -(2**63) - 1), OverflowError),
], ids=["too-few", "too-many", "str", "float", "past-int64", "below-int64"])
def test_a_bad_argument_raises_and_leaves_the_family_unchanged(args, error):
    rep = VerificationReport("master", 7, 1)
    add = rep.family("p", "a={},b={},c={},d={}", 1e-6)
    add(0.0, 1, 2, 3, 4)
    with pytest.raises(error):
        add(0.0, *args)
    with pytest.raises(TypeError):
        add("not a deviation", 5, 6, 7, 8)
    add(1e-9, 5, 6, 7, True)  # a bool is an int
    fam = rep.families["p"]
    assert all(len(col) == len(fam) == 2 for col in fam.columns)
    assert [inputs for _, inputs, *_ in rep.records] == ["a=1,b=2,c=3,d=4", "a=5,b=6,c=7,d=1"]


def test_min_margin_in_the_csv(tmp_path):
    margin = report("master", 7, 1, [("p", "{}", 1e-12, 1), ("p", "{}", 1e-13, 2), ("z", "", 0.0)])
    margin.family("w", "{}", 1e-3)(1e-8, 0)
    zeros = report("master", 7, 2, [("p", "{}", 0.0, 1)])
    nan = report("master", 7, 3, [("p", "{}", 1e-12, 1), ("z", "", math.nan)])
    empty = report("master", 7, 4, [])
    path = tmp_path / "report.csv"
    write_csv([margin, zeros, nan, empty], str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0][-2:] == ["wall_time_s", "min_margin"]
    assert [row[-1] for row in rows[1:]] == ["1e+05", "inf", "nan", "inf"]
    assert margin.min_margin == pytest.approx(1e5)


# with "" a placeholder follows a placeholder ("{}{}"), and with "0" a digit
# follows one ("x={}0")
_SEPARATORS = st.sampled_from(
    [",", ", ", "-", "/", ".", ",k=", " x=", "\t", "", "0", "a", "χ", '"', "\\", "{{", "}}"]
)


@st.composite
def templates(draw):
    k = draw(st.integers(0, 4))
    template = draw(st.sampled_from(["", "j=", "D=", "chi1=", "x="]))
    for i in range(k):
        template += "{}"
        if i < k - 1 or draw(st.booleans()):
            template += draw(_SEPARATORS)
    return template, k


@st.composite
def families_and_rows(draw):
    # one to three families, their checks interleaved
    fams = draw(st.lists(templates(), min_size=1, max_size=3))
    value = st.one_of(
        st.sampled_from([0, 1, 2, 9, 10, 100, 1000]), st.integers(-1000, 10**6)
    )
    rows = draw(st.lists(
        st.integers(0, len(fams) - 1).flatmap(
            lambda f: st.tuples(st.just(f), st.tuples(*[value] * fams[f][1]))
        ),
        max_size=40,
    ))
    return fams, rows


@settings(max_examples=200, deadline=None)
@given(families_and_rows())
def test_writer_order_is_check_order(tmp_path_factory, case):
    fams, rows = case
    rep = VerificationReport("master", 7, 1)
    for i, (f, args) in enumerate(rows):
        rep.family(f"p{f}", fams[f][0], 1e-6)(float(i), *args)
    path = tmp_path_factory.mktemp("order") / "report.json"
    write_json([rep], str(path))
    assert path.read_bytes() == json_dump_reference([rep]).encode("utf-8")
    first_use = list(dict.fromkeys(f for f, _ in rows))
    want = [
        (f"p{f}", fams[f][0].format(*args))
        for f in first_use
        for g, args in rows
        if g == f
    ]
    got = [(o["check_id"], o["inputs"]) for o in json.loads(path.read_text())]
    assert got == want
    assert rep.sorted().records == rep.records


def test_int_records_stay_small_and_are_formatted_as_written(tmp_path):
    # 100k point-identity-like records; a tuple with its inputs string took
    # about 155 B each, and a list of one inputs string per record at write
    # time would take more than 60 B each; the writer keeps nothing per record
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
    assert written <= 2 * n_j * n_k
    with path.open() as fh:
        assert json.load(fh)[1]["inputs"] == "j=0,k=1"

"""The check families of a report, the JSON report writer against
json.dumps(..., indent=1), byte for byte, and the NaN-aware maxima and
margins of the summaries."""

import csv
import json
import math
import tracemalloc
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import records

from charsum import cli, harness
from charsum.report import (
    CheckFamily,
    Summary,
    VerificationReport,
    _deviation_text,
    write_csv,
    write_json,
)


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
        for check_id, inputs, deviation, passed in records(rep)
    ]
    return json.dumps(objs, indent=1) + "\n"


def report(suite, q, a_index, rows):
    # rows of (check_id, inputs template, deviation, *int arguments)
    rep = VerificationReport(suite, q, a_index)
    for check_id, template, deviation, *args in rows:
        rep.family(check_id, template, 1e-6).extend([deviation], *([arg] for arg in args))
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


@pytest.mark.parametrize("zeros,zero_texts", [
    ((0.0, -0.0), ["0.0", "-0.0"]), ((-0.0, 0.0), ["-0.0", "0.0"]),
])
def test_write_json_formats_repeated_deviations_as_each_alone(tmp_path, zeros, zero_texts):
    # each record writes its own deviation's text, repeated or not: a memo of
    # the texts keyed by deviation would give 0.0 and -0.0 one key, and NaN
    # equals no key
    rep = VerificationReport("master", 7, 1)
    rep.family("p", "j={}", 1e-6).extend([*zeros, 7.41e-323, math.nan, math.inf] * 2, range(10))
    path = tmp_path / "report.json"
    write_json([rep], str(path))
    text = path.read_text()
    texts = [line.split(": ")[1].rstrip(",") for line in text.splitlines() if "deviation" in line]
    assert texts == [*zero_texts, "7.4e-323", "NaN", "Infinity"] * 2
    assert text == json_dump_reference([rep])


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
    assert got == [(check_id, inputs) for check_id, inputs, *_ in records(rep)]


def test_max_deviation_without_nan():
    assert report("master", 7, 1, []).summary().max_deviation == 0.0
    rows = [("p", "{}", 2e-15, 1), ("p", "{}", math.inf, 2), ("p", "{}", 0.0, 3)]
    assert report("master", 7, 1, rows).summary().max_deviation == math.inf


def test_records_are_the_check_tuples_family_by_family():
    rep = VerificationReport("master", 7, 1)
    point = rep.family("point-identity", "j={},k={}", 1e-6)
    point.extend([1e-9], [2], [10])
    rep.family("z", "", 0.5).extend([1.0])
    point.extend([math.nan], [0], [3])
    assert rep.family("point-identity", "j={},k={}", 1e-6) is point  # the same family
    point.extend([0.0], [1], [1])
    got = records(rep)
    assert [(c, inputs, passed) for c, inputs, _, passed in got] == [
        ("point-identity", "j=2,k=10", True),
        ("point-identity", "j=0,k=3", False),
        ("point-identity", "j=1,k=1", True),
        ("z", "", False),
    ]
    assert got[0][2] == 1e-9 and math.isnan(got[1][2])
    assert rep.summary()[:2] == (4, 2)


@pytest.mark.parametrize("template", ["{0}", "{:d}", "{!r}", "{x}", "{", "j={}}"])
def test_family_rejects_a_template_without_bare_placeholders(template):
    with pytest.raises(ValueError):
        VerificationReport("master", 7, 1).family("p", template, 1e-6)


def test_family_rejects_another_template_or_tol():
    rep = VerificationReport("master", 7, 1)
    rep.family("p", "j={},k={}", 1e-6).extend([0.0], [1], [2])
    for template, tol in [("j={},k={}", 2e-6), ("j={}", 1e-6)]:
        with pytest.raises(ValueError, match="'p'"):
            rep.family("p", template, tol)
    rep.family("p", "j={},k={}", 1e-6).extend([0.0], [3], [4])
    assert [inputs for _, inputs, *_ in records(rep)] == ["j=1,k=2", "j=3,k=4"]


@pytest.mark.parametrize("deviations,columns,error", [
    ([0.0], ([1], [2], [3]), TypeError),
    ([0.0], ([1], [2], [3], [4], [5]), TypeError),
    ([0.0, 0.0], ([1, 2], [2, 3], [3], [4, 5]), ValueError),
    ([0.0], ([1], [2], [3], [4, 5]), ValueError),
    ([0.0, 0.0], ([1, 2], [2, "x"], [3, 4], [4, 5]), TypeError),
    ([0.0, 0.0], ([1, 2], [2, 3], [3, 4], [4, 1.5]), TypeError),
    ([0.0, 0.0], ([1, 2], [2, 3], [3, 2**63], [4, 5]), OverflowError),
    ([0.0, 0.0], ([1, 2], [2, 3], [3, 4], [-(2**63) - 1, 5]), OverflowError),
    ([0.0, "not a deviation"], ([1, 2], [2, 3], [3, 4], [4, 5]), TypeError),
], ids=["too-few", "too-many", "short-column", "long-column", "str", "float", "past-int64",
        "below-int64", "deviation"])
def test_a_bad_column_raises_and_leaves_the_family_unchanged(deviations, columns, error):
    rep = VerificationReport("master", 7, 1)
    fam = rep.family("p", "a={},b={},c={},d={}", 1e-6)
    fam.extend([0.0], [1], [2], [3], [4])
    with pytest.raises(error):
        fam.extend(deviations, *columns)
    fam.extend([1e-9, 2e-9], [5, 9], (6, 10), range(7, 9), [True, 0])  # a bool is an int
    assert all(len(col) == len(fam) == 3 for col in fam.columns)
    assert [inputs for _, inputs, *_ in records(rep)] == [
        "a=1,b=2,c=3,d=4", "a=5,b=6,c=7,d=1", "a=9,b=10,c=8,d=0"
    ]


def test_one_summary_per_family_over_a_run(tmp_path, monkeypatch, capsys):
    # the exit code, the CSV and the CLI's lines all read the summary that
    # the task stored, so each family is summarized once
    calls, runs = [], []
    summary, run = CheckFamily.summary, cli.run
    monkeypatch.setattr(CheckFamily, "summary", lambda fam: calls.append(fam) or summary(fam))
    monkeypatch.setattr(cli, "run", lambda cfg: runs.append(run(cfg)) or runs[-1])
    monkeypatch.delenv(harness.ENV_PARALLELISM, raising=False)
    code = cli.main(["run", "--q", "7", "--q", "5", "--a", "sample-2", "--out",
                     str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
    assert code == 0 and capsys.readouterr().out.endswith("-> PASS\n")
    (_, reports), = runs
    families = [fam for rep in reports for fam in rep.families.values()]
    assert len(families) > 20
    assert sorted(map(id, calls)) == sorted(map(id, families))


def test_stored_totals_survive_the_pool():
    cfg = harness.RunConfig(fields=[(3, 1), (7, 1)], suites=["master", "classical"],
                            a_policy="sample-2", parallelism=2)
    _, reports = harness.run(cfg)
    assert len(reports) == 6
    for rep in reports:
        assert rep.totals == Summary.fold(fam.summary() for fam in rep.families.values())


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(), st.floats(min_value=0.0, max_value=1e-300)))
@example(0.0)
@example(5e-324)
@example(7.41e-323)  # a subnormal: its 3-digit text 7.41e-323 reads as 7.4e-323
@example(1e-310)
@example(2.2250738585072014e-308)  # sys.float_info.min
@example(9.995e-5)  # rounds up to 0.0001, without an exponent
@example(1e-4)
@example(1e3)
@example(1e16)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_deviation_text_is_json_of_the_rounded_float(deviation):
    assert _deviation_text(deviation) == json.dumps(float(f"{deviation:.3g}"))


def test_min_margin_in_the_csv(tmp_path):
    margin = report("master", 7, 1, [("p", "{}", 1e-12, 1), ("p", "{}", 1e-13, 2), ("z", "", 0.0)])
    margin.family("w", "{}", 1e-3).extend([1e-8], [0])
    zeros = report("master", 7, 2, [("p", "{}", 0.0, 1)])
    nan = report("master", 7, 3, [("p", "{}", 1e-12, 1), ("z", "", math.nan)])
    empty = report("master", 7, 4, [])
    path = tmp_path / "report.csv"
    write_csv([margin, zeros, nan, empty], str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0][-2:] == ["wall_time_s", "min_margin"]
    assert [row[-1] for row in rows[1:]] == ["1e+05", "inf", "nan", "inf"]
    assert margin.summary().min_margin == pytest.approx(1e5)


# rows of the case's report; each deviation has at most 3 significant digits,
# so the JSON holds it exactly
SUMMARY_CASES = {
    "nan-first": [("p", "j={}", math.nan, 0), ("p", "j={}", 1e-15, 1)],
    "nan-last": [("p", "j={}", 1e-15, 0), ("p", "j={}", math.nan, 1)],
    "inf": [("p", "j={}", 1e-15, 0), ("p", "j={}", math.inf, 1)],
    "all-zero": [("p", "j={}", 0.0, 0), ("p", "j={}", 0.0, 1)],
    "family-without-checks": [("p", "j={}", 2.5e-7, 0)],
    "empty-report": [],
    "one-failed": [("p", "j={}", 1e-15, 0), ("z", "k={}", 0.5, 1)],
}


def _recount(objs):
    """(n_checks, n_failed, max deviation, min margin) of JSON records whose
    checks all have tol 1e-6; a NaN deviation makes both nan."""
    devs = [o["deviation"] for o in objs]
    failed = sum(not o["pass"] for o in objs)
    if any(map(math.isnan, devs)):
        return len(devs), failed, math.nan, math.nan
    by_id = {}
    for o in objs:
        by_id.setdefault(o["check_id"], []).append(o["deviation"])
    margins = [1e-6 / max(d) if max(d) else math.inf for d in by_id.values()]
    return len(devs), failed, max(devs, default=0.0), min(margins, default=math.inf)


@pytest.mark.parametrize("case", SUMMARY_CASES)
def test_every_consumer_agrees_with_a_recount_of_the_json(tmp_path, monkeypatch, capsys, case):
    # a finite report, then the case's: the run's exit code, the summary
    # lines, the CSV rows and the total line all read one summary per report
    reports = [report("master", 7, 0, [("p", "j={}", 1e-15, 0)]),
               report("master", 7, 1, SUMMARY_CASES[case])]
    if case == "family-without-checks":
        reports[1].family("unused", "j={}", 1e-6)
    monkeypatch.setattr(harness, "_run_task", lambda task: reports)
    monkeypatch.delenv(harness.ENV_PARALLELISM, raising=False)
    out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    code = cli.main(["run", "--q", "7", "--suite", "master", "--a", "sample-1",
                     "--out", str(out), "--csv", str(csv_path)])
    lines = capsys.readouterr().out.splitlines()
    objs = json.loads(out.read_text())
    rows = list(csv.DictReader(csv_path.open()))
    assert len(lines) == len(rows) + 1 == len(reports) + 1
    for rep, line, row in zip(reports, lines, rows):
        n, failed, worst, margin = _recount([o for o in objs if o["a_index"] == rep.a_index])
        status = "PASS" if failed == 0 else f"FAIL ({failed} checks)"
        assert f"checks={n} " in line and f" max_dev={worst:.3g} " in line
        assert line.endswith(f"  {status}")
        got = [row[k] for k in ("a_index", "n_checks", "n_failed", "max_deviation", "min_margin")]
        assert got == [str(rep.a_index), str(n), str(failed), f"{worst:.3g}", f"{margin:.3g}"]
    n, failed, worst, _ = _recount(objs)
    assert code == (1 if failed else 0)
    status = "FAIL" if failed else "PASS"
    assert lines[-1] == f"total: {n} checks, {failed} failed, max deviation {worst:.3g} -> {status}"


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
    rep = report("master", 7, 1, [(f"p{f}", fams[f][0], float(i), *args)
                                  for i, (f, args) in enumerate(rows)])
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
    assert records(rep.sorted()) == records(rep)


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
        point = rep.family("point-identity", "j={},k={}", 1e-6)
        for j in range(n_j):
            point.extend(repeat(1e-15, n_k), repeat(j, n_k), range(n_k))
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

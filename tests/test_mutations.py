"""The mutation matrix: each row of MUTATIONS serves one wrong value as a
copy where a suite reads it (a row, a P table entry, a fiber walk, a memo
key, or a one-line slip in the source) and names every (suite, check_id)
that must fail.  A case runs a row at one q and one a on fields of its own,
so no memo keeps a wrong value: at a = 1 every suite that applies at q, in
one task as harness.run groups them, and at a = g the a-sweep suites.  Its
failed families must equal the row's exactly.  GAPS names the families that
no wrong input can fail, and BLIND_SPOTS the cases where a family passes a
row that fails it elsewhere."""

import cmath
import functools
import inspect
import sys
import textwrap
from collections.abc import Callable
from dataclasses import dataclass

import pytest
from conftest import failed_ids, records

from charsum import classical_sums, finite_field, harness, hypergeometric, katz
from charsum.characters import quadratic_char
from charsum.finite_field import FieldTower, build_tower, factor_prime_power
from charsum.katz import KatzContext
from charsum.tolerance import DEFAULT_POLICY


def suites_at(q: int, a: str) -> list[str]:
    """Every suite that applies at q at a = 1; the a-sweep suites at a = g."""
    return [name for name, suite in harness.SUITES.items()
            if q % 4 == suite.mod4 and (a == "1" or suite.a_sweep)]


def own_fields(mp):
    """Empty field and tower registries, so that build_tower builds afresh."""
    mp.setattr(finite_field, "_FIELDS", {})
    mp.setattr(finite_field, "_TOWERS", {})


def run(q: int, a: str, suites: list[str]) -> list:
    """The reports of one task of the suites at q and a, as harness.run runs it."""
    p, t = factor_prime_power(q)
    code = 1 if a == "1" else build_tower(p, t).base.g
    return harness._run_task(((p, t, code, 1, DEFAULT_POLICY.floor, DEFAULT_POLICY.scale), suites))


@functools.cache
def clean_case(q: int, a: str) -> tuple[set[tuple[str, str]], dict[str, list[str]]]:
    """The (suite, check_id) pairs that the suites at q and a write, and for
    each row the suites that read a name it serves, each run alone on fields
    of its own.  A suite that reads none computes, in a mutated case, what it
    computes in a clean one, so a case runs only the suites that read one."""
    read, reports = set(), []

    def reading(key, real):
        def read_real(*args, **kwargs):
            read.add((key, suite))  # suite: the one that the loop below runs now
            return real(*args, **kwargs)
        return read_real

    with pytest.MonkeyPatch.context() as mp:
        for key in {key for row in MUTATIONS for key in row.patch.keys}:
            mp.setattr(*key, reading(key, getattr(*key)))
        for suite in suites_at(q, a):
            own_fields(mp)
            reports += run(q, a, [suite])
    assert all(rep.all_passed for rep in reports)
    readers = {row.name: [suite for suite in suites_at(q, a)
                          if any((key, suite) in read for key in row.patch.keys)]
               for row in MUTATIONS}
    return {(rep.suite, check_id) for rep in reports for check_id in rep.families}, readers


def serve(wrong, name, *readers):
    """A patch that serves name under each reader (a module or a class) as
    wrong(real, *args); its keys are the (reader, name) pairs it sets."""
    def patch(mp):
        real = getattr(readers[0], name)
        for reader in readers:
            mp.setattr(reader, name, lambda *args: wrong(real, *args))
    patch.keys = [(reader, name) for reader in readers]
    return patch


def slip(owner, name, old, new, *readers):
    """A patch that serves owner.name, under owner and each reader, compiled
    from its source with the one occurrence of old replaced by new."""
    def patch(mp):
        real = getattr(owner, name)
        src = textwrap.dedent(inspect.getsource(real))
        assert src.count(old) == 1, (name, old)
        namespace = dict(vars(sys.modules[real.__module__]))
        exec(src.replace(old, new), namespace)
        for reader in (owner, *readers):
            mp.setattr(reader, name, namespace[name])
    patch.keys = [(reader, name) for reader in (owner, *readers)]
    return patch


def shift(row):
    """row[k + 1] read as row[k]."""
    return row[1:] + row[:1]


def with_phi(d):
    return d * quadratic_char(d.field)


def one_log_off(real, tower, c):
    return [(m + 1) % (tower.top.order - 1) for m in real(tower, c)]


def p_entry(kind):
    """The P table served with its entry at (s, d) = (4, 1), (4, 0) or (0, 1)
    off by 0.01, and the inputs of the point-identity records that read it."""
    def squares(base):
        s = 0 if kind == "s-zero-edge" else base.mul_codes(2, 2)
        return s, 0 if kind == "diagonal" else 1

    def wrong(real, ctx):  # read at the half-logs of s and d; (q-1)/2 for a zero square
        base, tab = ctx.tower.base, real(ctx)
        i, k = (base.dlog[s] // 2 if s else (base.order - 1) // 2 for s in squares(base))
        tab[i][k] += 0.01
        return tab

    def points(base, a):
        square = lambda c: base.mul_codes(c, c)
        return {f"j={j},k={k}" for j in range(base.order) for k in range(base.order)
                if (square(base.add_codes(j, k)), square(base.sub_codes(j, k))) == squares(base)}
    return serve(wrong, "_p_table", KatzContext), points


def fiber_rows_off(which):
    """_fiber_row served with the rows that which(kind, index) picks read one
    fiber off, Phi[k + 1] for Phi[k]."""
    def wrong(real, tower, kind, index):
        row = real(tower, kind, index)
        return shift(row) if which(kind, index) else row
    return serve(wrong, "_fiber_row", classical_sums)


def gauss_rows(wrong_row, fields):
    """gauss_sums served with wrong_row for the base field, the top field or
    both."""
    def wrong(real, field):
        top = any(field is tower.top for tower in finite_field._TOWERS.values())
        row = real(field)
        return wrong_row(row) if fields in ("both", "top" if top else "base") else row
    return serve(wrong, "gauss_sums", harness)


@dataclass(frozen=True)
class Mutation:
    """One wrong input and the families it fails wherever their suite runs,
    less its BLIND_SPOTS."""

    name: str
    patch: Callable  # patch(monkeypatch) serves the wrong value
    fails: dict  # suite -> the check_ids it fails
    points: Callable | None = None  # (base, a) -> inputs of the failed point records, or None
    qs: tuple = (5, 7, 9, 11, 27)  # 5 and 9 for remark-Z, the one suite at q = 1 (mod 4)

    def cases(self) -> list[tuple[int, str]]:
        """(q, a) for each q where a suite the row fails applies, at a = 1,
        and at a = g too where one of them sweeps a."""
        return [(q, a) for q in self.qs for a in ("1", "g")
                if set(self.fails) & set(suites_at(q, a))]

    def expected(self, q: int, a: str) -> set[tuple[str, str]]:
        spared = {(suite, check_id) for (row, suite, check_id), (cases, _) in BLIND_SPOTS.items()
                  if row == self.name and (q, a) in cases}
        return {(suite, check_id) for suite, ids in self.fails.items()
                if suite in suites_at(q, a) for check_id in ids} - spared


# the families that read each value, by suite
P_READERS = {"mellin": {"double-mellin-mixed"}, "master": {"point-identity", "mellin-match"}}
V_READERS = {"mellin": {"mellin-single", "double-mellin-product", "double-mellin-literal",
                        "mellin-inversion"},
             "master": {"point-identity", "mellin-match"}}
R_READERS = {"hypergeometric": {"fiber-jacobi-even"}, "theorem-4.1": {"fiber-jacobi-hyp"},
             "theorem-5.x": {"fiber-transform"}}
HYP_READERS = {"theorem-4.1": {"fiber-jacobi-hyp"}, "theorem-5.x": {"kernel-closed-form"}}
BRIDGE_READERS = {"theorem-5.x": {"gauss-ratio-bridge"}, "master": {"gauss-ratio-bridge"}}
BRACKET_READERS = {"mellin": {"double-mellin-product", "double-mellin-literal"},
                   "theorem-5.x": {"kernel-transform", "fiber-transform", "gauss-ratio-bridge",
                                   "kernel-double-sum"},
                   "master": {"gauss-ratio-bridge"}}
BASE_GAUSS = {"gauss-trivial", "gauss-conjugate", "gauss-jacobi-bridge", "hd-product",
              "lifted-gauss", "quartic-gauss"}
TOP_GAUSS = {"gauss-trivial", "gauss-conjugate-top", "lifted-gauss", "quartic-gauss",
             "gauss-frobenius"}
GAUSS_READERS = {"eisenstein": {"eisenstein-gauss-ratio"},
                 "theorem-5.x": {"kernel-closed-form", "kernel-transform"}}

MUTATIONS = [
    Mutation("x-partner-added",  # phi(-1) = -1 forgotten: each x-pair adds 2 Re psi
             slip(KatzContext, "__init__", "[2 * r.imag", "[-2j * r.real"), P_READERS,
             qs=(3, 5, 7, 9, 11, 27),  # every point fails at a = g; at a = 1, P(0, 0) can pass
             points=lambda base, a: {f"j={j},k={k}" for j in range(base.order)
                                     for k in range(base.order)} if a == "g" else None),
    *(Mutation(f"p-entry-{kind}", p_entry(kind)[0], P_READERS, points=p_entry(kind)[1])
      for kind in ("off-diagonal", "diagonal", "s-zero-edge")),
    Mutation("p-table-anti-diagonal-off",
             slip(KatzContext, "_p_table", "r = (la + 2 * c) % n", "r = (la + 2 * (c + 1)) % n"),
             P_READERS),
    Mutation("p-table-no-stride", slip(KatzContext, "_p_table", "[l : l + n : 2]", "[l : l + h]"),
             P_READERS),
    Mutation("v-walk-one-log-off", serve(one_log_off, "fiber_logs", katz), V_READERS),
    Mutation("r-walk-one-log-off", serve(one_log_off, "fiber_logs", hypergeometric),
             {**R_READERS, "hypergeometric": {"norm-fiber", "fiber-jacobi-even"}}),
    Mutation("v-1.5-at-one-j", serve(lambda real, ctx: [v * 1.5 if j == 2 else v for j, v in
                                                       enumerate(real(ctx))],
                                     "_build_v_vector", KatzContext), V_READERS),
    Mutation("v-complex-factor",
             serve(lambda real, ctx: [cmath.rect(1.3, 0.9) * v for v in real(ctx)],
                   "_build_v_vector", KatzContext), V_READERS),
    Mutation("hyp-rows-shifted",  # hyp-bound reads these rows too
             serve(lambda real, a, b, c, xs: [0j] + shift(real(a, b, c, a.field.exp)[1:]),
                   "_hyp2f1_at", hypergeometric), HYP_READERS),
    Mutation("hyp-rows-of-D-phi",  # (D phi, D^2 phi, D) for (D, D^2 phi, D phi)
             serve(lambda real, a, b, c, xs: real(with_phi(a), b, with_phi(c), xs),
                   "_hyp2f1_at", hypergeometric), HYP_READERS),
    Mutation("norm-jacobi-row-of-D-phi",
             serve(lambda real, ctx, d: real(ctx, with_phi(d)), "norm_jacobi_row", harness),
             R_READERS),
    Mutation("norm-jacobi-table-shifted",  # R(D chi_1, j) for R(D, j)
             serve(lambda real, ctx: {j4: shift(r) for j4, r in real(ctx).items()},
                   "norm_jacobi_table", hypergeometric), R_READERS),
    Mutation("mixed-inner-keyed-on-1",  # the first chi2's inner vector serves every chi2
             slip(katz, "_mixed_inner", "chi2.index", "1"),
             {"mellin": {"double-mellin-mixed"}, "master": {"mellin-match"}}),
    Mutation("bridge-memo-keyed-on-D",  # both sides of a record come from one entry
             slip(katz, "bridge_sides", "(ctx.M8.index, nu1, d)", "(ctx.M8.index, d)", harness),
             {"mellin": {"double-mellin-product", "double-mellin-mixed", "double-mellin-literal"}}),
    Mutation("kernel-row-of-D-phi",
             serve(lambda real, d: list(real(with_phi(d))), "kernel_row", katz, harness),
             {**BRIDGE_READERS, "mellin": {"double-mellin-mixed"}, "remark-Z": {"z-evaluation"},
              "theorem-5.x": {"kernel-closed-form", "kernel-transform", "gauss-ratio-bridge"}}),
    Mutation("A-row-next-fiber", fiber_rows_off(lambda kind, index: kind == "jacobi"),
             BRACKET_READERS),
    Mutation("A-row-of-conj-A",  # the bracket at C = phi is real: kernel-double-sum passes
             serve(lambda real, tower, kind, index: real(tower, kind, -index % (tower.top.order - 1)
                                                         if kind == "jacobi" else index),
                   "_fiber_row", classical_sums),
             {**BRACKET_READERS,
              "theorem-5.x": {"kernel-transform", "fiber-transform", "gauss-ratio-bridge"}}),
    Mutation("psi-row-next-fiber",
             fiber_rows_off(lambda kind, index: (kind, index) == ("gauss", 0)),
             {**BRIDGE_READERS, "mellin": {"double-mellin-product", "double-mellin-literal"}}),
    Mutation("twisted-psi-rows-next-fiber",  # only the closed form of S(chi) reads them
             fiber_rows_off(lambda kind, index: kind == "gauss" and index),
             {"mellin": {"mellin-single", "mellin-inversion"}}),
    Mutation("bracket-m8-for-m8-fifth", slip(katz, "jacobi_bracket", "m8**5", "m8", harness),
             BRACKET_READERS),
    Mutation("bridge-delta-term-dropped",  # its one site, which T's closed form sums too
             slip(katz, "_build_bridge_sides", " + 2 * (q - 1) * delta(dc)", ""),
             {**BRIDGE_READERS, "mellin": {"double-mellin-mixed"}}),
    Mutation("double-row-shifted",  # a constant added would cancel: every phi nu^4 is nontrivial
             serve(lambda real, field: [0j] + shift(real(field)[1:]), "kernel_double_row", harness),
             {"theorem-5.x": {"kernel-double-sum", "kernel-double-anchor"}}),
    Mutation("gauss-both-conjugated",  # G(conj chi) for G(chi)
             gauss_rows(lambda row: [row[-k] for k in range(len(row))], "both"),
             {**GAUSS_READERS,
              "classical": {"gauss-jacobi-bridge", "hd-product", "quartic-gauss"}}),
    Mutation("gauss-both-shifted", gauss_rows(shift, "both"),
             {**GAUSS_READERS, "classical": BASE_GAUSS | TOP_GAUSS}),
    Mutation("gauss-base-shifted", gauss_rows(shift, "base"),
             {**GAUSS_READERS, "classical": BASE_GAUSS}),
    Mutation("gauss-top-shifted", gauss_rows(shift, "top"),
             {"classical": TOP_GAUSS, "eisenstein": {"eisenstein-gauss-ratio"}}),
    Mutation("jacobi-rows-shifted", serve(lambda real, a: shift(real(a)), "jacobi_row", harness),
             {"classical": {"jacobi-trivial", "jacobi-inverse", "jacobi-with-trivial",
                            "gauss-jacobi-bridge", "jacobi-reflection"}}),
    Mutation("jacobi-row-of-chi1-shifted",
             serve(lambda real, a: shift(real(a)) if a.index == 1 else real(a), "jacobi_row",
                   harness),
             {"classical": {"jacobi-inverse", "gauss-jacobi-bridge", "jacobi-reflection"}}),
    Mutation("e2-row-shifted",
             serve(lambda real, tower: (lambda e2, e: (shift(e2), e))(*real(tower)),
                   "eisenstein_sums", harness),
             {"eisenstein": {"eisenstein-trivial", "eisenstein-shift", "eisenstein-gauss-ratio"}}),
    Mutation("e-row-shifted",
             serve(lambda real, tower: (lambda e2, e: (e2, shift(e)))(*real(tower)),
                   "eisenstein_sums", harness),
             {"eisenstein": {"eisenstein-line-trivial", "eisenstein-shift"}}),
    Mutation("trace-line-point-dropped",
             serve(lambda real, tower: real(tower)[1:], "_build_trace_line", FieldTower),
             {"eisenstein": {"line-count", "eisenstein-trivial", "eisenstein-shift",
                             "eisenstein-gauss-ratio"}}),
    Mutation("binom-read-at-conj-B", serve(lambda real, a, b: real(a, b.conj), "binom", harness),
             {"hypergeometric": {"binom-reflection"}}),
]

GAPS = {  # check_id -> why no wrong input can fail it
    "hyp-zero-arg": "hyp2f1(A, B, A, 0) returns 0j before it sums anything",
    "hyp-bound": "only |2F1| <= (q-1)/q, which hyp-rows-shifted and hyp-rows-of-D-phi meet",
    "delta-square-fourth": "mu^4 = eps iff mu^2 = eps when gcd(4, q-1) = 2; no library value",
}

Q3_A1, Q27_A1, Q27 = {(3, "1")}, {(27, "1")}, {(27, "1"), (27, "g")}
EMPTY_X_SUM = "both nonzero x have x^2 = a, so the x-sum of P is empty"
AXIS_ENTRY = "at p = 3 the entry (4, 1) is (1, 1), read only at j = 0 or k = 0, which T never sums"
P3_RELATION = "at p = 3, 4 = 1 and 2 = -1 in F_q, so the relation holds for conj(C) as for C"

BLIND_SPOTS = {  # (row, suite, check_id) -> the cases (q, a) where it passes, and why
    ("x-partner-added", "master", "point-identity"): (Q3_A1, EMPTY_X_SUM),
    ("x-partner-added", "master", "mellin-match"): (Q3_A1, EMPTY_X_SUM),
    ("x-partner-added", "mellin", "double-mellin-mixed"): (Q3_A1, EMPTY_X_SUM),
    ("p-entry-off-diagonal", "master", "mellin-match"): (Q27, AXIS_ENTRY),
    ("p-entry-off-diagonal", "mellin", "double-mellin-mixed"): (Q27, AXIS_ENTRY),
    ("kernel-row-of-D-phi", "mellin", "double-mellin-mixed"): ({(7, "1"), (11, "1"), (27, "1")}, (
        "T weighs the rows of D = mu and mu phi by (conj(mu) phi^i)(a), equal at a square a")),
    ("gauss-both-conjugated", "classical", "hd-product"): (Q27_A1, P3_RELATION),
    ("gauss-both-conjugated", "classical", "quartic-gauss"): (Q27_A1, P3_RELATION),
}


@pytest.mark.parametrize("row,q,a", [
    pytest.param(row, q, a, id=f"{row.name}-q{q}-a{a}")
    for row in MUTATIONS for q, a in row.cases()
])
def test_each_mutation_fails_exactly_its_families(monkeypatch, row, q, a):
    written, readers = clean_case(q, a)
    own_fields(monkeypatch)
    row.patch(monkeypatch)
    reports = run(q, a, readers[row.name])
    # double-mellin-literal is written only where every character is swept
    assert {(rep.suite, check_id) for rep in reports
            for check_id in failed_ids(rep)} == row.expected(q, a) & written
    want = row.points and row.points(build_tower(*factor_prime_power(q)).base, a)
    if want:
        assert {inputs for rep in reports if rep.suite == "master"
                for check_id, inputs, _, passed in records(rep)
                if check_id == "point-identity" and not passed} == want


@pytest.mark.parametrize("q", Mutation.qs)
def test_every_family_fails_under_a_row_or_is_a_gap(q):
    written, _ = clean_case(q, "1")
    failed = {pair for row in MUTATIONS for case in row.cases() if case[0] == q
              for pair in row.expected(*case)}
    assert written - failed == {pair for pair in written if pair[1] in GAPS}


def test_each_blind_spot_spares_a_family_its_row_fails_elsewhere():
    rows = {row.name: row for row in MUTATIONS}
    for (name, suite, check_id), (cases, _) in BLIND_SPOTS.items():
        assert check_id in rows[name].fails[suite] and cases < set(rows[name].cases())

"""Every fast route that a suite reads, against its literal oracle: a row of
ROUTES is (route, oracle, fields, bound, memos), run at each of its fields.

The route and the oracle map a Case to values of one shape, a list or a list
of rows.  The bound is None where the code promises bit-for-bit agreement;
elsewhere the two sum the same terms in another order, within ROUTE_TOL, or
TOL for the Gauss-sum transforms.  memos names, space-separated, the memos
that the route must fill; tests/test_source.py refuses a memo of the sum
modules that no row names and EXEMPT does not list."""

import cmath
import math
import operator

import pytest
from conftest import ROUTE_TOL
from oracles import eisenstein_E, eisenstein_E2, fiber_row_one_pass, fiber_sum, gauss_literal
from oracles import kernel_literal, p_literal, p_raw, reduction_2f1, v_scanned

from charsum.characters import char, norm_compose, octic_M8, quadratic_char
from charsum.classical_sums import _fiber_row, eisenstein_sums, gauss, gauss_sums, jacobi
from charsum.classical_sums import jacobi_row, lifted_gauss, lifted_jacobi, log_dft
from charsum.finite_field import FieldTower, PrimePowerField, factor_prime_power, memoized
from charsum.hypergeometric import hyp2f1, hyp2f1_row, norm_fiber, norm_jacobi_row
from charsum.hypergeometric import norm_restricted_jacobi, reduction_row
from charsum.katz import KatzContext, double_mellin_mixed, double_mellin_product, kernel_mellin
from charsum.katz import kernel_double_sum, kernel_row, kernel_sum, mellin, mixed_sum
from charsum.katz import spaced_sample

TOL = 1e-10

# the memos of the sum modules that no route fills, each with its reason
EXEMPT = {
    "scanned_fibers": "the cache of the scan oracle of norm_fiber and norm_restricted_jacobi",
    "bridge_sides": "both sides of an identity, which the suites and "
                    "TestKernel::test_bridge_identity_exhaustive check against each other",
}


def chars(field) -> list:
    return [char(field, k) for k in range(field.order - 1)]


class Case:
    """The fields of one spec, built afresh so that a route fills its memos
    itself: "q" is the base of the tower of q, "q^2" its top, and "qc" the
    canonical F_q, which has no tower."""

    def __init__(self, spec: str):
        q, square, _ = spec.rstrip("c").partition("^")
        p, t = factor_prime_power(int(q))
        self.tower = None if spec.endswith("c") else FieldTower(p, t)
        self.field = (PrimePowerField(p, t) if self.tower is None
                      else self.tower.top if square else self.tower.base)
        self.q, self.g, self.contexts = self.field.order, self.field.g, {}
        self.chars, self.phi = chars(self.field), quadratic_char(self.field)
        self.elements = list(map(self.field.element, range(1, self.q)))
        # a row indexed by code; entry 0, which no character reads, is large
        self.row = [complex(1000, -7)] + [complex(math.sin(j), j % 3) for j in range(1, self.q)]

    def ctx(self, a=1, variant=1) -> KatzContext:
        return memoized(self.contexts, (a, variant), KatzContext, self.tower, a, variant)

    def pairs(self) -> list:
        return [(x, y) for x in self.chars for y in self.chars]

    def sample(self, values) -> list:
        # 40 spaced characters of F_{59^2}
        return spaced_sample(values, 40 if self.q > 1000 else self.q)


def twists(c) -> list:
    # none, then every top-field character, or at q = 27 the twists of mellin-single
    m8 = octic_M8(c.tower)
    return [None, *(chars(c.tower.top) if c.tower.t == 1 else [m8, m8**5])]


def fiber_keys(c) -> list:
    return [(kind, i) for i in range(c.q**2 - 1) for kind in ("gauss", "jacobi")]


def hyp_triples(c) -> list:
    n = c.q - 1
    assert char(c.field, 2 + n // 2) == char(c.field, 1) ** 2 * c.phi
    triples = [(0, 0, 0), (1, 2, 3), (5, 10, n // 2 + 5), (n - 1, n // 2, 1), (2, 0, n // 2 + 1)]
    triples += [(d, 2 * d + n // 2, d + n // 2) for d in (1, 3, n - 2)]  # (D, D^2 phi, D phi)
    return [[char(c.field, i % n) for i in triple] for triple in triples]


def reduction_rows(c) -> list[list[complex]]:
    rows = [reduction_row(d) for d in c.chars]
    assert all(row[0] == row[1] == row[c.field.neg[1]] == 0j for row in rows)
    return rows


def fibers(c) -> list[list[int]]:
    out = [sorted(norm_fiber(c.tower, x)) for x in range(1, c.q)]
    assert all(len(fib) == c.q + 1 and {c.tower.norm(z).code for z in fib} == {x}
               for x, fib in enumerate(out, 1))
    return out


def norm_jacobi_rows(c) -> list[list[complex]]:
    rows = [norm_jacobi_row(c.ctx(1, v), d) for v in (1, 3, 5, 7) for d in c.chars]
    assert all(row[0] == 0j for row in rows)  # the table holds each square j^4 once:
    assert {len(ctx.memo["norm_jacobi_table"]) for ctx in c.contexts.values()} == {c.q // 2}
    return rows


def p_points(c, per_x: bool = False) -> list:
    """(context, j, k) at a = 1 and a = g, on every row j below q = 100 and
    three spaced rows above; the per-x oracle's extension-field sums cost
    about 1 us a term, so there it reads the last of them only."""
    rows = spaced_sample(range(c.q), c.q if c.q < 100 else 3)
    rows = rows[-1:] if per_x and c.field.m > 1 and c.q > 100 else rows
    return [(c.ctx(a), j, k) for a in (1, c.g) for j in rows for k in range(c.q)]


def every_ajk(c) -> list:
    return [(a, j, k) for a in range(1, c.q) for j in range(c.q) for k in range(c.q)]


def kernel_rows(c) -> list[list[complex]]:
    for d in c.chars:
        row = kernel_row(d)
        assert c.field.memo["kernel_row"][d.index] is row and kernel_row(d) is row
        assert all(kernel_sum(d, j) == row[j] for j in range(1, c.q))
    return list(map(kernel_row, c.chars))


# q = 3 at a = 1 has an empty x-sum; q = 27, 243 and 343 have extension base
# fields; 251 and 263 lie on either side of 256, where a table-driven route
# once changed
P_FIELDS = "3 7 19 27 243 343 263 251"
ROUTES = {
    "log_dft:dft_literal": (  # n = 2, a power of 2, and 262; the literal DFT reduces km
        # mod n, since unreduced its own error reaches 1e-11 at n = 262
        lambda c: log_dft(c.field, c.row[1:]),
        lambda c: [sum(x * cmath.exp(2j * math.pi * (k * m % (c.q - 1)) / (c.q - 1))
                       for m, x in enumerate(c.row[1:])) for k in range(c.q - 1)],
        "3 7 11 27 59 17 263", ROUTE_TOL, "dft_plan"),
    "gauss_sums:gauss_literal": (
        lambda c: c.sample(gauss_sums(c.field)),
        lambda c: list(map(gauss_literal, c.sample(c.chars))),
        "3 3^2 7 7^2 11 11^2 11c 27 27^2 243c 59^2", TOL, "gauss_sums"),
    "gauss:gauss_sums": (
        lambda c: list(map(gauss, c.chars)), lambda c: gauss_sums(c.field), "11c", None, ""),
    "jacobi_row:jacobi": (
        lambda c: list(map(jacobi_row, c.chars)),
        lambda c: [[jacobi(a, b) for b in c.chars] for a in c.chars],
        "7 11 27 59 7c 49c", ROUTE_TOL, ""),
    "jacobi:element_sum": (
        lambda c: [jacobi(a, b) for a, b in c.pairs()],
        lambda c: [sum(a(y) * b(1 - y) for y in c.elements) for a, b in c.pairs()],
        "7c 49c", None, ""),
    "eisenstein_sums:eisenstein_E2,eisenstein_E": (
        lambda c: list(eisenstein_sums(c.tower)),
        lambda c: [[e(c.tower, b) for b in chars(c.tower.top)]
                   for e in (eisenstein_E2, eisenstein_E)], "7 11 27 59", ROUTE_TOL, ""),
    "lifted_gauss:gauss_literal": (
        lambda c: [lifted_gauss(c.tower, x, b) for x in c.chars for b in twists(c)],
        lambda c: [gauss_literal(norm_compose(c.tower, x) * b if b else norm_compose(c.tower, x))
                   for x in c.chars for b in twists(c)],
        "3 7 11 27", ROUTE_TOL, "fiber_row fiber_transform"),
    "lifted_jacobi:jacobi": (
        lambda c: [lifted_jacobi(c.tower, a, x) for x in c.chars for a in chars(c.tower.top)],
        lambda c: [jacobi(a, norm_compose(c.tower, x))
                   for x in c.chars for a in chars(c.tower.top)],
        "3 7 11 27", ROUTE_TOL, "fiber_row fiber_transform"),
    "_fiber_row:fiber_row_one_pass": (
        lambda c: [_fiber_row(c.tower, *key) for key in fiber_keys(c)],
        lambda c: [fiber_row_one_pass(c.tower, *key) for key in fiber_keys(c)],
        "7 27 11", None, "fiber_row"),
    "hyp2f1_row:hyp2f1": (
        lambda c: [hyp2f1_row(*t) for t in hyp_triples(c)],
        lambda c: [[hyp2f1(*t, x) for x in range(c.q)] for t in hyp_triples(c)],
        "7 11 27 59", ROUTE_TOL, ""),
    "reduction_row:reduction_2f1": (
        reduction_rows, lambda c: [[reduction_2f1(d, j) for j in range(c.q)] for d in c.chars],
        "7 11c 27", ROUTE_TOL, "reduction_row"),
    "norm_fiber:norm_fiber(scan)": (
        fibers, lambda c: [norm_fiber(c.tower, x, scan=True) for x in range(1, c.q)],
        "7 11", None, ""),
    "norm_restricted_jacobi:fiber_sum": (  # the walks by log and by scan, each over its fiber
        lambda c: [norm_restricted_jacobi(c.ctx(c.g), d, j, scan=scan)
                   for scan in (False, True) for d in c.chars for j in range(1, c.q)],
        lambda c: [fiber_sum(c.ctx(c.g), d, norm_fiber(c.tower, j**4, scan=scan))
                   for scan in (False, True) for d in c.chars for j in c.elements],
        "7 11", None, ""),
    "norm_jacobi_row:norm_restricted_jacobi(scan)": (  # all four octic variants
        norm_jacobi_rows,
        lambda c: [[0j] + [norm_restricted_jacobi(c.ctx(1, v), d, j, scan=True)
                           for j in range(1, c.q)] for v in (1, 3, 5, 7) for d in c.chars],
        "7 11 27 59", ROUTE_TOL, "norm_jacobi_table"),
    "v_vector:v_scanned": (
        lambda c: [c.ctx(a).v_vector() for a in (1, c.g)],
        lambda c: [[v_scanned(c.ctx(a), j) for j in range(c.q)] for a in (1, c.g)],
        "7 11 27", ROUTE_TOL, "v_vector"),
    "mixed_sum:p_raw": (
        lambda c: [mixed_sum(c.ctx(a), j, k) for a, j, k in every_ajk(c)],
        lambda c: [p_raw(j, k, a, c.q) for a, j, k in every_ajk(c)], "7 11", ROUTE_TOL, ""),
    "mixed_sum_matrix:mixed_sum": (
        lambda c: [ctx.mixed_sum_matrix()[j][k] for ctx, j, k in p_points(c)],
        lambda c: [mixed_sum(*point) for point in p_points(c)], P_FIELDS, None, "mixed_sum_matrix"),
    "mixed_sum:p_literal": (
        lambda c: [mixed_sum(*point) for point in p_points(c, per_x=True)],
        lambda c: [p_literal(*point) for point in p_points(c, per_x=True)],
        P_FIELDS, ROUTE_TOL, ""),
    "double_mellin_product:literal": (
        lambda c: [double_mellin_product(c.ctx(), x, y) for x, y in c.pairs()],
        lambda c: [double_mellin_product(c.ctx(), x, y, literal=True) for x, y in c.pairs()],
        "7 11", ROUTE_TOL, "mellin_transform v_vector"),
    "double_mellin_mixed:mixed_double_loop": (  # one inner sum per j, none of them cached
        lambda c: [double_mellin_mixed(c.ctx(c.g), x, y) for x, y in c.pairs()],
        lambda c: [sum(x.value_table()[j] * sum(map(operator.mul, y.value_table(), row), 0j)
                       for j, row in enumerate(c.ctx(c.g).mixed_sum_matrix()) if j)
                   for x, y in c.pairs()], "7 11", None, "mixed_inner mixed_sum_matrix"),
    "kernel_row:kernel_literal": (
        kernel_rows,
        lambda c: [[0j] + [kernel_literal(d, j) for j in range(1, c.q)] for d in c.chars],
        "7 11 23 27 27c 59", ROUTE_TOL, "kernel_row"),
    "kernel_mellin:kernel_literal": (
        lambda c: [kernel_mellin(d, chi) for d, chi in c.pairs()],
        lambda c: [sum(chi(y) * kernel_literal(d, j) for j, y in enumerate(c.elements, 1))
                   for d, chi in c.pairs()], "7 11", ROUTE_TOL, "kernel_row"),
    "mellin:mellin_loop": (
        lambda c: [mellin(chi, c.row) for chi in c.chars],
        lambda c: [sum(chi(y) * c.row[j] for j, y in enumerate(c.elements, 1)) for chi in c.chars],
        "7 27", ROUTE_TOL, ""),
    "kernel_double_sum:kernel_double_loop": (
        lambda c: [kernel_double_sum(c.q, nu) for nu in range(c.q - 1)],
        lambda c: [sum(w(j) * c.phi(x) * c.phi(1 - x) * c.phi(x * (j + 1) ** 2 + (j - 1) ** 2)
                       for j in c.elements for x in c.elements)
                   for w in (c.phi * char(c.field, nu) ** 4 for nu in range(c.q - 1))],
        "7 11 19 27", ROUTE_TOL, ""),
}


def check(name: str, spec: str) -> list[float]:
    """Run the row name at the field spec and return each value's deviation
    from its oracle: the route fills the row's memos, its rows have the
    oracle's lengths, and its values equal the oracle's or lie within the
    row's bound."""
    route, oracle, _, bound, memos = ROUTES[name]
    case = Case(spec)
    got = rows(route(case))
    owners = [case.field, *case.contexts.values()]
    owners += [case.tower, case.tower.base, case.tower.top] if case.tower else []
    filled = {memo for owner in owners for memo, values in owner.memo.items() if values}
    assert not set(memos.split()) - filled, memos
    want = rows(oracle(case))
    assert list(map(len, got)) == list(map(len, want))
    devs = [abs(u - v) for g, w in zip(got, want) for u, v in zip(g, w)]
    assert got == want if bound is None else max(devs) <= bound
    return devs


def rows(values) -> list[list]:
    """values as a list of rows: itself, or one row."""
    values = list(values)
    return values if values and isinstance(values[0], list) else [values]


@pytest.mark.parametrize("name,spec", [
    pytest.param(name, spec, id=f"{name}-{spec}")
    for name, (_, _, fields, *_) in ROUTES.items() for spec in fields.split()
])
def test_route_equals_its_oracle(name, spec):
    check(name, spec)

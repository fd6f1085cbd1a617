import cmath
import copy
import operator

import pytest
from conftest import ROUTE_TOL

from charsum.characters import char, norm_compose, quadratic_char, trivial_char
from charsum.classical_sums import jacobi
from charsum.finite_field import FieldError, PrimePowerField, build_tower, construct_field
from charsum.hypergeometric import (
    binom,
    hyp2f1,
    hyp2f1_row,
    norm_fiber,
    norm_jacobi_row,
    norm_restricted_jacobi,
    reduction_row,
)
from charsum.katz import KatzContext

TOL = 1e-10


def reduction_literal(d, j):
    """The closed form of R(D, j) from the literal sums:

    j = +-1:  -conj(D)(4) J(phi D^2, phi)
    else:     -phi(j) q conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2)
    """
    field = d.field
    phi = quadratic_char(field)
    j = field.element(j)
    if not (j + 1) or not (j - 1):
        return -d.conj(4) * jacobi(phi * d**2, phi)
    x = -(((j + 1) / (j - 1)) ** 2)
    return -phi(j) * field.order * (d.conj**4)(j - 1) * hyp2f1(d, d**2 * phi, d * phi, x)


@pytest.fixture(scope="module")
def ctx7():
    return KatzContext(build_tower(7), 1)


@pytest.fixture(scope="module")
def ctx11():
    return KatzContext(build_tower(11), 1)


@pytest.fixture(scope="module")
def ctx27():
    return KatzContext(build_tower(3, 3), 1)


class TestHyp2F1:
    def test_zero_argument(self):
        field = construct_field(7)
        a, b, c = char(field, 1), char(field, 2), char(field, 3)
        assert hyp2f1(a, b, c, 0) == 0

    def test_magnitude_bound(self):
        # triangle inequality on the defining sum: |2F1| <= (q-1)/q
        field = construct_field(7)
        a, b, c = char(field, 1), char(field, 2), char(field, 3)
        for x in range(1, 7):
            assert abs(hyp2f1(a, b, c, field.element(x))) <= 6 / 7 + 1e-9

    def test_specific_magnitude(self):
        field = construct_field(7)
        v = hyp2f1(char(field, 1), char(field, 2), char(field, 3), field.element(3))
        assert abs(v) <= 6 / 7 + 1e-9


class TestHyp2F1Row:
    @pytest.mark.parametrize("p,t", [(7, 1), (11, 1), (3, 3), (59, 1)])
    def test_equals_per_point_values(self, p, t):
        # the same terms summed in another order, x = 0 included
        field = build_tower(p, t).base
        n = field.order - 1
        phi = quadratic_char(field)
        triples = [(0, 0, 0), (1, 2, 3), (n - 1, n // 2, 1), (2, 0, n // 2 + 1)]
        triples += [(d, 2 * d + n // 2, d + n // 2) for d in (1, 3, n - 2)]  # (D, D^2 phi, D phi)
        for ia, ib, ic in triples:
            a, b, c = (char(field, i % n) for i in (ia, ib, ic))
            row = hyp2f1_row(a, b, c)
            assert len(row) == field.order
            literal = [hyp2f1(a, b, c, field.element(x)) for x in range(field.order)]
            assert max(map(abs, map(operator.sub, row, literal))) <= ROUTE_TOL
        assert char(field, 2 + n // 2) == char(field, 1) ** 2 * phi

    def test_reduction_row_is_memoized_by_d(self, monkeypatch):
        field = build_tower(11).base
        monkeypatch.setitem(field.memo, "reduction_row", {})
        for di in range(10):
            row = reduction_row(char(field, di))
            assert len(row) == 11 and field.memo["reduction_row"][di] is row
            assert reduction_row(char(field, di)) is row
        assert sorted(field.memo["reduction_row"]) == list(range(10))

    def test_characters_on_mixed_fields_rejected(self):
        f7, f11 = construct_field(7), construct_field(11)
        with pytest.raises(FieldError):
            hyp2f1_row(char(f7, 1), char(f11, 1), char(f7, 1))
        with pytest.raises(FieldError):
            hyp2f1_row(char(f7, 1), char(f7, 1), char(f11, 1))


class TestBinom:
    def test_trivial_over_trivial(self):
        field = construct_field(7)
        eps = trivial_char(field)
        assert abs(binom(eps, eps) - 5 / 7) < TOL

    def test_reflection_exhaustive_q7(self):
        field = construct_field(7)
        for di in range(6):
            for ci in range(6):
                d, c = char(field, di), char(field, ci)
                lhs = binom(d * c.conj, c.conj)
                rhs = d(-1) * binom(c, d.conj * c)
                assert abs(lhs - rhs) < TOL

    def test_against_independent_jacobi_oracle(self):
        # recompute J(A, conj(B)) from scratch: brute-force dlog, raw exponentials
        q = 11
        field = construct_field(q)
        g = field.g
        dlog = {}
        acc = 1
        for k in range(q - 1):
            dlog[acc] = k
            acc = acc * g % q
        ai, bi = 2, 5

        def val(char_index, x):
            if x % q == 0:
                return 0
            return cmath.exp(2j * cmath.pi * char_index * dlog[x % q] / (q - 1))

        j_oracle = sum(val(ai, y) * val(-bi % (q - 1), 1 - y) for y in range(q))
        want = val(bi, q - 1) * j_oracle / q
        assert abs(binom(char(field, ai), char(field, bi)) - want) < TOL


class TestNormFiber:
    @pytest.mark.parametrize("p", [7, 11])
    def test_size_and_scan_agreement(self, p):
        tower = build_tower(p)
        for c in range(1, p):
            fib = norm_fiber(tower, c)
            assert len(fib) == p + 1
            assert sorted(fib) == norm_fiber(tower, c, scan=True)
            assert all(tower.norm(z).code == c for z in fib)

    @pytest.mark.parametrize("p,t", [(7, 1), (3, 3)])
    def test_scan_does_not_rest_on_the_generator_link(self, p, t):
        # a tower whose base generator is not N(g2): the log route walks the
        # wrong fibers, while the scan still finds the true ones
        tower = copy.copy(build_tower(p, t))
        real = tower.base
        # g^5 also generates F_q*, since 5 is prime to q-1 = 6 and to 26
        tower.base = PrimePowerField(p, t, generator=real.exp[5])
        c = real.exp[1]
        assert sorted(norm_fiber(tower, c)) != norm_fiber(tower, c, scan=True)
        assert all(real.exp[tower.top.dlog[z] % (tower.q - 1)] == c
                   for z in norm_fiber(tower, c, scan=True))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            norm_fiber(build_tower(7), 0)


class TestNormRestrictedJacobi:
    def test_zero_j_rejected(self, ctx7):
        for scan in (False, True):
            with pytest.raises(ValueError):
                norm_restricted_jacobi(ctx7, char(ctx7.tower.base, 1), 0, scan=scan)

    def test_even_in_j(self, ctx7):
        base = ctx7.tower.base
        for di in range(6):
            d = char(base, di)
            for j in range(1, 7):
                je = base.element(j)
                assert abs(
                    norm_restricted_jacobi(ctx7, d, je)
                    - norm_restricted_jacobi(ctx7, d, -je)
                ) < TOL

    @pytest.mark.parametrize("q", [7, 11])
    def test_equals_value_table_sum(self, q):
        # dlog lookups at the fiber points give exactly the table values
        tower = build_tower(q)
        ctx = KatzContext(tower, tower.base.g)
        tm8, om = ctx.M8.value_table(), tower.top.one_minus
        for di in range(tower.q - 1):
            d = char(tower.base, di)
            tdn = norm_compose(tower, d.conj).value_table()
            for j in range(1, tower.q):
                fiber = norm_fiber(tower, tower.base.element(j) ** 4)
                want = sum(tm8[z] * tdn[om[z]] for z in fiber)
                assert norm_restricted_jacobi(ctx, d, j) == want

    def test_scan_equals_fiber_route(self, ctx7):
        base = ctx7.tower.base
        for di in range(6):
            d = char(base, di)
            for j in range(1, 7):
                je = base.element(j)
                assert abs(
                    norm_restricted_jacobi(ctx7, d, je)
                    - norm_restricted_jacobi(ctx7, d, je, scan=True)
                ) < TOL


class TestNormJacobiRow:
    @pytest.mark.parametrize("p,t", [(7, 1), (11, 1), (3, 3), (59, 1)])
    def test_equals_per_point_values(self, p, t):
        # every D, every j and all four octic variants
        tower = build_tower(p, t)
        base = tower.base
        for variant in (1, 3, 5, 7):
            ctx = KatzContext(tower, 1, m8_variant=variant)
            for di in range(base.order - 1):
                d = char(base, di)
                row = norm_jacobi_row(ctx, d)
                assert row[0] == 0j and len(row) == base.order
                literal = [norm_restricted_jacobi(ctx, d, j) for j in range(1, base.order)]
                assert max(map(abs, map(operator.sub, row[1:], literal))) <= ROUTE_TOL

    def test_characters_on_other_fields_rejected(self):
        # the index of a character the context has already read, on another field
        tower = build_tower(7)
        ctx = KatzContext(tower, 1)
        norm_jacobi_row(ctx, char(tower.base, 1))
        for field in (construct_field(7), tower.top):
            with pytest.raises(FieldError):
                norm_jacobi_row(ctx, char(field, 1))


class TestHypergeometricReduction:
    def test_j_one_reduces_to_jacobi(self, ctx7):
        from charsum.classical_sums import jacobi

        base = ctx7.tower.base
        phi = quadratic_char(base)
        for di in range(6):
            d = char(base, di)
            want = -d.conj(4) * jacobi(phi * d**2, phi)
            got = norm_restricted_jacobi(ctx7, d, base.element(1))
            assert abs(got - want) < TOL
            # j = -1 gives the same value
            assert abs(norm_restricted_jacobi(ctx7, d, -base.element(1)) - want) < TOL

    @pytest.mark.parametrize("fixture", ["ctx7", "ctx11", "ctx27"])
    def test_all_pairs(self, fixture, request):
        # the scanned fiber walk against the closed form of literal sums;
        # at q = 27 the constant 4 is the element 1
        ctx = request.getfixturevalue(fixture)
        base = ctx.tower.base
        q = ctx.tower.q
        for di in range(q - 1):
            d = char(base, di)
            for j in range(1, q):
                got = norm_restricted_jacobi(ctx, d, j, scan=True)
                assert abs(got - reduction_literal(d, j)) < TOL

    def test_spot_q7_both_routes(self, ctx7):
        # D = char(1), j = 3: the fiber sum against the 2F1 value
        d, j = char(ctx7.tower.base, 1), ctx7.tower.base.element(3)
        assert abs(norm_restricted_jacobi(ctx7, d, j, scan=True) - reduction_literal(d, j)) < TOL

    def test_shared_2f1_factor(self):
        # the 2F1 of both closed forms, at x = -((j+1)/(j-1))^2; 0 at j = +-1
        field = construct_field(11)
        phi = quadratic_char(field)
        for di in range(10):
            d = char(field, di)
            row = reduction_row(d)
            assert row[0] == row[1] == row[10] == 0j
            for j in range(2, 10):
                x = -((j + 1) * pow(j - 1, -1, 11)) ** 2 % 11  # integer arithmetic mod 11
                want = hyp2f1(d, d**2 * phi, d * phi, field.element(x))
                assert abs(row[j] - want) <= ROUTE_TOL

    def test_trivial_character_included(self, ctx7):
        base = ctx7.tower.base
        eps = trivial_char(base)
        for j in range(1, 7):
            got = norm_restricted_jacobi(ctx7, eps, j, scan=True)
            assert abs(got - reduction_literal(eps, j)) < TOL

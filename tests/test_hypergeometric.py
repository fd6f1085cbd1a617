import cmath
import copy

import pytest
from oracles import reduction_literal

from charsum.characters import char, quadratic_char, trivial_char
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

class TestNormJacobiRow:
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

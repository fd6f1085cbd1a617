import cmath
import subprocess
import sys

import pytest

from charsum.characters import (
    MultChar,
    char,
    decompose_odd,
    delta,
    norm_compose,
    octic_M8,
    quadratic_char,
    restrict_to_base,
    trivial_char,
)
from charsum.classical_sums import gauss
from charsum.finite_field import FieldError, PrimePowerField, build_tower, construct_field

TOL = 1e-12


def approx(a, b, tol=TOL):
    return abs(a - b) <= tol


class TestMultChar:
    def test_index_range(self):
        field = construct_field(7)
        with pytest.raises(ValueError):
            char(field, 6)
        with pytest.raises(ValueError):
            char(field, -1)

    def test_trivial_character(self):
        field = construct_field(7)
        eps = trivial_char(field)
        assert all(approx(eps(x), 1) for x in range(1, 7))
        assert eps(0) == 0

    def test_quadratic_character_against_squares(self):
        field = construct_field(7)
        phi = quadratic_char(field)
        squares = {x * x % 7 for x in range(1, 7)}
        assert squares == {1, 2, 4}
        for x in range(1, 7):
            assert approx(phi(x), 1 if x in squares else -1)
        assert approx(phi(3), -1)

    def test_zero_maps_to_zero_for_every_character(self):
        field = construct_field(7)
        assert all(char(field, k)(0) == 0 for k in range(6))

    def test_multiplicativity(self):
        field = construct_field(3, 2)
        chi = char(field, 3)
        for x in range(1, 9):
            for y in range(1, 9):
                xe, ye = field.element(x), field.element(y)
                assert approx(chi(xe * ye), chi(xe) * chi(ye))

    def test_orthogonality(self):
        for q in (7, 31):
            field = construct_field(q)
            for k in range(q - 1):
                total = sum(char(field, k)(x) for x in range(1, q))
                assert approx(total, q - 1 if k == 0 else 0, 1e-10)

    def test_conjugation(self):
        field = construct_field(7)
        for k in range(1, 6):
            chi, bar = char(field, k), char(field, 6 - k)
            for x in range(1, 7):
                assert approx(bar(x), chi(x).conjugate())

    def test_group_operations(self):
        field = construct_field(7)
        a, b = char(field, 2), char(field, 5)
        assert (a * b).index == 1
        assert (a**4).index == 2
        assert a.conj.index == 4
        assert char(field, 0).conj.index == 0
        assert a.order == 3
        assert quadratic_char(field).order == 2

    def test_is_odd_matches_value_at_minus_one(self):
        for p, m in [(7, 1), (3, 2)]:
            field = construct_field(p, m)
            for k in range(field.order - 1):
                chi = char(field, k)
                assert chi.is_odd() == approx(chi(-1), -1)

    def test_phi_parity_depends_on_q_mod_4(self):
        assert quadratic_char(construct_field(7)).is_odd()
        assert not quadratic_char(construct_field(5)).is_odd()

    def test_value_table_cached_per_field(self):
        field = construct_field(7)
        assert char(field, 2).value_table() is char(field, 2).value_table()

    def test_cross_field_rejected(self):
        with pytest.raises(FieldError):
            char(construct_field(7), 1)(construct_field(11).element(3))
        with pytest.raises(FieldError):
            char(construct_field(7), 1) * char(construct_field(11), 1)


class TestOneObjectPerCharacter:
    def test_char_returns_one_object_per_field_and_index(self):
        field = construct_field(7)
        assert char(field, 3) is char(field, 3)
        assert char(field, 3) is not char(construct_field(11), 3)
        assert field.memo["char"][3] is char(field, 3)
        # equality is identity: MultChar keeps object.__eq__ and __hash__
        assert "__eq__" not in vars(MultChar) and "__hash__" not in vars(MultChar)

    def test_every_operation_returns_the_interned_object(self):
        tower = build_tower(7)
        base, top = tower.base, tower.top
        a, b = char(base, 2), char(base, 5)
        assert a.conj.conj is a
        assert a * b is char(base, 1)
        assert a**4 is char(base, 2)
        assert trivial_char(base) is char(base, 0)
        assert quadratic_char(base) is char(base, 3)
        for variant in (1, 3, 5, 7):
            assert octic_M8(tower, variant) is octic_M8(tower, variant)
            assert octic_M8(tower, variant) is char(top, variant * 6)
        assert norm_compose(tower, a) is char(top, 16)
        assert restrict_to_base(tower, norm_compose(tower, a)) is char(base, 4)
        for k in (1, 3, 5):
            nu = decompose_odd(char(base, k))
            assert nu is char(base, nu.index)
            assert quadratic_char(base) * nu**4 is char(base, k)

    def test_out_of_range_index_stores_nothing(self):
        field = PrimePowerField(7, 1)  # not the cached canonical field
        for index in (6, -1, 100):
            with pytest.raises(ValueError):
                char(field, index)
        assert field.memo["char"] == {}

    def test_non_integer_index_is_refused_before_the_memo(self):
        field = PrimePowerField(7, 1)
        for index in (3.0, "3"):
            with pytest.raises(TypeError):
                char(field, index)
        assert field.memo["char"] == {}
        chi = char(field, 3)
        assert type(chi.index) is int and chi is field.memo["char"][3]
        assert approx(gauss(chi) * gauss(chi.conj), chi(-1) * 7)
        assert len(chi.value_table()) == 7
        # True reads as index 1, as element(True) reads code 1
        assert char(field, True) is char(field, 1) and field.element(True).code == 1

    def test_a_run_builds_each_character_once(self):
        # a fresh interpreter, so every character of the run is built in it
        code = (
            "from charsum.characters import MultChar\n"
            "from charsum.cli import main\n"
            "init, built = MultChar.__init__, []\n"
            "def counting(self, field, index):\n"
            "    built.append((id(field), index))\n"
            "    init(self, field, index)\n"
            "MultChar.__init__ = counting\n"
            "assert main(['run', '--q', '7']) == 0\n"
            "print(len(built), len(set(built)))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        built, distinct = map(int, res.stdout.splitlines()[-1].split())
        assert built == distinct > 6


class TestOctic:
    def test_index_formula_q7(self):
        tower = build_tower(7)
        m8 = octic_M8(tower)
        assert m8.index == 6  # (49-1)/8
        assert m8.order == 8

    @pytest.mark.parametrize("variant", [1, 3, 5, 7])
    def test_all_variants_have_order_8(self, variant):
        tower = build_tower(7)
        assert octic_M8(tower, variant).order == 8

    def test_variant_squares_cover_both_quartics(self):
        tower = build_tower(7)
        n2 = 48
        squares = {(octic_M8(tower, v) ** 2).index for v in (1, 3, 5, 7)}
        assert squares == {n2 // 4, 3 * n2 // 4}

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            octic_M8(build_tower(7), 2)

    @pytest.mark.parametrize("p,t", [(3, 1), (7, 1), (11, 1), (19, 1)])
    def test_m8_at_minus_one_is_phi_of_two(self, p, t):
        tower = build_tower(p, t)
        phi = quadratic_char(tower.base)
        for variant in (1, 3, 5, 7):
            m8 = octic_M8(tower, variant)
            assert approx(m8(tower.embed(-tower.base.element(1))), phi(2))

    def test_restriction_to_base_by_q_mod_8(self):
        # q = 7 (mod 8): restriction is trivial; q = 3 (mod 8): restriction is phi
        t7 = build_tower(7)
        m8 = octic_M8(t7)
        for x in range(1, 7):
            assert approx(m8(t7.embed(x)), 1)
        for p in (3, 11):
            tw = build_tower(p)
            m8 = octic_M8(tw)
            phi = quadratic_char(tw.base)
            for x in range(1, tw.q):
                assert approx(m8(tw.embed(x)), phi(x))


class TestNormCompose:
    def test_trivial_composes_to_trivial(self):
        tower = build_tower(7)
        assert norm_compose(tower, trivial_char(tower.base)).index == 0

    def test_phi_composes_to_m8_fourth(self):
        for p in (3, 7, 11):
            tower = build_tower(p)
            phi_n = norm_compose(tower, quadratic_char(tower.base))
            assert phi_n.index == (octic_M8(tower) ** 4).index

    @pytest.mark.parametrize("p,t", [(3, 1), (7, 1), (3, 2)])
    def test_value_consistency_with_norm(self, p, t):
        tower = build_tower(p, t)
        for k in range(tower.q - 1):
            c = char(tower.base, k)
            cn = norm_compose(tower, c)
            for z in range(tower.top.order):
                assert approx(cn(tower.top.element(z)), c(tower.norm(z)))

    def test_on_embedded_elements_is_square(self):
        tower = build_tower(7)
        c = char(tower.base, 1)
        cn = norm_compose(tower, c)
        for x in range(1, 7):
            assert approx(cn(tower.embed(x)), c(tower.base.element(x) ** 2))

    def test_restriction_roundtrip(self):
        tower = build_tower(7)
        c = char(tower.base, 2)
        assert restrict_to_base(tower, norm_compose(tower, c)).index == (2 * 8) % 6

    def test_wrong_field_rejected(self):
        tower = build_tower(7)
        with pytest.raises(FieldError):
            norm_compose(tower, char(tower.top, 1))
        with pytest.raises(FieldError):
            restrict_to_base(tower, char(tower.base, 1))


class TestDeltas:
    def test_delta_on_characters(self):
        field = construct_field(7)
        assert delta(trivial_char(field)) == 1
        assert delta(quadratic_char(field)) == 0


class TestDecomposeOdd:
    def test_phi_decomposes_to_trivial(self):
        field = construct_field(7)
        assert decompose_odd(quadratic_char(field)).index == 0

    def test_smallest_solution_q7(self):
        field = construct_field(7)
        # oracle: 4n = 1 - 3 = 4 (mod 6) has solutions {1, 4}; the smaller wins
        sols = [n for n in range(6) if (4 * n) % 6 == (1 - 3) % 6]
        assert sols == [1, 4]
        assert decompose_odd(char(field, 1)).index == 1

    def test_smallest_solution_q11(self):
        field = construct_field(11)
        sols = [n for n in range(10) if (4 * n) % 10 == (3 - 5) % 10]
        assert sols == [2, 7]
        assert decompose_odd(char(field, 3)).index == 2

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_roundtrip_phi_nu4(self, q):
        field = construct_field(q)
        phi = quadratic_char(field)
        for k in range(1, q - 1, 2):  # odd characters
            chi = char(field, k)
            nu = decompose_odd(chi)
            assert (phi * nu**4).index == chi.index
            assert (nu**2).index % 2 == 0  # lambda = nu^2 is even

    @pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (11, 1), (19, 1), (23, 1), (3, 3), (43, 1),
                                     (59, 1), (3, 5), (263, 1)])
    def test_closed_form_is_the_smallest_solution_found_by_search(self, p, m):
        field = construct_field(p, m)
        n = field.order - 1
        for k in range(1, n, 2):
            want = min(c for c in range(n) if 4 * c % n == (k - n // 2) % n)
            assert decompose_odd(char(field, k)).index == want, k

    def test_even_character_rejected(self):
        field = construct_field(7)
        with pytest.raises(ValueError):
            decompose_odd(char(field, 2))

    def test_q_1_mod_4_rejected(self):
        with pytest.raises(ValueError, match=r"q = 3 \(mod 4\)"):
            decompose_odd(char(construct_field(5), 1))


class TestAddChar:
    """The additive character psi = e^(2 pi i Tr / p), read from psi_table."""

    def test_sums_to_zero(self):
        for p, m in [(7, 1), (7, 2), (3, 3)]:
            field = construct_field(p, m)
            assert approx(sum(field.psi_table), 0, 1e-10)

    def test_additivity(self):
        field = construct_field(3, 2)
        psi = field.psi_table
        for x in range(9):
            for y in range(9):
                xe, ye = field.element(x), field.element(y)
                assert approx(psi[(xe + ye).code], psi[xe.code] * psi[ye.code])

    def test_values_from_trace(self):
        field = construct_field(7)
        psi = field.psi_table
        for y in range(7):
            assert approx(psi[y], cmath.exp(2j * cmath.pi * y / 7))

import cmath
import math
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import finite_field
from charsum.characters import char
from charsum.finite_field import (
    FieldError,
    FieldTower,
    PrimePowerField,
    build_tower,
    construct_field,
    factor_prime_power,
)


def poly_mul_schoolbook(a, b, modulus, p):
    """Independent multiplication oracle: schoolbook product, then long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    m = len(modulus) - 1
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for k in range(m + 1):
                prod[i - m + k] = (prod[i - m + k] - c * modulus[k]) % p
    return tuple(prod[:m])


def pow_schoolbook(a, e, modulus, p):
    acc = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            acc = poly_mul_schoolbook(acc, a, modulus, p)
        a = poly_mul_schoolbook(a, a, modulus, p)
        e >>= 1
    return acc


def digits(code, p, m):
    """Coefficient vector of a code, low degree first, independent of the field."""
    out = []
    for _ in range(m):
        code, c = divmod(code, p)
        out.append(c)
    return tuple(out)


def encode(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def brute_mult_order(field, code):
    acc, n = code, 1
    while acc != 1:
        acc = field.mul_codes(acc, code)
        n += 1
    return n


class TestConstructField:
    def test_f7_generator_is_smallest_primitive_root(self):
        field = construct_field(7)
        # oracle: smallest c whose powers exhaust F_7*
        smallest = next(
            c for c in range(2, 7) if len({pow(c, k, 7) for k in range(1, 7)}) == 6
        )
        assert smallest == 3
        assert field.g == 3
        assert field.modulus == (0, 1)

    def test_f3_generator(self):
        assert construct_field(3).g == 2

    def test_f27_is_a_field(self):
        field = construct_field(3, 3)
        assert field.order == 27
        # x^27 = x for every element
        assert all(field.pow_code(c, 27) == c for c in range(27))
        # dlog is a bijection onto Z/26
        assert field.dlog[0] == -1
        assert sorted(field.dlog[1:]) == list(range(26))
        assert all(field.dlog[field.exp[k]] == k for k in range(26))

    def test_modulus_irreducible_has_no_roots(self):
        field = construct_field(3, 3)
        for c in range(3):
            acc = 0
            for coef in reversed(field.modulus):
                acc = (acc * c + coef) % 3
            assert acc != 0

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (9, 1), (15, 2), (1, 1)])
    def test_rejects_bad_characteristic(self, p, m):
        with pytest.raises(FieldError):
            construct_field(p, m)

    def test_rejects_size_guard(self):
        with pytest.raises(FieldError):
            construct_field(3, 13)  # 3^13 > 2^20

    def test_rejects_degree_zero(self):
        with pytest.raises(FieldError):
            construct_field(7, 0)

    def test_deterministic_construction(self):
        a = PrimePowerField(3, 2)
        b = PrimePowerField(3, 2)
        assert a.modulus == b.modulus
        assert a.g == b.g
        assert a.exp == b.exp

    def test_construct_field_is_cached(self):
        assert construct_field(7) is construct_field(7)

    def test_one_field_and_one_tower_per_p_and_degree(self):
        # keyed on (p, m) and (p, t), not on how the call spells them
        assert construct_field(7) is construct_field(7, 1) is construct_field(p=7, m=1)
        assert build_tower(7) is build_tower(7, 1) is build_tower(p=7, t=1)
        assert build_tower(7).top is construct_field(7, 2)


class TestArithmetic:
    def test_f25_multiplication_matches_schoolbook(self):
        field = construct_field(5, 2)
        for a in range(25):
            for b in range(25):
                want = poly_mul_schoolbook(
                    field.coeffs_of(a), field.coeffs_of(b), field.modulus, 5
                )
                assert field.coeffs_of(field.mul_codes(a, b)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 242), st.integers(0, 242))
    def test_f243_multiplication_matches_schoolbook(self, a, b):
        field = construct_field(3, 5)
        want = poly_mul_schoolbook(field.coeffs_of(a), field.coeffs_of(b), field.modulus, 3)
        assert field.coeffs_of(field.mul_codes(a, b)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 242))
    def test_f243_inverse(self, a):
        field = construct_field(3, 5)
        assert field.mul_codes(a, field.inv_code(a)) == 1

    def test_one_minus_and_neg_tables(self):
        field = construct_field(3, 3)
        for a in range(27):
            assert field.add_codes(a, field.neg[a]) == 0
            assert field.add_codes(field.one_minus[a], a) == 1

    def test_lazy_tables_built_on_first_read(self):
        field = PrimePowerField(3, 4)  # not the cached canonical field
        lazy = ("neg", "one_minus", "trace_table")
        assert [field.memo.get(name) for name in lazy] == [None] * 3
        assert field.one_minus[0] == 1 and field.neg[1] == 2
        assert field.psi_table == [field.p_roots[t] for t in field.trace_table]
        assert None not in [field.memo.get(name) for name in lazy]
        assert field.neg is field.neg

    def test_element_operators(self):
        field = construct_field(7)
        x, y = field.element(3), field.element(5)
        assert (x + y).code == 1
        assert (x * y).code == 1
        assert (x - y).code == 5
        assert (1 - y).code == 3
        assert (x / y).code == (3 * pow(5, 5, 7)) % 7
        assert (x**2).code == 2
        assert (-x).code == 4
        assert (x**-1 * x).code == 1
        assert bool(field.element(0)) is False

    def test_pow_zero_and_division_by_zero(self):
        field = construct_field(7)
        assert field.pow_code(0, 5) == 0
        assert field.pow_code(0, 0) == 1
        with pytest.raises(FieldError):
            field.inv_code(0)


class TestTrace:
    def test_trace_of_one(self):
        assert construct_field(7).trace_table[1] == 1
        assert construct_field(3, 3).trace_table[1] == 0  # 3 copies of 1 in F_3

    def test_trace_is_frobenius_invariant(self):
        field = construct_field(3, 3)
        for y in range(27):
            assert field.trace_table[y] == field.trace_table[field.pow_code(y, 3)]

    def test_trace_is_additive(self):
        field = construct_field(3, 2)
        for x in range(9):
            for y in range(9):
                lhs = field.trace_table[field.add_codes(x, y)]
                assert lhs == (field.trace_table[x] + field.trace_table[y]) % 3


class TestTower:
    def test_subfield_cardinality(self):
        tower = build_tower(7)
        assert sum(1 for z in range(49) if tower.top.pow_code(z, 7) == z) == 7

    def test_i_squares_to_minus_one(self):
        for p, t in [(3, 1), (7, 1), (11, 1), (3, 2)]:
            tower = build_tower(p, t)
            top = tower.top
            assert top.mul_codes(tower.i_code, tower.i_code) == top.neg[1]

    def test_i_outside_subfield_when_q_3_mod_4(self):
        tower = build_tower(7)
        assert tower.i_code not in set(tower.embed_table)

    def test_embedding_is_a_ring_homomorphism(self):
        tower = build_tower(7)
        base, top = construct_field(7), tower.top
        emb = tower.embed_table
        for x in range(7):
            for y in range(7):
                assert emb[(x + y) % 7] == top.add_codes(emb[x], emb[y])
                assert emb[(x * y) % 7] == top.mul_codes(emb[x], emb[y])

    def test_embedding_homomorphism_f9_in_f81(self):
        tower = build_tower(3, 2)
        base, top = tower.base, tower.top
        emb = tower.embed_table
        for x in range(9):
            for y in range(9):
                assert emb[base.add_codes(x, y)] == top.add_codes(emb[x], emb[y])
                assert emb[base.mul_codes(x, y)] == top.mul_codes(emb[x], emb[y])

    def test_norm_basics(self):
        tower = build_tower(7)
        # norm(i) = i * conj(i) = -i^2 = 1
        assert tower.norm(tower.i_code).code == 1
        # norm on the subfield is squaring
        for x in range(7):
            assert tower.norm(tower.embed(x)) == tower.base.element(x) ** 2
        # norm of the top generator is the base generator, by construction
        assert tower.norm(tower.top.g).code == tower.base.g
        assert tower.norm(0).code == 0

    @pytest.mark.parametrize("p,t", [(3, 1), (7, 1), (11, 1)])
    def test_norm_of_g2_generates_base(self, p, t):
        tower = build_tower(p, t)
        q = tower.q
        assert brute_mult_order(tower.base, tower.norm(tower.top.g).code) == q - 1

    def test_norm_is_multiplicative_exhaustive(self):
        for p, t in [(3, 1), (7, 1)]:
            tower = build_tower(p, t)
            top, base = tower.top, tower.base
            nt = [tower.norm(z).code for z in range(top.order)]
            for z in range(top.order):
                for w in range(top.order):
                    assert nt[top.mul_codes(z, w)] == base.mul_codes(nt[z], nt[w])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 728), st.integers(0, 728))
    def test_norm_is_multiplicative_f729(self, z, w):
        tower = build_tower(3, 3)
        top, base = tower.top, tower.base
        norm = tower.norm(top.mul_codes(z, w)).code
        assert norm == base.mul_codes(tower.norm(z).code, tower.norm(w).code)

    def test_frobenius_fixes_exactly_the_subfield(self):
        for p, t in [(3, 1), (7, 1)]:
            tower = build_tower(p, t)
            fixed = {z for z in range(tower.top.order) if tower.top.pow_code(z, tower.q) == z}
            assert fixed == set(tower.embed_table)

    def test_frobenius_is_an_automorphism(self):
        tower = build_tower(7)
        top = tower.top
        fr = [top.pow_code(z, 7) for z in range(49)]
        for z in range(49):
            for w in range(49):
                assert fr[top.add_codes(z, w)] == top.add_codes(fr[z], fr[w])
                assert fr[top.mul_codes(z, w)] == top.mul_codes(fr[z], fr[w])

    def test_i_line_is_built_on_each_read(self):
        tower = build_tower(7)
        line = tower.i_line
        assert line == tower.i_line and line is not tower.i_line
        assert "i_line" not in tower.memo

    def test_trace_line_has_q_points(self):
        tower = build_tower(7)
        line = tower.trace_line
        assert len(line) == 7
        assert all(tower.top.add_codes(z, tower.top.pow_code(z, 7)) == 1 for z in line)

    def test_factor_prime_power(self):
        assert factor_prime_power(27) == (3, 3)
        assert factor_prime_power(7) == (7, 1)
        assert factor_prime_power(1000000007) == (1000000007, 1)  # prime, past any table
        with pytest.raises(FieldError):
            factor_prime_power(12)
        with pytest.raises(FieldError):
            factor_prime_power(4)


# The tables are built by index arithmetic (exp/dlog, Zech logarithms,
# F_p-linearity); these tests recompute each one from its definition with
# schoolbook polynomial arithmetic on coefficient vectors.
ORACLE_FIELDS = {
    "F27-tower-base": lambda: build_tower(3, 3).base,
    "F729-tower-top": lambda: build_tower(3, 3).top,
    "F49-tower-base": lambda: build_tower(7, 2).base,
    "F2401-tower-top": lambda: build_tower(7, 2).top,
    "F59-tower-base": lambda: build_tower(59).base,
    "F3481-tower-top": lambda: build_tower(59).top,
    "F243-canonical": lambda: construct_field(3, 5),
}
ORACLE_TOWERS = {
    "q27": lambda: build_tower(3, 3),
    "q49": lambda: build_tower(7, 2),
    "q59": lambda: build_tower(59),
}


class TestTableLayout:
    def test_every_integer_table_is_an_int_array(self, monkeypatch):
        tower = build_tower(263)
        for field in (tower.base, tower.top):
            for name in ("neg", "one_minus", "trace_table"):  # unbuilt again afterwards
                monkeypatch.delitem(field.memo, name, raising=False)
            for name in ("exp", "dlog", "zech", "neg", "one_minus", "trace_table"):
                table = getattr(field, name)
                assert isinstance(table, array) and table.typecode == "i", (field, name)
        monkeypatch.delitem(tower.memo, "trace_line", raising=False)
        for name in ("embed_table", "trace_line", "i_line"):
            table = getattr(tower, name)
            assert isinstance(table, array) and table.typecode == "i", name

    def test_size_guard_keeps_codes_and_logs_in_32_bits(self):
        assert finite_field.SIZE_GUARD < 2**31
        array("i", [finite_field.SIZE_GUARD])  # an 'i' entry holds every code and log below it

    def test_tower_build_allocates_at_most_32_bytes_per_top_element(self):
        # a fresh interpreter, so no cached field of the tower exists yet; the
        # tables take about 25 B: 8 for psi_table (pointers into p_roots) and 4
        # for each of exp, dlog and the Zech logs.  The build makes no full
        # root table, which took 40 B more (a pointer and a complex)
        code = (
            "import tracemalloc\n"
            "from charsum.finite_field import build_tower\n"
            "tracemalloc.start()\n"
            "tower = build_tower(263)\n"
            "print(tracemalloc.get_traced_memory()[1] / tower.top.order)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) <= 32


ROOT_TOWERS = {"q7": lambda: build_tower(7), "q27": lambda: build_tower(3, 3),
               "q59": lambda: build_tower(59)}


class TestRootTables:
    @pytest.mark.parametrize("make", ROOT_TOWERS.values(), ids=ROOT_TOWERS)
    def test_every_per_order_read_equals_the_full_table(self, make):
        top = make().top
        n, full = top.order - 1, top.unity_roots
        for index in range(n):
            tab, u, d = top.char_roots(index)
            assert tab is top.root_table(d) and len(tab) == d
            assert d * math.gcd(n, index) == n and u * (n // d) == index
            # chi(g^m) depends only on m mod d, so m in [0, d) is every read
            assert [tab[u * m % d] for m in range(d)] == [full[index * m % n] for m in range(d)]

    def test_full_table_built_on_first_read(self):
        field = PrimePowerField(7, 2)  # not the cached canonical field
        n = field.order - 1
        assert field.memo["root_table"] == {}
        assert field.root_table(8) is field.root_table(8)
        assert n not in field.memo["root_table"]
        full = field.unity_roots
        assert full is field.root_table(n) and len(full) == n
        assert full == [cmath.exp(2j * math.pi * k / n) for k in range(n)]
        with pytest.raises(FieldError):
            field.root_table(5)

    def test_char_value_reads_no_table(self, monkeypatch):
        top = build_tower(7).top
        n = top.order - 1
        monkeypatch.setitem(top.memo, "root_table", {})  # unbuilt again afterwards
        values = {(i, z): char(top, i)(top.element(z)) for i in range(n) for z in range(top.order)}
        assert top.memo["root_table"] == {}
        full = top.unity_roots
        for (i, z), v in values.items():
            tab, u, d = top.char_roots(i)
            m = top.dlog[z]
            assert v == (full[i * m % n] if z else 0j)
            assert v == (tab[u * m % d] if z else 0j)


class TestTablesAgainstOracle:
    @pytest.mark.parametrize("make", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS)
    def test_exp_is_repeated_schoolbook_product(self, make):
        field = make()
        p, m = field.p, field.m
        g, cur = digits(field.g, p, m), digits(1, p, m)
        for k in range(field.order - 1):
            assert field.exp[k] == encode(cur, p)
            cur = poly_mul_schoolbook(cur, g, field.modulus, p)
        assert cur == digits(1, p, m)
        assert sorted(field.exp) == list(range(1, field.order))  # g is primitive
        assert field.dlog[0] == -1
        assert all(field.dlog[c] == k for k, c in enumerate(field.exp))

    @pytest.mark.parametrize("make", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS)
    def test_neg_one_minus_trace_digitwise(self, make):
        field = make()
        p, m = field.p, field.m
        for code in range(field.order):
            c = digits(code, p, m)
            assert field.neg[code] == encode([-x % p for x in c], p)
            assert field.one_minus[code] == encode([(1 - c[0]) % p] + [-x % p for x in c[1:]], p)
            # Tr(y) = y + y^p + ... + y^(p^(m-1)), summed digit by digit
            total, y = [0] * m, c
            for _ in range(m):
                total = [(s + x) % p for s, x in zip(total, y)]
                y = pow_schoolbook(y, p, field.modulus, p)
            assert total[1:] == [0] * (m - 1)
            assert field.trace_table[code] == total[0]

    @pytest.mark.parametrize("make", ORACLE_TOWERS.values(), ids=ORACLE_TOWERS)
    def test_frobenius_and_norm(self, make):
        tower = make()
        top, q = tower.top, tower.q
        p, m = top.p, top.m
        for z in range(top.order):
            c = digits(z, p, m)
            zq = pow_schoolbook(c, q, top.modulus, p)
            assert top.pow_code(z, q) == encode(zq, p)
            nz = tower.norm(z).code
            assert 0 <= nz < q
            assert tower.embed_table[nz] == encode(poly_mul_schoolbook(c, zq, top.modulus, p), p)

    @pytest.mark.parametrize("make", ORACLE_TOWERS.values(), ids=ORACLE_TOWERS)
    def test_embedding_is_a_ring_homomorphism(self, make):
        tower = make()
        base, top, emb = tower.base, tower.top, tower.embed_table
        p = tower.p
        assert emb[0] == 0 and emb[1] == 1
        assert len(set(emb)) == tower.q
        for x in range(tower.q):
            cx, ex = digits(x, p, base.m), digits(emb[x], p, top.m)
            for y in range(tower.q):
                cy, ey = digits(y, p, base.m), digits(emb[y], p, top.m)
                s = encode([(a + b) % p for a, b in zip(cx, cy)], p)
                assert emb[s] == encode([(a + b) % p for a, b in zip(ex, ey)], p)
                prod = encode(poly_mul_schoolbook(cx, cy, base.modulus, p), p)
                assert emb[prod] == encode(poly_mul_schoolbook(ex, ey, top.modulus, p), p)

    @pytest.mark.parametrize("p,t", [(3, 3), (7, 2)])
    def test_embedding_sends_x_to_the_smallest_root(self, p, t):
        tower = build_tower(p, t)
        top = tower.top
        roots = []
        for z in range(top.order):
            acc = (0,) * top.m
            for c in reversed(tower.base.modulus):  # Horner, schoolbook products
                acc = poly_mul_schoolbook(acc, digits(z, p, top.m), top.modulus, p)
                acc = (acc[0] + c) % p, *acc[1:]
            if not any(acc):
                roots.append(z)
        assert len(roots) == tower.t
        assert tower.embed_table[p] == min(roots)  # code p is X in the base

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(3, 5), (5, 4), (263, 2)]), st.integers(0, 263**2), st.integers(0, 263**2))
    def test_zech_addition_matches_digitwise(self, pm, a, b):
        p, m = pm
        field = construct_field(p, m)
        a, b = a % field.order, b % field.order
        ca, cb = digits(a, p, m), digits(b, p, m)
        assert field.add_codes(a, b) == encode([(x + y) % p for x, y in zip(ca, cb)], p)
        assert field.sub_codes(a, b) == encode([(x - y) % p for x, y in zip(ca, cb)], p)
        assert field.add_codes(a, field.neg[a]) == 0
        assert field.sub_codes(a, a) == 0
        assert field.add_codes(a, 0) == field.add_codes(0, a) == a

    @pytest.mark.parametrize("p,m,power", [(7, 1, 2), (3, 3, 2), (5, 2, 3), (3, 2, 0)])
    def test_non_primitive_generator_rejected(self, p, m, power):
        # g^power has order n / gcd(n, power) < n; power 0 gives g^0 = 1
        g = construct_field(p, m).exp[power]
        with pytest.raises(FieldError):
            PrimePowerField(p, m, generator=g)

    @pytest.mark.parametrize("generator", [0, 9, -1])
    def test_generator_outside_the_field_rejected(self, generator):
        with pytest.raises(FieldError):
            PrimePowerField(3, 2, generator=generator)

    def test_tower_builds_only_its_top_through_construct_field(self, monkeypatch):
        calls = []
        real = finite_field.construct_field

        def recording(p, m=1):
            calls.append((p, m))
            return real(p, m)

        monkeypatch.setattr(finite_field, "construct_field", recording)
        tower = FieldTower(19, 1)
        assert calls == [(19, 2)]
        assert tower.base.modulus == construct_field(19).modulus

import json
import random
import subprocess
import sys

import pytest
from conftest import ROUTE_TOL, records

from charsum import classical_sums, harness
from charsum.characters import (
    char,
    norm_compose,
    octic_M8,
    quadratic_char,
    restrict_to_base,
    trivial_char,
)
from charsum.classical_sums import (
    eisenstein_E,
    eisenstein_E2,
    eisenstein_sums,
    gauss,
    gauss_literal,
    gauss_sums,
    jacobi,
    jacobi_row,
    lifted_gauss,
    lifted_jacobi,
)
from charsum.finite_field import FieldError, FieldTower, build_tower, construct_field
from charsum.katz import spaced_sample
from charsum.tolerance import DEFAULT_POLICY

TOL = 1e-10


class TestGauss:
    def test_trivial_gauss_sum(self):
        assert abs(gauss(trivial_char(construct_field(7))) + 1) < TOL
        assert abs(gauss(trivial_char(build_tower(7).top)) + 1) < TOL

    @pytest.mark.parametrize("q", [7, 11])
    def test_conjugate_product(self, q):
        field = construct_field(q)
        for k in range(1, q - 1):
            a = char(field, k)
            assert abs(gauss(a) * gauss(a.conj) - a(-1) * q) < TOL
            assert abs(abs(gauss(a)) ** 2 - q) < TOL

    def test_reads_the_transform(self):
        field = construct_field(11)
        for k in range(field.order - 1):
            a = char(field, k)
            assert gauss(a) == gauss_sums(field)[k]
            assert abs(gauss(a) - gauss_literal(a)) < TOL


class TestGaussSums:
    @pytest.mark.parametrize(
        "p,t,part",
        [(3, 1, "base"), (3, 1, "top"), (7, 1, "base"), (7, 1, "top"), (11, 1, "base"),
         (11, 1, "top"), (3, 3, "base"), (3, 3, "top"), (3, 5, "canonical")],
    )
    def test_transform_matches_literal_sums(self, p, t, part):
        field = construct_field(p, t) if part == "canonical" else getattr(build_tower(p, t), part)
        sums = gauss_sums(field)
        assert len(sums) == field.order - 1
        for k in range(field.order - 1):
            assert abs(sums[k] - gauss_literal(char(field, k))) < TOL

    def test_transform_matches_literal_sums_sampled_q59(self):
        top = build_tower(59).top
        sums = gauss_sums(top)
        for k in spaced_sample(list(range(top.order - 1)), 40):
            assert abs(sums[k] - gauss_literal(char(top, k))) < TOL

    def test_transform_keeps_no_plan(self):
        # a fresh interpreter, so no Gauss sum of F_{3^6} exists yet; the
        # result list takes 29 KB and the call keeps 30 KB in all, where a
        # plan of length 728 kept on the field took 181 KB
        code = (
            "import sys, tracemalloc\n"
            "from charsum.classical_sums import gauss_sums\n"
            "from charsum.finite_field import build_tower\n"
            "top = build_tower(3, 3).top\n"
            "tracemalloc.start()\n"
            "sums = gauss_sums(top)\n"
            "held = tracemalloc.get_traced_memory()[0]\n"
            "print(held / (sys.getsizeof(sums) + sum(map(sys.getsizeof, sums))))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) < 2

    def test_one_plan_per_length_over_a_default_run(self):
        # a fresh interpreter, so no plan exists yet: each base field F_q
        # builds its plan of length q-1 once, for gauss_sums and log_dft
        # alike, and each top field F_{q^2} one for its Gauss sums, not kept
        code = (
            "import collections, json\n"
            "from charsum import classical_sums, harness\n"
            "from charsum.finite_field import build_tower, factor_prime_power\n"
            "built, real = collections.Counter(), classical_sums._plan\n"
            "def counted(n):\n"
            "    built[n] += 1\n"
            "    return real(n)\n"
            "classical_sums._plan = counted\n"
            "assert harness.run(harness.RunConfig())[0] == 0\n"
            "tops = [q for q in harness.DEFAULT_Q\n"
            "        if 'dft_plan' in build_tower(*factor_prime_power(q)).top.memo]\n"
            "print(json.dumps([built, tops]))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        built, tops = json.loads(res.stdout)
        want = {str(n): 1 for q in harness.DEFAULT_Q for n in (q - 1, q * q - 1)}
        assert built == want
        assert tops == []

    def test_suites_build_no_top_field_value_tables(self):
        tower = build_tower(23)
        before = set(tower.top.memo["value_table"])
        for suite in (harness.suite_classical, harness.suite_eisenstein):
            assert suite(tower, DEFAULT_POLICY).all_passed
        assert set(tower.top.memo["value_table"]) == before  # not one per character


class TestJacobi:
    def test_trivial_pair(self):
        field = construct_field(7)
        eps = trivial_char(field)
        assert abs(jacobi(eps, eps) - 5) < TOL

    def test_inverse_pair_and_trivial(self):
        field = construct_field(7)
        eps = trivial_char(field)
        for k in range(1, 6):
            a = char(field, k)
            assert abs(jacobi(a, a.conj) + a(-1)) < TOL
            assert abs(jacobi(eps, a) + 1) < TOL

    @pytest.mark.parametrize("q", [7, 11])
    def test_gauss_jacobi_bridge(self, q):
        field = construct_field(q)
        for i in range(q - 1):
            for j in range(q - 1):
                a, b = char(field, i), char(field, j)
                if (a * b).is_trivial:
                    continue
                assert abs(jacobi(a, b) - gauss(a) * gauss(b) / gauss(a * b)) < TOL

    def test_reflection(self):
        field = construct_field(7)
        for i in range(6):
            for j in range(1, 6):
                a, c = char(field, i), char(field, j)
                assert abs(jacobi(a, c.conj) - a(-1) * jacobi(a, a.conj * c)) < TOL

    def test_field_mismatch(self):
        with pytest.raises(FieldError):
            jacobi(char(construct_field(7), 1), char(construct_field(11), 1))

    @pytest.mark.parametrize("p,m", [(7, 1), (7, 2)])
    def test_row_equals_literal_sum(self, p, m):
        field = construct_field(p, m)
        n = field.order - 1
        for i in range(n):
            row = jacobi_row(char(field, i))
            for k in range(n):
                a, b = char(field, i), char(field, k)
                literal = sum(a(y) * b(1 - y) for y in map(field.element, range(1, field.order)))
                assert jacobi(a, b) == literal
                assert abs(row[k] - literal) <= ROUTE_TOL


class TestLiftedSums:
    # (3, 3) has t > 1, where the base generator is N(g2), not the canonical one
    @pytest.mark.parametrize("p,t", [(3, 1), (7, 1), (11, 1), (3, 3)])
    def test_fiber_sums_equal_literal_sums(self, p, t):
        tower = build_tower(p, t)
        tops = [char(tower.top, i) for i in range(tower.top.order - 1)]
        m8 = octic_M8(tower)
        twists = tops if t == 1 else [m8, m8**5]  # at (3, 3), the twists of mellin-single
        for c in (char(tower.base, i) for i in range(tower.q - 1)):
            cn = norm_compose(tower, c)
            assert abs(lifted_gauss(tower, c) - gauss_literal(cn)) < TOL
            for b in twists:
                assert abs(lifted_gauss(tower, c, b) - gauss_literal(cn * b)) < TOL
            for a in tops:
                assert abs(lifted_jacobi(tower, a, c) - jacobi(a, cn)) < TOL

    @pytest.mark.parametrize("q", [7, 11])
    def test_rows_memoized_on_the_tower(self, q):
        tower = build_tower(q)
        a, b, c = char(tower.top, 5), octic_M8(tower), char(tower.base, 1)
        lifted_jacobi(tower, a, c)
        lifted_gauss(tower, c)
        lifted_gauss(tower, c, b)
        rows = tower.memo["fiber_row"]
        keys = [("jacobi", a.index), ("gauss", 0), ("gauss", b.index)]
        first = [rows[key] for key in keys]
        assert all(len(row) == q - 1 for row in first)
        lifted_jacobi(tower, a, c.conj)
        lifted_gauss(tower, c.conj)
        lifted_gauss(tower, c.conj, b)
        assert all(rows[key] is row for key, row in zip(keys, first))

    # (3, 3): p = 3 and t > 1
    @pytest.mark.parametrize("p,t", [(7, 1), (3, 3), (11, 1)])
    def test_rows_equal_one_pass_over_the_full_table(self, p, t):
        # the reference walks every m in log order with the full root table
        # and sums each residue class of a list of q^2 - 1 values: same
        # values, same order of summation, so the rows agree bit for bit
        tower = FieldTower(p, t)  # its own fiber rows
        top, q = tower.top, tower.q
        n, roots, step = top.order - 1, top.unity_roots, q - 1
        gauss_vals = [top.psi_table[z] for z in top.exp]
        log_one_minus = [top.zech[(m + n // 2) % n] for m in range(n)]
        for i in range(n):
            twisted = [roots[i * m % n] * v for m, v in enumerate(gauss_vals)] if i else gauss_vals
            jacobi_vals = [roots[i * lg % n] for lg in log_one_minus]
            jacobi_vals[0] = 0j
            for kind, vals in (("gauss", twisted), ("jacobi", jacobi_vals)):
                ref = [sum(vals[k::step], 0j) for k in range(step)]
                assert classical_sums._fiber_row(tower, kind, i) == ref, (kind, i)

    @pytest.mark.parametrize("q", [7, 11])
    def test_rows_of_a_and_a_to_the_q_agree(self, q):
        # z -> z^q permutes each norm fiber and A^q(1 - z) = A(1 - z^q), so a
        # row built for A^q in place of A is the same row: no check can see it
        tower = build_tower(q)
        for i in range(tower.top.order - 1):
            row = classical_sums._fiber_row(tower, "jacobi", i)
            row_q = classical_sums._fiber_row(tower, "jacobi", (char(tower.top, i) ** q).index)
            assert max(abs(u - v) for u, v in zip(row, row_q)) < TOL

    def test_wrong_fields_rejected(self):
        tower = build_tower(7)
        with pytest.raises(FieldError):
            lifted_jacobi(tower, char(tower.base, 1), char(tower.base, 1))
        with pytest.raises(FieldError):
            lifted_gauss(tower, char(tower.top, 8))
        with pytest.raises(FieldError):
            lifted_gauss(tower, char(tower.base, 1), char(tower.base, 1))


class TestHasseDavenport:
    # the product, lifting and quartic relations are families of the classical
    # suite, which reads every Gauss value of both fields by index
    @staticmethod
    def family(q, check_id):
        rep = harness.suite_classical(build_tower(q), DEFAULT_POLICY)
        return {inputs: dev for cid, inputs, dev, _ in records(rep) if cid == check_id}

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_product_relation_all_characters(self, q):
        devs = self.family(q, "hd-product")
        assert list(devs) == [f"A={k}" for k in range(q - 1)]
        assert max(devs.values()) < TOL

    def test_product_relation_trivial_case(self):
        # both sides reduce to G(phi) * G(eps) = -G(phi)
        field = construct_field(7)
        phi = quadratic_char(field)
        eps = trivial_char(field)
        lhs = eps(4) * gauss(eps) * gauss(phi)
        assert abs(lhs - gauss(eps) * gauss(phi)) < TOL
        assert self.family(7, "hd-product")["A=0"] < TOL

    @pytest.mark.parametrize("q", [3, 7, 11])
    def test_lifted_gauss_all_characters(self, q):
        devs = self.family(q, "lifted-gauss")
        assert list(devs) == [f"C={k}" for k in range(q - 1)]
        assert max(devs.values()) < TOL

    def test_frobenius_conjugation_random_characters(self):
        tower = build_tower(7)
        rng = random.Random(7)
        for _ in range(20):
            b = char(tower.top, rng.randrange(48))
            assert abs(gauss(b) - gauss(b**7)) < TOL

    @pytest.mark.parametrize("q", [7, 11])
    def test_quartic_gauss_all_characters(self, q):
        devs = self.family(q, "quartic-gauss")
        assert list(devs) == [f"C={k}" for k in range(q - 1)]
        assert max(devs.values()) < TOL

    def test_quartic_gauss_phi_at_q19(self):
        phi = quadratic_char(build_tower(19).base)
        assert self.family(19, "quartic-gauss")[f"C={phi.index}"] < TOL


class TestEisenstein:
    def test_trivial_values(self):
        tower = build_tower(7)
        triv = trivial_char(tower.top)
        assert abs(eisenstein_E2(tower, triv) - 7) < TOL
        assert abs(eisenstein_E(tower, triv) - 7) < TOL

    def test_shift_relation_all_characters(self):
        # E(beta) = beta(2) E2(beta), both sides summed literally
        tower = build_tower(7)
        for k in range(48):
            beta = char(tower.top, k)
            assert abs(eisenstein_E(tower, beta) - beta(2) * eisenstein_E2(tower, beta)) < TOL

    def test_gauss_ratio_all_nontrivial(self):
        # E2(beta) = G2(beta)/G(beta*), or -G2(beta)/q where beta* is trivial,
        # every sum literal
        tower = build_tower(7)
        trivial_restriction = 0
        for k in range(1, 48):
            beta = char(tower.top, k)
            star = restrict_to_base(tower, beta)
            if star.is_trivial:
                trivial_restriction += 1
                rhs = -gauss_literal(beta) / 7
            else:
                rhs = gauss_literal(beta) / gauss_literal(star)
            assert abs(eisenstein_E2(tower, beta) - rhs) < TOL
        assert trivial_restriction > 0  # both branches of the evaluation exercised

    def test_octic_case_both_routes(self):
        # beta = M8 at q = 7 restricts trivially: E2 = -G2(M8)/q
        tower = build_tower(7)
        m8 = octic_M8(tower)
        assert restrict_to_base(tower, m8).is_trivial
        lhs = eisenstein_E2(tower, m8)
        assert abs(lhs + gauss(m8) / 7) < TOL

    def test_e_sums_the_points_one_plus_i_y(self):
        tower = build_tower(7)
        line = [(1 + tower.top.element(tower.i_code) * tower.embed(y)).code for y in range(7)]
        assert list(tower.i_line) == line
        for k in (0, 1, 5, 30):
            beta = char(tower.top, k)
            assert eisenstein_E(tower, beta) == sum((beta.value_table()[z] for z in line), 0j)
            assert abs(eisenstein_sums(tower)[1][k] - eisenstein_E(tower, beta)) <= ROUTE_TOL

    def test_requires_top_field_character(self):
        tower = build_tower(7)
        with pytest.raises(FieldError):
            eisenstein_E2(tower, char(tower.base, 1))

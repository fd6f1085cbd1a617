import cmath
import functools
import inspect
import json
import operator
import subprocess
import sys
import textwrap

import pytest
from conftest import ROUTE_TOL, records

from charsum import classical_sums, harness, hypergeometric, katz
from charsum.characters import (
    char,
    decompose_odd,
    norm_compose,
    octic_M8,
    quadratic_char,
    trivial_char,
)
from charsum.classical_sums import gauss_literal, jacobi, lifted_gauss, lifted_jacobi
from charsum.finite_field import (
    FieldError,
    FieldTower,
    PrimePowerField,
    build_tower,
    construct_field,
    factor_prime_power,
)
from charsum.harness import suite_hypergeometric, suite_mellin, suite_theorem41, suite_theorem5x
from charsum.hypergeometric import hyp2f1, norm_fiber
from charsum.katz import (
    KatzContext,
    decompose_q,
    decompose_q_squared,
    double_mellin_mixed,
    double_mellin_product,
    kernel_double_sum,
    kernel_double_sum_anchor,
    kernel_mellin,
    kernel_row,
    kernel_sum,
    mellin_transform,
    mixed_sum,
    norm_restricted_gauss,
    quadratic_kernel_expected,
    quadratic_kernel_mellin,
    ratio_bracket_deviation,
    select_char_pairs,
    spaced_sample,
    verify_master_identity,
)
from charsum.report import write_json
from charsum.tolerance import DEFAULT_POLICY

TOL = 1e-10


def failed_ids(rep) -> list[str]:
    """The check_id of each failed record of rep, in check order."""
    return [check_id for check_id, _, _, passed in records(rep) if not passed]


@pytest.fixture(scope="module")
def ctx7():
    return KatzContext(build_tower(7), 1)


def p_raw(j, k, a, q=7):
    """Independent evaluation of the mixed sum for prime q: Euler-criterion
    quadratic character and raw exponentials, no package machinery."""

    def phi_int(x):
        x %= q
        if x == 0:
            return 0
        return 1 if pow(x, (q - 1) // 2, q) == 1 else -1

    def psi(x):
        return cmath.exp(2j * cmath.pi * (x % q) / q)

    g_phi = sum(phi_int(y) * psi(y) for y in range(q))
    total = 0j
    for x in range(1, q):
        ax = a * pow(x, q - 2, q) % q
        total += phi_int(ax - x) * psi(x * (j + k) ** 2 + ax * (j - k) ** 2)
    val = total / g_phi
    if j % q == k % q:
        val += 1
    if j % q == (-k) % q:
        val -= 1
    return val


def p_literal(ctx, j, k):
    """P(j, k) by the per-x loop over field arithmetic,
    sum_x phi(a/x - x) psi(x s + (a/x) d) with s = (j+k)^2, d = (j-k)^2:
    the oracle for the trace-linear route of mixed_sum_matrix."""
    base = ctx.tower.base
    add, mul, sub = base.add_codes, base.mul_codes, base.sub_codes
    tphi, psi = ctx.phi.value_table(), base.psi_table
    s = mul(add(j, k), add(j, k))
    d = mul(sub(j, k), sub(j, k))
    acc = 0j
    for x in range(1, base.order):
        ax = mul(ctx.a_code, base.inv_code(x))
        acc += tphi[sub(ax, x)] * psi[add(mul(x, s), mul(ax, d))]
    val = acc * ctx.inv_g_phi
    if j == k:
        val += 1
    if j == base.neg[k]:
        val -= 1
    return val


def kernel_literal(d, j):
    """h(D, j) by the per-x loop over field arithmetic,
    sum_x D(x) phi(1-x) (phi conj(D)^2)(x(j+1)^2 + (j-1)^2):
    the oracle for the memoized rows of kernel_row."""
    field = d.field
    phi = quadratic_char(field)
    td, tphi = d.value_table(), phi.value_table()
    tmix = (phi * d.conj**2).value_table()
    je = field.element(j)
    jp = ((je + 1) ** 2).code
    jm = ((je - 1) ** 2).code
    om = field.one_minus
    mul, add = field.mul_codes, field.add_codes
    total = 0j
    for x in range(1, field.order):
        total += td[x] * tphi[om[x]] * tmix[add(mul(x, jp), jm)]
    return total


def kernel_closed_form(d, j):
    """The closed form of h(D, j) from the literal sums:

    j = +-1:            -phi(j) conj(D)(16) J(D, phi)
    j != +-1, D = eps:  0
    j != +-1, D != eps: (G(phi)G(D)^2/G(phi D^2)) conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | x)

    for x = -((j+1)/(j-1))^2."""
    field = d.field
    phi = quadratic_char(field)
    j = field.element(j)
    if not (j + 1) or not (j - 1):
        return -phi(j) * d.conj(16) * jacobi(d, phi)
    if d.is_trivial:
        return 0j
    x = -(((j + 1) / (j - 1)) ** 2)
    g = gauss_literal(phi) * gauss_literal(d) ** 2 / gauss_literal(phi * d**2)
    return g * (d.conj**4)(j - 1) * hyp2f1(d, d**2 * phi, d * phi, x)


def point_records(rep) -> list[tuple[str, float, bool]]:
    """(inputs, deviation, passed) of the point-identity checks of a master
    report, in check order."""
    return [(inputs, dev, passed) for check_id, inputs, dev, passed in records(rep)
            if check_id == "point-identity"]


class TestContext:
    def test_rejects_q_1_mod_4(self):
        with pytest.raises(ValueError):
            KatzContext(build_tower(5), 1)

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError):
            KatzContext(build_tower(7), 0)

    def test_tau_squares_to_q_m8_minus_a(self):
        tower = build_tower(7)
        for a in range(1, 7):
            for variant in (1, 3):
                ctx = KatzContext(tower, a, m8_variant=variant)
                want = 7 * ctx.M8(tower.embed(-tower.base.element(a)))
                assert abs(ctx.tau**2 - want) < TOL

    def test_m8_has_exact_order_8(self, ctx7):
        assert ctx7.M8.order == 8

    def test_a_index(self):
        tower = build_tower(7)
        ctx = KatzContext(tower, tower.base.g)
        assert ctx.a_index() == 1

    def test_fiber_pairs_hold_the_m8_table_values(self):
        tower = build_tower(11)
        ctx = KatzContext(tower, tower.base.g)
        tm8, exp2 = ctx.M8.value_table(), tower.top.exp
        assert [v for _, v in ctx._fiber_pairs] == [tm8[exp2[m]] for m, _ in ctx._fiber_pairs]
        fiber = [exp2[m] for m, _ in ctx._fiber_pairs]
        assert sorted(fiber) == norm_fiber(tower, ctx.a, scan=True)

    def test_suites_build_no_top_field_value_tables(self, monkeypatch):
        tower = build_tower(23)
        # the top field is shared: start it with no tables and no transform
        monkeypatch.setitem(tower.top.memo, "value_table", {})
        monkeypatch.delitem(tower.top.memo, "gauss_sums", raising=False)
        lazy = ("neg", "one_minus", "trace_table")  # built on first read
        for name in lazy:
            monkeypatch.delitem(tower.top.memo, name, raising=False)
        ctx = KatzContext(tower, tower.base.g)
        for suite in (suite_hypergeometric, suite_theorem41, suite_mellin, suite_theorem5x,
                      verify_master_identity):
            assert suite(ctx, DEFAULT_POLICY).all_passed
        assert tower.top.memo["value_table"] == {}
        assert tower.top.memo.get("gauss_sums") is None
        assert [tower.top.memo.get(name) for name in lazy] == [None] * 3


class TestMixedSum:
    def test_matches_raw_integer_oracle(self):
        tower = build_tower(7)
        for a in range(1, 7):
            ctx = KatzContext(tower, a)
            for j in range(7):
                for k in range(7):
                    assert abs(mixed_sum(ctx, j, k) - p_raw(j, k, a)) < TOL

    def test_symmetry(self, ctx7):
        for j in range(7):
            for k in range(7):
                assert abs(mixed_sum(ctx7, j, k) - mixed_sum(ctx7, k, j)) < TOL

    def test_odd_parity_in_j(self, ctx7):
        base = ctx7.tower.base
        for j in range(7):
            for k in range(7):
                je = base.element(j)
                lhs = mixed_sum(ctx7, (-je).code, k)
                assert abs(lhs + mixed_sum(ctx7, j, k)) < TOL

    def test_vanishes_when_jk_zero(self, ctx7):
        for j in range(7):
            assert abs(mixed_sum(ctx7, j, 0)) < TOL
            assert abs(mixed_sum(ctx7, 0, j)) < TOL


class TestMixedSumMatrix:
    # q = 3 at a = 1 has an empty x-sum; q = 27, 243 and 343 have extension
    # base fields; 251 and 263 lie on either side of 256, where a
    # table-driven route once changed
    @pytest.mark.parametrize("p,t,n_rows", [(3, 1, 3), (7, 1, 7), (19, 1, 19), (3, 3, 27),
                                            (3, 5, 3), (7, 3, 3), (263, 1, 3), (251, 1, 3)])
    def test_matches_literal_loop(self, p, t, n_rows):
        tower = build_tower(p, t)
        rows = spaced_sample(list(range(tower.q)), n_rows)
        # the oracle's extension-field sums cost about 1 us a term, so at
        # q = 243 and 343 it reads the last sampled row only
        oracle_rows = rows if tower.base.m == 1 or tower.q < 100 else rows[-1:]
        for a in (1, tower.base.g):  # a square and a non-square a
            ctx = KatzContext(tower, a)
            pm = ctx.mixed_sum_matrix()
            for j in rows:
                for k in range(tower.q):
                    assert mixed_sum(ctx, j, k) == pm[j][k]
            for j in oracle_rows:
                for k in range(tower.q):
                    assert abs(pm[j][k] - p_literal(ctx, j, k)) < 1e-12


class TestXPairing:
    """mixed_sum_matrix sums one member x of each pair {x, -x}: the partner's
    term is minus the conjugate, since phi(-1) = -1."""

    @pytest.mark.parametrize("p,t", [(3, 1), (7, 1), (11, 1), (3, 3), (263, 1)])
    def test_keeps_exactly_half_the_x_terms(self, p, t):
        tower = build_tower(p, t)
        base = tower.base
        for a in (1, base.g):
            ctx = KatzContext(tower, a)
            # the full loop: every x with a/x != x
            full = {x for x in range(1, tower.q) if base.mul_codes(x, x) != ctx.a_code}
            kept = [base.exp[lx] for lx in ctx._s_side[0]]
            assert 2 * len(kept) == len(full)
            assert set(kept) | {base.neg[x] for x in kept} == full
            assert all(lx < (tower.q - 1) // 2 for lx in ctx._s_side[0])

    @pytest.mark.parametrize("p,t", [(7, 1), (11, 1), (3, 3)])
    def test_partner_added_fails_point_identity(self, p, t):
        # forgetting phi(-1) = -1: each pair adds phi(a/x - x) 2 Re psi(...).
        # The table holds -i 2 Re zeta_p^t, so the route's factor i yields it
        tower = build_tower(p, t)
        ctx = KatzContext(tower, tower.base.g)
        re = [2 * r.real for r in tower.base.p_roots] * 2
        ctx._roots = [-1j * v for v in re + [-v for v in re]]
        points = point_records(verify_master_identity(ctx))
        assert len(points) == tower.q**2
        assert not any(passed for *_, passed in points)

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("entry", ["off-diagonal", "diagonal", "s-zero-edge"])
    def test_one_wrong_entry_fails_the_records_that_read_it(self, monkeypatch, q, entry):
        # the wrong entry is served through the table of P by the half-logs
        # of s and d, where (q-1)/2 stands for a zero square
        tower = build_tower(q)
        base = tower.base
        sq = [base.mul_codes(c, c) for c in range(q)]
        s0 = 0 if entry == "s-zero-edge" else sq[2]
        d0 = 0 if entry == "diagonal" else sq[1]
        half = {s: base.dlog[s] // 2 if s else (q - 1) // 2 for s in (s0, d0)}
        real = KatzContext._p_table

        def wrong(self):
            tab = real(self)
            tab[half[s0]][half[d0]] += 0.01
            return tab

        monkeypatch.setattr(KatzContext, "_p_table", wrong)
        for a in (1, base.g):
            points = point_records(verify_master_identity(KatzContext(tower, a)))
            reading = {f"j={j},k={k}" for j in range(q) for k in range(q)
                       if (sq[base.add_codes(j, k)], sq[base.sub_codes(j, k)]) == (s0, d0)}
            assert len(reading) == (4 if s0 and d0 else 2)
            assert {inputs for inputs, _, passed in points if not passed} == reading

    @pytest.mark.parametrize("q", [7, 11, 27])
    @pytest.mark.parametrize("a", ["one", "g"])
    @pytest.mark.parametrize("slip", [
        ("r = (la + 2 * c) % n", "r = (la + 2 * (c + 1)) % n"),  # one anti-diagonal off
        ("[l : l + n : 2]", "[l : l + h]"),  # u without the stride-2 step
    ], ids=["anti-diagonal-off", "no-stride"])
    def test_slips_in_the_table_fail_point_identity(self, monkeypatch, q, a, slip):
        src = textwrap.dedent(inspect.getsource(KatzContext._p_table))
        assert src.count(slip[0]) == 1
        namespace = dict(vars(katz))
        exec(src.replace(*slip), namespace)
        monkeypatch.setattr(KatzContext, "_p_table", namespace["_p_table"])
        tower = build_tower(*factor_prime_power(q))
        ctx = KatzContext(tower, 1 if a == "one" else tower.base.g)
        assert "point-identity" in failed_ids(verify_master_identity(ctx))


class TestNormRestrictedGauss:
    def test_v_zero_is_zero(self, ctx7):
        assert norm_restricted_gauss(ctx7, 0) == 0

    def test_odd_in_j(self):
        tower = build_tower(7)
        base = tower.base
        for a in range(1, 7):
            ctx = KatzContext(tower, a)
            for j in range(1, 7):
                je = base.element(j)
                assert abs(
                    norm_restricted_gauss(ctx, (-je).code) + norm_restricted_gauss(ctx, j)
                ) < TOL

    def test_scan_equals_fiber_route(self, ctx7):
        for j in range(7):
            assert abs(
                norm_restricted_gauss(ctx7, j) - norm_restricted_gauss(ctx7, j, scan=True)
            ) < TOL

    def test_point_identity_at_one(self, ctx7):
        v1 = norm_restricted_gauss(ctx7, 1)
        assert abs(mixed_sum(ctx7, 1, 1) - v1 * v1) < TOL


class TestFiberWalks:
    """V and R walk their norm fibers by logs; a walk one log off, onto the
    fiber of c*g, must fail the checks that read it and only those."""

    SUITES = {
        "hypergeometric": suite_hypergeometric,
        "theorem-4.1": suite_theorem41,
        "mellin": suite_mellin,
        "theorem-5.x": suite_theorem5x,
        "master": verify_master_identity,
    }

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("walk", ["V", "R"])
    def test_walks_one_log_off_fail_the_checks(self, monkeypatch, q, walk):
        # V's walk is katz's fiber_logs; R's is hypergeometric's, which
        # norm_fiber shares, so the norm-fiber check sees it too, and
        # fiber-jacobi-even, which walks the scanned fiber instead
        module = katz if walk == "V" else hypergeometric
        real = hypergeometric.fiber_logs
        monkeypatch.setattr(
            module, "fiber_logs",
            lambda tower, c: [(m + 1) % (tower.top.order - 1) for m in real(tower, c)],
        )
        tower = build_tower(q)
        ctx = KatzContext(tower, tower.base.g)
        failed = {
            name: set(failed_ids(suite(ctx, DEFAULT_POLICY)))
            for name, suite in self.SUITES.items()
        }
        if walk == "V":
            expected = {"mellin": {"mellin-single", "double-mellin-product",
                                   "double-mellin-literal", "mellin-inversion"},
                        "master": {"point-identity", "mellin-match"}}
        else:
            expected = {"hypergeometric": {"norm-fiber", "fiber-jacobi-even"},
                        "theorem-4.1": {"fiber-jacobi-hyp"}, "theorem-5.x": {"fiber-transform"}}
        assert failed == {name: expected.get(name, set()) for name in self.SUITES}


class TestWrongV:
    """Every mellin family that reads V compares it with closed forms, so a
    wrong V fails each of them; double-mellin-mixed reads P, not V."""

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("a", ["one", "g"])
    @pytest.mark.parametrize("wrong", ["1.5 at one j", "complex factor"])
    def test_wrong_v_fails_the_families_that_read_it(self, monkeypatch, q, a, wrong):
        real = KatzContext._build_v_vector

        def v_vector(ctx):
            v = real(ctx)
            if wrong == "1.5 at one j":
                v[2] *= 1.5
                return v
            return [cmath.rect(1.3, 0.9) * x for x in v]

        monkeypatch.setattr(KatzContext, "_build_v_vector", v_vector)
        tower = build_tower(q)
        ctx = KatzContext(tower, 1 if a == "one" else tower.base.g)
        assert set(failed_ids(suite_mellin(ctx, DEFAULT_POLICY))) == {
            "mellin-single", "double-mellin-product", "double-mellin-literal", "mellin-inversion",
        }


class TestClosedFormRows:
    """theorem-4.1 and theorem-5.x read the 2F1 and R rows; a wrong row must
    fail the checks that read it and only those, and no suite may fall back
    to the per-point sums."""

    SUITES = TestFiberWalks.SUITES

    def failures(self, q, monkeypatch):
        tower = build_tower(*factor_prime_power(q))
        # the mutated 2F1 rows land in the field's memo: start and end it clean
        monkeypatch.setitem(tower.base.memo, "reduction_row", {})
        ctx = KatzContext(tower, tower.base.g)
        failed = {
            name: set(failed_ids(suite(ctx, DEFAULT_POLICY)))
            for name, suite in self.SUITES.items()
        }
        return {name: ids for name, ids in failed.items() if ids}

    @pytest.mark.parametrize("q", [7, 11, 27])
    @pytest.mark.parametrize("wrong", ["shifted", "D*phi"])
    def test_wrong_hyp_rows_fail_the_checks(self, monkeypatch, q, wrong):
        # the rows are served through the evaluator that hyp2f1_row and
        # reduction_row share; hyp-bound reads the mutated rows too and passes
        # them: a magnitude bound cannot see a row shifted by one x or the row
        # of D*phi
        real = hypergeometric._hyp2f1_at
        if wrong == "shifted":
            def row(a, b, c, xs):
                r = real(a, b, c, a.field.exp)
                return [0j] + r[2:] + r[1:2]
        else:
            def row(a, b, c, xs):
                phi = quadratic_char(a.field)
                return real(a * phi, b, c * phi, xs)  # (D phi, D^2 phi, D) for (D, D^2 phi, D phi)
        monkeypatch.setattr(hypergeometric, "_hyp2f1_at", row)
        assert self.failures(q, monkeypatch) == {
            "theorem-4.1": {"fiber-jacobi-hyp"}, "theorem-5.x": {"kernel-closed-form"},
        }

    @pytest.mark.parametrize("q", [7, 11, 27])
    def test_wrong_norm_jacobi_rows_fail_the_checks(self, monkeypatch, q):
        # the row of D*phi served as the row of D, under the name that the
        # suites, Y(D) among them, read
        real = hypergeometric.norm_jacobi_row

        def row(ctx, d):
            return real(ctx, d * quadratic_char(d.field))

        monkeypatch.setattr(harness, "norm_jacobi_row", row)
        assert self.failures(q, monkeypatch) == {
            "hypergeometric": {"fiber-jacobi-even"},
            "theorem-4.1": {"fiber-jacobi-hyp"}, "theorem-5.x": {"fiber-transform"},
        }

    def test_no_per_point_sums(self, monkeypatch):
        q = 19
        tower = build_tower(q)
        monkeypatch.setitem(tower.base.memo, "reduction_row", {})  # the rows are built here
        names = ("hyp2f1", "norm_restricted_jacobi", "_hyp2f1_at", "jacobi", "eisenstein_sums")
        calls = dict.fromkeys(names, 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        hyp2f1 = counting("hyp2f1", hypergeometric.hyp2f1)
        for module in (hypergeometric, harness):
            monkeypatch.setattr(module, "hyp2f1", hyp2f1)
        monkeypatch.setattr(hypergeometric, "norm_restricted_jacobi", counting(
            "norm_restricted_jacobi", hypergeometric.norm_restricted_jacobi))
        monkeypatch.setattr(hypergeometric, "_hyp2f1_at", counting(  # read by reduction_row
            "_hyp2f1_at", hypergeometric._hyp2f1_at))
        monkeypatch.setattr(harness, "jacobi", counting("jacobi", harness.jacobi))
        monkeypatch.setattr(harness, "eisenstein_sums", counting(
            "eisenstein_sums", harness.eisenstein_sums))

        def count(suite, arg):
            for name in calls:
                calls[name] = 0
            assert suite(arg, DEFAULT_POLICY).all_passed
            return dict(calls)

        ctx = KatzContext(tower, tower.base.g)
        t41, t5x = count(suite_theorem41, ctx), count(suite_theorem5x, ctx)
        assert t41["hyp2f1"] == t5x["hyp2f1"] == 0
        assert t41["norm_restricted_jacobi"] <= (q - 1) ** 2 // 2
        # one 2F1 row per D, shared by the two suites
        assert t41["_hyp2f1_at"] + t5x["_hyp2f1_at"] <= q - 1
        # one literal Jacobi sum per D in each, for j = +-1
        assert t41["jacobi"] <= q - 1 and t5x["jacobi"] <= q - 1
        assert count(harness.suite_eisenstein, tower)["eisenstein_sums"] == 1
        k = 6  # characters per axis above q = 11: one hyp-zero-arg record per (A, B)
        rep = suite_hypergeometric(ctx, DEFAULT_POLICY)
        assert sum(check_id == "hyp-zero-arg" for check_id, *_ in records(rep)) == k * k
        assert count(suite_hypergeometric, ctx)["hyp2f1"] == k * k


# the Mellin-side families pass at every a for q <= 11, and at a square and a
# non-square a above that
A_SWEEP = [(3, 1), (7, 1), (11, 1), (19, 1), (3, 3)]


@functools.lru_cache(maxsize=None)
def sweep_reports(p, t) -> list[dict]:
    """The mellin, theorem-5.x and master reports over the a-sweep of q = p^t,
    one dict per a, keyed by suite name."""
    tower = build_tower(p, t)
    a_codes = range(1, tower.q) if tower.q <= 11 else (1, tower.base.g)
    suites = {"mellin": suite_mellin, "theorem-5.x": suite_theorem5x,
              "master": verify_master_identity}
    return [{name: suite(KatzContext(tower, a), DEFAULT_POLICY) for name, suite in suites.items()}
            for a in a_codes]


def assert_family_passes(p, t, suite, check_id):
    # far inside the suite's tolerance: TOL up to q = 11, 1e-9 above
    bound = TOL if p**t <= 11 else 1e-9
    for reports in sweep_reports(p, t):
        deviations = reports[suite].families[check_id].deviations
        assert len(deviations) and all(dev <= bound for dev in deviations), (
            p**t, reports[suite].a_index)


class TestMellinSingle:
    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_every_character_over_the_a_sweep(self, p, t):
        assert_family_passes(p, t, "mellin", "mellin-single")
        assert len(sweep_reports(p, t)[0]["mellin"].families["mellin-single"]) == p**t - 1

    def test_even_characters_vanish(self, ctx7):
        base = ctx7.tower.base
        for i in range(0, 6, 2):
            assert abs(mellin_transform(ctx7, char(base, i))) < TOL

    def test_inversion(self):
        # (1/(q-1)) sum_chi S(chi) conj(chi)(j) recovers V(j)
        for p in (7, 11):
            tower = build_tower(p)
            ctx = KatzContext(tower, 1)
            q = tower.q
            base = tower.base
            v = ctx.v_vector()
            s = [mellin_transform(ctx, char(base, i)) for i in range(q - 1)]
            tabs = [char(base, i).value_table() for i in range(q - 1)]
            for j in range(1, q):
                recon = sum(s[i] * tabs[i][j].conjugate() for i in range(q - 1)) / (q - 1)
                assert abs(recon - v[j]) < TOL


class TestDoubleMellin:
    def test_literal_equals_product(self, ctx7):
        base = ctx7.tower.base
        for i1 in range(6):
            for i2 in range(6):
                c1, c2 = char(base, i1), char(base, i2)
                assert abs(
                    double_mellin_product(ctx7, c1, c2, literal=True)
                    - double_mellin_product(ctx7, c1, c2)
                ) < TOL

    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_product_side_evaluation(self, p, t):
        assert_family_passes(p, t, "mellin", "double-mellin-product")

    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_mixed_side_evaluation(self, p, t):
        assert_family_passes(p, t, "mellin", "double-mellin-mixed")

    def test_mixed_side_symmetry(self, ctx7):
        base = ctx7.tower.base
        for i1 in range(6):
            for i2 in range(6):
                c1, c2 = char(base, i1), char(base, i2)
                assert abs(
                    double_mellin_mixed(ctx7, c1, c2) - double_mellin_mixed(ctx7, c2, c1)
                ) < TOL

    @pytest.mark.parametrize("p", [7, 11])
    def test_cached_inner_vectors_give_the_uncached_sum(self, p):
        tower = build_tower(p)
        ctx = KatzContext(tower, tower.base.g)
        pm = ctx.mixed_sum_matrix()
        for i1 in range(p - 1):
            for i2 in range(p - 1):
                c1, c2 = char(tower.base, i1), char(tower.base, i2)
                t1, t2 = c1.value_table(), c2.value_table()
                total = 0j
                for j in range(1, p):
                    total += t1[j] * sum(map(operator.mul, t2, pm[j]), 0j)
                assert double_mellin_mixed(ctx, c1, c2) == total

    def test_cache_holds_one_vector_per_chi2(self):
        tower = build_tower(19)
        ctx = KatzContext(tower, tower.base.g)
        assert ctx.memo["mixed_inner"] == {}
        verify_master_identity(ctx, DEFAULT_POLICY)
        chi2s = {i2 for _, i2 in select_char_pairs(tower.base)}
        assert set(ctx.memo["mixed_inner"]) == chi2s and len(chi2s) <= 6
        assert all(len(v) == tower.q for v in ctx.memo["mixed_inner"].values())
        cached = dict(ctx.memo["mixed_inner"])
        suite_mellin(ctx, DEFAULT_POLICY)  # the same pairs: every vector is reused
        assert ctx.memo["mixed_inner"] == cached
        assert all(ctx.memo["mixed_inner"][i] is cached[i] for i in cached)
        # the vectors read P, which depends on a
        assert KatzContext(tower, 1).memo["mixed_inner"] == {}

    def test_rejects_characters_of_another_field(self, ctx7):
        # the caches are keyed by character index, which only the field
        # fixes: F_7 has the generator 3, the tower base 5
        base, other = ctx7.tower.base, construct_field(7)
        assert base is not other and base.g != other.g
        for c1, c2 in ((char(other, 1), char(base, 1)), (char(base, 1), char(other, 1))):
            with pytest.raises(FieldError):
                double_mellin_mixed(ctx7, c1, c2)
            with pytest.raises(FieldError):
                double_mellin_product(ctx7, c1, c2, literal=True)
            with pytest.raises(FieldError):
                kernel_mellin(c1, c2)
        # the memo keeps the value of the base characters
        want = sum(char(base, 1).value_table()[j] * kernel_row(char(base, 1))[j]
                   for j in range(1, 7))
        assert kernel_mellin(char(base, 1), char(base, 1)) == want

    @pytest.mark.parametrize("q", [7, 11, 19])
    @pytest.mark.parametrize("wrong", [
        {"_mixed_inner": "1"}, {"_mixed_inner": "1", "double_mellin_mixed": "chi1.index"},
    ], ids=["inner", "inner-and-T"])
    def test_caches_keyed_on_the_wrong_character_fail_mellin_match(self, monkeypatch, q, wrong):
        # the inner-vector cache keyed on a fixed index, so the vector of the
        # first chi2 read serves every chi2, and with it the T memo keyed on chi1
        namespace = dict(vars(katz))
        for name, key in wrong.items():
            src = inspect.getsource(getattr(katz, name))
            assert src.count("chi2.index") == 1
            exec(src.replace("chi2.index", key), namespace)
            monkeypatch.setattr(katz, name, namespace[name])
        tower = build_tower(q)
        rep = verify_master_identity(KatzContext(tower, tower.base.g), DEFAULT_POLICY)
        assert set(failed_ids(rep)) == {"mellin-match"}

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_value_memo_keyed_on_chi1_fails_mellin_match(self, monkeypatch, q):
        # only the T memo keyed on chi1: T(chi1, chi2) is served for every chi2
        src = inspect.getsource(katz.double_mellin_mixed)
        key = "key = (chi1.index, chi2.index)"
        assert src.count(key) == 1
        namespace = dict(vars(katz))
        exec(src.replace(key, "key = (chi1.index, chi1.index)"), namespace)
        monkeypatch.setattr(katz, "double_mellin_mixed", namespace["double_mellin_mixed"])
        tower = build_tower(q)
        rep = verify_master_identity(KatzContext(tower, tower.base.g), DEFAULT_POLICY)
        assert set(failed_ids(rep)) == {"mellin-match"}

    def test_even_pairs_vanish(self, ctx7):
        base = ctx7.tower.base
        eps, phi = trivial_char(base), quadratic_char(base)
        even = char(base, 2)
        assert abs(double_mellin_mixed(ctx7, even, phi)) < TOL
        assert abs(double_mellin_product(ctx7, phi, even)) < TOL
        assert abs(double_mellin_mixed(ctx7, eps, even)) < TOL


class TestKernel:
    # q = 27: the tower base and the canonical field have different
    # generators, so each keeps its own rows
    @pytest.mark.parametrize("field", [
        pytest.param(lambda: build_tower(7).base, id="q7"),
        pytest.param(lambda: build_tower(11).base, id="q11"),
        pytest.param(lambda: build_tower(23).base, id="q23"),
        pytest.param(lambda: build_tower(3, 3).base, id="q27-tower-base"),
        pytest.param(lambda: construct_field(3, 3), id="q27-canonical"),
        pytest.param(lambda: build_tower(59).base, id="q59"),
    ])
    def test_row_equals_literal_loop(self, field):
        field = field()
        for di in range(field.order - 1):
            d = char(field, di)
            row = kernel_row(d)
            assert len(row) == field.order
            assert field.memo["kernel_row"][di] is row and kernel_row(d) is row
            for j in range(1, field.order):  # j = +-1 included: (j+1)^2 or (j-1)^2 is 0
                assert abs(row[j] - kernel_literal(d, j)) <= ROUTE_TOL
                assert kernel_sum(d, j) == row[j]

    def test_memos_bounded_and_reused_over_a_sweeps(self):
        # a tower of its own, so its base field and fiber memos start empty
        tower = FieldTower(11, 1)
        base = tower.base
        memos = (base.memo["kernel_row"], tower.memo["fiber_row"], base.memo["kernel_mellin"],
                 tower.memo["fiber_transform"])
        sizes = []
        for a in range(1, 11):
            ctx = KatzContext(tower, a)
            suite_mellin(ctx, DEFAULT_POLICY)
            verify_master_identity(ctx, DEFAULT_POLICY)
            sizes.append(tuple(map(len, memos)))
            # S and T are summed once per context, for each argument read
            assert set(ctx.memo["mellin_transform"]) == set(range(10))
            assert set(ctx.memo["double_mellin_mixed"]) == set(select_char_pairs(base))
        # the first a fills every memo; the other nine only read them
        assert all(sizes[0])
        assert set(sizes) == {sizes[0]}
        assert len(base.memo["kernel_row"]) <= 10
        # one value per distinct argument of the sweep: the kernel sums at
        # (D, chi1) for D = mu phi^i, mu = nu1 nu2 (W(D) at nu1 reads the same
        # (D, phi nu1^4)); the lifted sums at C = conj(D), of the Jacobi rows
        # of nu1 N M8^e, the plain Gauss row, and the twisted rows of
        # mellin-single at each odd chi's nu
        phi, m8 = quadratic_char(base), ctx.M8
        kernel_args, lifted_args = set(), set()
        for i1, i2 in select_char_pairs(base):
            if i1 % 2 and i2 % 2:
                nu1 = decompose_odd(char(base, i1))
                mu = nu1 * decompose_odd(char(base, i2))
                for i in (0, 1):
                    d = mu * phi**i
                    kernel_args.add((d.index, i1))
                    lifted_args.add(("gauss", 0, d.conj.index))
                    for e in (1, 5):
                        a = norm_compose(tower, nu1) * m8**e
                        lifted_args.add(("jacobi", a.index, d.conj.index))
        for i in range(1, 10, 2):
            nu = decompose_odd(char(base, i))
            lifted_args |= {("gauss", (m8**e).index, nu.index) for e in (1, 5)}
        assert set(base.memo["kernel_mellin"]) == kernel_args
        assert len(kernel_args) <= 2 * 10**2
        assert set(tower.memo["fiber_transform"]) == lifted_args
        # one Jacobi row per distinct A = nu N M8^e (e = 1, 5), and one
        # Gauss row per twist B = 1, M8, M8^5
        lifted_a = {
            ("jacobi", (norm_compose(tower, char(base, nu)) * ctx.M8**e).index)
            for nu in range(10)
            for e in (1, 5)
        }
        twists = {("gauss", 0), ("gauss", ctx.M8.index), ("gauss", (ctx.M8**5).index)}
        assert twists <= set(tower.memo["fiber_row"]) <= lifted_a | twists
        assert all(len(row) == 10 for row in tower.memo["fiber_row"].values())

    def test_each_value_summed_once_over_a_sweep(self, monkeypatch):
        # a memo miss reads its row once: count the row reads over ten a's
        reads = {"fiber": 0, "kernel": 0}

        def count(module, attr, name):
            real = getattr(module, attr)

            def read(*args):
                reads[name] += 1
                return real(*args)
            monkeypatch.setattr(module, attr, read)

        count(classical_sums, "_fiber_row", "fiber")
        count(katz, "kernel_row", "kernel")
        tower = FieldTower(11, 1)
        for a in range(1, 11):
            ctx = KatzContext(tower, a)
            suite_mellin(ctx, DEFAULT_POLICY)
            verify_master_identity(ctx, DEFAULT_POLICY)
        assert reads == {"fiber": len(tower.memo["fiber_transform"]),
                         "kernel": len(tower.base.memo["kernel_mellin"])}
        assert reads["fiber"] and reads["kernel"]

    @pytest.mark.parametrize("q", [7, 11])
    def test_kernel_sum_memo_keyed_on_d_alone_fails_the_checks(self, monkeypatch, q):
        # sum_j chi(j) h(D, j) of the first chi read is served for every chi
        src = inspect.getsource(katz.kernel_mellin)
        assert src.count("(d.index, chi.index)") == 1
        namespace = dict(vars(katz))
        exec(src.replace("(d.index, chi.index)", "d.index"), namespace)
        for module in (katz, harness):
            monkeypatch.setattr(module, "kernel_mellin", namespace["kernel_mellin"])
        tower = FieldTower(q, 1)  # its own tower: the memo starts empty
        ctx = KatzContext(tower, tower.base.g)
        expected = {
            suite_mellin: {"double-mellin-mixed"},
            suite_theorem5x: {"kernel-transform", "gauss-ratio-bridge"},
            verify_master_identity: {"gauss-ratio-bridge"},
        }
        for suite, check_ids in expected.items():
            assert set(failed_ids(suite(ctx, DEFAULT_POLICY))) == check_ids

    @pytest.mark.parametrize("q", [7, 11])
    def test_wrong_kernel_rows_fail_the_checks(self, monkeypatch, q):
        # every check reading h through kernel_row must catch a wrong kernel:
        # the row of D*phi served as the row of D (a copy, memos untouched),
        # under the names that katz and the theorem-5.x closed form read
        real_row = katz.kernel_row

        def wrong_row(d):
            return list(real_row(d * quadratic_char(d.field)))

        for module in (katz, harness):
            monkeypatch.setattr(module, "kernel_row", wrong_row)
        # a non-square a: at a = 1 the mellin check weighs the rows of D and
        # D*phi alike, so it cannot tell them apart.  A tower of its own, so
        # that no kernel sum memoized earlier hides the wrong rows
        tower = FieldTower(q, 1)
        ctx = KatzContext(tower, tower.base.g)
        expected = {
            suite_theorem5x: {"kernel-closed-form", "kernel-transform", "gauss-ratio-bridge"},
            suite_mellin: {"double-mellin-mixed"},
            verify_master_identity: {"gauss-ratio-bridge"},
        }
        for suite, check_ids in expected.items():
            rep = suite(ctx, DEFAULT_POLICY)
            assert set(failed_ids(rep)) == check_ids

    @pytest.mark.parametrize("q", [7, 11])
    def test_wrong_kernel_rows_at_a_square_a(self, monkeypatch, q):
        # at a = 1 double-mellin-mixed weighs the rows of D and D*phi alike,
        # so it passes the mutation; master's gauss-ratio-bridge catches it
        real_row = katz.kernel_row
        monkeypatch.setattr(
            katz, "kernel_row", lambda d: list(real_row(d * quadratic_char(d.field)))
        )
        ctx = KatzContext(FieldTower(q, 1), 1)  # its own tower: no memoized kernel sum
        assert suite_mellin(ctx, DEFAULT_POLICY).all_passed
        rep = verify_master_identity(ctx, DEFAULT_POLICY)
        assert set(failed_ids(rep)) == {"gauss-ratio-bridge"}

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("mutation", ["A-row-next-fiber", "A-row-of-conj-A", "psi-row-next-fiber"])
    def test_wrong_fiber_rows_fail_the_checks(self, monkeypatch, q, mutation):
        # a copy of a wrong row is served; the memo keeps the right ones.
        # A row built for A^q instead of A is the same row (see
        # test_classical_sums), so that slip is not a mutation any check can see
        real_row = classical_sums._fiber_row

        def wrong_row(tower, kind, index):
            if mutation == "A-row-of-conj-A" and kind == "jacobi":
                return list(real_row(tower, kind, -index % (tower.top.order - 1)))
            row = real_row(tower, kind, index)
            shifted = row[1:] + row[:1]  # Phi[k + 1] read as Phi[k]
            if mutation == "A-row-next-fiber" and kind == "jacobi":
                return shifted
            if mutation == "psi-row-next-fiber" and (kind, index) == ("gauss", 0):
                return shifted
            return row

        monkeypatch.setattr(classical_sums, "_fiber_row", wrong_row)
        tower = FieldTower(q, 1)  # its own tower: no memoized lifted sum
        ctx = KatzContext(tower, tower.base.g)
        failed = {
            suite: set(failed_ids(suite(ctx, DEFAULT_POLICY)))
            for suite in (suite_theorem5x, verify_master_identity)
        }
        assert failed[verify_master_identity] == {"gauss-ratio-bridge"}
        assert "gauss-ratio-bridge" in failed[suite_theorem5x]
        if mutation != "psi-row-next-fiber":  # Y's evaluation has no Gauss sum
            assert "fiber-transform" in failed[suite_theorem5x]

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("a", ["one", "g"])
    def test_wrong_twisted_gauss_rows_fail_mellin_single(self, monkeypatch, q, a):
        # the rows of G2(nu N M8^e) read one fiber off, Phi[k + 1] served as
        # Phi[k] (a copy); only the closed form of S(chi) reads a twisted row,
        # and mellin-single and mellin-inversion read it
        real_row = classical_sums._fiber_row

        def wrong_row(tower, kind, index):
            row = real_row(tower, kind, index)
            return row[1:] + row[:1] if kind == "gauss" and index else row

        monkeypatch.setattr(classical_sums, "_fiber_row", wrong_row)
        tower = FieldTower(q, 1)  # its own tower: no memoized lifted sum
        ctx = KatzContext(tower, 1 if a == "one" else tower.base.g)
        failed = failed_ids(suite_mellin(ctx, DEFAULT_POLICY))
        assert set(failed) == {"mellin-single", "mellin-inversion"}

    def test_zero_j_rejected(self):
        with pytest.raises(ValueError):
            kernel_sum(char(construct_field(7), 1), 0)

    @pytest.mark.parametrize("q", [7, 11, 27])
    def test_closed_forms_exhaustive(self, q):
        # the per-x loop against the closed form of literal sums; at q = 27
        # the constant 16 is the element 1
        field = build_tower(*factor_prime_power(q)).base
        for di in range(q - 1):
            d = char(field, di)
            for j in range(1, q):
                assert abs(kernel_literal(d, j) - kernel_closed_form(d, j)) < TOL

    def test_trivial_kernel_vanishes_off_center(self, ctx7):
        base = ctx7.tower.base
        eps = trivial_char(base)
        for j in range(2, 6):  # j != +-1 (codes 1 and 6)
            assert abs(kernel_sum(eps, base.element(j))) < TOL

    def test_transform_of_trivial_is_two(self, ctx7):
        # W(eps) = sum_j (phi nu^4)(j) h(eps, j) = 2 for every nu
        base = ctx7.tower.base
        phi = quadratic_char(base)
        for n in range(6):
            assert abs(kernel_mellin(trivial_char(base), phi * char(base, n) ** 4) - 2) < TOL

    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_transform_evaluation(self, p, t):
        assert_family_passes(p, t, "theorem-5.x", "kernel-transform")

    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_fiber_transform(self, p, t):
        assert_family_passes(p, t, "theorem-5.x", "fiber-transform")

    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_bridge_identity(self, p, t):
        assert_family_passes(p, t, "theorem-5.x", "gauss-ratio-bridge")
        assert_family_passes(p, t, "master", "gauss-ratio-bridge")

    def test_bridge_identity_exhaustive_q7(self, ctx7):
        for ni in range(6):
            for di in range(6):
                assert ratio_bracket_deviation(ctx7, ni, di) < TOL

    def test_transform_of_phi_matches_double_sum(self, ctx7):
        # W(phi) at nu = eps is the double sum at nu = eps
        base = ctx7.tower.base
        phi = quadratic_char(base)
        w = kernel_mellin(phi, phi * trivial_char(base) ** 4)
        assert abs(w - kernel_double_sum(7)) < TOL


class TestSweepBound:
    def test_one_bound_decides_every_sweep(self, monkeypatch):
        # at q = 11 each sweep reads all 10 character indices; with the bound
        # moved below 11, each reads its 6-index sample, and the literal
        # double-Mellin oracle is left out
        ctx = KatzContext(build_tower(11), 1)
        checks = {
            suite_hypergeometric: "hyp-zero-arg",
            suite_mellin: "double-mellin-product",
            suite_theorem5x: "kernel-transform",
            verify_master_identity: "mellin-match",
        }

        def counts():
            reps = [suite(ctx, DEFAULT_POLICY) for suite in checks]
            literal = "double-mellin-literal" in reps[1].families
            return [len(rep.families[c]) for rep, c in zip(reps, checks.values())], literal

        assert counts() == ([100] * 4, True)
        for module in (katz, harness):
            monkeypatch.setattr(module, "sweeps_every_char", lambda q: False)
        assert counts() == ([36] * 4, False)


class TestIndexArithmetic:
    """The Mellin-side families read their characters by index; a slip in
    that arithmetic must fail the families that read it and only those."""

    def failures(self, q, a):
        tower = build_tower(q)
        ctx = KatzContext(tower, 1 if a == "one" else tower.base.g)
        suites = {"mellin": harness.suite_mellin, "theorem-5.x": harness.suite_theorem5x,
                  "master": katz.verify_master_identity}
        return {name: set(failed_ids(suite(ctx, DEFAULT_POLICY))) for name, suite in suites.items()}

    @staticmethod
    def mutate(monkeypatch, module, name, old, new, readers):
        src = inspect.getsource(getattr(module, name))
        assert src.count(old) == 1
        namespace = dict(vars(module))
        exec(src.replace(old, new), namespace)
        for reader in readers:
            monkeypatch.setattr(reader, name, namespace[name])

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("a", ["one", "g"])
    def test_m8_for_m8_fifth_in_the_bracket(self, monkeypatch, q, a):
        # J2(nu N M8, C N) read twice: every check of the bracket fails
        self.mutate(monkeypatch, katz, "jacobi_bracket", "m8**5", "m8", (katz, harness))
        assert self.failures(q, a) == {
            "mellin": {"double-mellin-product", "double-mellin-literal"},
            "theorem-5.x": {"kernel-transform", "fiber-transform", "gauss-ratio-bridge",
                            "kernel-double-sum"},
            "master": {"gauss-ratio-bridge"},
        }

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("a", ["one", "g"])
    def test_dropped_delta_term(self, monkeypatch, q, a):
        # W(D) + 2(q-1) delta(D) without its delta term, where both are written
        term = " + 2 * (q - 1) * delta({})"
        self.mutate(monkeypatch, harness, "suite_mellin", term.format("chars[d]"), "", (harness,))
        self.mutate(monkeypatch, katz, "ratio_bracket_deviation", term.format("dc"), "",
                    (katz, harness))
        assert self.failures(q, a) == {
            "mellin": {"double-mellin-mixed"},
            "theorem-5.x": {"gauss-ratio-bridge"},
            "master": {"gauss-ratio-bridge"},
        }


class TestDoubleSumAnchors:
    def test_q7_and_q11_values(self):
        # anchors derived independently (Euler-criterion oracle) before the build
        assert abs(kernel_double_sum(7) - 14) < TOL
        assert abs(kernel_double_sum(11) - 14) < TOL

    @pytest.mark.parametrize("p,t", A_SWEEP)
    def test_jacobi_side(self, p, t):
        assert_family_passes(p, t, "theorem-5.x", "kernel-double-sum")

    def test_anchor_function(self):
        assert kernel_double_sum_anchor(7) == 14
        assert kernel_double_sum_anchor(23) == 46
        assert kernel_double_sum_anchor(11) == 14
        assert kernel_double_sum_anchor(19) == -34

    def test_rejects_q_1_mod_4(self):
        with pytest.raises(ValueError):
            kernel_double_sum(13)


class TestIntegerDecompositions:
    def test_q_squared_decompositions(self):
        assert decompose_q_squared(11, 11) == (7, 6)
        assert decompose_q_squared(3, 3) == (-1, 2)
        assert decompose_q_squared(27, 3) == (23, 10)
        assert decompose_q_squared(19, 19) == (-17, 6)

    def test_rejects_wrong_congruence(self):
        with pytest.raises(ValueError):
            decompose_q_squared(7, 7)

    def test_q_decompositions(self):
        assert decompose_q(9, 3) == (1, 2)
        assert decompose_q(17, 17) == (3, 2)

    def test_delta_fourth_equals_delta_square(self):
        # q - 1 = 2 (mod 4) forces mu^4 trivial iff mu^2 trivial
        for q in (7, 11):
            field = construct_field(q)
            for m in range(q - 1):
                mu = char(field, m)
                assert (mu**4).is_trivial == (mu**2).is_trivial


class TestRemarkZ:
    @pytest.mark.parametrize("q,want", [(5, 0), (9, 4), (17, 36)])
    def test_values(self, q, want):
        assert abs(quadratic_kernel_mellin(q) - want) < TOL

    def test_expected_function(self):
        assert quadratic_kernel_expected(5) == 0
        assert quadratic_kernel_expected(13) == 0
        assert quadratic_kernel_expected(9) == 4
        assert quadratic_kernel_expected(25) == 100
        with pytest.raises(ValueError):
            quadratic_kernel_expected(7)


class TestMasterIdentity:
    def test_report_structure_q7(self, ctx7):
        rep = verify_master_identity(ctx7)
        assert rep.suite == "master"
        assert rep.q == 7
        assert rep.a_index == 0
        check_ids = [check_id for check_id, *_ in records(rep)]
        assert check_ids.count("point-identity") == 49
        assert "mellin-match" in check_ids
        assert "gauss-ratio-bridge" in check_ids
        assert rep.all_passed
        assert rep.summary().max_deviation < TOL

    def test_q27_includes_characteristic_three(self):
        tower = build_tower(3, 3)
        rep = verify_master_identity(KatzContext(tower, tower.base.g))
        assert rep.all_passed
        assert len(rep.families["point-identity"]) == 27 * 27

    def test_json_objects(self, ctx7, tmp_path):
        rep = verify_master_identity(ctx7)
        path = tmp_path / "report.json"
        write_json([rep], str(path))
        objs = json.loads(path.read_text())
        assert sum(o["check_id"] == "point-identity" for o in objs) == 49
        assert len(objs) == rep.summary().n_checks
        assert set(objs[0]) == {"suite", "q", "a_index", "check_id", "inputs", "deviation", "pass"}


class TestRootTables:
    # the Katz-path characters C N M8^e of F_{q^2} have orders dividing
    # 4(q-1), since q - 1 = 2 (mod 4); each reads the table of its order
    @pytest.mark.parametrize("p,t", [(7, 1), (3, 3), (59, 1)])
    def test_katz_suites_build_no_full_top_table(self, monkeypatch, p, t):
        tower = FieldTower(p, t)  # its own fiber rows and base memos
        top, q = tower.top, tower.q
        monkeypatch.setitem(top.memo, "root_table", {})  # unbuilt again afterwards
        monkeypatch.setitem(top.memo, "value_table", {})
        ctx = KatzContext(tower, 1)
        for check in (suite_hypergeometric, suite_theorem41, suite_mellin, suite_theorem5x,
                      verify_master_identity):
            assert check(ctx, DEFAULT_POLICY).all_passed
        assert top.order - 1 not in top.memo["root_table"]
        assert top.memo["value_table"] == {}
        assert all(4 * (q - 1) % d == 0 for d in top.memo["root_table"])
        sigma = sum(d for d in range(1, 4 * q - 3) if 4 * (q - 1) % d == 0)
        assert sum(map(len, top.memo["root_table"].values())) <= sigma

    def test_master_q263_allocates_at_most_80_bytes_per_top_element(self):
        # a fresh interpreter: the tower, the context and the master checks
        # at a = 1 peak at about 69 B per element of F_{263^2}, 121 B while
        # every tower built the full root table
        code = (
            "import tracemalloc\n"
            "from charsum.finite_field import build_tower\n"
            "from charsum.katz import KatzContext, verify_master_identity\n"
            "tracemalloc.start()\n"
            "tower = build_tower(263)\n"
            "assert verify_master_identity(KatzContext(tower, 1)).all_passed\n"
            "print(tracemalloc.get_traced_memory()[1] / tower.top.order)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) <= 80


class TestMemoArgumentChecks:
    """A memo reader checks its arguments before it reads the memo, on a hit
    as on a miss: a character of another field whose index has a memoized
    value still raises FieldError."""

    def test_foreign_characters_rejected_after_the_index_is_memoized(self):
        tower = build_tower(7)
        base, ctx = tower.base, KatzContext(tower, 1)
        # F_7 has the generator 3, the tower base 5; the copy of F_49 has the
        # top field's generator but is another field
        other, other_top = construct_field(7), PrimePowerField(7, 2)
        assert other is not base and other_top is not tower.top
        c, m8 = char(base, 1), octic_M8(tower)
        foreign, foreign_m8 = char(other, 1), char(other_top, m8.index)
        memoized = [
            (lambda: mellin_transform(ctx, c), ctx.memo["mellin_transform"], 1),
            (lambda: double_mellin_mixed(ctx, c, c), ctx.memo["double_mellin_mixed"], (1, 1)),
            (lambda: kernel_mellin(c, c), base.memo["kernel_mellin"], (1, 1)),
            (lambda: lifted_gauss(tower, c, m8), tower.memo["fiber_transform"],
             ("gauss", m8.index, 1)),
            (lambda: lifted_jacobi(tower, m8, c), tower.memo["fiber_transform"],
             ("jacobi", m8.index, 1)),
        ]
        for read, memo, key in memoized:
            read()
            assert key in memo
        for read in (
            lambda: mellin_transform(ctx, foreign),
            lambda: double_mellin_mixed(ctx, foreign, c),
            lambda: double_mellin_mixed(ctx, c, foreign),
            lambda: kernel_mellin(c, foreign),
            lambda: lifted_gauss(tower, foreign, m8),
            lambda: lifted_gauss(tower, c, foreign_m8),
            lambda: lifted_jacobi(tower, m8, foreign),
            lambda: lifted_jacobi(tower, foreign_m8, c),
        ):
            with pytest.raises(FieldError):
                read()

    def test_norm_fiber_checks_its_argument_after_a_scan(self):
        tower = build_tower(7)
        assert len(norm_fiber(tower, 1, scan=True)) == 8
        assert "scanned_fibers" in tower.memo
        with pytest.raises(FieldError):
            norm_fiber(tower, construct_field(7).element(1), scan=True)
        with pytest.raises(ValueError):
            norm_fiber(tower, 0, scan=True)

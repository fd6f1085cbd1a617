import ast
import collections
import functools
import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest
from conftest import records
from oracles import kernel_closed_form, kernel_literal

from charsum import classical_sums, harness, hypergeometric, katz
from charsum.characters import (
    char,
    decompose_odd,
    norm_compose,
    octic_M8,
    quadratic_char,
    trivial_char,
)
from charsum.classical_sums import lifted_gauss, lifted_jacobi
from charsum.finite_field import (
    FieldError,
    FieldTower,
    PrimePowerField,
    build_tower,
    construct_field,
    factor_prime_power,
)
from charsum.harness import suite_hypergeometric, suite_mellin, suite_theorem41, suite_theorem5x
from charsum.hypergeometric import norm_fiber
from charsum.katz import (
    KatzContext,
    bridge_sides,
    decompose_q,
    decompose_q_squared,
    double_mellin_mixed,
    double_mellin_product,
    kernel_double_row,
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
    select_char_pairs,
    verify_master_identity,
)
from charsum.report import write_json
from charsum.tolerance import DEFAULT_POLICY

TOL = 1e-10


@pytest.fixture(scope="module")
def ctx7():
    return KatzContext(build_tower(7), 1)


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

    def test_point_identity_at_one(self, ctx7):
        v1 = norm_restricted_gauss(ctx7, 1)
        assert abs(mixed_sum(ctx7, 1, 1) - v1 * v1) < TOL


class TestClosedFormRows:
    """theorem-4.1 and theorem-5.x read the 2F1 and R rows, and no suite may
    fall back to the per-point sums."""

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
        # the base characters' value is their dot product with the kernel row
        want = sum(char(base, 1).value_table()[j] * kernel_row(char(base, 1))[j]
                   for j in range(1, 7))
        assert kernel_mellin(char(base, 1), char(base, 1)) == want

    def test_even_pairs_vanish(self, ctx7):
        base = ctx7.tower.base
        eps, phi = trivial_char(base), quadratic_char(base)
        even = char(base, 2)
        assert abs(double_mellin_mixed(ctx7, even, phi)) < TOL
        assert abs(double_mellin_product(ctx7, phi, even)) < TOL
        assert abs(double_mellin_mixed(ctx7, eps, even)) < TOL


class TestKernel:
    def test_memos_bounded_and_reused_over_a_sweeps(self):
        # a tower of its own, so its base field and fiber memos start empty
        tower = FieldTower(11, 1)
        base = tower.base
        memos = (base.memo["kernel_row"], tower.memo["fiber_row"], tower.memo["bridge_sides"],
                 tower.memo["fiber_transform"])
        sizes = []
        for a in range(1, 11):
            ctx = KatzContext(tower, a)
            suite_mellin(ctx, DEFAULT_POLICY)
            verify_master_identity(ctx, DEFAULT_POLICY)
            sizes.append(tuple(map(len, memos)))
            # S is summed once per context, for each argument read
            assert set(ctx.memo["mellin_transform"]) == set(range(10))
        # the first a fills every memo; the other nine only read them
        assert all(sizes[0])
        assert set(sizes) == {sizes[0]}
        # one value per distinct argument of the sweep: the bridge sides at
        # (M8, nu1, D) for D = mu phi^i, mu = nu1 nu2, whose right side reads
        # the kernel row of D; the lifted sums at C = conj(D), of the Jacobi
        # rows of nu1 N M8^e, the plain Gauss row, and the twisted rows of
        # mellin-single at each odd chi's nu
        phi, m8 = quadratic_char(base), ctx.M8
        bridge_args, lifted_args = set(), set()
        for i1, i2 in select_char_pairs(base):
            if i1 % 2 and i2 % 2:
                nu1 = decompose_odd(char(base, i1))
                mu = nu1 * decompose_odd(char(base, i2))
                for i in (0, 1):
                    d = mu * phi**i
                    bridge_args.add((m8.index, nu1.index, d.index))
                    lifted_args.add(("gauss", 0, d.conj.index))
                    for e in (1, 5):
                        a = norm_compose(tower, nu1) * m8**e
                        lifted_args.add(("jacobi", a.index, d.conj.index))
        for i in range(1, 10, 2):
            nu = decompose_odd(char(base, i))
            lifted_args |= {("gauss", (m8**e).index, nu.index) for e in (1, 5)}
        assert set(tower.memo["bridge_sides"]) == bridge_args
        assert len(bridge_args) <= 10**2
        assert set(base.memo["kernel_row"]) == {d for *_, d in bridge_args}
        assert len(base.memo["kernel_row"]) <= 10
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
        # a memo miss builds its value once: over mellin, theorem-5.x and
        # master at every a, the bridge sides are built once per (M8, nu1, D)
        # and the kernel rows once per D, and each lifted sum reads its row once
        builds, fiber_reads = collections.Counter(), [0]

        def count(name, key):
            real = getattr(katz, name)

            def build(*args):
                builds[key(*args)] += 1
                return real(*args)
            monkeypatch.setattr(katz, name, build)

        count("_build_bridge_sides", lambda ctx, nu1, d: ("sides", ctx.M8.index, nu1, d))
        count("_build_kernel_row", lambda d: ("row", d.index))
        real_fiber_row = classical_sums._fiber_row

        def fiber_row(*args):
            fiber_reads[0] += 1
            return real_fiber_row(*args)
        monkeypatch.setattr(classical_sums, "_fiber_row", fiber_row)
        for q in (7, 11):
            builds.clear()
            fiber_reads[0] = 0
            tower = FieldTower(q, 1)  # its own tower: every memo starts empty
            for a in range(1, q):
                ctx = KatzContext(tower, a)
                for suite in (suite_mellin, suite_theorem5x, verify_master_identity):
                    suite(ctx, DEFAULT_POLICY)
            assert set(builds.values()) == {1}
            assert set(builds) == ({("sides", *key) for key in tower.memo["bridge_sides"]}
                                   | {("row", d) for d in range(q - 1)})
            assert fiber_reads[0] == len(tower.memo["fiber_transform"]) > 0

    @pytest.mark.parametrize("q", [7, 11])
    def test_bridge_sides_do_not_read_a(self, monkeypatch, q):
        # the sides of every (nu1, D), built from a = 1 and again from a = g
        # with the memo emptied in between, agree bit for bit
        tower = build_tower(q)
        monkeypatch.setitem(tower.memo, "bridge_sides", {})
        args = [(nu1, d) for nu1 in range(q - 1) for d in range(q - 1)]
        at_one = [bridge_sides(KatzContext(tower, 1), *arg) for arg in args]
        tower.memo["bridge_sides"].clear()
        ctx = KatzContext(tower, tower.base.g)
        assert [bridge_sides(ctx, *arg) for arg in args] == at_one
        assert len(tower.memo["bridge_sides"]) == len(args)

    @pytest.mark.parametrize("q", [7, 11])
    def test_octic_sweep_keeps_each_variants_sides(self, monkeypatch, q):
        # M8 is in the key for bit-stability, not for correctness: the value
        # of each side does not depend on the octic, but its rounding does,
        # through the fiber rows it sums.  After an --octic-variants sweep,
        # each variant's entries equal a fresh build for that variant
        monkeypatch.delenv(harness.ENV_PARALLELISM, raising=False)
        tower = build_tower(q, 1)  # the tower that the run reads
        monkeypatch.setitem(tower.memo, "bridge_sides", {})
        config = harness.RunConfig(fields=[(q, 1)], suites=["mellin", "theorem-5.x", "master"],
                                   a_policy="sample-2", octic_variants=True)
        assert harness.run(config)[0] == 0
        filled = len(tower.memo["bridge_sides"])
        args = [(nu1, d) for nu1 in range(q - 1) for d in range(q - 1)]  # theorem-5.x reads all
        for variant in (1, 3, 5, 7):
            ctx = KatzContext(tower, 1, variant)
            fresh = KatzContext(FieldTower(q, 1), 1, variant)  # a tower of its own
            for arg in args:
                assert bridge_sides(ctx, *arg) == katz._build_bridge_sides(fresh, *arg), arg
        assert len(tower.memo["bridge_sides"]) == filled == 4 * len(args)  # every read a hit

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

    @pytest.mark.parametrize("p,t", [(7, 1), (11, 1), (3, 3)])
    def test_bridge_identity_exhaustive(self, monkeypatch, p, t):
        # every (nu1, D) at two primes and at p = 3, where the suites
        # read only the selected pairs; the memo holds exactly those keys
        tower = build_tower(p, t)
        monkeypatch.setitem(tower.memo, "bridge_sides", {})  # start and end it clean
        ctx, n = KatzContext(tower, tower.base.g), tower.q - 1
        for ni in range(n):
            for di in range(n):
                lhs, rhs = bridge_sides(ctx, ni, di)
                assert abs(lhs - rhs) < TOL
        want = {(ctx.M8.index, ni, di) for ni in range(n) for di in range(n)}
        assert set(tower.memo["bridge_sides"]) == want

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
        tower = build_tower(11)
        monkeypatch.setitem(tower.memo, "bridge_sides", {})  # start and end it clean
        ctx = KatzContext(tower, 1)
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


class TestMellinReader:
    def test_double_row_reads_no_kernel_row_transform_or_memo(self):
        # the oracle of kernel-double-sum shares nothing with the routes it checks
        tree = ast.parse(textwrap.dedent(inspect.getsource(katz.kernel_double_row)))
        body = tree.body[0].body[1:]  # past the docstring
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        read |= {n.attr for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        assert not read & {"kernel_row", "reduction_row", "mellin", "kernel_mellin", "gauss_sums",
                           "memoized", "memo"}, read

    @pytest.mark.parametrize("q", [7, 19])
    def test_theorem5x_builds_the_double_row_once(self, monkeypatch, q):
        calls = []

        def counted(field):
            calls.append(field)
            return kernel_double_row(field)

        monkeypatch.setattr(harness, "kernel_double_row", counted)
        rep = suite_theorem5x(KatzContext(build_tower(q), 1), DEFAULT_POLICY)
        assert calls == [build_tower(q).base]
        assert len(rep.families["kernel-double-sum"]) == min(q - 1, 6)


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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_master_q263_allocates_at_most_80_bytes_per_top_element(self):
        # a fresh interpreter, which reads the growth of its own peak resident
        # memory (VmHWM, in kB), not the allocations it traces, over the tower,
        # the context and the master checks at a = 1: about 62 B per element of
        # F_{263^2}, 101 B with the full root table of the top field read first.
        # Its ru_maxrss would not do: it starts at the peak of the process that
        # spawned it, here pytest's
        code = (
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status if 'VmHWM' in line)\n"
            "from charsum.finite_field import build_tower\n"
            "from charsum.katz import KatzContext, verify_master_identity\n"
            "start = peak()\n"
            "tower = build_tower(263)\n"
            "assert verify_master_identity(KatzContext(tower, 1)).all_passed\n"
            "print((peak() - start) * 1024 / tower.top.order)\n"
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
            (lambda: lifted_gauss(tower, c, m8), tower.memo["fiber_transform"],
             ("gauss", m8.index, 1)),
            (lambda: lifted_jacobi(tower, m8, c), tower.memo["fiber_transform"],
             ("jacobi", m8.index, 1)),
        ]
        for read, memo, key in memoized:
            read()
            assert key in memo
        # kernel_mellin and double_mellin_mixed keep no memo, and check all the same
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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Integer anchors were derived by an independent oracle (Euler-criterion
quadratic character over a standalone polynomial field) before this package
was built; the tests compare the package's literal sums against them.
"""

import pytest
from test_routes import check

from charsum.characters import octic_M8
from charsum.finite_field import build_tower, factor_prime_power
from charsum.harness import (
    suite_classical,
    suite_eisenstein,
    suite_mellin,
    suite_theorem41,
)
from charsum.katz import (
    KatzContext,
    kernel_double_sum,
    quadratic_kernel_mellin,
    verify_master_identity,
)
from charsum.tolerance import DEFAULT_POLICY

MASTER_Q = (3, 7, 11, 19, 23, 27, 31)
MELLIN_Q = (3, 7, 11)
THEOREM41_Q = (3, 7, 11, 19, 27)
CLASSICAL_Q = (3, 7, 11)
ORACLE_Q = (3, 7, 11)
ORACLE_ROUTES = ("double_mellin_product:literal", "norm_fiber:norm_fiber(scan)",
                 "norm_restricted_jacobi:fiber_sum", "v_vector:v_scanned")

# independent-oracle anchors, frozen before the build
DOUBLE_SUM_ANCHORS = {7: 14, 11: 14, 19: -34, 23: 46, 27: 46}
REMARK_Z_ANCHORS = {5: 0, 13: 0, 9: 4, 17: 36, 25: 100, 49: 196}


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def towers(qs):
    for q in qs:
        yield q, build_tower(*factor_prime_power(q))


def test_criterion_1_master_identity_all_q_all_a():
    worst = 0.0
    n = 0
    for q, tower in towers(MASTER_Q):
        for a in range(1, q):
            rep = verify_master_identity(KatzContext(tower, a))
            point = rep.families["point-identity"].summary()
            worst = max(worst, point.max_deviation)
            n += point.n_checks
            if not rep.all_passed:
                report("1 (master identity)", False, f"q={q}, a={a} failed")
    tol = DEFAULT_POLICY.abs_tol(max(MASTER_Q), 4 * max(MASTER_Q))
    report(
        "1 (master identity, q in {3..31} incl. p=3, all a)",
        worst <= tol,
        f"{n} point checks, max deviation {worst:.3g} <= {tol:.3g}",
    )


def test_criterion_2_mellin_suites():
    worst = 0.0
    n = 0
    for q, tower in towers(MELLIN_Q):
        for a in range(1, q):
            rep = suite_mellin(KatzContext(tower, a), DEFAULT_POLICY)
            worst = max(worst, rep.summary().max_deviation)
            n += rep.summary().n_checks
            if not rep.all_passed:
                report("2 (Mellin)", False, f"q={q}, a={a} failed")
    tol = DEFAULT_POLICY.abs_tol(11, 11**3)
    report(
        "2 (single/double Mellin transforms, q in {3,7,11}, all characters, all a)",
        worst <= tol,
        f"{n} checks, max deviation {worst:.3g} <= {tol:.3g}",
    )


def test_criterion_3_norm_jacobi_hypergeometric():
    worst = 0.0
    n = 0
    for q, tower in towers(THEOREM41_Q):
        rep = suite_theorem41(KatzContext(tower, 1), DEFAULT_POLICY)
        worst = max(worst, rep.summary().max_deviation)
        n += rep.summary().n_checks
        if not rep.all_passed:
            report("3 (hypergeometric reduction)", False, f"q={q} failed")
    tol = DEFAULT_POLICY.abs_tol(27, 4 * 27 * 27)
    report(
        "3 (norm-restricted Jacobi = 2F1 reduction, all (D, j), q in {3,7,11,19,27})",
        worst <= tol,
        f"{n} checks, max deviation {worst:.3g} <= {tol:.3g}",
    )


def test_criterion_4_double_sum_anchors():
    worst = 0.0
    for q, anchor in DOUBLE_SUM_ANCHORS.items():
        val = kernel_double_sum(q)
        tol = DEFAULT_POLICY.abs_tol(q, 4 * q * q)
        dev = max(abs(val - anchor), abs(val.imag))
        worst = max(worst, dev)
        if dev > tol:
            report("4 (double-sum anchors)", False, f"q={q}: got {val}, want {anchor}")
    report(
        "4 (weighted double-sum integer anchors 14, 14, -34, 46, 46)",
        True,
        f"max deviation {worst:.3g}",
    )


def test_criterion_5_remark_z_anchors():
    worst = 0.0
    for q, anchor in REMARK_Z_ANCHORS.items():
        val = quadratic_kernel_mellin(q)
        tol = DEFAULT_POLICY.abs_tol(q, 4 * q * q)
        dev = max(abs(val - anchor), abs(val.imag))
        worst = max(worst, dev)
        if dev > tol:
            report("5 (Z anchors)", False, f"q={q}: got {val}, want {anchor}")
    report(
        "5 (Z evaluations 0, 0, 4, 36, 100, 196 at q = 5, 13, 9, 17, 25, 49)",
        True,
        f"max deviation {worst:.3g}",
    )


def test_criterion_6_classical_invariants():
    worst = 0.0
    n = 0
    for q, tower in towers(CLASSICAL_Q):
        for suite in (suite_classical, suite_eisenstein):
            rep = suite(tower, DEFAULT_POLICY)
            worst = max(worst, rep.summary().max_deviation)
            n += rep.summary().n_checks
            if not rep.all_passed:
                report("6 (classical sums)", False, f"q={q} {rep.suite} failed")
    tol = DEFAULT_POLICY.abs_tol(11, 4 * 121)
    report(
        "6 (Gauss/Jacobi/Eisenstein relations, exhaustive, q in {3,7,11})",
        worst <= tol,
        f"{n} checks, max deviation {worst:.3g} <= {tol:.3g}",
    )


def test_criterion_7_oracle_equivalence():
    # the rows of the route table whose oracles are the debug-mode scans and
    # literal sums, at each q of ORACLE_Q
    devs = [dev for name in ORACLE_ROUTES for q in ORACLE_Q for dev in check(name, str(q))]
    tol = DEFAULT_POLICY.abs_tol(11, 11**3)
    report(
        "7 (debug-mode literal sums agree with optimized paths, q <= 11)",
        max(devs) <= tol,
        f"{len(devs)} comparisons, max deviation {max(devs):.3g} <= {tol:.3g}",
    )


def test_criterion_8_octic_variants():
    tower = build_tower(7)
    n2 = tower.top.order - 1
    squares = {(octic_M8(tower, v) ** 2).index for v in (1, 3, 5, 7)}
    assert squares == {n2 // 4, 3 * n2 // 4}  # both quartics compatible with order 8
    worst = 0.0
    n = 0
    for variant in (1, 3, 5, 7):
        for a in range(1, 7):
            ctx = KatzContext(tower, a, m8_variant=variant)
            rep = verify_master_identity(ctx)
            point = rep.families["point-identity"].summary()
            worst = max(worst, point.max_deviation)
            n += point.n_checks
            if not rep.all_passed:
                report("8 (octic variants)", False, f"variant={variant}, a={a} failed")
    tol = DEFAULT_POLICY.abs_tol(7, 4 * 7)
    report(
        "8 (master identity at q=7 for all four octic characters)",
        worst <= tol,
        f"{n} point checks, max deviation {worst:.3g} <= {tol:.3g}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))

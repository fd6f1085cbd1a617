"""The transform rows that the a-independent suites read, against their
literal oracles, and shifted rows, which must fail the suites that read them.

Each row sums the same terms as its oracle in another order, so the two
agree to ROUTE_TOL, not bit for bit."""

import cmath
import math
import subprocess
import sys

import pytest
from conftest import ROUTE_TOL, records

from charsum import classical_sums, harness, hypergeometric
from charsum.characters import char
from charsum.classical_sums import (
    eisenstein_E,
    eisenstein_E2,
    eisenstein_sums,
    jacobi,
    jacobi_row,
    log_dft,
)
from charsum.finite_field import FieldTower, build_tower, factor_prime_power
from charsum.hypergeometric import norm_jacobi_table, norm_restricted_jacobi
from charsum.katz import KatzContext
from charsum.tolerance import DEFAULT_POLICY

QS = [7, 11, 27, 59]


def tower_of(q):
    return build_tower(*factor_prime_power(q))


def failed_ids(rep) -> set[str]:
    return {check_id for check_id, _, _, passed in records(rep) if not passed}


@pytest.mark.parametrize("q", [3, *QS, 17, 263])  # n = 2, a power of 2, and 262
def test_log_dft_equals_the_defining_sum(q):
    base = tower_of(q).base
    n = base.order - 1
    x = [complex(math.sin(m), m % 3) for m in range(n)]
    # the angle reduced as km mod n: unreduced, its own error reaches 1e-11 at n = 262
    want = [sum(x[m] * cmath.exp(2j * math.pi * (k * m % n) / n) for m in range(n))
            for k in range(n)]
    assert max(abs(u - v) for u, v in zip(log_dft(base, x), want)) <= ROUTE_TOL


def test_log_dft_keeps_under_128_kb_at_q263():
    # a fresh interpreter; the plan kept on F_263 (chirp, 512 twiddles and a
    # spectrum of length 1024) takes about 71 KB, the 262 x 262 table of
    # references that it replaced 561 KB
    code = (
        "import tracemalloc\n"
        "from charsum.classical_sums import log_dft\n"
        "from charsum.finite_field import build_tower\n"
        "base = build_tower(263).base\n"
        "x = [complex(m % 5, 1) for m in range(262)]\n"
        "tracemalloc.start()\n"
        "log_dft(base, x)\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 128 * 1024


@pytest.mark.parametrize("q", QS)
def test_eisenstein_rows_equal_the_line_sums(q):
    tower = tower_of(q)
    e2, e = eisenstein_sums(tower)
    assert len(e2) == len(e) == tower.top.order - 1
    for k in range(tower.top.order - 1):
        beta = char(tower.top, k)
        assert abs(e2[k] - eisenstein_E2(tower, beta)) <= ROUTE_TOL
        assert abs(e[k] - eisenstein_E(tower, beta)) <= ROUTE_TOL


@pytest.mark.parametrize("q", QS)
def test_jacobi_rows_equal_the_literal_sums(q):
    base = tower_of(q).base
    chars = [char(base, i) for i in range(q - 1)]
    for a in chars:
        row = jacobi_row(a)
        assert max(abs(row[b.index] - jacobi(a, b)) for b in chars) <= ROUTE_TOL


@pytest.mark.parametrize("q", QS)
def test_norm_jacobi_table_equals_the_scanned_walks(q):
    tower = tower_of(q)
    base = tower.base
    ctx = KatzContext(tower, 1)
    table = norm_jacobi_table(ctx)
    assert len(table) == (q - 1) // 2  # j^4 takes each square once
    for j in range(1, q):
        entries = table[base.pow_code(j, 4)]
        for d in range(q - 1):
            want = norm_restricted_jacobi(ctx, char(base, d), j, scan=True)
            assert abs(entries[d] - want) <= ROUTE_TOL


class TestShiftedRows:
    """A row read one index off fails the suite that reads it, and only the
    families that read it."""

    @pytest.mark.parametrize("q", [7, 11, 27])
    def test_shifted_e2_row_fails_eisenstein(self, monkeypatch, q):
        real = classical_sums.eisenstein_sums

        def shifted(tower):
            e2, e = real(tower)
            return e2[1:] + e2[:1], e

        monkeypatch.setattr(harness, "eisenstein_sums", shifted)  # the suite's one read
        rep = harness.suite_eisenstein(tower_of(q), DEFAULT_POLICY)
        assert failed_ids(rep) == {
            "eisenstein-trivial", "eisenstein-shift", "eisenstein-gauss-ratio",
        }

    @pytest.mark.parametrize("q", [7, 11, 27])
    def test_one_shifted_jacobi_row_fails_classical(self, monkeypatch, q):
        real = classical_sums.jacobi_row

        def rows(a):
            row = real(a)
            return row[1:] + row[:1] if a.index == 1 else row

        monkeypatch.setattr(harness, "jacobi_row", rows)
        rep = harness.suite_classical(tower_of(q), DEFAULT_POLICY)
        assert failed_ids(rep) == {"jacobi-inverse", "gauss-jacobi-bridge", "jacobi-reflection"}

    @pytest.mark.parametrize("q", [7, 11, 27])
    def test_shifted_norm_jacobi_table_fails_its_readers(self, monkeypatch, q):
        # R(D*chi_1, j) served as R(D, j); a copy, and a fresh context whose
        # rows are built from it
        real = hypergeometric.norm_jacobi_table
        monkeypatch.setattr(
            hypergeometric, "norm_jacobi_table",
            lambda ctx: {j4: r[1:] + r[:1] for j4, r in real(ctx).items()},
        )
        tower = FieldTower(*factor_prime_power(q))
        ctx = KatzContext(tower, tower.base.g)
        failed = {
            name: failed_ids(harness.SUITES[name].check(ctx, DEFAULT_POLICY))
            for name in ("hypergeometric", "theorem-4.1", "theorem-5.x")
        }
        assert failed == {
            "hypergeometric": {"fiber-jacobi-even"},
            "theorem-4.1": {"fiber-jacobi-hyp"},
            "theorem-5.x": {"fiber-transform"},
        }

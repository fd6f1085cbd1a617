"""The transform rows that the a-independent suites read, against their
literal oracles (shifted rows are rows of test_mutations).

Each row sums the same terms as its oracle in another order, so the two
agree to ROUTE_TOL, not bit for bit."""

import cmath
import math
import subprocess
import sys

import pytest
from conftest import ROUTE_TOL

from charsum.characters import char
from charsum.classical_sums import (
    eisenstein_E,
    eisenstein_E2,
    eisenstein_sums,
    jacobi,
    jacobi_row,
    log_dft,
)
from charsum.finite_field import build_tower, factor_prime_power
from charsum.hypergeometric import norm_jacobi_table, norm_restricted_jacobi
from charsum.katz import KatzContext

QS = [7, 11, 27, 59]


def tower_of(q):
    return build_tower(*factor_prime_power(q))


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

"""Gauss, Jacobi and Eisenstein sums, plus their classical closed-form checks.

Every sum here is computed by literal summation; the closed forms (the
Hasse-Davenport product and lifting relations, the quartic Gauss-sum
evaluation, the Eisenstein/Gauss ratio) appear only inside check functions,
so each check compares two independently computed values.

Gauss and Jacobi sums do not depend on the parameter a, so both are memoized
on the field object, and every a-task of one process reuses them.  Gauss sums
are keyed by character index (at most q*-1 values per field of order q*);
Jacobi sums by the ordered pair of indices (at most the distinct pairs
requested, itself at most (q*-1)^2).  A memo stores exactly what the literal
sum returns, so no check's two sides share a value they would not share
without it.
"""

from .characters import MultChar, norm_compose, octic_M8, quadratic_char, restrict_to_base
from .finite_field import FieldError, FieldTower
from .tolerance import default_tol

GAUSS_CSV_COLUMNS = ("field_order", "char_index", "re", "im")


def gauss_literal(a: MultChar) -> complex:
    """G(A) = sum_y A(y) psi(y), always by literal summation (no memo)."""
    ta = a.value_table()
    psi = a.field.psi_table
    return sum(ta[y] * psi[y] for y in range(1, a.field.order))


def gauss(a: MultChar) -> complex:
    """G(A), memoized on the field by character index."""
    memo = a.field._gauss_memo
    val = memo.get(a.index)
    if val is None:
        val = memo[a.index] = gauss_literal(a)
    return val


def jacobi(a: MultChar, b: MultChar) -> complex:
    """J(A, B) = sum_y A(y) B(1 - y), memoized on the field by the ordered
    pair of character indices (J(A, B) and J(B, A) are summed separately)."""
    if a.field is not b.field:
        raise FieldError("Jacobi sum needs characters on the same field")
    field = a.field
    key = (a.index, b.index)
    val = field._jacobi_memo.get(key)
    if val is None:
        ta, tb = a.value_table(), b.value_table()
        om = field.one_minus
        val = field._jacobi_memo[key] = sum(ta[y] * tb[om[y]] for y in range(1, field.order))
    return val


def gauss_table_rows(field):
    """(field_order, char_index, re, im) for every character; cache format."""
    for index in range(field.order - 1):
        val = gauss(MultChar(field, index))
        yield (field.order, index, val.real, val.imag)


def eisenstein_E2(tower: FieldTower, beta: MultChar) -> complex:
    """E2(beta): sum of beta over the affine trace-one line z + z^q = 1."""
    if beta.field is not tower.top:
        raise FieldError("E2 needs a character on the tower's top field")
    tb = beta.value_table()
    return sum(tb[z] for z in tower.trace_line)


def eisenstein_E(tower: FieldTower, beta: MultChar) -> complex:
    """E(beta) = sum_{y in F_q} beta(1 + i*y)."""
    if beta.field is not tower.top:
        raise FieldError("E needs a character on the tower's top field")
    return sum(map(beta.value_table().__getitem__, tower.i_line), 0j)


# ---------------------------------------------------------------------------
# closed-form cross-checks


def hasse_davenport_product_deviation(a: MultChar) -> float:
    """|A(4) G(A) G(A*phi) - G(A^2) G(phi)|."""
    phi = quadratic_char(a.field)
    lhs = a(4) * gauss(a) * gauss(a * phi)
    rhs = gauss(a**2) * gauss(phi)
    return abs(lhs - rhs)


def check_hasse_davenport_product(a: MultChar, tol: float | None = None) -> bool:
    if tol is None:
        tol = default_tol(a.field.order, 4 * a.field.order)
    return hasse_davenport_product_deviation(a) <= tol


def lifted_gauss_deviation(tower: FieldTower, c: MultChar) -> float:
    """Lifting relation G2(CN) = -G(C)^2, plus the conjugation instance
    G2(CN*M8) = G2((CN*M8)^q)."""
    if c.field is not tower.base:
        raise FieldError("lifted-Gauss check needs a base-field character")
    cn = norm_compose(tower, c)
    dev = abs(gauss(cn) - (-gauss(c) ** 2))
    beta = cn * octic_M8(tower)
    dev = max(dev, abs(gauss(beta) - gauss(beta**tower.q)))
    return dev


def check_lifted_gauss(tower: FieldTower, c: MultChar, tol: float | None = None) -> bool:
    if tol is None:
        tol = default_tol(tower.q, 4 * tower.top.order)
    return lifted_gauss_deviation(tower, c) <= tol


def quartic_gauss_deviation(tower: FieldTower, c: MultChar) -> float:
    """G2(CN*M4) = G2(CN*conj(M4)) = -(conj(C)^2 phi)(2) G(C^2 phi) G(phi)."""
    if c.field is not tower.base:
        raise FieldError("quartic-Gauss check needs a base-field character")
    if tower.q % 4 != 3:
        raise ValueError("quartic Gauss evaluation requires q = 3 (mod 4)")
    phi = quadratic_char(tower.base)
    m4 = octic_M8(tower) ** 2
    cn = norm_compose(tower, c)
    lhs1 = gauss(cn * m4)
    lhs2 = gauss(cn * m4.conj)
    rhs = -(c.conj**2 * phi)(2) * gauss(c**2 * phi) * gauss(phi)
    return max(abs(lhs1 - rhs), abs(lhs2 - rhs))


def check_quartic_gauss(tower: FieldTower, c: MultChar, tol: float | None = None) -> bool:
    if tol is None:
        tol = default_tol(tower.q, 4 * tower.top.order)
    return quartic_gauss_deviation(tower, c) <= tol


def eisenstein_shift_deviation(tower: FieldTower, beta: MultChar) -> float:
    """|E(beta) - beta(2) E2(beta)|."""
    return abs(eisenstein_E(tower, beta) - beta(2) * eisenstein_E2(tower, beta))


def eisenstein_gauss_deviation(tower: FieldTower, beta: MultChar) -> float:
    """E2 against its Gauss-sum evaluation, for nontrivial beta:
    G2(beta)/G(beta*) if the restriction beta* is nontrivial, else -G2(beta)/q.
    """
    if beta.is_trivial:
        raise ValueError("the Gauss evaluation of E2 needs nontrivial beta")
    star = restrict_to_base(tower, beta)
    lhs = eisenstein_E2(tower, beta)
    if star.is_trivial:
        rhs = -gauss(beta) / tower.q
    else:
        rhs = gauss(beta) / gauss(star)
    return abs(lhs - rhs)

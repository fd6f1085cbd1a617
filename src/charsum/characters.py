"""Multiplicative characters on F_q and F_{q^2}.

A multiplicative character is just an index modulo q*-1: it sends g^k to
exp(2*pi*i*index*k/(q*-1)) and 0 to 0.  Keeping characters as indices makes
products, powers, conjugates and norm composition exact integer operations;
only the final complex value is floating point.  Each (field, index) has
one MultChar, which char builds on first read into field.memo["char"] and
every operation returns, so equal characters are one object.  A single
value is computed by the expression of the field's root tables, so it
equals their entry bit for bit and builds no table; a value table reads the
field's full table unity_roots.  Sums that read a few characters of F_{q^2}
over many points read field.char_roots instead: the table of each
character's own order.  The canonical additive character psi(y) =
exp(2*pi*i*Tr(y)/p) is the field's psi_table, indexed by code.
"""

import cmath
import math
import operator

from .finite_field import FieldError, FieldTower, PrimePowerField, memoized


class MultChar:
    """Multiplicative character of a fixed field, given by its dlog index;
    built only by char, once per (field, index)."""

    __slots__ = ("field", "index")

    def __init__(self, field: PrimePowerField, index: int):
        n = field.order - 1
        if not 0 <= index < n:
            raise ValueError(f"character index {index} out of range [0, {n})")
        self.field = field
        self.index = index

    def __call__(self, x) -> complex:
        code = self.field.scalar(x)
        if code == 0:
            return 0j
        n = self.field.order - 1
        return cmath.exp(2j * math.pi * (self.index * self.field.dlog[code] % n) / n)

    def value_table(self) -> list[complex]:
        """Values indexed by element code, memoized on the field by index."""
        return memoized(self.field.memo["value_table"], self.index, self._build_value_table)

    def _build_value_table(self) -> list[complex]:
        field, idx = self.field, self.index
        n, roots, dlog = field.order - 1, field.unity_roots, field.dlog
        return [0j] + [roots[(idx * dlog[c]) % n] for c in range(1, field.order)]

    # characters of one field form a group under pointwise multiplication
    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise FieldError("characters live on different fields")
        return char(self.field, (self.index + other.index) % (self.field.order - 1))

    def __pow__(self, e: int) -> "MultChar":
        return char(self.field, (self.index * e) % (self.field.order - 1))

    @property
    def conj(self) -> "MultChar":
        return char(self.field, (-self.index) % (self.field.order - 1))

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def is_odd(self) -> bool:
        """chi(-1) == -1.  Since -1 = g^((q*-1)/2), this is the index parity."""
        return self.index % 2 == 1

    @property
    def order(self) -> int:
        n = self.field.order - 1
        return n // math.gcd(n, self.index)

    def __repr__(self):
        return f"MultChar(index={self.index}, field order {self.field.order})"


def char(field: PrimePowerField, index: int) -> MultChar:
    """The one MultChar of (field, index), kept in field.memo["char"]: it sends
    the field generator to e^(2*pi*i*index/(q*-1)).  The index is read through
    operator.index, as element codes are, before the memo is read."""
    index = operator.index(index)
    return memoized(field.memo["char"], index, MultChar, field, index)


def trivial_char(field: PrimePowerField) -> MultChar:
    return char(field, 0)


def quadratic_char(field: PrimePowerField) -> MultChar:
    """phi: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
    return char(field, (field.order - 1) // 2)


def octic_M8(tower: FieldTower, variant: int = 1) -> MultChar:
    """A fixed octic character M8 on F_{q^2} (exact order 8).

    variant selects among the four octic characters; variants 1 and 5 square
    to the same quartic M4, variants 3 and 7 to its conjugate.
    """
    if variant not in (1, 3, 5, 7):
        raise ValueError("octic variant must be one of 1, 3, 5, 7")
    n2 = tower.top.order - 1
    return char(tower.top, (variant * (n2 // 8)) % n2)


def norm_compose(tower: FieldTower, c: MultChar) -> MultChar:
    """CN: the base-field character C composed with the norm map.

    Because the tower fixes g = norm(g2), this is the pure index operation
    index -> index * (q + 1), and CN(z) == C(norm(z)) holds exactly.
    """
    if c.field is not tower.base:
        raise FieldError("norm_compose needs a character on the tower's base field")
    n2 = tower.top.order - 1
    return char(tower.top, (c.index * (tower.q + 1)) % n2)


def restrict_to_base(tower: FieldTower, beta: MultChar) -> MultChar:
    """beta*: the restriction of a top-field character to F_q*."""
    if beta.field is not tower.top:
        raise FieldError("restrict_to_base needs a character on the tower's top field")
    return char(tower.base, beta.index % (tower.q - 1))


def delta(chi: MultChar) -> int:
    """1 if chi is trivial, else 0."""
    return 1 if chi.index == 0 else 0


def decompose_odd(chi: MultChar) -> MultChar:
    """For odd chi on F_q (q = 3 mod 4), the smallest nu with phi*nu^4 = chi.

    The congruence 4n = chi.index - (q-1)/2 (mod q-1) has two solutions,
    n0 and n0 + h for h = (q-1)/2; the smaller one is returned, which also
    makes nu^2 even.  With h odd, t = chi.index - h is even, and n0 is
    (t/2) times the inverse (h+1)/2 of 2 mod h, reduced mod h.
    """
    if not chi.is_odd():
        raise ValueError("decompose_odd is only defined for odd characters")
    h = (chi.field.order - 1) // 2
    if h % 2 != 1:
        raise ValueError("decompose_odd requires q = 3 (mod 4)")
    t = (chi.index - h) % (2 * h)
    return char(chi.field, t // 2 * ((h + 1) // 2) % h)

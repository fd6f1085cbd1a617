"""Multiplicative characters on F_q and F_{q^2}.

A multiplicative character is just an index modulo q*-1: it sends g^k to
exp(2*pi*i*index*k/(q*-1)) and 0 to 0.  Keeping characters as indices makes
products, powers, conjugates and norm composition exact integer operations;
only the final complex value is floating point.  A single value is computed
by the expression of the field's root tables, so it equals their entry bit
for bit and builds no table; a value table reads the field's full table
unity_roots.  Sums that read a few characters of F_{q^2} over many points
read field.char_roots instead: the table of each character's own order.
The canonical additive character psi(y) = exp(2*pi*i*Tr(y)/p) is the
field's psi_table, indexed by code.
"""

import cmath
import math
import operator

from .finite_field import FieldElement, FieldError, FieldTower, PrimePowerField


class MultChar:
    """Multiplicative character of a fixed field, given by its dlog index."""

    __slots__ = ("field", "index")

    def __init__(self, field: PrimePowerField, index: int):
        n = field.order - 1
        if not 0 <= index < n:
            raise ValueError(f"character index {index} out of range [0, {n})")
        self.field = field
        self.index = index

    def __call__(self, x) -> complex:
        if isinstance(x, FieldElement):
            if x.field is not self.field:
                raise FieldError("element belongs to a different field")
            code = x.code
        else:
            code = operator.index(x) % self.field.p  # integers are scalars, as in the formulas
        if code == 0:
            return 0j
        n = self.field.order - 1
        return cmath.exp(2j * math.pi * (self.index * self.field.dlog[code] % n) / n)

    def value_table(self) -> list[complex]:
        """Values indexed by element code (cached per field and index)."""
        cached = self.field._char_tables.get(self.index)
        if cached is None:
            n = self.field.order - 1
            roots, dlog = self.field.unity_roots, self.field.dlog
            idx = self.index
            cached = [0j] + [roots[(idx * dlog[c]) % n] for c in range(1, self.field.order)]
            self.field._char_tables[self.index] = cached
        return cached

    # characters of one field form a group under pointwise multiplication
    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise FieldError("characters live on different fields")
        n = self.field.order - 1
        return MultChar(self.field, (self.index + other.index) % n)

    def __pow__(self, e: int) -> "MultChar":
        n = self.field.order - 1
        return MultChar(self.field, (self.index * e) % n)

    @property
    def conj(self) -> "MultChar":
        n = self.field.order - 1
        return MultChar(self.field, (-self.index) % n)

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

    def __eq__(self, other):
        return (
            isinstance(other, MultChar)
            and other.field is self.field
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __repr__(self):
        return f"MultChar(index={self.index}, field order {self.field.order})"


def char(field: PrimePowerField, index: int) -> MultChar:
    """The character sending the field generator to e^(2*pi*i*index/(q*-1))."""
    return MultChar(field, index)


def trivial_char(field: PrimePowerField) -> MultChar:
    return MultChar(field, 0)


def quadratic_char(field: PrimePowerField) -> MultChar:
    """phi: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
    return MultChar(field, (field.order - 1) // 2)


def octic_M8(tower: FieldTower, variant: int = 1) -> MultChar:
    """A fixed octic character M8 on F_{q^2} (exact order 8).

    variant selects among the four octic characters; variants 1 and 5 square
    to the same quartic M4, variants 3 and 7 to its conjugate.
    """
    if variant not in (1, 3, 5, 7):
        raise ValueError("octic variant must be one of 1, 3, 5, 7")
    n2 = tower.top.order - 1
    return MultChar(tower.top, (variant * (n2 // 8)) % n2)


def norm_compose(tower: FieldTower, c: MultChar) -> MultChar:
    """CN: the base-field character C composed with the norm map.

    Because the tower fixes g = norm(g2), this is the pure index operation
    index -> index * (q + 1), and CN(z) == C(norm(z)) holds exactly.
    """
    if c.field is not tower.base:
        raise FieldError("norm_compose needs a character on the tower's base field")
    n2 = tower.top.order - 1
    return MultChar(tower.top, (c.index * (tower.q + 1)) % n2)


def restrict_to_base(tower: FieldTower, beta: MultChar) -> MultChar:
    """beta*: the restriction of a top-field character to F_q*."""
    if beta.field is not tower.top:
        raise FieldError("restrict_to_base needs a character on the tower's top field")
    return MultChar(tower.base, beta.index % (tower.q - 1))


def delta(chi: MultChar) -> int:
    """1 if chi is trivial, else 0."""
    return 1 if chi.index == 0 else 0


def decompose_odd(chi: MultChar) -> MultChar:
    """For odd chi on F_q (q = 3 mod 4), the smallest nu with phi*nu^4 = chi.

    The congruence 4n = chi.index - (q-1)/2 (mod q-1) has two solutions;
    the smaller one is returned, which also makes nu^2 even.
    """
    if not chi.is_odd():
        raise ValueError("decompose_odd is only defined for odd characters")
    n = chi.field.order - 1
    if (n // 2) % 2 != 1:
        raise ValueError("decompose_odd requires q = 3 (mod 4)")
    target = (chi.index - n // 2) % n
    for cand in range(n):
        if (4 * cand) % n == target:
            return MultChar(chi.field, cand)
    raise ValueError("no decomposition found")  # unreachable for odd chi

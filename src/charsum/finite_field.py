"""Prime-power finite fields F_{p^m} on a polynomial basis.

Elements are identified with integer codes in [0, p^m): the code is the
base-p reading of the coefficient vector (c0 + c1*p + c2*p^2 + ...).
Construction is deterministic: the modulus is the lexicographically smallest
monic irreducible (coefficients compared low-degree first) and the generator
is the one with the smallest code, so two builds of the same field agree
table for table.  Every field carries an eagerly built discrete-log table,
which makes multiplication and character evaluation O(1).

The quadratic tower F_q inside F_{q^2} is built as a single degree-2t
extension of F_p; the subfield is carved out by the Frobenius fixed-point
criterion z^q = z.
"""

import cmath
import itertools
import math
from functools import lru_cache

SIZE_GUARD = 1 << 20  # dlog tables are built eagerly; refuse fields beyond this


class FieldError(ValueError):
    """Invalid field construction or element usage."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^t for an odd prime p, or raise FieldError."""
    if q < 3:
        raise FieldError(f"q = {q} is not an odd prime power > 2")
    for p in range(2, q + 1):
        if q % p == 0:
            t = 0
            r = q
            while r % p == 0:
                r //= p
                t += 1
            if r != 1:
                raise FieldError(f"q = {q} is not a prime power")
            if p == 2:
                raise FieldError("q must be odd (characteristic 2 is not supported)")
            return p, t
    raise FieldError(f"q = {q} is not a prime power")  # unreachable


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p: coefficient lists, low degree first


def _poly_deg(a) -> int:
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            return i
    return -1


def _poly_rem(num, den, p):
    """Remainder of num modulo monic den."""
    num = list(num)
    dd = _poly_deg(den)
    nd = _poly_deg(num)
    while nd >= dd:
        c = num[nd]
        shift = nd - dd
        for i in range(dd + 1):
            num[shift + i] = (num[shift + i] - c * den[i]) % p
        nd = _poly_deg(num)
    return num


def _poly_mulmod(a, b, modulus, p, m):
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    rem = _poly_rem(prod, modulus, p)
    rem += [0] * (m - len(rem))
    return tuple(rem[:m])


def _is_irreducible(f, p, m):
    """Trial division by every monic polynomial of degree 1..m//2."""
    if m == 1:
        return True
    if f[0] == 0:
        return False
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if _poly_deg(_poly_rem(f, g, p)) < 0:
                return False
    return True


def _smallest_irreducible(p, m):
    if m == 1:
        return (0, 1)
    for coeffs in itertools.product(range(p), repeat=m):
        f = list(coeffs) + [1]
        if _is_irreducible(f, p, m):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------

class PrimePowerField:
    """F_{p^m} with exp/dlog tables and precomputed character ingredients."""

    def __init__(self, p: int, m: int, modulus=None, generator: int | None = None):
        if not _is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported (q must be odd)")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        order = p**m
        if order > SIZE_GUARD:
            raise FieldError(f"field order {order} exceeds the table guard {SIZE_GUARD}")
        self.p = p
        self.m = m
        self.order = order

        if modulus is None:
            modulus = _smallest_irreducible(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[m] != 1:
                raise FieldError("modulus must be monic of degree m")
            if not _is_irreducible(modulus, p, m):
                raise FieldError("modulus is reducible")
        self.modulus = modulus

        self._coeffs = self._build_coeffs_table()
        self._g = self._find_generator() if generator is None else int(generator)
        self._build_log_tables()

        n = order - 1
        self.neg = [self._encode(tuple(-c % p for c in self._coeffs[a])) for a in range(order)]
        self.one_minus = [self.add_codes(1, self.neg[a]) for a in range(order)]

        self._frob_p = [self.pow_code(a, p) for a in range(order)]
        self.trace_table = self._build_trace_table()

        self.unity_roots = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
        self.p_roots = [cmath.exp(2j * math.pi * t / p) for t in range(p)]
        self.psi_table = [self.p_roots[self.trace_table[a]] for a in range(order)]

        self._gauss_memo: dict[int, complex] = {}
        self._jacobi_memo: dict[tuple[int, int], complex] = {}
        self._kernel_rows: dict[int, list[complex]] = {}
        self._char_tables: dict[int, list[complex]] = {}

    # -- construction helpers ------------------------------------------------

    def _build_coeffs_table(self):
        table = []
        for code in range(self.order):
            c = []
            r = code
            for _ in range(self.m):
                c.append(r % self.p)
                r //= self.p
            table.append(tuple(c))
        return table

    def _encode(self, coeffs) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def _mul_poly_codes(self, a: int, b: int) -> int:
        return self._encode(
            _poly_mulmod(self._coeffs[a], self._coeffs[b], self.modulus, self.p, self.m)
        )

    def _pow_poly_code(self, a: int, e: int) -> int:
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self._mul_poly_codes(acc, base)
            base = self._mul_poly_codes(base, base)
            e >>= 1
        return acc

    def _find_generator(self) -> int:
        n = self.order - 1
        checks = [n // r for r in _prime_factors(n)]
        for cand in range(2, self.order):
            if all(self._pow_poly_code(cand, e) != 1 for e in checks):
                return cand
        raise FieldError("no generator found")  # unreachable for a true field

    def _build_log_tables(self):
        n = self.order - 1
        exp = [1] * n
        cur = 1
        for k in range(1, n):
            cur = self._mul_poly_codes(cur, self._g)
            if cur == 1:
                raise FieldError(f"generator {self._g} has order {k}, expected {n}")
            exp[k] = cur
        if self._mul_poly_codes(cur, self._g) != 1:
            raise FieldError("generator order check failed")
        dlog = [-1] * self.order
        for k, c in enumerate(exp):
            dlog[c] = k
        self.exp = exp
        self.dlog = dlog

    def _build_trace_table(self):
        # y^p + y^(p^2) + ... + y^(p^m); lands in the prime subfield
        table = []
        for a in range(self.order):
            t = 0
            z = a
            for _ in range(self.m):
                z = self._frob_p[z]
                t = self.add_codes(t, z)
            if t >= self.p:
                raise FieldError("trace left the prime subfield")  # sanity
            table.append(t)
        return table

    # -- code-level arithmetic -------------------------------------------------

    @property
    def g(self) -> int:
        """Code of the multiplicative generator."""
        return self._g

    def add_codes(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        ca, cb = self._coeffs[a], self._coeffs[b]
        return self._encode(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def sub_codes(self, a: int, b: int) -> int:
        return self.add_codes(a, self.neg[b])

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self.exp[(self.dlog[a] + self.dlog[b]) % n]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero")
        n = self.order - 1
        return self.exp[(-self.dlog[a]) % n]

    def pow_code(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise FieldError("division by zero")
            return 0 if e else 1
        n = self.order - 1
        return self.exp[(self.dlog[a] * e) % n]

    # -- elements ---------------------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Element from an integer code or a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, (tuple, list)):
            if len(value) != self.m:
                raise FieldError(f"coefficient vector must have length {self.m}")
            return FieldElement(self, self._encode(tuple(c % self.p for c in value)))
        code = int(value)
        if not 0 <= code < self.order:
            raise FieldError(f"code {code} out of range for field of order {self.order}")
        return FieldElement(self, code)

    def scalar(self, c: int) -> "FieldElement":
        """Lift of the integer c through Z -> F_p -> F_{p^m}."""
        return FieldElement(self, c % self.p)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def generator(self) -> "FieldElement":
        return FieldElement(self, self._g)

    def elements(self):
        for code in range(self.order):
            yield FieldElement(self, code)

    def coeffs_of(self, code: int):
        return self._coeffs[code]

    def __repr__(self):
        return f"PrimePowerField(p={self.p}, m={self.m})"


class FieldElement:
    """An element of a PrimePowerField, identified by its coefficient code.

    Integer operands in arithmetic are treated as scalars, i.e. lifted
    through Z -> F_p, so expressions like (j + 1)**2 read as in the formulas.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: PrimePowerField, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        return self.field.coeffs_of(self.code)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError("elements from different fields")
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_codes(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_codes(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_codes(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_codes(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_codes(self.code, self.field.inv_code(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_codes(c, self.field.inv_code(self.code)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_code(self.code, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg[self.code])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FieldElement({self.coeffs} over F_{self.field.p}^{self.field.m})"


@lru_cache(maxsize=None)
def construct_field(p: int, m: int = 1) -> PrimePowerField:
    """Canonical F_{p^m}: smallest modulus, smallest generator (both by code)."""
    return PrimePowerField(p, m)


def trace_to_prime(field: PrimePowerField, y) -> int:
    """Absolute trace y^p + y^(p^2) + ... + y^(p^m), as an integer in [0, p)."""
    code = y.code if isinstance(y, FieldElement) else int(y)
    return field.trace_table[code]


class FieldTower:
    """F_q inside F_{q^2}, sharing one arithmetic kernel over F_p.

    The top field is the canonical F_{p^(2t)}; the base field reuses the
    canonical degree-t modulus but its generator is forced to norm(g2), so
    that base-field discrete logs compose exactly with the norm map (this is
    what makes norm-composed characters a pure index operation).
    """

    def __init__(self, p: int, t: int):
        self.p = p
        self.t = t
        self.q = p**t
        self.top = construct_field(p, 2 * t)
        canonical = construct_field(p, t)

        theta = self._smallest_modulus_root(canonical.modulus)
        self.embed_table = self._build_embed_table(canonical, theta)
        if len(set(self.embed_table)) != self.q:
            raise FieldError("embedding is not injective")  # sanity
        self._embed_inv = {z: x for x, z in enumerate(self.embed_table)}

        top = self.top
        self.frob = [top.pow_code(z, self.q) for z in range(top.order)]
        norm_table = []
        for z in range(top.order):
            w = top.mul_codes(z, self.frob[z])
            if w not in self._embed_inv:
                raise FieldError("norm left the subfield")  # sanity
            norm_table.append(self._embed_inv[w])
        self.norm_table = norm_table

        self.g2 = top.g
        g_base = norm_table[self.g2]
        self.base = PrimePowerField(p, t, modulus=canonical.modulus, generator=g_base)

        self.i_code = top.pow_code(self.g2, (top.order - 1) // 4)
        self._trace_line = None
        self._i_line = None

    def _smallest_modulus_root(self, base_modulus) -> int:
        top = self.top
        roots = []
        for z in range(top.order):
            acc = 0
            for c in reversed(base_modulus):
                acc = top.add_codes(top.mul_codes(acc, z), c)  # Horner; c < p is a constant code
            if acc == 0:
                roots.append(z)
        if not roots:
            raise FieldError("base modulus has no root in the top field")  # sanity
        return min(roots)

    def _build_embed_table(self, canonical, theta):
        top = self.top
        theta_pows = [1]
        for _ in range(self.t - 1):
            theta_pows.append(top.mul_codes(theta_pows[-1], theta))
        table = []
        for x in range(self.q):
            acc = 0
            for c, tp in zip(canonical.coeffs_of(x), theta_pows):
                acc = top.add_codes(acc, top.mul_codes(c, tp))
            table.append(acc)
        return table

    @property
    def i_elem(self) -> FieldElement:
        """A fixed primitive fourth root of unity, i^2 = -1."""
        return FieldElement(self.top, self.i_code)

    def embed(self, x) -> FieldElement:
        code = x.code if isinstance(x, FieldElement) else int(x)
        return FieldElement(self.top, self.embed_table[code])

    def norm(self, z) -> FieldElement:
        """z * z^q, pulled back to the base field; norm(0) = 0."""
        code = z.code if isinstance(z, FieldElement) else int(z)
        return FieldElement(self.base, self.norm_table[code])

    @property
    def trace_line(self) -> list[int]:
        """Codes of {z in F_{q^2} : z + z^q = 1}; exactly q points."""
        if self._trace_line is None:
            top = self.top
            self._trace_line = [
                z for z in range(top.order) if top.add_codes(z, self.frob[z]) == 1
            ]
        return self._trace_line

    @property
    def i_line(self) -> list[int]:
        """Codes of 1 + i*y for the codes y of F_q in order; exactly q points."""
        if self._i_line is None:
            top = self.top
            self._i_line = [
                top.add_codes(1, top.mul_codes(self.i_code, e)) for e in self.embed_table
            ]
        return self._i_line

    def __repr__(self):
        return f"FieldTower(q={self.q}, p={self.p}, t={self.t})"


@lru_cache(maxsize=None)
def build_tower(p: int, t: int = 1) -> FieldTower:
    """The tower F_q in F_{q^2} for q = p^t, with all lookup tables built."""
    return FieldTower(p, t)

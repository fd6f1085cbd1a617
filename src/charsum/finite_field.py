"""Prime-power finite fields F_{p^m} on a polynomial basis.

Elements are identified with integer codes in [0, p^m): the code is the
base-p reading of the coefficient vector (c0 + c1*p + c2*p^2 + ...).
Construction is deterministic: the modulus is the lexicographically smallest
monic irreducible (coefficients compared low-degree first) and the generator
is the one with the smallest code, so two builds of the same field agree
table for table.  Every field carries an eagerly built discrete-log table,
which makes multiplication and character evaluation O(1).

Every integer table (exp, dlog, zech, neg, one_minus, trace_table, and the
tower's embed_table, trace_line and i_line) is an array('i'): 4 bytes
an entry instead of a list's 8-byte pointer plus a 28-byte int object for
each entry above 256.  Each table is built in that form, from slices of
another table or a coset or a digit position at a time, so no list of the
field's size is made and converted.  SIZE_GUARD keeps every code and every
log inside 32 bits.  The complex tables stay lists.

The roots of unity are kept per order: root_table(d) holds the d-th roots,
d | n = order - 1, with entry s computed by the same expression as entry
(n/d) s of the full table, so both give the same float bit for bit.  A
character of order d reads only table d; the full table unity_roots, of n
entries, is table n, built on the first read of a general reader.  Every
table built on first read is kept in its owner's memo (see memoized).

Only `exp` is computed from the modulus; every other table is index
arithmetic on exp/dlog or is built digit by digit.  Addition goes through
the Zech logarithm 1 + g^k = g^Z(k) (K. Huber, IEEE Trans. Inf. Theory 36(4),
1990): a + b = a * (1 + b/a).

The quadratic tower F_q inside F_{q^2} is built as a single degree-2t
extension of F_p; the subfield is {0} and the powers of g2^(q+1).
"""

import cmath
import itertools
import math
import operator
from array import array
from collections import defaultdict
from functools import lru_cache

SIZE_GUARD = 1 << 20  # dlog tables are built eagerly; refuse fields beyond this


class FieldError(ValueError):
    """Invalid field construction or element usage."""


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, by trial division up to sqrt(n)."""
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


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^t for an odd prime p, or raise FieldError."""
    if q < 3:
        raise FieldError(f"q = {q} is not an odd prime power > 2")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise FieldError(f"q = {q} is not a prime power")
    p = primes[0]
    if p == 2:
        raise FieldError("q must be odd (characteristic 2 is not supported)")
    t = 1
    while p**t < q:
        t += 1
    return p, t


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


def _poly_powmod(a, e, modulus, p):
    """a^e modulo the monic modulus, as a list of deg(modulus) coefficients."""
    m = len(modulus) - 1

    def mulmod(x, y):
        prod = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        return _poly_rem([c % p for c in prod], modulus, p)[:m]

    acc = [1] + [0] * (m - 1)
    while e:
        if e & 1:
            acc = mulmod(acc, a)
        a = mulmod(a, a)
        e >>= 1
    return acc


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


def check_order(order: int):
    """FieldError if a field of this order is past the table guard."""
    if order > SIZE_GUARD:
        raise FieldError(f"field order {order} exceeds the table guard {SIZE_GUARD}")


def memoized(table: dict, key, build, *args):
    """table[key], stored as build(*args) on its first read; no value is None.
    Every memo is read here: table is owner.memo[name] for the memo's name,
    or owner.memo with key = name where the memo is one value."""
    value = table.get(key)
    if value is None:
        value = table[key] = build(*args)
    return value


# ---------------------------------------------------------------------------

class PrimePowerField:
    """F_{p^m} with exp/dlog tables and precomputed character ingredients."""

    def __init__(self, p: int, m: int, generator: int | None = None):
        if not _is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported (q must be odd)")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        order = p**m
        check_order(order)
        self.p = p
        self.m = m
        self.order = order

        self.modulus = _smallest_irreducible(p, m)

        self._g = self._find_generator() if generator is None else int(generator)
        self._build_log_tables()

        # 1 + c bumps the constant digit of c mod p, so the log of 1 + c is
        # dlog[c + 1], or dlog[c + 1 - p] where that digit is p - 1
        log_one_plus = self.dlog[1:]
        log_one_plus.append(0)
        log_one_plus[p - 1 :: p] = self.dlog[::p]
        # 1 + g^k = g^zech[k]; -1 if 0
        self.zech = array("i", map(log_one_plus.__getitem__, self.exp))
        del log_one_plus  # freed before psi_table is built

        self.p_roots = [cmath.exp(2j * math.pi * t / p) for t in range(p)]
        self.psi_table = list(map(self.p_roots.__getitem__, self._build_trace_table()))

        self.memo = defaultdict(dict)  # the lazy tables and sums of this field (see memoized)

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        n = self.order - 1
        checks = [n // r for r in _prime_factors(n)]
        one = [1] + [0] * (self.m - 1)
        # when m > 1 the scalars 2 .. p-1 have order dividing p - 1 < n
        for cand in range(2 if self.m == 1 else self.p, self.order):
            c = list(self.coeffs_of(cand))
            if all(_poly_powmod(c, e, self.modulus, self.p) != one for e in checks):
                return cand
        raise FieldError("no generator found")  # unreachable for a true field

    def _build_log_tables(self):
        """exp[k] = g^k through the cosets of F_p*: with N = n/(p-1), step
        g^0 .. g^(N-1) by the digit matrix of multiplication by g; then
        g^N = h is a scalar and exp[k + jN] = h^j exp[k], digit by digit."""
        p, m, g = self.p, self.m, self._g
        n = self.order - 1
        if not 0 < g < self.order:
            raise FieldError(f"generator {g} is not a nonzero code of the field")
        cols, col = [], list(self.coeffs_of(g))  # digits of g * x^i
        for _ in range(m):
            cols.append(col)
            top = col[-1]
            col = [(c - top * f) % p for c, f in zip([0] + col[:-1], self.modulus)]
        rows = list(zip(*cols))
        powers, v = [], [1] + [0] * (m - 1)  # digit vectors of g^0 .. g^(N-1)
        for _ in range(n // (p - 1)):
            powers.append(v)
            v = [sum(map(operator.mul, row, v)) % p for row in rows]
        h = v[0]  # g^N is a scalar, since (g^N)^(p-1) = 1
        digits = list(zip(*powers))  # digits[i][k]: digit i of g^k
        exp, s = array("i"), 1
        for _ in range(p - 1):
            codes = [0] * len(powers)
            for w, col in zip((p**i for i in range(m)), digits):
                codes = [c + s * d % p * w for c, d in zip(codes, col)]
            exp.extend(codes)
            s = s * h % p
        dlog = array("i", [-1]) * self.order
        for k, c in enumerate(exp):
            dlog[c] = k
        if dlog.count(-1) != 1:  # exp repeats a code exactly when ord(g) < n
            raise FieldError(f"generator {g} is not primitive: its order is below {n}")
        self.exp = exp
        self.dlog = dlog

    # neg, one_minus, trace_table and unity_roots are built on first read:
    # the top field of a tower needs none of them after construction, and
    # each holds q^2 entries there.  They live in memo, not in attributes
    # added after __init__ (as functools.cached_property adds them): that
    # made every attribute read of the field, as in mul_codes, about twice
    # as slow on CPython 3.11.

    @property
    def neg(self) -> array:
        """neg[c] = -c, negated digitwise, one digit position at a time."""
        return memoized(self.memo, "neg", self._build_neg)

    def _build_neg(self) -> array:
        p, neg = self.p, array("i", [0])
        for w in (p**i for i in range(self.m)):
            low, neg = neg, array("i")
            for d in range(p):
                s = -d % p * w
                neg.extend([s + c for c in low])
        return neg

    @property
    def one_minus(self) -> array:
        """one_minus[c] = 1 - c = -(c - 1): neg[c - 1], or neg[c + p - 1]
        where the constant digit of c is 0."""
        return memoized(self.memo, "one_minus", self._build_one_minus)

    def _build_one_minus(self) -> array:
        neg, p = self.neg, self.p
        one_minus = neg[:-1]
        one_minus.insert(0, 0)
        one_minus[::p] = neg[p - 1 :: p]
        return one_minus

    @property
    def trace_table(self) -> array:
        """trace_table[c] = Tr(c), in [0, p)."""
        return memoized(self.memo, "trace_table", self._build_trace_table)

    def _build_trace_table(self):
        """Tr(y) = y + y^p + ... + y^(p^(m-1)) lands in F_p and is F_p-linear:
        Tr(sum c_i x^i) = sum c_i Tr(x^i).  Built one digit position at a time."""
        p = self.p
        table, residues = array("i", [0]), list(range(p)) * 2
        for i in range(self.m):
            y, tr = p**i, 0
            for _ in range(self.m):
                tr = self.add_codes(tr, y)
                y = self.pow_code(y, p)
            if tr >= p:
                raise FieldError("trace left the prime subfield")  # sanity
            low, table = table, array("i")
            for d in range(p):
                s = d * tr % p  # t -> (s + t) mod p, as a lookup
                table.extend(map(residues[s : s + p].__getitem__, low))
        return table

    @property
    def unity_roots(self) -> list[complex]:
        """unity_roots[k] = e^(2 pi i k / n), n = order - 1: root_table(n)."""
        return self.root_table(self.order - 1)

    def root_table(self, d: int) -> list[complex]:
        """The d-th roots of unity for d | n = order - 1, memoized by d: entry
        s is e^(2 pi i (n/d) s / n), the expression of unity_roots at
        k = (n/d) s, so the two tables agree bit for bit."""
        return memoized(self.memo["root_table"], d, self._build_root_table, d)

    def _build_root_table(self, d: int) -> list[complex]:
        n = self.order - 1
        if d < 1 or n % d:
            raise FieldError(f"{d} does not divide the group order {n}")
        step = n // d
        return [cmath.exp(2j * math.pi * (step * s) / n) for s in range(d)]

    def char_roots(self, index: int) -> tuple[list[complex], int, int]:
        """(tab, u, d) with chi(g^m) = tab[u * m % d] for the character of the
        given index: d is its order, tab = root_table(d), and index = (n/d) u."""
        n = self.order - 1
        step = math.gcd(n, index)
        return self.root_table(n // step), index // step, n // step

    # -- code-level arithmetic -------------------------------------------------

    @property
    def g(self) -> int:
        """Code of the multiplicative generator."""
        return self._g

    def add_codes(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        n, la = self.order - 1, self.dlog[a]
        z = self.zech[(self.dlog[b] - la) % n]  # a + b = a (1 + b/a)
        return 0 if z < 0 else self.exp[(la + z) % n]

    def sub_codes(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
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
        """The element of this field given by an integer code or an element of
        this field.  Every element argument in the library goes through here;
        raises FieldError for another field's element or a code out of range."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldError("element belongs to a different field")
            return value
        code = operator.index(value)
        if not 0 <= code < self.order:
            raise FieldError(f"code {code} out of range for field of order {self.order}")
        return FieldElement(self, code)

    def scalar(self, value) -> int:
        """The code of value read as a scalar, as the formulas read integers:
        an int through Z -> F_p, an element of this field as its code, and
        another field's element raises FieldError through element."""
        if isinstance(value, FieldElement):
            return self.element(value).code
        return operator.index(value) % self.p

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        """Coefficients c0, c1, ... of the element, low degree first."""
        return tuple(code // self.p**i % self.p for i in range(self.m))

    def __repr__(self):
        return f"PrimePowerField(p={self.p}, m={self.m})"


def _div_codes(field: PrimePowerField, a: int, b: int) -> int:
    return field.mul_codes(a, field.inv_code(b))


def _operator(codes):
    """FieldElement's binary operator for codes(field, own code, other code):
    the other operand, a FieldElement or an int, is read by field.scalar."""
    def method(self, other):
        if not isinstance(other, (FieldElement, int)):
            return NotImplemented
        return FieldElement(self.field, codes(self.field, self.code, self.field.scalar(other)))

    return method


class FieldElement:
    """An element of a PrimePowerField, identified by its coefficient code.

    Integer operands in arithmetic and == are scalars, read by field.scalar,
    so expressions like (j + 1)**2 read as in the formulas.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: PrimePowerField, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        return self.field.coeffs_of(self.code)

    __add__ = __radd__ = _operator(PrimePowerField.add_codes)
    __sub__ = _operator(PrimePowerField.sub_codes)
    __rsub__ = _operator(lambda field, a, b: field.sub_codes(b, a))
    __mul__ = __rmul__ = _operator(PrimePowerField.mul_codes)
    __truediv__ = _operator(_div_codes)
    __rtruediv__ = _operator(lambda field, a, b: _div_codes(field, b, a))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_code(self.code, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg[self.code])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == self.field.scalar(other)
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


class FieldTower:
    """F_q inside F_{q^2}, sharing one arithmetic kernel over F_p.

    The top field is the canonical F_{p^(2t)} with generator g2; the base
    field takes the smallest degree-t modulus, but its generator is forced to
    g = N(g2) = g2^(q+1), so that base-field discrete logs compose exactly
    with the norm map: N(g2^m) = g^(m mod q-1).  This makes norm-composed
    characters a pure index operation and each norm fiber one residue class
    of logs.  The tower keeps no Frobenius or norm table: z^q and N(z) are
    read through dlog.
    """

    def __init__(self, p: int, t: int):
        self.p = p
        self.t = t
        self.q = q = p**t
        self.top = top = construct_field(p, 2 * t)

        # theta is a root, in the top field, of the base field's modulus
        theta = self._smallest_modulus_root(_smallest_irreducible(p, t))
        self.embed_table = self._build_embed_table(theta)
        if len(set(self.embed_table)) != q:
            raise FieldError("embedding is not injective")  # sanity

        g_base = dict(zip(self.embed_table, range(q))).get(top.exp[q + 1])
        if g_base is None:
            raise FieldError("norm left the subfield")  # sanity
        self.base = PrimePowerField(p, t, generator=g_base)

        self.i_code = top.exp[(top.order - 1) // 4]  # i^2 = -1
        self.memo = defaultdict(dict)  # the lazy lines and sums of this tower (see memoized)

    def _smallest_modulus_root(self, base_modulus) -> int:
        """The roots lie in the subfield, so only its q elements are tried."""
        top = self.top
        for z in sorted([0, *top.exp[:: self.q + 1]]):
            acc = 0
            for c in reversed(base_modulus):
                acc = top.add_codes(top.mul_codes(acc, z), c)  # Horner; c < p is a constant code
            if acc == 0:
                return z
        raise FieldError("base modulus has no root in the top field")  # sanity

    def _build_embed_table(self, theta):
        """x = sum c_i X^i maps to sum c_i theta^i, built one digit at a time."""
        top = self.top
        table, power = array("i", [0]), 1
        for _ in range(self.t):
            multiples = [top.mul_codes(c, power) for c in range(self.p)]
            table = array("i", (top.add_codes(s, e) for s in multiples for e in table))
            power = top.mul_codes(power, theta)
        return table

    def embed(self, x) -> FieldElement:
        return FieldElement(self.top, self.embed_table[self.base.element(x).code])

    def norm(self, z) -> FieldElement:
        """z * z^q, pulled back to the base field; norm(0) = 0."""
        code = self.top.element(z).code
        if code == 0:
            return FieldElement(self.base, 0)
        return FieldElement(self.base, self.base.exp[self.top.dlog[code] % (self.q - 1)])

    @property
    def trace_line(self) -> array:
        """Codes of {z in F_{q^2} : z + z^q = 1}; exactly q points."""
        return memoized(self.memo, "trace_line", self._build_trace_line)

    def _build_trace_line(self) -> array:
        top = self.top
        n2, exp2, dlog2, q = top.order - 1, top.exp, top.dlog, self.q
        return array("i", (
            z for z in range(1, top.order) if top.add_codes(z, exp2[q * dlog2[z] % n2]) == 1
        ))

    @property
    def i_line(self) -> array:
        """Codes of 1 + i*y for the codes y of F_q in order; exactly q points."""
        return memoized(self.memo, "i_line", self._build_i_line)

    def _build_i_line(self) -> array:
        add, mul = self.top.add_codes, self.top.mul_codes
        return array("i", (add(1, mul(self.i_code, e)) for e in self.embed_table))

    def __repr__(self):
        return f"FieldTower(q={self.q}, p={self.p}, t={self.t})"


@lru_cache(maxsize=None)
def build_tower(p: int, t: int = 1) -> FieldTower:
    """The tower F_q in F_{q^2} for q = p^t, with all lookup tables built."""
    return FieldTower(p, t)

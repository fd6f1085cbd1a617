"""Run configuration, suite orchestration and result persistence.

A run is a set of tasks: the suites that read M8 run in one per (field, a,
octic variant) and share its KatzContext, the a-independent ones at a = 1;
the others run in one per field.  Every suite gives a
VerificationReport whose checks are deterministic for a given configuration
and kept in check order, so serial and parallel runs write the same records
in the same order.  The fields a suite accepts and how it fans out are its
entry in the `SUITES` registry; every configuration setting is one row of
`CONFIG_KEYS`, which the config file and the CLI flags share.
"""

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, replace
from itertools import repeat, starmap

from .characters import char, decompose_odd, delta, quadratic_char, trivial_char
from .classical_sums import eisenstein_sums, gauss_sums, jacobi, jacobi_row, lifted_gauss
from .finite_field import FieldError, build_tower, check_order, factor_prime_power
from .hypergeometric import (
    binom,
    hyp2f1,
    hyp2f1_row,
    norm_fiber,
    norm_jacobi_row,
    norm_restricted_jacobi,
    reduction_row,
)
from .katz import (
    KatzContext,
    double_mellin_mixed,
    double_mellin_product,
    kernel_double_sum,
    kernel_double_sum_anchor,
    jacobi_bracket,
    kernel_mellin,
    kernel_row,
    mellin_transform,
    quadratic_kernel_expected,
    quadratic_kernel_mellin,
    ratio_bracket_deviation,
    select_char_pairs,
    spaced_sample,
    sweeps_every_char,
    verify_master_identity,
)
from .report import VerificationReport, report_sort_key, write_csv, write_json
from .tolerance import DEFAULT_POLICY, TolerancePolicy

DEFAULT_Q = (3, 7, 11, 19, 23, 27)
DEFAULT_Q_REMARK = (5, 9, 13, 17, 25)

ENV_PARALLELISM = "CHARSUM_PARALLELISM"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_FIELD = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Unusable run configuration."""


@dataclass
class RunConfig:
    """Mirrors the CLI flags one-to-one; fields=None means per-suite defaults."""

    fields: list[tuple[int, int]] | None = None
    suites: list[str] | None = None  # None or any "all" in it: every applicable suite
    a_policy: str = "auto"  # all | sample-N | auto (all up to q=50, then sample-8)
    tolerance: TolerancePolicy = dc_field(default_factory=lambda: DEFAULT_POLICY)
    out_json: str | None = None
    out_csv: str | None = None
    parallelism: int = 1
    octic_variants: bool = False

    def jobs(self) -> list[tuple[str, int, int]]:
        """Resolve to distinct (suite, p, t) triples in first-seen order, or
        raise ConfigError.

        An explicit suite list is strict: every listed suite must accept every
        listed field.  Omitted suites, or "all" anywhere in the list, select
        the applicable ones; every other listed name must still be a suite.
        An empty field or suite list selects nothing and is an error, and so
        are JSON and CSV paths that name the same file.
        """
        if self.out_json and self.out_csv and (
            os.path.realpath(self.out_json) == os.path.realpath(self.out_csv)
        ):
            raise ConfigError(f"--out and --csv name the same file {self.out_json!r}")
        if self.fields is not None and not self.fields:
            raise ConfigError("no field selected")
        if self.suites is not None and not self.suites:
            raise ConfigError("no suite selected")
        for s in self.suites or ():
            if s != "all" and s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; choose from {', '.join(SUITES)}")
        explicit = self.suites is not None and "all" not in self.suites
        suites = list(self.suites) if explicit else list(SUITES)
        if not _valid_a_policy(self.a_policy):
            raise ConfigError(f"bad a-policy {self.a_policy!r}; use all, sample-N or auto")
        self.workers(1)  # validates parallelism and its environment override

        if self.fields is None:
            out = [(s, *factor_prime_power(q)) for s in suites for q in SUITES[s].default_q]
            return list(dict.fromkeys(out))

        out = []
        for p, t in self.fields:
            q = p**t
            parse_q(q)  # re-validates p odd prime
            applicable = [s for s in suites if q % 4 == SUITES[s].mod4]
            bad = [s for s in suites if s not in applicable]
            if explicit and bad:
                raise ConfigError(
                    f"suite(s) {', '.join(bad)} require q = {SUITES[bad[0]].mod4} (mod 4) "
                    f"but q = {q} = {q % 4} (mod 4)"
                )
            if not applicable:
                raise ConfigError(f"no requested suite applies to q = {q}")
            out.extend((s, p, t) for s in applicable)
        return list(dict.fromkeys(out))

    def workers(self, n_tasks: int) -> int:
        """Worker processes for n_tasks tasks: CHARSUM_PARALLELISM if set,
        else the parallelism field, capped at n_tasks and the CPU count.
        Raises ConfigError unless the requested count is an integer >= 1."""
        raw = os.environ.get(ENV_PARALLELISM)
        try:
            requested = self.parallelism if raw is None else int(raw)
        except ValueError:
            raise ConfigError(f"{ENV_PARALLELISM} must be an integer, got {raw!r}") from None
        if requested < 1:
            raise ConfigError(f"parallelism must be >= 1, got {requested}")
        return min(requested, n_tasks, os.cpu_count() or 1)


def _valid_a_policy(policy: str) -> bool:
    if policy in ("all", "auto"):
        return True
    if policy.startswith("sample-"):
        tail = policy[len("sample-"):]
        return tail.isdecimal() and int(tail) >= 1
    return False


def parse_q(q: int) -> tuple[int, int]:
    """q -> (p, t); rejects q that is not an odd prime power, and q past the
    table guard before factoring it, since no field of that order is built."""
    try:
        check_order(q)
        return factor_prime_power(q)
    except FieldError as e:
        raise ConfigError(str(e)) from None


def a_values(q: int, policy: str) -> list[int]:
    """Codes of the a-sweep: exhaustive, or the first N generator powers."""
    if policy == "auto":
        policy = "all" if q <= 50 else "sample-8"
    if policy == "all":
        return list(range(1, q))
    n = int(policy[len("sample-"):])
    p, t = factor_prime_power(q)
    base = build_tower(p, t).base
    return sorted({base.exp[k] for k in range(min(n, q - 1))})


# ---------------------------------------------------------------------------
# configuration keys


def _words(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _parse_fields(text: str) -> list[tuple[int, int]]:
    return [parse_q(int(w)) for w in _words(text)]


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError(text)
    return text.lower() in ("true", "1")


# config key -> (CLI flag, parser of the text value, RunConfig field it sets);
# "floor" and "scale" are the fields of RunConfig.tolerance
CONFIG_KEYS = {
    "q": ("--q", _parse_fields, "fields"),
    "suites": ("--suite", _words, "suites"),
    "a_policy": ("--a", str, "a_policy"),
    "out_json": ("--out", str, "out_json"),
    "out_csv": ("--csv", str, "out_csv"),
    "parallelism": ("--parallelism", int, "parallelism"),
    "octic_variants": ("--octic-variants", _parse_bool, "octic_variants"),
    "tol_floor": ("--tol-floor", float, "floor"),
    "tol_scale": ("--tol-scale", float, "scale"),
}


def set_option(cfg: RunConfig, key: str, text: str, where: str) -> None:
    """Parse text as the value of config key and store it in cfg; where
    names the key's source in the error for a value its parser rejects."""
    _, parse, name = CONFIG_KEYS[key]
    try:
        value = parse(text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{where}: bad value {text!r}") from None
    if name in ("floor", "scale"):
        try:
            cfg.tolerance = replace(cfg.tolerance, **{name: value})
        except ValueError as e:  # TolerancePolicy's rule for its values
            raise ConfigError(f"{where}: {e}") from None
    else:
        setattr(cfg, name, value)


def load_config(path: str) -> RunConfig:
    """Flat key = value format; '#' starts a comment.  The keys are those of
    CONFIG_KEYS, each at most once."""
    cfg, seen = RunConfig(), {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        set_option(cfg, key, value.strip(), f"{path}:{lineno}: {key}")
    return cfg


# ---------------------------------------------------------------------------
# suites


def suite_classical(tower, policy: TolerancePolicy) -> VerificationReport:
    """Gauss/Jacobi basics, the Hasse-Davenport product and lifting relations,
    the quartic Gauss evaluation, and Frobenius conjugation of G2, every Gauss
    value read from g = gauss_sums(base) or g2 = gauss_sums(top) by index.
    The Jacobi checks of each A read its row J(A, .), one transform per A.

    Characters are indices: chi_i of F_q and b of F_{q^2}, n = q - 1,
    n2 = q^2 - 1, half = n/2, phi = chi_half and roots = base.unity_roots.
    conj b is -b and b^q is qb.  -1 = g^half, so chi_i(-1) = roots[i half],
    and b(-1) = top.root_table(2)[b mod 2].  A(4) = roots[i dlog 4] and
    (conj(C)^2 phi)(2) = roots[(half - 2c) dlog 2].  C N is c(q+1), M8 is
    n2/8 and M4 = M8^2 is n2/4, all mod n2.  Each value is the entry that
    MultChar's call would give, bit for bit, and no top character is built."""
    q = tower.q
    base, top = tower.base, tower.top
    rep = VerificationReport("classical", q, None)
    tol = policy.abs_tol(q, 4 * top.order)
    g, g2 = gauss_sums(base), gauss_sums(top)
    n, n2, half, roots, dlog = q - 1, top.order - 1, (q - 1) // 2, base.unity_roots, base.dlog
    sign = [roots[i * half % n] for i in range(n)]  # chi_i(-1)
    top_sign = top.root_table(2)  # b(-1) for even and odd b

    trivial = rep.family("gauss-trivial", "order={}", tol)
    trivial.extend((abs(g[0] + 1), abs(g2[0] + 1)), (base.order, top.order))
    conjugate = rep.family("gauss-conjugate", "A={}", tol)
    conjugate.extend((abs(g[i] * g[-i % n] - sign[i] * q) for i in range(1, n)), range(1, n))
    conjugate_top = rep.family("gauss-conjugate-top", "beta={}", tol)
    devs = (abs(g2[b] * g2[-b % n2] - top_sign[b % 2] * top.order) for b in range(1, n2))
    conjugate_top.extend(devs, range(1, n2))

    jac_eps = jacobi_row(trivial_char(base))  # J(eps, chi_k)
    rep.family("jacobi-trivial", "", tol).extend([abs(jac_eps[0] - (q - 2))])
    inverse = rep.family("jacobi-inverse", "A={}", tol)
    with_trivial = rep.family("jacobi-with-trivial", "A={}", tol)
    with_trivial.extend((abs(jac_eps[i] + 1) for i in range(1, n)), range(1, n))
    bridge = rep.family("gauss-jacobi-bridge", "A={},B={}", tol)
    reflection = rep.family("jacobi-reflection", "A={},C={}", tol)
    for i in range(n):
        jac = jacobi_row(char(base, i)) if i else jac_eps  # J(A, chi_k) at A = chi_i
        if i:
            inverse.extend([abs(jac[-i % n] + sign[i])], [i])
        ks = [k for k in range(n) if (i + k) % n]
        devs = (abs(jac[k] - g[i] * g[k] / g[(i + k) % n]) for k in ks)
        bridge.extend(devs, repeat(i, n - 1), ks)
        # J(A, conj C) against A(-1) J(A, conj(A) C)
        devs = (abs(jac[-k % n] - sign[i] * jac[(k - i) % n]) for k in range(1, n))
        reflection.extend(devs, repeat(i, n - 1), range(1, n))

    # for each C = chi_c: A(4) G(A) G(A phi) = G(A^2) G(phi) at A = C;
    # G2(C N) = -G(C)^2, and G2(beta) = G2(beta^q) at beta = C N M8; and
    # G2(C N M4) = G2(C N conj M4) = -(conj(C)^2 phi)(2) G(C^2 phi) G(phi)
    log4, log2, m8, m4 = dlog[4 % tower.p], dlog[2 % tower.p], n2 // 8, n2 // 4
    hd_product, lifted, quartic = [], [], []
    for c in range(n):
        hd = roots[c * log4 % n] * g[c] * g[(c + half) % n]
        hd_product.append(abs(hd - g[2 * c % n] * g[half]))
        cn, beta = c * (q + 1) % n2, (c * (q + 1) + m8) % n2
        lifted.append(max(abs(g2[cn] - (-g[c] ** 2)), abs(g2[beta] - g2[beta * q % n2])))
        rhs = -roots[(half - 2 * c) % n * log2 % n] * g[(2 * c + half) % n] * g[half]
        quartic.append(max(abs(g2[(cn + m4) % n2] - rhs), abs(g2[(cn - m4) % n2] - rhs)))
    rep.family("hd-product", "A={}", tol).extend(hd_product, range(n))
    rep.family("lifted-gauss", "C={}", tol).extend(lifted, range(n))
    rep.family("quartic-gauss", "C={}", tol).extend(quartic, range(n))
    frobenius = rep.family("gauss-frobenius", "beta={}", tol)
    frobenius.extend((abs(g2[b] - g2[b * q % n2]) for b in range(n2)), range(n2))
    return rep


def suite_eisenstein(tower, policy: TolerancePolicy) -> VerificationReport:
    """E(beta) = beta(2) E2(beta), and E2(beta) = G2(beta)/G(beta*) for
    nontrivial beta, or -G2(beta)/q where its restriction beta* to F_q is
    trivial.  The rows E2 and E of eisenstein_sums, read once, are checked
    entry by entry against each other and against the Gauss sums."""
    q = tower.q
    top = tower.top
    rep = VerificationReport("eisenstein", q, None)
    tol = policy.abs_tol(q, 4 * top.order)

    e2, e = eisenstein_sums(tower)
    g, g2 = gauss_sums(tower.base), gauss_sums(top)
    n, roots, log2 = top.order - 1, top.unity_roots, top.dlog[2 % tower.p]
    rep.family("line-count", "", tol).extend([abs(len(tower.trace_line) - q)])
    rep.family("eisenstein-trivial", "", tol).extend([abs(e2[0] - q)])
    rep.family("eisenstein-line-trivial", "", tol).extend([abs(e[0] - q)])
    rep.family("eisenstein-shift", "beta={}", tol).extend(  # chi_k(2) from the root table
        (abs(e[k] - roots[k * log2 % n] * e2[k]) for k in range(n)), range(n)
    )
    rep.family("eisenstein-gauss-ratio", "beta={}", tol).extend(
        (abs(e2[k] - (g2[k] / g[k % (q - 1)] if k % (q - 1) else -g2[k] / q)) for k in range(1, n)),
        range(1, n),
    )
    return rep


def suite_hypergeometric(ctx: KatzContext, policy: TolerancePolicy) -> VerificationReport:
    """Norm fibers, 2F1 sanity, binomial reflection, R parity in j.

    hyp-bound reads one hyp2f1_row per (A, B, C) and checks only the
    magnitude bound |2F1| <= (q-1)/q, so it cannot see a wrong row: a row
    shifted by one argument, or the row of D*phi served for D, fails none of
    its records.  theorem-4.1 and theorem-5.x catch both.  hyp-zero-arg
    reads the literal hyp2f1 at x = 0.  fiber-jacobi-even compares the
    transform row R(D, j) with the literal walk over the scanned fiber at -j."""
    tower = ctx.tower
    q = tower.q
    base = tower.base
    rep = VerificationReport("hypergeometric", q, None)
    tol = policy.abs_tol(q, 4 * tower.top.order)

    js, fiber_devs = range(1, q), []
    for c in js:
        fib = norm_fiber(tower, c)
        dev = abs(len(fib) - (q + 1))
        if sorted(fib) != norm_fiber(tower, c, scan=True):
            dev = max(dev, 1.0)
        fiber_devs.append(dev)
    rep.family("norm-fiber", "c={}", tol).extend(fiber_devs, js)

    idx = list(range(q - 1)) if sweeps_every_char(q) else spaced_sample(range(q - 1), 6)
    chars, k = [char(base, i) for i in idx], len(idx)
    zero_arg = rep.family("hyp-zero-arg", "A={},B={}", tol)
    bound, lim, n = rep.family("hyp-bound", "A={},B={},C={},x={}", tol), (q - 1) / q, q - 1
    for a in chars:
        zero_arg.extend((abs(hyp2f1(a, b, a, 0)) for b in chars), repeat(a.index, k), idx)
        for b in chars:
            for c in chars:
                devs = [max(0.0, abs(r) - lim) for r in hyp2f1_row(a, b, c)[1:]]
                bound.extend(devs, repeat(a.index, n), repeat(b.index, n), repeat(c.index, n), js)

    reflection = rep.family("binom-reflection", "D={},chi={}", tol)
    for d in chars:
        devs = (abs(binom(d * c.conj, c.conj) - d(-1) * binom(c, d.conj * c)) for c in chars)
        reflection.extend(devs, repeat(d.index, k), idx)

    even = rep.family("fiber-jacobi-even", "D={},j={}", tol)
    for d in chars:
        row = norm_jacobi_row(ctx, d)
        devs = (abs(row[j] - norm_restricted_jacobi(ctx, d, base.neg[j], scan=True)) for j in js)
        even.extend(devs, repeat(d.index, n), js)
    return rep


def suite_theorem41(ctx: KatzContext, policy: TolerancePolicy) -> VerificationReport:
    """R(D, j) against its hypergeometric reduction, all (D, j).  For each D
    the row R(D, .) of the fibers against its closed form:

    j = +-1:  -conj(D)(4) J(phi D^2, phi), one literal Jacobi sum per D
    else:     -phi(j) q conj(D)^4(j-1) 2F1(D, D^2 phi; D phi | -((j+1)/(j-1))^2)

    with the 2F1 read from reduction_row and each character value from the
    root table by log."""
    q = ctx.tower.q
    base = ctx.tower.base
    rep = VerificationReport("theorem-4.1", q, None)
    tol = policy.abs_tol(q, 4 * q * q)
    fiber_hyp = rep.family("fiber-jacobi-hyp", "D={},j={}", tol)
    n, roots, dlog, sub = q - 1, base.unity_roots, base.dlog, base.sub_codes
    phi, half, ends, js = quadratic_char(base), (q - 1) // 2, (1, base.neg[1]), range(1, q)
    for d_idx in range(n):
        d = char(base, d_idx)
        left, hyp = norm_jacobi_row(ctx, d), reduction_row(d)
        c4 = -4 * d_idx % n  # the index of conj(D)^4
        at_ends = -roots[-d_idx % n * dlog[4 % base.p] % n] * jacobi(phi * d**2, phi)
        right = (
            at_ends if j in ends
            else -roots[half * dlog[j] % n] * q * roots[c4 * dlog[sub(j, 1)] % n] * hyp[j]
            for j in js
        )
        fiber_hyp.extend((abs(left[j] - r) for j, r in zip(js, right)), repeat(d_idx, n), js)
    return rep


def suite_mellin(ctx: KatzContext, policy: TolerancePolicy) -> VerificationReport:
    """Single and double Mellin evaluations, Mellin inversion, and the
    literal double transform, each a reading of V against the closed forms
    of S(chi) and S(chi1) S(chi2), computed once.  A character is read by
    its index k in chars: chi_k(a) is roots[k dlog(a)], phi is (q-1)/2, conj
    is -k and products add.  An odd chi_k is phi nu^4 for nu = nus[k]
    (decompose_odd), mu = nu1 nu2, and the evaluations of S read the Jacobi
    bracket J2(nu N M8, C N) + J2(nu N M8^5, C N) of katz.jacobi_bracket."""
    tower = ctx.tower
    q = tower.q
    base = tower.base
    rep = VerificationReport("mellin", q, ctx.a_index())
    tol = policy.abs_tol(q, 4 * q * q)
    tol_pairs = policy.abs_tol(q, q**3)
    n, half, g, roots, la = q - 1, (q - 1) // 2, gauss_sums(base), base.unity_roots, ctx.a_index()
    chars, m8, m8_5 = [char(base, i) for i in range(q - 1)], ctx.M8, ctx.M8**5
    nus = [decompose_odd(c).index if c.is_odd() else None for c in chars]

    def closed_single(k):  # S(chi_k)
        if k % 2 == 0:
            return 0j
        nu = nus[k]
        return (
            roots[-nu % n * la % n] / ctx.tau * lifted_gauss(tower, chars[nu], m8)
            + roots[(half - nu) % n * la % n] / ctx.tau * lifted_gauss(tower, chars[nu], m8_5)
        )

    def closed_product(k1, k2):  # S(chi_k1) S(chi_k2)
        if not (k1 % 2 and k2 % 2):
            return 0j
        nu1, mu = nus[k1], (nus[k1] + nus[k2]) % n
        rhs = 0j
        for i in (0, 1):
            ch = (half * i - mu) % n
            bracket = jacobi_bracket(ctx, chars[nu1], chars[ch])
            rhs += roots[ch * la % n] * q / lifted_gauss(tower, chars[ch]) * bracket
        return rhs

    def mixed(k1, k2):
        # the weights (conj(mu) phi^i)(a) of the rows of D = mu and mu phi are
        # equal at a square a, where this check sees only the sum of the two
        # rows and passes the row of D*phi served for D; a non-square a fails
        # it, and the gauss-ratio-bridge, which does not read a, catches it
        t = double_mellin_mixed(ctx, chars[k1], chars[k2])
        if not (k1 % 2 and k2 % 2):
            return abs(t)
        mu = (nus[k1] + nus[k2]) % n
        g_ratio = g[(half + 2 * mu) % n] / g[half]
        rhs = 0j
        for i in (0, 1):
            d = (mu + half * i) % n
            hsum = kernel_mellin(chars[d], chars[k1])
            weight = roots[(half * i - mu) % n * la % n]
            rhs += weight * g_ratio * (hsum + 2 * (q - 1) * delta(chars[d]))
        return abs(t - rhs)

    closed = [closed_single(k) for k in range(n)]
    singles = (abs(mellin_transform(ctx, c) - s) for c, s in zip(chars, closed))
    rep.family("mellin-single", "chi={}", tol).extend(singles, range(n))
    pairs = select_char_pairs(base)
    columns, pair_chars = list(zip(*pairs)), [(chars[k1], chars[k2]) for k1, k2 in pairs]
    closed_pairs = list(starmap(closed_product, pairs))
    products = (double_mellin_product(ctx, *c) for c in pair_chars)
    product_fam = rep.family("double-mellin-product", "chi1={},chi2={}", tol_pairs)
    product_fam.extend((abs(x - y) for x, y in zip(products, closed_pairs)), *columns)
    mixed_fam = rep.family("double-mellin-mixed", "chi1={},chi2={}", tol_pairs)
    mixed_fam.extend(starmap(mixed, pairs), *columns)
    if sweeps_every_char(q):
        literal = rep.family("double-mellin-literal", "chi1={},chi2={}", tol_pairs)
        lits = (double_mellin_product(ctx, *c, literal=True) for c in pair_chars)
        literal.extend((abs(x - y) for x, y in zip(lits, closed_pairs)), *columns)

    v = ctx.v_vector()
    tables = [c.value_table() for c in chars]
    inversion, js = rep.family("mellin-inversion", "j={}", tol_pairs), range(1, q)
    recon = (sum(s * t[j].conjugate() for s, t in zip(closed, tables)) / (q - 1) for j in js)
    inversion.extend((abs(r - v[j]) for j, r in zip(js, recon)), js)
    return rep


def suite_theorem5x(ctx: KatzContext, policy: TolerancePolicy) -> VerificationReport:
    """Kernel closed forms, the weighted transforms W and Y, the double-sum
    evaluation with its integer anchor, and the Gauss-ratio bridge.  For each
    D the kernel row h(D, .) is checked against its closed form:

    j = +-1:            -phi(j) conj(D)(16) J(D, phi), one literal Jacobi sum per D
    j != +-1, D = eps:  0
    j != +-1, D != eps: (G(phi)G(D)^2/G(phi D^2)) conj(D)^4(j-1) 2F1(...)

    with the 2F1 read from reduction_row, as in theorem-4.1.  W(D) (2 at D =
    eps), Y(D) and the double sum are checked against the Jacobi bracket,
    with characters read by index as in suite_mellin."""
    tower = ctx.tower
    q = tower.q
    base = tower.base
    rep = VerificationReport("theorem-5.x", q, None)
    tol = policy.abs_tol(q, 4 * q * q)

    all_idx = list(range(q - 1))
    closed_form = rep.family("kernel-closed-form", "D={},j={}", tol)
    n, roots, dlog, sub, js = q - 1, base.unity_roots, base.dlog, base.sub_codes, range(1, q)
    half, ends, g = (q - 1) // 2, (1, base.neg[1]), gauss_sums(base)
    chars = [char(base, i) for i in all_idx]
    phi = chars[half]
    for d_idx in all_idx:
        d = chars[d_idx]
        left, hyp = kernel_row(d), reduction_row(d)
        c4, c16 = -4 * d_idx % n, roots[-d_idx % n * dlog[16 % base.p] % n]
        jac = jacobi(d, phi)
        ratio = g[half] * g[d_idx] ** 2 / g[(half + 2 * d_idx) % n]
        right = (
            -roots[half * dlog[j] % n] * c16 * jac if j in ends
            else ratio * roots[c4 * dlog[sub(j, 1)] % n] * hyp[j] if d_idx
            else 0j
            for j in js
        )
        closed_form.extend((abs(left[j] - r) for j, r in zip(js, right)), repeat(d_idx, n), js)

    def transform(d, nu):
        lhs = kernel_mellin(chars[d], chars[(half + 4 * nu) % n])
        if d == 0:
            return abs(lhs - 2)
        bracket = jacobi_bracket(ctx, chars[nu], chars[-d % n])
        rhs = -g[half] * g[d] ** 2 / (q * g[(half + 2 * d) % n]) * bracket
        return abs(lhs - rhs)

    def fiber(d, nu, r):
        w = chars[4 * nu % n].value_table()
        lhs = sum(w[j] * r[j] for j in range(1, q))
        return abs(lhs - jacobi_bracket(ctx, chars[nu], chars[-d % n]))

    idx = all_idx if sweeps_every_char(q) else spaced_sample(all_idx, 6)
    transform_fam = rep.family("kernel-transform", "D={},nu={}", tol)
    fiber_fam = rep.family("fiber-transform", "D={},nu={}", tol)
    bridge = rep.family("gauss-ratio-bridge", "D={},nu={}", tol)
    for d in idx:
        ds, r = [d] * len(idx), norm_jacobi_row(ctx, chars[d])  # R(D, .), read once per D
        transform_fam.extend((transform(d, nu) for nu in idx), ds, idx)
        fiber_fam.extend((fiber(d, nu, r) for nu in idx), ds, idx)
        bridge.extend((ratio_bracket_deviation(ctx, nu, d) for nu in idx), ds, idx)

    double = [kernel_double_sum(q, nu) for nu in idx]  # idx[0] = 0: the anchor's sum too
    rep.family("kernel-double-sum", "nu={}", tol).extend(
        (abs(s - jacobi_bracket(ctx, chars[nu], phi)) for s, nu in zip(double, idx)), idx
    )
    anchor = kernel_double_sum_anchor(q)
    rep.family("kernel-double-anchor", "nu=0", tol).extend([abs(double[0] - anchor)])

    # mu^4 and mu^2 are trivial iff 4 mu and 2 mu are 0 mod q-1
    rep.family("delta-square-fourth", "mu={}", tol).extend(
        (float(abs(int(4 * mu % n == 0) - int(2 * mu % n == 0))) for mu in all_idx), all_idx
    )
    return rep


def suite_remark_z(q: int, policy: TolerancePolicy) -> VerificationReport:
    """Z against its integer evaluation (0, 4q, or 4c^2)."""
    rep = VerificationReport("remark-Z", q, None)
    tol = policy.abs_tol(q, 4 * q * q)
    val = quadratic_kernel_mellin(q)
    expected = quadratic_kernel_expected(q)
    rep.family("z-evaluation", "expected={}", tol).extend([abs(val - expected)], [expected])
    return rep


# ---------------------------------------------------------------------------
# registry and orchestration


@dataclass(frozen=True)
class Suite:
    """A registered suite: its check, fields and fan-out.  The check takes the
    task's KatzContext if octic, else the tower if q = 3 (mod 4), else q."""

    check: Callable  # check(ctx | tower | q, policy) -> VerificationReport
    mod4: int = 3  # the q mod 4 it requires
    default_q: tuple[int, ...] = DEFAULT_Q  # its fields when none are given
    a_sweep: bool = False  # one task per a of the a-sweep
    octic: bool = False  # reads M8: one task per octic variant when octic_variants is set


SUITES = {
    "classical": Suite(suite_classical),
    "eisenstein": Suite(suite_eisenstein),
    "hypergeometric": Suite(suite_hypergeometric, octic=True),
    "theorem-4.1": Suite(suite_theorem41, octic=True),
    "mellin": Suite(suite_mellin, a_sweep=True, octic=True),
    "theorem-5.x": Suite(suite_theorem5x, octic=True),
    "remark-Z": Suite(suite_remark_z, mod4=1, default_q=DEFAULT_Q_REMARK),
    "master": Suite(verify_master_identity, a_sweep=True, octic=True),
}


def _run_task(task) -> list[VerificationReport]:
    """Run one (p, t, a, variant, floor, scale) task's suites in registry order,
    those that read M8 on one KatzContext; each report's summary is stored as
    its totals.  mellin, the first to read V and P, builds P after its
    single-Mellin rows, so P is not held during those."""
    (p, t, a_code, variant, floor, scale), suites = task
    ctx, reports = None, []
    for suite in sorted(suites, key=list(SUITES).index):
        entry = SUITES[suite]
        if entry.octic:
            arg = ctx = ctx or KatzContext(build_tower(p, t), a_code, m8_variant=variant)
        else:
            arg = build_tower(p, t) if entry.mod4 == 3 else p**t
        t0 = time.perf_counter()
        rep = entry.check(arg, TolerancePolicy(floor=floor, scale=scale))
        rep.wall_time = time.perf_counter() - t0
        if variant != 1:
            rep.suite = f"{rep.suite}@m8={variant}"
        rep.totals = rep.summary()
        reports.append(rep)
    return reports


def build_tasks(config: RunConfig) -> list[tuple]:
    tasks = []
    floor, scale = config.tolerance.floor, config.tolerance.scale
    for suite, p, t in config.jobs():
        entry = SUITES[suite]
        variants = (1, 3, 5, 7) if config.octic_variants and entry.octic else (1,)
        a_codes = a_values(p**t, config.a_policy) if entry.a_sweep else (None,)
        tasks.extend((suite, p, t, a, v, floor, scale) for v in variants for a in a_codes)
    return tasks


def run(config: RunConfig) -> tuple[int, list[VerificationReport]]:
    """Execute the configured suites; returns (exit_code, reports sorted by
    suite, q and a; the checks of each stay in check order).  The exit code
    is EXIT_CHECK_FAILED if any report's summary counts a failed check.

    Raises ConfigError for unusable configs, FieldError for field
    construction problems, OSError for output failures.
    """
    groups = {}
    for suite, p, t, a_code, *rest in build_tasks(config):
        a_code = (a_code or 1) if SUITES[suite].octic else None  # see the module docstring
        groups.setdefault((p, t, a_code, *rest), []).append(suite)
    tasks = list(groups.items())
    workers = config.workers(len(tasks))
    if workers > 1:
        # imported here, not at the top: it adds about 30 ms and 2.5 MB to every start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = [rep for reps in pool.map(_run_task, tasks) for rep in reps]
    else:
        reports = [rep for task in tasks for rep in _run_task(task)]
    reports.sort(key=report_sort_key)
    if config.out_json:
        write_json(reports, config.out_json)
    if config.out_csv:
        write_csv(reports, config.out_csv)
    code = EXIT_OK if all(rep.all_passed for rep in reports) else EXIT_CHECK_FAILED
    return code, reports


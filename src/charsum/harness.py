"""Run configuration, suite orchestration and result persistence.

A run is a set of tasks, one per (field, a, octic variant); the suites of a
task that read M8 share one KatzContext, and the a-independent suites join
the task at a = 1.  Every suite gives a VerificationReport whose checks are
deterministic for a given configuration and kept in check order, so serial
and parallel runs write the same records in the same order.  The fields a
suite accepts and how it fans out are its entry in the `SUITES` registry;
every configuration setting is one row of `CONFIG_KEYS`, which the config
file and the CLI flags share.
"""

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, replace
from itertools import repeat

from .characters import char, quadratic_char, trivial_char
from .classical_sums import (
    eisenstein_sums,
    gauss_sums,
    hasse_davenport_product_deviation,
    jacobi,
    jacobi_row,
    lifted_gauss_deviation,
    quartic_gauss_deviation,
)
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
    double_mellin_mixed_deviation,
    double_mellin_product,
    double_mellin_product_deviation,
    fiber_jacobi_transform_deviation,
    kernel_double_sum,
    kernel_double_sum_anchor,
    kernel_double_sum_deviation,
    kernel_row,
    kernel_transform_deviation,
    mellin_single_deviation,
    mellin_transform,
    quadratic_kernel_expected,
    quadratic_kernel_mellin,
    ratio_bracket_deviation,
    select_char_pairs,
    spaced_sample,
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
    except OSError as e:
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


def _all_chars(field):
    return [char(field, i) for i in range(field.order - 1)]


def suite_classical(tower, policy: TolerancePolicy) -> VerificationReport:
    """Gauss/Jacobi basics, the Hasse-Davenport product and lifting relations,
    the quartic Gauss evaluation, and Frobenius conjugation of G2.  The
    Jacobi checks of each A read its row J(A, .), one transform per A."""
    q = tower.q
    base, top = tower.base, tower.top
    rep = VerificationReport("classical", q, None)
    tol = policy.abs_tol(q, 4 * top.order)
    g, g2 = gauss_sums(base), gauss_sums(top)

    gauss_trivial = rep.family("gauss-trivial", "order={}", tol)
    for f, gf in ((base, g), (top, g2)):
        gauss_trivial(abs(gf[0] + 1), f.order)
    conjugate = rep.family("gauss-conjugate", "A={}", tol)
    for a in _all_chars(base)[1:]:
        conjugate(abs(g[a.index] * g[a.conj.index] - a(-1) * q), a.index)
    conjugate_top = rep.family("gauss-conjugate-top", "beta={}", tol)
    for b in _all_chars(top)[1:]:
        conjugate_top(abs(g2[b.index] * g2[b.conj.index] - b(-1) * top.order), b.index)

    n = q - 1
    jac_eps = jacobi_row(trivial_char(base))  # J(eps, chi_k)
    rep.family("jacobi-trivial", "", tol)(abs(jac_eps[0] - (q - 2)))
    inverse = rep.family("jacobi-inverse", "A={}", tol)
    with_trivial = rep.family("jacobi-with-trivial", "A={}", tol)
    bridge = rep.family("gauss-jacobi-bridge", "A={},B={}", tol)
    reflection = rep.family("jacobi-reflection", "A={},C={}", tol)
    hd_product = rep.family("hd-product", "A={}", tol)
    for a in _all_chars(base):
        i, sign = a.index, a(-1)
        jac = jacobi_row(a) if i else jac_eps  # J(A, chi_k)
        if i:
            inverse(abs(jac[-i % n] + sign), i)
            with_trivial(abs(jac_eps[i] + 1), i)
        for k in range(n):
            if (i + k) % n:
                bridge(abs(jac[k] - g[i] * g[k] / g[(i + k) % n]), i, k)
        for k in range(1, n):  # J(A, conj C) against A(-1) J(A, conj(A) C)
            reflection(abs(jac[-k % n] - sign * jac[(k - i) % n]), i, k)
        hd_product(hasse_davenport_product_deviation(a), i)

    lifted = rep.family("lifted-gauss", "C={}", tol)
    quartic = rep.family("quartic-gauss", "C={}", tol)
    for c in _all_chars(base):
        lifted(lifted_gauss_deviation(tower, c), c.index)
        quartic(quartic_gauss_deviation(tower, c), c.index)

    frobenius = rep.family("gauss-frobenius", "beta={}", tol)
    for b in _all_chars(top):
        frobenius(abs(g2[b.index] - g2[(b**q).index]), b.index)
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
    rep.family("line-count", "", tol)(abs(len(tower.trace_line) - q))
    rep.family("eisenstein-trivial", "", tol)(abs(e2[0] - q))
    rep.family("eisenstein-line-trivial", "", tol)(abs(e[0] - q))
    shift = rep.family("eisenstein-shift", "beta={}", tol)
    gauss_ratio = rep.family("eisenstein-gauss-ratio", "beta={}", tol)
    for k in range(n):
        shift(abs(e[k] - roots[k * log2 % n] * e2[k]), k)  # chi_k(2) from the root table
        if k:
            star = k % (q - 1)
            gauss_ratio(abs(e2[k] - (g2[k] / g[star] if star else -g2[k] / q)), k)
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

    norm_fiber_check = rep.family("norm-fiber", "c={}", tol)
    for c in range(1, q):
        fib = norm_fiber(tower, c)
        dev = abs(len(fib) - (q + 1))
        if sorted(fib) != norm_fiber(tower, c, scan=True):
            dev = max(dev, 1.0)
        norm_fiber_check(dev, c)

    idx = list(range(q - 1)) if q <= 11 else spaced_sample(list(range(q - 1)), 6)
    chars = [char(base, i) for i in idx]
    zero_arg = rep.family("hyp-zero-arg", "A={},B={}", tol)
    rep.family("hyp-bound", "A={},B={},C={},x={}", tol)
    bound, lim, n = rep.families["hyp-bound"].extend, (q - 1) / q, q - 1
    for a in chars:
        for b in chars:
            zero_arg(abs(hyp2f1(a, b, a, 0)), a.index, b.index)
            for c in chars:
                devs = [max(0.0, abs(r) - lim) for r in hyp2f1_row(a, b, c)[1:]]
                bound(devs, repeat(a.index, n), repeat(b.index, n), repeat(c.index, n), range(1, q))

    reflection = rep.family("binom-reflection", "D={},chi={}", tol)
    for d in chars:
        for c in chars:
            lhs = binom(d * c.conj, c.conj)
            rhs = d(-1) * binom(c, d.conj * c)
            reflection(abs(lhs - rhs), d.index, c.index)

    even = rep.family("fiber-jacobi-even", "D={},j={}", tol)
    for d in chars:
        row = norm_jacobi_row(ctx, d)
        for j in range(1, q):
            dev = abs(row[j] - norm_restricted_jacobi(ctx, d, base.neg[j], scan=True))
            even(dev, d.index, j)
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
    phi, half, ends = quadratic_char(base), (q - 1) // 2, (1, base.neg[1])
    for d_idx in range(n):
        d = char(base, d_idx)
        left, hyp = norm_jacobi_row(ctx, d), reduction_row(d)
        c4 = -4 * d_idx % n  # the index of conj(D)^4
        at_ends = -roots[-d_idx % n * dlog[4 % base.p] % n] * jacobi(phi * d**2, phi)
        for j in range(1, q):
            if j in ends:
                right = at_ends
            else:
                right = -roots[half * dlog[j] % n] * q * roots[c4 * dlog[sub(j, 1)] % n] * hyp[j]
            fiber_hyp(abs(left[j] - right), d_idx, j)
    return rep


def suite_mellin(ctx: KatzContext, policy: TolerancePolicy) -> VerificationReport:
    """Single and double Mellin evaluations, Mellin inversion, and the
    literal-vs-product oracle for the double transform."""
    tower = ctx.tower
    q = tower.q
    base = tower.base
    rep = VerificationReport("mellin", q, ctx.a_index())
    tol = policy.abs_tol(q, 4 * q * q)
    tol_pairs = policy.abs_tol(q, q**3)

    single = rep.family("mellin-single", "chi={}", tol)
    for i in range(q - 1):
        single(mellin_single_deviation(ctx, char(base, i)), i)

    product = rep.family("double-mellin-product", "chi1={},chi2={}", tol_pairs)
    mixed = rep.family("double-mellin-mixed", "chi1={},chi2={}", tol_pairs)
    literal = q <= 11 and rep.family("double-mellin-literal", "chi1={},chi2={}", tol_pairs)
    for i1, i2 in select_char_pairs(base):
        chi1, chi2 = char(base, i1), char(base, i2)
        product(double_mellin_product_deviation(ctx, chi1, chi2), i1, i2)
        mixed(double_mellin_mixed_deviation(ctx, chi1, chi2), i1, i2)
        if literal:
            dev = abs(
                double_mellin_product(ctx, chi1, chi2, literal=True)
                - double_mellin_product(ctx, chi1, chi2)
            )
            literal(dev, i1, i2)

    v = ctx.v_vector()
    s_all = [mellin_transform(ctx, char(base, i)) for i in range(q - 1)]
    tables = [char(base, i).value_table() for i in range(q - 1)]
    inversion = rep.family("mellin-inversion", "j={}", tol_pairs)
    for j in range(1, q):
        recon = sum(s_all[i] * tables[i][j].conjugate() for i in range(q - 1)) / (q - 1)
        inversion(abs(recon - v[j]), j)
    return rep


def suite_theorem5x(ctx: KatzContext, policy: TolerancePolicy) -> VerificationReport:
    """Kernel closed forms, the weighted transforms W and Y, the double-sum
    evaluation with its integer anchor, and the Gauss-ratio bridge.  For each
    D the kernel row h(D, .) is checked against its closed form:

    j = +-1:            -phi(j) conj(D)(16) J(D, phi), one literal Jacobi sum per D
    j != +-1, D = eps:  0
    j != +-1, D != eps: (G(phi)G(D)^2/G(phi D^2)) conj(D)^4(j-1) 2F1(...)

    with the 2F1 read from reduction_row, as in theorem-4.1."""
    tower = ctx.tower
    q = tower.q
    base = tower.base
    rep = VerificationReport("theorem-5.x", q, None)
    tol = policy.abs_tol(q, 4 * q * q)

    all_idx = list(range(q - 1))
    closed_form = rep.family("kernel-closed-form", "D={},j={}", tol)
    n, roots, dlog, sub = q - 1, base.unity_roots, base.dlog, base.sub_codes
    phi, half, ends, g = quadratic_char(base), (q - 1) // 2, (1, base.neg[1]), gauss_sums(base)
    for d_idx in all_idx:
        d = char(base, d_idx)
        left, hyp = kernel_row(d), reduction_row(d)
        c4, c16 = -4 * d_idx % n, roots[-d_idx % n * dlog[16 % base.p] % n]
        jac = jacobi(d, phi)
        ratio = g[half] * g[d_idx] ** 2 / g[(half + 2 * d_idx) % n]
        for j in range(1, q):
            if j in ends:
                right = -roots[half * dlog[j] % n] * c16 * jac
            elif d_idx:
                right = ratio * roots[c4 * dlog[sub(j, 1)] % n] * hyp[j]
            else:
                right = 0j
            closed_form(abs(left[j] - right), d_idx, j)

    idx = all_idx if q <= 11 else spaced_sample(all_idx, 6)
    transform = rep.family("kernel-transform", "D={},nu={}", tol)
    fiber_transform = rep.family("fiber-transform", "D={},nu={}", tol)
    bridge = rep.family("gauss-ratio-bridge", "D={},nu={}", tol)
    for d_idx in idx:
        d = char(base, d_idx)
        for n_idx in idx:
            nu = char(base, n_idx)
            transform(kernel_transform_deviation(ctx, d, nu), d_idx, n_idx)
            fiber_transform(fiber_jacobi_transform_deviation(ctx, d, nu), d_idx, n_idx)
            bridge(ratio_bracket_deviation(ctx, nu, d), d_idx, n_idx)

    double_sum = rep.family("kernel-double-sum", "nu={}", tol)
    for n_idx in idx:
        double_sum(kernel_double_sum_deviation(q, n_idx, ctx.m8_variant), n_idx)
    anchor = kernel_double_sum_anchor(q)
    rep.family("kernel-double-anchor", "nu=0", tol)(abs(kernel_double_sum(q) - anchor))

    square_fourth = rep.family("delta-square-fourth", "mu={}", tol)
    for m_idx in all_idx:
        mu = char(base, m_idx)
        square_fourth(float(abs(int((mu**4).is_trivial) - int((mu**2).is_trivial))), m_idx)
    return rep


def suite_remark_z(q: int, policy: TolerancePolicy) -> VerificationReport:
    """Z against its integer evaluation (0, 4q, or 4c^2)."""
    rep = VerificationReport("remark-Z", q, None)
    tol = policy.abs_tol(q, 4 * q * q)
    val = quadratic_kernel_mellin(q)
    expected = quadratic_kernel_expected(q)
    rep.family("z-evaluation", "expected={}", tol)(abs(val - expected), expected)
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
        groups.setdefault((p, t, a_code or 1, *rest), []).append(suite)
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


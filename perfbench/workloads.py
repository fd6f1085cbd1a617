"""The benchmark's fixed workloads and the check inventory each must produce.

A workload is one `charsum run` configuration.  Its inventory, the number of
report records per (suite, q, a_index, check_id), is derived here from the
loop bounds of the suites, independently of the program, so that a run which
drops checks cannot pass as a faster one.  Nothing in this module depends on
the seed: every workload configuration is fixed.
"""

from dataclasses import dataclass

SUITES = (
    "classical",
    "eisenstein",
    "hypergeometric",
    "theorem-4.1",
    "mellin",
    "theorem-5.x",
    "remark-Z",
    "master",
)
DEFAULT_Q = (3, 7, 11, 19, 23, 27)
DEFAULT_Q_REMARK = (5, 9, 13, 17, 25)
A_DEPENDENT = ("mellin", "master")


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]  # empty: no --suite flag, every applicable suite
    qs: tuple[int, ...]  # empty: no --q flag, the built-in default family
    a_policy: str  # "auto" is the CLI default and is not passed as a flag

    def cli_args(self) -> list[str]:
        args = []
        for s in self.suites:
            args += ["--suite", s]
        for q in self.qs:
            args += ["--q", str(q)]
        if self.a_policy != "auto":
            args += ["--a", self.a_policy]
        return args

    def jobs(self) -> list[tuple[str, int]]:
        """(suite, q) in the order `charsum run` resolves them."""
        if not self.qs:
            return [
                (s, q)
                for s in SUITES
                for q in (DEFAULT_Q_REMARK if s == "remark-Z" else DEFAULT_Q)
            ]
        return [(s, q) for q in self.qs for s in self.suites]

    def fields(self) -> tuple[list[int], list[int]]:
        """(towers, plain fields) the run builds, each q once, in build order.

        remark-Z builds only the field F_q; every other suite builds the tower
        F_q in F_{q^2}.
        """
        towers, plain = [], []
        for s, q in self.jobs():
            dest = plain if s == "remark-Z" else towers
            if q not in dest:
                dest.append(q)
        return towers, plain

    def inventory(self) -> dict[tuple, int]:
        """Expected record count per (suite, q, a_index, check_id)."""
        inv = {}
        for s, q in self.jobs():
            a_indices = a_index_set(q, self.a_policy) if s in A_DEPENDENT else [None]
            for a_index in a_indices:
                for check_id, n in suite_counts(s, q).items():
                    if n:
                        inv[(s, q, a_index, check_id)] = n
        return inv

    def n_checks(self) -> int:
        return sum(self.inventory().values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default-family", (), (), "auto"),
        Workload("master-263", ("master",), (263,), "sample-1"),
        Workload(
            "suites-59",
            ("classical", "eisenstein", "hypergeometric", "theorem-4.1", "theorem-5.x"),
            (59,),
            "auto",
        ),
    )
}


def a_index_set(q: int, policy: str) -> list[int]:
    """Discrete logs of the a-sweep: every a, or the first N generator powers."""
    if policy == "auto":
        policy = "all" if q <= 50 else "sample-8"
    if policy == "all":
        return list(range(q - 1))
    return list(range(min(int(policy[len("sample-"):]), q - 1)))


def _spaced(items: list[int], k: int) -> list[int]:
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def _sample_size(q: int) -> int:
    """Characters per axis in the hypergeometric and theorem-5.x sweeps."""
    return q - 1 if q <= 11 else min(6, q - 1)


def _pair_indices(q: int) -> list[int]:
    """Character indices per axis of the double-Mellin pair sweep."""
    n = q - 1
    if q <= 11:
        return list(range(n))
    return _spaced(list(range(1, n, 2)), 4) + _spaced(list(range(0, n, 2)), 2)


def _bridge_count(q: int) -> int:
    """Distinct (nu1, D) arguments of the master suite's Gauss-ratio bridge.

    For odd chi1, chi2 write chi = phi * nu^4 with the smallest nu; the bridge
    runs for D = nu1 nu2 phi^i, i in {0, 1}.
    """
    n = q - 1
    half = n // 2

    def nu(c):
        return min(x for x in range(n) if (4 * x) % n == (c - half) % n)

    odd = [c for c in _pair_indices(q) if c % 2]
    return len(
        {(nu(c1), (nu(c1) + nu(c2) + i * half) % n) for c1 in odd for c2 in odd for i in (0, 1)}
    )


def suite_counts(suite: str, q: int) -> dict[str, int]:
    """Records per check_id of one suite task at q, from the suite's loops."""
    n = q - 1  # characters of F_q
    n2 = q * q - 1  # characters of F_{q^2}
    k = _sample_size(q)
    m = len(_pair_indices(q))
    if suite == "classical":
        return {
            "gauss-trivial": 2,
            "gauss-conjugate": n - 1,
            "gauss-conjugate-top": n2 - 1,
            "jacobi-trivial": 1,
            "jacobi-inverse": n - 1,
            "jacobi-with-trivial": n - 1,
            "gauss-jacobi-bridge": n * n - n,
            "jacobi-reflection": n * (n - 1),
            "hd-product": n,
            "lifted-gauss": n,
            "quartic-gauss": n,
            "gauss-frobenius": n2,
        }
    if suite == "eisenstein":
        return {
            "line-count": 1,
            "eisenstein-trivial": 1,
            "eisenstein-line-trivial": 1,
            "eisenstein-shift": n2,
            "eisenstein-gauss-ratio": n2 - 1,
        }
    if suite == "hypergeometric":
        return {
            "norm-fiber": n,
            "hyp-zero-arg": k * k,
            "hyp-bound": k**3 * n,
            "binom-reflection": k * k,
            "fiber-jacobi-even": k * n,
        }
    if suite == "theorem-4.1":
        return {"fiber-jacobi-hyp": n * n}
    if suite == "mellin":
        return {
            "mellin-single": n,
            "double-mellin-product": m * m,
            "double-mellin-mixed": m * m,
            "double-mellin-literal": m * m if q <= 11 else 0,
            "mellin-inversion": n,
        }
    if suite == "theorem-5.x":
        return {
            "kernel-closed-form": n * n,
            "kernel-transform": k * k,
            "fiber-transform": k * k,
            "gauss-ratio-bridge": k * k,
            "kernel-double-sum": k,
            "kernel-double-anchor": 1,
            "delta-square-fourth": n,
        }
    if suite == "remark-Z":
        return {"z-evaluation": 1}
    if suite == "master":
        return {
            "point-identity": q * q,
            "mellin-match": m * m,
            "gauss-ratio-bridge": _bridge_count(q),
        }
    raise ValueError(f"unknown suite {suite!r}")

"""Child processes of the benchmark; each runs in a fresh interpreter.

    probe.py setup --tower Q ... --field Q ... [--spots WORKLOAD --seed N]
        Import charsum and build the given towers and fields, then print
        "ready".  With --spots, then print the reference spot checks as JSON.
    probe.py replay WORKLOAD --seed N --out DIR
        The traced run: the workload's tasks through the layers' public
        functions, in the order of harness._run_task, one span per call.
        Writes report.json, report.csv and trace.json to DIR.

PYTHONPATH must name the charsum sources.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext


def build_fields(towers, fields, span=None):
    """Build each tower, then each plain field; in spans when span is given."""
    from charsum.finite_field import build_tower, construct_field, factor_prime_power

    for fn, qs in ((build_tower, towers), (construct_field, fields)):
        for q in qs:
            with span(f"finite_field.{fn.__name__}", q=q) if span else nullcontext():
                fn(*factor_prime_power(q))


def spot_checks(workload: str, seed: int) -> list[dict]:
    """Library values paired with the prime-field reference.

    The seed picks the sampled points (P entries, h(phi, j) arguments); the
    anchors are fixed.  Fields come from the library's caches when the run
    already built them.
    """
    import random

    import reference as ref
    from charsum import KatzContext, build_tower, construct_field, gauss, kernel_double_sum
    from charsum import kernel_sum, mixed_sum, quadratic_char, quadratic_kernel_mellin

    rng = random.Random(seed)
    spots = []

    def add(label, lib, want):
        lib, want = complex(lib), complex(want)
        spots.append(
            {"label": label, "value": [lib.real, lib.imag], "expected": [want.real, want.imag]}
        )

    def h_samples(field, p, k):
        phi = quadratic_char(field)
        for j in rng.sample(range(1, p), k):
            add(f"h(phi,{j}) q={p}", kernel_sum(phi, j), ref.kernel_h(p, j))

    if workload == "master-263":
        p, a = 263, 1  # a = g^0, the only a of --a sample-1
        ctx = KatzContext(build_tower(p), a)
        add(f"G(phi) q={p}", gauss(ctx.phi), ref.gauss_quadratic(p))
        for _ in range(24):
            j, k = rng.randrange(p), rng.randrange(p)
            add(f"P({j},{k}) q={p} a={a}", mixed_sum(ctx, j, k), ref.mixed_sum(p, a, j, k))
    elif workload == "suites-59":
        p = 59
        base = build_tower(p).base
        add(f"G(phi) q={p}", gauss(quadratic_char(base)), ref.gauss_quadratic(p))
        exact = ref.double_sum(p)
        add(f"double sum q={p}", kernel_double_sum(p), exact)
        add(f"reference double sum q={p} vs 2u", exact, ref.double_sum_closed_form(p))
        h_samples(base, p, 8)
    elif workload == "default-family":
        for p in (3, 7, 11, 19, 23):
            base = build_tower(p).base
            add(f"G(phi) q={p}", gauss(quadratic_char(base)), ref.gauss_quadratic(p))
            h_samples(base, p, 2)
        for p in (7, 11, 19, 23):
            exact = ref.double_sum(p)
            add(f"double sum q={p}", kernel_double_sum(p), exact)
            add(f"reference double sum q={p} vs closed form", exact, ref.double_sum_closed_form(p))
        for p in (5, 13, 17):
            exact = ref.double_sum(p)
            add(f"Z q={p}", quadratic_kernel_mellin(p), exact)
            add(f"reference Z q={p} vs closed form", exact, ref.double_sum_closed_form(p))
            h_samples(construct_field(p), p, 2)
    else:
        raise ValueError(f"no spot checks for workload {workload!r}")
    return spots


def replay(workload, seed: int, out_dir: str) -> None:
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    span = tracer.span
    with span("cli.import"):
        from charsum import KatzContext, char, gauss, quadratic_char
        from charsum import harness
        from charsum.cli import build_parser, config_from_args
        from charsum.finite_field import build_tower, construct_field
        from charsum.katz import verify_master_identity
        from charsum.report import report_sort_key, write_csv, write_json
        from charsum.tolerance import TolerancePolicy

    w = WORKLOADS[workload]
    json_path, csv_path = os.path.join(out_dir, "report.json"), os.path.join(out_dir, "report.csv")
    with span("cli.config"):
        args = build_parser().parse_args(["run", *w.cli_args(), "--out", json_path, "--csv", csv_path])
        cfg = config_from_args(args)
        cfg.jobs()
    # `charsum run` builds the sampled a-sweeps' towers while building tasks,
    # the others at each q's first task; building all first keeps every
    # build in a finite_field span and does the same work.
    build_fields(*w.fields(), span=span)
    with span("harness.build_tasks"):
        tasks = harness.build_tasks(cfg)

    tower_suites = {"classical": harness.suite_classical, "eisenstein": harness.suite_eisenstein}
    ctx_suites = {
        "hypergeometric": harness.suite_hypergeometric,
        "theorem-4.1": harness.suite_theorem41,
        "mellin": harness.suite_mellin,
        "theorem-5.x": harness.suite_theorem5x,
        "master": verify_master_identity,
    }
    reports = []
    for i, (suite, p, t, a_code, variant, floor, scale) in enumerate(tasks):
        q = p**t
        with span("harness.task", task=i, q=q, suite=suite):
            policy = TolerancePolicy(floor=floor, scale=scale)
            if suite == "remark-Z":
                with span("finite_field.construct_field", q=q):
                    construct_field(p, t)
                with span("harness.suite.remark-Z", q=q):
                    rep = harness.suite_remark_z(q, policy)
            else:
                with span("finite_field.build_tower", q=q):
                    tower = build_tower(p, t)
                if suite in tower_suites:
                    if suite == "classical":
                        fields = (tower.base, tower.top)
                        with span("characters.value_tables", q=q):
                            for f in fields:
                                for k in range(f.order - 1):
                                    char(f, k).value_table()
                        with span("classical_sums.gauss_all", q=q):
                            for f in fields:
                                for k in range(f.order - 1):
                                    gauss(char(f, k))
                    with span(f"harness.suite.{suite}", q=q):
                        rep = tower_suites[suite](tower, policy)
                else:
                    with span("katz.context", q=q):
                        ctx = KatzContext(tower, a_code if a_code is not None else 1, m8_variant=variant)
                    if suite in ("mellin", "master"):
                        with span("katz.v_vector", q=q):
                            ctx.v_vector()
                        # computed terms: q^2 entries, each summing over the
                        # x != 0 with x^2 != a, i.e. q - 2 - phi(a) of them
                        phi_a = round(quadratic_char(tower.base)(ctx.a).real)
                        with span("katz.p_matrix", q=q, terms=q * q * (q - 2 - phi_a)):
                            ctx.mixed_sum_matrix()
                    with span(f"harness.suite.{suite}", q=q):
                        rep = ctx_suites[suite](ctx, policy)
            if variant != 1:
                rep.suite = f"{rep.suite}@m8={variant}"
        reports.append(rep)

    with span("harness.sort"):
        reports = [rep.sorted() for rep in reports]
        reports.sort(key=report_sort_key)
    with span("report.write_json"):
        write_json(reports, json_path)
    with span("report.write_csv"):
        write_csv(reports, csv_path)
    with span("bench.reference"):
        spots = spot_checks(workload, seed)
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "spots": spots}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--tower", type=int, action="append", default=[])
    p_setup.add_argument("--field", type=int, action="append", default=[])
    p_setup.add_argument("--spots", default=None, metavar="WORKLOAD")
    p_setup.add_argument("--seed", type=int, default=0)
    p_replay = sub.add_parser("replay")
    p_replay.add_argument("workload")
    p_replay.add_argument("--seed", type=int, required=True)
    p_replay.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        import charsum  # noqa: F401  (what every `charsum run` pays first)

        build_fields(args.tower, args.field)
        print("ready", flush=True)
        if args.spots:
            print(json.dumps(spot_checks(args.spots, args.seed)), flush=True)
    else:
        replay(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

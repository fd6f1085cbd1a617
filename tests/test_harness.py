import collections
import json
import math
import os
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import records

from charsum import cli, finite_field, harness
from charsum.characters import MultChar
from charsum.finite_field import FieldTower, PrimePowerField, build_tower, factor_prime_power
from charsum.harness import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    SUITES,
    ConfigError,
    RunConfig,
    a_values,
    build_tasks,
    load_config,
    parse_q,
    run,
    suite_classical,
    suite_eisenstein,
    suite_mellin,
    suite_remark_z,
    suite_theorem5x,
)
from charsum.katz import KatzContext, verify_master_identity
from charsum.tolerance import DEFAULT_POLICY, TolerancePolicy


def run_cli(*args, env=None, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "charsum", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


class TestTolerancePolicy:
    def test_floor_dominates_small_sums(self):
        assert DEFAULT_POLICY.abs_tol(7, 28) == 1e-6

    @pytest.mark.parametrize("name", ["floor", "scale"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
    def test_bad_floor_or_scale_rejected_when_built(self, name, value):
        with pytest.raises(ValueError, match=f"tolerance {name}"):
            TolerancePolicy(**{name: value})
        assert TolerancePolicy(**{name: 0.0}).abs_tol(7, 28) >= 0.0

    def test_monotone_in_terms(self):
        pol = TolerancePolicy()
        assert pol.abs_tol(7, 10**9) > pol.abs_tol(7, 10**8) > pol.abs_tol(7, 10)


class TestConfig:
    def test_parse_q(self):
        assert parse_q(27) == (3, 3)
        assert parse_q(13) == (13, 1)
        for bad in (4, 12, 1):
            with pytest.raises(ConfigError):
                parse_q(bad)

    def test_strict_suite_congruence(self):
        cfg = RunConfig(fields=[(13, 1)], suites=["master"])
        with pytest.raises(ConfigError, match="3 \\(mod 4\\)"):
            cfg.jobs()
        cfg = RunConfig(fields=[(7, 1)], suites=["remark-Z"])
        with pytest.raises(ConfigError):
            cfg.jobs()

    def test_all_suites_filters_by_field(self):
        jobs = RunConfig(fields=[(7, 1)]).jobs()
        suites = {s for s, _, _ in jobs}
        assert "remark-Z" not in suites
        assert {"classical", "master", "mellin"} <= suites
        jobs = RunConfig(fields=[(13, 1)]).jobs()
        assert {s for s, _, _ in jobs} == {"remark-Z"}

    def test_default_jobs_cover_both_q_sets(self):
        jobs = RunConfig().jobs()
        assert ("master", 3, 3) in jobs
        assert ("remark-Z", 5, 1) in jobs
        assert len(jobs) == 7 * 6 + 5

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            RunConfig(fields=[(7, 1)], suites=["nope"]).jobs()

    def test_bad_a_policy(self):
        with pytest.raises(ConfigError):
            RunConfig(fields=[(7, 1)], suites=["master"], a_policy="some").jobs()

    def test_a_values(self):
        assert a_values(7, "all") == [1, 2, 3, 4, 5, 6]
        assert a_values(7, "auto") == [1, 2, 3, 4, 5, 6]
        sample = a_values(7, "sample-3")
        assert len(sample) == 3 and 1 in sample

    def test_a_values_huge_sample_is_every_a(self):
        # N past q-1 repeats generator powers: the sweep is every a, at once
        assert a_values(7, "sample-" + "9" * 20) == [1, 2, 3, 4, 5, 6]
        assert a_values(27, "sample-26") == a_values(27, "sample-" + "9" * 20)

    def test_jobs_reject_fields_that_are_not_odd_prime_powers(self):
        for fields in ([(2, 3)], [(6, 1)], [(7, 1), (1, 1)]):
            with pytest.raises(ConfigError):
                RunConfig(fields=fields, suites=["classical"]).jobs()

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # verification run
            q = 7 11
            suites = master mellin
            a_policy = sample-2
            tol_floor = 1e-7
            parallelism = 2
            octic_variants = true
            out_json = out.json
            """
        )
        cfg = load_config(str(path))
        assert cfg.fields == [(7, 1), (11, 1)]
        assert cfg.suites == ["master", "mellin"]
        assert cfg.a_policy == "sample-2"
        assert cfg.tolerance.floor == 1e-7
        assert cfg.parallelism == 2
        assert cfg.octic_variants is True
        assert cfg.out_json == "out.json"

    def test_config_file_errors(self, tmp_path):
        bad_key = tmp_path / "a.cfg"
        bad_key.write_text("qq = 7\n")
        with pytest.raises(ConfigError):
            load_config(str(bad_key))
        bad_value = tmp_path / "b.cfg"
        bad_value.write_text("q = seven\n")
        with pytest.raises(ConfigError):
            load_config(str(bad_value))
        no_eq = tmp_path / "c.cfg"
        no_eq.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_config(str(no_eq))
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.cfg"))

    @pytest.mark.parametrize("key", ["tol_floor", "tol_scale"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_tolerance_keys_validated(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"q = 7\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="tolerance"):
            load_config(str(path))

    def test_repeated_config_key_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("q = 7\nsuites = classical\n# q = 3\n\nq = 11\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:5: key 'q' repeats line 1"):
            load_config(str(path))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "repeats line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--a", "sample-1"), ("--out", "r.json"), ("--csv", "r.csv"), ("--parallelism", "1"),
        ("--tol-floor", "1e-6"), ("--tol-scale", "1e-12"), ("--config", "run.cfg"),
        ("--octic-variants", None),
    ])
    def test_repeated_flag_is_a_config_error(self, tmp_path, monkeypatch, capsys, flag, value):
        # a repeat is refused like a repeated config-file key, not read last-wins
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("q = 7\n")
        once = [flag] if value is None else [flag, value]
        argv = ["run", "--suite", "classical", "--q", "3"]
        assert cli.main([*argv, *once, *once]) == 2
        assert f"config error: {flag} is given 2 times" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))
        assert cli.main([*argv, *once]) == 0

    @pytest.mark.parametrize("tail", ["\u00b2", "\u2460"])  # superscript two, circled one
    def test_non_decimal_sample_flag_is_a_config_error(self, capsys, tail):
        # str.isdigit accepts these, int() does not
        assert cli.main(["run", "--suite", "master", "--q", "7", "--a", f"sample-{tail}"]) == 2
        assert "bad a-policy" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", ["\u00b2", "\u2460"])
    def test_non_decimal_sample_config_key_is_a_config_error(self, tmp_path, capsys, tail):
        path = tmp_path / "run.cfg"
        path.write_text(f"q = 7\nsuites = master\na_policy = sample-{tail}\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "bad a-policy" in capsys.readouterr().err

    def test_workers_capped_by_tasks_and_cpus(self, monkeypatch):
        monkeypatch.delenv("CHARSUM_PARALLELISM", raising=False)
        cpus = os.cpu_count() or 1
        cfg = RunConfig(parallelism=10**6)
        assert cfg.workers(3) == min(3, cpus)
        assert cfg.workers(10**6) == cpus
        assert RunConfig().workers(10) == 1

    @pytest.mark.parametrize("raw", ["abc", "2.5", "", "0", "-1"])
    def test_parallelism_env_validated(self, monkeypatch, raw):
        monkeypatch.setenv("CHARSUM_PARALLELISM", raw)
        with pytest.raises(ConfigError, match="CHARSUM_PARALLELISM|parallelism"):
            RunConfig(fields=[(3, 1)]).jobs()

    def test_parallelism_env_overrides_field(self, monkeypatch):
        monkeypatch.setenv("CHARSUM_PARALLELISM", "1")
        assert RunConfig(parallelism=4).workers(10) == 1

    @pytest.mark.parametrize("key", ["q", "suites"])
    def test_empty_selection_rejected(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        values = {"q": "7", "suites": "classical", key: ""}
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ConfigError, match="no (field|suite) selected"):
            load_config(str(path)).jobs()
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_repeated_fields_and_suites_run_once(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("q = 7 7\nsuites = classical classical\n")
        args = cli.build_parser().parse_args(
            ["run", "--q", "7", "--q", "7", "--suite", "classical", "--suite", "classical"]
        )
        for cfg in (load_config(str(path)), cli.config_from_args(args)):
            assert cfg.jobs() == [("classical", 7, 1)]
        cfg = RunConfig(fields=[(7, 1), (3, 1), (7, 1)],
                        suites=["eisenstein", "classical", "eisenstein"])
        assert cfg.jobs() == [("eisenstein", 7, 1), ("classical", 7, 1),
                              ("eisenstein", 3, 1), ("classical", 3, 1)]
        assert RunConfig(suites=["remark-Z", "remark-Z"]).jobs() == [
            ("remark-Z", *parse_q(q)) for q in (5, 9, 13, 17, 25)
        ]
        out = tmp_path / "r.json"
        code, _ = run(RunConfig(fields=[(7, 1), (7, 1)], suites=["classical", "classical"],
                                out_json=str(out)))
        assert code == EXIT_OK
        keys = [(o["suite"], o["q"], o["a_index"], o["check_id"], o["inputs"])
                for o in json.loads(out.read_text())]
        assert len(keys) == len(set(keys)) == 191

    def test_record_keys_are_unique(self, tmp_path):
        # a record is known by (suite, q, a_index, check_id, inputs), which
        # the benchmark's gate compares runs by, so no key may repeat
        out = tmp_path / "r.json"
        run(RunConfig(fields=[(3, 1), (7, 1)], suites=None, a_policy="all",
                      octic_variants=True, out_json=str(out)))
        keys = [(o["suite"], o["q"], o["a_index"], o["check_id"], o["inputs"])
                for o in json.loads(out.read_text())]
        assert len(keys) == len(set(keys)) == 12570
        assert len({k[0] for k in keys}) == 22  # 7 suites, 5 of them in 4 octic variants

    def test_octic_variants_expand_tasks(self):
        cfg = RunConfig(fields=[(7, 1)], suites=["master"], a_policy="sample-1",
                        octic_variants=True)
        tasks = build_tasks(cfg)
        assert {t[4] for t in tasks} == {1, 3, 5, 7}


SUITE_NAMES = [
    "classical",
    "eisenstein",
    "hypergeometric",
    "theorem-4.1",
    "mellin",
    "theorem-5.x",
    "remark-Z",
    "master",
]


class TestRegistry:
    def test_suite_names_in_order(self):
        assert list(SUITES) == SUITE_NAMES

    def test_octic_variants_fan_out(self):
        cfg = RunConfig(fields=[(3, 1), (5, 1)], a_policy="sample-1", octic_variants=True)
        variants = {}
        for suite, _, _, _, variant, _, _ in build_tasks(cfg):
            variants.setdefault(suite, set()).add(variant)
        octic = {"hypergeometric", "theorem-4.1", "mellin", "theorem-5.x", "master"}
        assert set(variants) == set(SUITE_NAMES)
        for suite, seen in variants.items():
            assert seen == ({1, 3, 5, 7} if suite in octic else {1}), suite

    def test_only_mellin_and_master_carry_a(self):
        tasks = build_tasks(RunConfig(fields=[(7, 1), (5, 1)], a_policy="all"))
        assert {s for s, _, _, a, _, _, _ in tasks if a is not None} == {"mellin", "master"}
        assert all(a is None for s, _, _, a, _, _, _ in tasks if s not in ("mellin", "master"))
        assert sorted(a for s, _, _, a, _, _, _ in tasks if s == "master") == [1, 2, 3, 4, 5, 6]

    def test_only_remark_z_takes_q_1_mod_4(self):
        assert {s for s, _, _ in RunConfig(fields=[(5, 1), (3, 2)]).jobs()} == {"remark-Z"}
        assert {s for s, _, _ in RunConfig(fields=[(7, 1)]).jobs()} == (
            set(SUITE_NAMES) - {"remark-Z"}
        )
        default_q = {}
        for suite, p, t in RunConfig().jobs():
            default_q.setdefault(suite, set()).add(p**t)
        assert default_q.pop("remark-Z") == {5, 9, 13, 17, 25}
        assert set(default_q) == set(SUITE_NAMES) - {"remark-Z"}
        assert all(qs == {3, 7, 11, 19, 23, 27} for qs in default_q.values())

    def test_help_lists_every_suite(self):
        res = run_cli("run", "--help")
        assert res.returncode == 0
        for name in SUITE_NAMES:
            assert name in res.stdout, name

    def test_help_explains_parallelism_and_tolerance(self):
        res = run_cli("run", "--help", env={"COLUMNS": "80"})
        assert res.returncode == 0
        text = " ".join(res.stdout.split())
        assert "CHARSUM_PARALLELISM overrides it" in text
        assert "capped at the CPU count and the number of tasks" in text
        assert text.count("max(floor, scale * n_terms * sqrt(q))") == 2
        assert "--tol-floor TOL tolerance floor (default 1e-6)" in text
        assert "sqrt(q)) (default 1e-12)" in text
        assert (DEFAULT_POLICY.floor, DEFAULT_POLICY.scale) == (1e-6, 1e-12)

    @pytest.mark.parametrize("flag,value", [
        ("--q", "seven"), ("--parallelism", "abc"), ("--tol-floor", "x"),
    ])
    def test_bad_flag_value_is_config_error(self, flag, value):
        res = run_cli("run", "--suite", "classical", flag, value)
        assert res.returncode == 2
        assert "config error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_undecodable_config_is_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfeq = 7\n")  # a UTF-16 byte-order mark
        res = run_cli("run", "--config", str(path))
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("charsum: config error: ")
        assert str(path) in lines[0]
        assert "Traceback" not in res.stderr

    def test_flags_parse_like_config_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("q = 7, 11\nsuites = master\na_policy = sample-2\nparallelism = 2\n"
                        "octic_variants = true\ntol_floor = 1e-7\ntol_scale = 1e-13\n")
        args = cli.build_parser().parse_args([
            "run", "--q", "7", "--q", "11", "--suite", "master", "--a", "sample-2",
            "--parallelism", "2", "--octic-variants", "--tol-floor", "1e-7",
            "--tol-scale", "1e-13",
        ])
        assert cli.config_from_args(args) == load_config(str(path))

    def test_all_anywhere_selects_every_applicable_suite(self, tmp_path):
        texts = []
        for flags in (["--suite", "all"], ["--suite", "all", "--suite", "master"]):
            out = tmp_path / f"{len(flags)}.json"
            res = run_cli("run", *flags, "--q", "3", "--out", str(out))
            assert res.returncode == 0, res.stderr
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        suites = {o["suite"] for o in json.loads(texts[0])}
        assert suites == set(SUITE_NAMES) - {"remark-Z"}

    def test_all_does_not_excuse_unknown_suite(self):
        res = run_cli("run", "--suite", "all", "--suite", "nope", "--q", "3")
        assert res.returncode == 2
        assert "unknown suite 'nope'" in res.stderr


class TestSuites:
    def test_classical_and_eisenstein_pass_q3(self):
        tower = build_tower(3)
        for suite in (suite_classical, suite_eisenstein):
            rep = suite(tower, DEFAULT_POLICY)
            assert rep.all_passed, [r for r in records(rep) if not r[3]][:3]

    def test_mellin_suite_q3(self):
        rep = suite_mellin(KatzContext(build_tower(3), 1), DEFAULT_POLICY)
        assert rep.all_passed

    @pytest.mark.parametrize("p,t", [(3, 1), (11, 1)])
    def test_theorem5x_suite_exhaustive_small_q(self, p, t):
        rep = suite_theorem5x(KatzContext(build_tower(p, t), 1), DEFAULT_POLICY)
        assert rep.all_passed, [r for r in records(rep) if not r[3]][:3]

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 27])
    def test_record_counts_match_the_benchmark_inventory(self, q):
        # perfbench/workloads.py derives each suite's record count per
        # check_id from its loop bounds, independently of the program; a
        # dropped or extra record fails here before the benchmark runs.
        # The a-sweep suites run at a square a = 1 and a non-square a = g.
        # run_path reads the file and writes no bytecode next to it
        workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
        checks = [("remark-Z", q)]
        if q % 4 == 3:
            tower = build_tower(*factor_prime_power(q))
            ctxs = [KatzContext(tower, a) for a in (1, tower.base.exp[1])]
            checks = [
                (name, ctx if entry.octic else tower)
                for name, entry in SUITES.items() if entry.mod4 == 3
                for ctx in (ctxs if entry.a_sweep else ctxs[:1])
            ]
        a_indices = collections.defaultdict(set)
        for name, arg in checks:
            rep = SUITES[name].check(arg, DEFAULT_POLICY)
            a_indices[name].add(rep.a_index)
            counts = collections.Counter(check_id for check_id, *_ in records(rep))
            want = {check_id: n for check_id, n in workloads["suite_counts"](name, q).items() if n}
            assert counts == want, (name, rep.a_index)
        assert set(a_indices) == {name for name, e in SUITES.items() if q % 4 == e.mod4}
        if q % 4 == 3:
            assert a_indices["mellin"] == a_indices["master"] == {0, 1}

    def test_classical_builds_no_character_per_top_field_check(self, monkeypatch):
        # classical reads every character of F_{q^2}, and every Gauss value,
        # by index: it builds only the q - 1 characters of F_q whose Jacobi
        # rows it reads
        built, init = [], MultChar.__init__
        monkeypatch.setattr(MultChar, "__init__", lambda c, f, i: built.append(f) or init(c, f, i))
        q = 59
        tower = FieldTower(q, 1)  # its memos start empty
        assert suite_classical(tower, DEFAULT_POLICY).all_passed
        assert len(built) == q - 1
        assert all(f is tower.base for f in built)
        # the Mellin-side suites read base characters by index from one list
        # per suite and build no top-field character: about 5q at q = 11 and
        # 2q to 12q at q = 59 on a tower of their own, where conjugates,
        # powers and products per check took over 90q at q = 11
        for q in (11, 59):
            ctx = KatzContext(FieldTower(q, 1), 1)  # its memos start empty
            for suite, bound in ((suite_mellin, 10 * q), (verify_master_identity, 10 * q),
                                 (suite_theorem5x, 20 * q)):
                built.clear()
                assert suite(ctx, DEFAULT_POLICY).all_passed
                assert len(built) <= bound, (q, suite.__name__, len(built))

    def test_remark_z_suite(self):
        for q in (5, 9):
            rep = suite_remark_z(q, DEFAULT_POLICY)
            assert rep.all_passed and rep.summary().n_checks == 1

    def test_run_small_config(self, tmp_path):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        cfg = RunConfig(
            fields=[(3, 1)],
            suites=["master", "classical"],
            out_json=str(out_json),
            out_csv=str(out_csv),
        )
        code, reports = run(cfg)
        assert code == EXIT_OK
        assert all(r.all_passed for r in reports)
        objs = json.loads(out_json.read_text())
        assert {o["suite"] for o in objs} == {"master", "classical"}
        assert out_csv.read_text().startswith("suite,q,a_index,")

    def test_run_is_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            out = tmp_path / f"d{i}.json"
            cfg = RunConfig(fields=[(7, 1)], suites=["mellin"], a_policy="sample-2",
                            out_json=str(out))
            run(cfg)
            paths.append(out.read_text())
        assert paths[0] == paths[1]

    def test_parallel_matches_serial(self, tmp_path):
        # the second input runs the tower suites in tasks of their own
        for i, options in enumerate([
            dict(suites=["master"], a_policy="sample-2"),
            dict(suites=None, a_policy="all", octic_variants=True),
        ]):
            texts = []
            for par in (1, 2):
                out = tmp_path / f"p{i}-{par}.json"
                cfg = RunConfig(fields=[(3, 1), (7, 1)], parallelism=par, out_json=str(out),
                                **options)
                code, _ = run(cfg)
                assert code == EXIT_OK
                texts.append(out.read_text())
            assert texts[0] == texts[1]

    def test_a_task_runs_its_suites_in_registry_order(self, monkeypatch):
        # mellin builds P only after its single-Mellin rows, so running it
        # before master keeps P from being held while those rows are built
        monkeypatch.delenv("CHARSUM_PARALLELISM", raising=False)
        order = []
        for name, entry in SUITES.items():
            def check(arg, policy, name=name, inner=entry.check):
                order.append(name)
                return inner(arg, policy)
            monkeypatch.setitem(SUITES, name, replace(entry, check=check))
        run(RunConfig(fields=[(7, 1)], suites=["master", "hypergeometric", "mellin"],
                      a_policy="sample-1"))
        assert order == ["hypergeometric", "mellin", "master"]

    def test_tower_suites_take_a_task_of_their_own(self, monkeypatch):
        # classical and eisenstein read neither a nor M8: one task per field,
        # so parallel workers can run it beside the a-tasks
        monkeypatch.delenv("CHARSUM_PARALLELISM", raising=False)
        tasks, real = [], harness._run_task

        def recording(task):
            (_, _, a_code, *_), suites = task
            tasks.append((a_code, suites))
            return real(task)

        monkeypatch.setattr(harness, "_run_task", recording)
        run(RunConfig(fields=[(7, 1)], a_policy="sample-2"))
        a1, ag = a_values(7, "sample-2")
        assert tasks == [
            (None, ["classical", "eisenstein"]),
            (a1, ["hypergeometric", "theorem-4.1", "mellin", "theorem-5.x", "master"]),
            (ag, ["mellin", "master"]),
        ]

    def test_one_context_and_one_p_per_point(self, monkeypatch):
        # the suites of one (q, a, octic variant) share a KatzContext, so P
        # is built once there however many suites read it
        monkeypatch.delenv("CHARSUM_PARALLELISM", raising=False)
        init, matrix = KatzContext.__init__, KatzContext.mixed_sum_matrix
        counts = {}

        def counting_init(self, *args, **kwargs):
            counts["contexts"] += 1
            init(self, *args, **kwargs)

        def counting_matrix(self):
            counts["P"] += self.memo.get("mixed_sum_matrix") is None
            return matrix(self)

        monkeypatch.setattr(KatzContext, "__init__", counting_init)
        monkeypatch.setattr(KatzContext, "mixed_sum_matrix", counting_matrix)
        for cfg, points in [
            (RunConfig(), 84),  # q in DEFAULT_Q, every a
            (RunConfig(fields=[(7, 1)], a_policy="all", octic_variants=True), 24),
        ]:
            counts.update(contexts=0, P=0)
            _, reports = run(cfg)
            assert counts == {"contexts": points, "P": points}
            assert all(rep.wall_time > 0 for rep in reports)

    @pytest.mark.parametrize("args,orders", [
        ([], {*harness.DEFAULT_Q, *(q * q for q in harness.DEFAULT_Q), *harness.DEFAULT_Q_REMARK}),
        (["--suite", "all", "--q", "3", "--q", "7", "--q", "9", "--q", "25", "--q", "27"],
         {3, 9, 7, 49, 25, 27, 729}),
    ], ids=["default", "all-suites"])
    def test_a_run_builds_one_field_per_order(self, monkeypatch, args, orders):
        # no field exists yet; F_9 is both the top of the tower of 3 and the field of remark-Z
        monkeypatch.delenv("CHARSUM_PARALLELISM", raising=False)
        monkeypatch.setattr(finite_field, "_FIELDS", {})
        monkeypatch.setattr(finite_field, "_TOWERS", {})
        built, init = collections.Counter(), PrimePowerField.__init__
        monkeypatch.setattr(PrimePowerField, "__init__", lambda self, p, m, *args, **kwargs:
                            built.update([p**m]) or init(self, p, m, *args, **kwargs))
        assert cli.main(["run", *args]) == 0
        assert built == dict.fromkeys(orders, 1)

    def test_master_records_independent_of_classical_first(self, tmp_path):
        # classical fills the Gauss-sum transforms of F_7 and F_49 in the
        # same process, and master reads the one of F_7 whoever computed it,
        # so its records must not change
        outs = []
        for suites in (["master"], ["classical", "master"]):
            out = tmp_path / f"{len(suites)}.json"
            flags = [arg for s in suites for arg in ("--suite", s)]
            res = run_cli("run", "--q", "7", *flags, "--a", "all", "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs.append([o for o in json.loads(out.read_text()) if o["suite"] == "master"])
        assert outs[0] and outs[0] == outs[1]

    def test_failing_tolerance_gives_failure_exit(self):
        cfg = RunConfig(fields=[(3, 1)], suites=["master"],
                        tolerance=TolerancePolicy(floor=1e-18, scale=1e-22))
        code, reports = run(cfg)
        assert code == EXIT_CHECK_FAILED
        assert any(not r.all_passed for r in reports)


class TestCli:
    def test_import_leaves_the_process_pool_unimported(self):
        # concurrent.futures is imported only by a run with more than one worker
        code = "import sys, charsum.cli; print('concurrent.futures' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_run_master_q7(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli("run", "--q", "7", "--suite", "master", "--a", "sample-2",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "PASS" in res.stdout
        assert out.exists()

    def test_config_error_exit_codes(self):
        assert run_cli("run", "--q", "4").returncode == 2
        res = run_cli("run", "--q", "13", "--suite", "master")
        assert res.returncode == 2
        assert "3 (mod 4)" in res.stderr

    @pytest.mark.parametrize("flag", ["--tol-floor", "--tol-scale"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_bad_tolerance_exit_code(self, capsys, flag, value):
        code = cli.main(["run", "--q", "7", "--suite", "classical", flag, value])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        res = run_cli("run", "--q", "3", "--suite", "classical",
                      "--out", str(tmp_path / "nodir" / "x.json"))
        assert res.returncode == 4

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_fails_before_any_work(self, tmp_path, monkeypatch, capsys, flag):
        def no_run(cfg):
            raise AssertionError("the run started before its outputs were checked")

        monkeypatch.setattr(cli, "run", no_run)
        code = cli.main(["run", "--q", "59", "--suite", "classical",
                         flag, str(tmp_path / "nodir" / "x")])
        assert code == 4
        captured = capsys.readouterr()
        assert "i/o error" in captured.err
        assert captured.out == ""  # no suite summary line

    def test_output_check_leaves_no_file_behind(self, tmp_path):
        # the outputs pass the check, then the field guard stops the run
        out = tmp_path / "rep.json"
        res = run_cli("run", "--q", "1031", "--suite", "classical", "--out", str(out))
        assert res.returncode == 3
        assert not out.exists()

    def test_same_json_and_csv_path_is_config_error(self, tmp_path, monkeypatch, capsys):
        def no_build(*args):
            raise AssertionError("a field was built before the outputs were checked")

        monkeypatch.setattr(harness, "build_tower", no_build)
        monkeypatch.chdir(tmp_path)
        for out, csv_path in [("f", "f"), ("f", "./f"), ("f", str(tmp_path / "f"))]:
            code = cli.main(["run", "--q", "7", "--suite", "classical",
                             "--out", out, "--csv", csv_path])
            assert code == 2
            assert "--out and --csv name the same file" in capsys.readouterr().err
            assert not (tmp_path / "f").exists()

    def test_parallelism_env_not_integer_exit_code(self):
        res = run_cli("run", "--q", "3", "--suite", "classical",
                      env={"CHARSUM_PARALLELISM": "abc"})
        assert res.returncode == 2
        assert "CHARSUM_PARALLELISM" in res.stderr
        assert "Traceback" not in res.stderr

    def test_field_guard_exit_code(self):
        # 1031 is an odd prime whose F_{q^2} (1,062,961 elements) is past the
        # dlog table guard
        res = run_cli("run", "--q", "1031", "--suite", "classical")
        assert res.returncode == 3
        assert "table guard" in res.stderr

    @pytest.mark.parametrize("q", ["1000000007", "99999999999999999989"])
    def test_large_prime_q_fails_fast(self, q):
        # both are prime and past the table guard, so no field of order q is
        # built: a config error before factoring, which would trial-divide up
        # to sqrt(q), about 10^10 for the second
        res = run_cli("run", "--q", q, timeout=20)
        assert res.returncode == 2
        assert "table guard" in res.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 3\nsuites = classical\n")
        res = run_cli("run", "--config", str(cfg), "--suite", "eisenstein")
        assert res.returncode == 0, res.stderr
        assert "eisenstein" in res.stdout and "classical" not in res.stdout

    def test_parallelism_env_override(self, tmp_path):
        res = run_cli("run", "--q", "3", "--suite", "master", "--a", "sample-2",
                      env={"CHARSUM_PARALLELISM": "2"})
        assert res.returncode == 0, res.stderr

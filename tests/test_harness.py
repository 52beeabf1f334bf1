import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from crowdpac.cli import main
from crowdpac.harness import (
    _CONFIG_KEYS,
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    parse_config_text,
    render_row,
    rendered_float,
    rows_to_csv,
    run_experiment,
    sweep,
    write_report,
)
from crowdpac.oracles import Adversary, PoolModel

MINIMAL = """
d = 2
epsilon = 0.2
alpha = 0.35
beta = 0.35
seeds = 0:2
"""

SMALL = MINIMAL + "holdout_size = 1000\n"

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE = ROOT / "configs" / "example.cfg"


def strip_wall_clock(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]


class TestConfigParsing:
    def test_minimal_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.problem.dimension == 2
        assert cfg.problem.target_error == 0.2
        assert cfg.problem.confidence == 0.001
        assert cfg.problem.vc_constant == 2.0
        assert cfg.crowd.pool is None
        assert cfg.filter.walk_length is None
        assert cfg.constants.phase2_sample_factor == 4.0
        assert cfg.seeds == (0, 1)
        assert cfg.algorithm == "both"

    def test_out_of_range_alpha_names_field(self):
        with pytest.raises(ConfigError, match=r"^crowd\.alpha"):
            parse_config_text(MINIMAL.replace("alpha = 0.35", "alpha = 0.6"))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(MINIMAL + "gamma = 1\n")
        # the learner has one route, so its former selector is unknown too
        text = SMALL + "learner_solver = perceptron\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=rf"^unknown config key 'learner_solver' \(line {line}\)$"):
            parse_config_text(text)
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text(text)
        out_dir = tmp_path / "x"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "unknown config key 'learner_solver'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("d : 2\n")

    def test_seed_list_syntax(self):
        cfg = parse_config_text(MINIMAL.replace("seeds = 0:2", "seeds = 4, 7, 9"))
        assert cfg.seeds == (4, 7, 9)

    def test_round_trip_identity(self):
        cfg = parse_config_text(MINIMAL)
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_round_trip_with_pool_and_filter(self):
        text = MINIMAL + (
            "worker_model = pool\n"
            "reliable_fraction = 0.9\n"
            "reliable_accuracy = 0.95\n"
            "adversary = random_flip\n"
            "walk_length = 21\n"
            "early_stop_target = 40\n"
        )
        cfg = parse_config_text(text)
        assert cfg.crowd.pool == PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP)
        assert cfg.filter.walk_length == 21
        assert parse_config_text(dump_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "line", ["reliable_fraction = 0.2", "reliable_accuracy = 0.9", "adversary = nonsense"]
    )
    def test_pool_keys_need_pool_model(self, line):
        key = line.split(" = ")[0]
        for text in (MINIMAL, MINIMAL + "worker_model = iid\n"):
            with pytest.raises(ConfigError, match=rf"^crowd\.pool\.{key}"):
                parse_config_text(text + line + "\n")

    def test_repeated_key_rejected(self):
        text = MINIMAL + "epsilon = 0.3\n"  # MINIMAL sets epsilon on line 3
        with pytest.raises(ConfigError, match=r"'epsilon' given twice \(lines 3 and 7\)"):
            parse_config_text(text)

    @pytest.mark.parametrize("seeds, repeated", [("3,3", 3), ("1, 4, 2, 4", 4)])
    def test_repeated_seed_rejected(self, seeds, repeated):
        # a repeated seed would run the same trial twice and count it twice
        # in a sweep summary
        message = rf"^seeds: {repeated} given more than once"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(MINIMAL.replace("seeds = 0:2", f"seeds = {seeds}"))
        with pytest.raises(ConfigError, match=message):
            replace(parse_config_text(MINIMAL), seeds=(repeated, 0, repeated))

    @pytest.mark.parametrize("seeds", ["-1", "2,-5", "-3:2"])
    def test_negative_seed_rejected(self, seeds):
        # -1 marks summary rows, and SeedSequence rejects negative entropy
        with pytest.raises(ConfigError, match=r"^seeds must be non-negative"):
            parse_config_text(MINIMAL.replace("seeds = 0:2", f"seeds = {seeds}"))
        with pytest.raises(ConfigError, match=r"^seeds must be non-negative"):
            replace(parse_config_text(MINIMAL), seeds=(0, -1))

    @pytest.mark.parametrize("key", _CONFIG_KEYS, ids=lambda key: key.name)
    def test_unparsable_value_names_field(self, key):
        # the pool keys are only read with worker_model = pool
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key.name} =")]
        if key.name != "worker_model":
            lines.append("worker_model = pool")
        text = "\n".join(lines + [f"{key.name} = bogus"]) + "\n"
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value).startswith(key.field), str(info.value)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key, fieldname",
        [
            ("vc_constant", "problem.vc_constant"),
            ("c_b", "filter.subsample_constant"),
            ("c2", "constants.phase2_sample_factor"),
            ("c_w", "constants.mixture_size_factor"),
            ("r_max_factor", "constants.rejection_budget_factor"),
        ],
    )
    def test_non_finite_constant_rejected(self, key, fieldname, value):
        with pytest.raises(ConfigError, match=rf"^{fieldname} must be positive and finite"):
            parse_config_text(MINIMAL + f"{key} = {value}\n")

    def test_default_config_round_trips(self):
        assert parse_config_text(dump_config(ExperimentConfig())) == ExperimentConfig()

    def test_example_config_loads_and_round_trips(self):
        cfg = load_config(EXAMPLE)
        assert cfg.problem.target_error == 0.04
        assert cfg.seeds == tuple(range(50))
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL)
        assert load_config(path) == parse_config_text(MINIMAL)

    def test_holdout_floor(self):
        with pytest.raises(ConfigError, match="holdout_size"):
            parse_config_text(MINIMAL + "holdout_size = 10\n")


class TestRunExperiment:
    def test_both_algorithms_two_seeds(self):
        cfg = parse_config_text(SMALL)
        rows = run_experiment(cfg)
        assert len(rows) == 4
        assert [(r.algorithm, r.seed) for r in rows] == [
            ("boost", 0), ("boost", 1), ("natural", 0), ("natural", 1)
        ]
        for row in rows:
            assert row.m_L == row.p1_labels + row.p2_labels + row.p3_labels
            assert row.m_C == row.p1_comps + row.p2_comps + row.p3_comps

    def test_empty_seeds_rejected(self):
        cfg = parse_config_text(MINIMAL.replace("seeds = 0:2", "seeds = none"))
        with pytest.raises(ConfigError, match="seeds"):
            run_experiment(cfg)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match=rf"jobs must be at least 1, got {jobs}"):
            run_experiment(parse_config_text(SMALL), jobs=jobs)

    def test_rows_reproducible(self):
        cfg = parse_config_text(SMALL)
        first = rows_to_csv(run_experiment(cfg))
        second = rows_to_csv(run_experiment(cfg))
        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_d1_sphere_sorts_tied_keys(self):
        # on the d = 1 sphere every instance is -1 or +1, so each sort
        # answers its tests from keys that tie with half the others
        cfg = parse_config_text("d = 1\nepsilon = 0.05\ndistribution = sphere\nseeds = 0:3\n")
        rows = run_experiment(cfg)
        assert [(r.algorithm, r.seed) for r in rows] == [
            (algorithm, seed) for algorithm in ("boost", "natural") for seed in range(3)
        ]
        for row in rows:
            assert row.m_L == row.p1_labels + row.p2_labels + row.p3_labels
            assert row.m_C == row.p1_comps + row.p2_comps + row.p3_comps
            assert row.holdout_error <= 0.05
        rerun = rows_to_csv(run_experiment(cfg))
        assert strip_wall_clock(rows_to_csv(rows)) == strip_wall_clock(rerun)
        for row in rows[:3]:
            assert {"phase2:no_mistakes_found", "phase3:negligible_disagreement"} <= set(row.flags)

    def test_parallel_matches_serial(self):
        cfg = parse_config_text(SMALL)
        serial = rows_to_csv(run_experiment(cfg, jobs=1))
        parallel = rows_to_csv(run_experiment(cfg, jobs=2))
        assert strip_wall_clock(serial) == strip_wall_clock(parallel)

    def test_module_entry_point_parallel_matches_serial(self, tmp_path):
        # the pool spawns its workers, which import the package afresh and
        # must not re-run `python -m crowdpac`'s command
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )}
        reports = []
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            done = subprocess.run(
                [sys.executable, "-m", "crowdpac", "run", "--config", str(cfg_path),
                 "--out", str(out_dir), "--jobs", str(jobs)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.count("wrote") == 1
            reports.append(strip_wall_clock((out_dir / "report.csv").read_text()))
        assert reports[0] == reports[1] and len(reports[0]) == 1 + 4  # both algorithms, 2 seeds


class TestSweep:
    def test_row_counts(self):
        cfg = parse_config_text(SMALL.replace("seeds = 0:2", "seeds = 0:3"))
        rows = sweep(cfg, [0.2, 0.1])
        detail = [r for r in rows if "summary" not in r.flags]
        summary = [r for r in rows if "summary" in r.flags]
        assert len(detail) == 12  # 2 eps x 3 seeds x 2 algorithms
        assert len(summary) == 4
        assert all(r.seed == -1 for r in summary)

    def test_summary_recomputable_from_detail(self):
        cfg = parse_config_text(SMALL)
        rows = sweep(cfg, [0.2])
        for algorithm in ("boost", "natural"):
            detail = [r for r in rows if r.algorithm == algorithm and "summary" not in r.flags]
            summary = next(r for r in rows if r.algorithm == algorithm and "summary" in r.flags)
            detail.sort(key=lambda r: r.seed)
            mean = sum(rendered_float(r.lambda_C) for r in detail) / len(detail)
            assert summary.lambda_C == mean  # bit-exact
            assert f"n={len(detail)}" in summary.flags

    def test_single_epsilon_reduces_to_run(self):
        cfg = parse_config_text(SMALL)
        rows = sweep(cfg, [0.2])
        detail = [r for r in rows if "summary" not in r.flags]
        assert strip_wall_clock(rows_to_csv(detail)) == strip_wall_clock(
            rows_to_csv(run_experiment(cfg))
        )

    def test_bad_epsilons_rejected(self):
        cfg = parse_config_text(SMALL)
        with pytest.raises(ConfigError):
            sweep(cfg, [])
        with pytest.raises(ConfigError):
            sweep(cfg, [1.5])

    def test_repeated_epsilon_rejected(self):
        cfg = parse_config_text(SMALL)
        with pytest.raises(ConfigError, match=r"^epsilons: 0\.2 given more than once"):
            sweep(cfg, [0.2, 0.1, 0.2])


class TestReportFormats:
    def test_csv_schema_frozen(self):
        assert CSV_HEADER == (
            "algorithm,seed,d,epsilon,delta,alpha,beta,m_eps,m_L,m_C,"
            "lambda_L,lambda_C,holdout_error,p1_labels,p1_comps,p2_labels,"
            "p2_comps,p3_labels,p3_comps,flags,wall_clock_ms"
        )

    def test_float_rendering(self):
        cfg = parse_config_text(SMALL)
        row = run_experiment(cfg)[0]
        rendered = render_row(row)
        fields = rendered.split(",")
        assert fields[0] == "boost"
        assert fields[3] == "0.2"
        # nine significant digits
        assert len(f"{123.4567890123:.9g}") == len("123.456789")

    def test_csv_written_to_directory(self, tmp_path):
        cfg = parse_config_text(SMALL)
        rows = run_experiment(cfg)
        path = write_report(rows, tmp_path / "out", cfg)
        assert path.name == "report.csv"
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert (tmp_path / "out" / "effective_config.cfg").exists()
        echoed = load_config(tmp_path / "out" / "effective_config.cfg")
        assert echoed == cfg

    def test_json_variant(self, tmp_path):
        cfg = parse_config_text(SMALL)
        rows = run_experiment(cfg)
        path = write_report(rows, tmp_path / "rows.json", cfg)
        payload = json.loads(path.read_text())
        assert len(payload) == len(rows)
        assert list(payload[0].keys()) == CSV_HEADER.split(",")
        assert payload[0]["algorithm"] == "boost"
        assert isinstance(payload[0]["lambda_C"], float)


class TestCli:
    def test_show_config(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out and "algorithm = both" in out

    def test_verify_small_grid(self, capsys):
        assert main(["verify", "--grid", "small"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        out_dir = tmp_path / "results"
        code = main([
            "run", "--config", str(cfg_path), "--out", str(out_dir),
            "--algorithm", "natural", "--seeds", "1",
        ])
        assert code == 0
        report = (out_dir / "report.csv").read_text()
        assert len(report.strip().splitlines()) == 2  # header + one row

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "--config", str(cfg_path), "--out", str(out_dir),
            "--epsilons", "0.2,0.25", "--algorithm", "natural", "--seeds", "2",
        ])
        assert code == 0
        lines = (out_dir / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 + 2  # header, 2x2 detail, 2 summaries

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("alpha = 0.35", "alpha = 0.9"))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "crowd.alpha" in capsys.readouterr().err

    def test_jobs_below_one_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", "0"])
        assert code == 1
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["run", "--seed-list", "3,3"], "seeds: 3 given more than once"),
            (["run", "--seed-list=-1"], "seeds must be non-negative, got -1"),
            (["sweep", "--epsilons", "0.2,0.2"], "epsilons: 0.2 given more than once"),
            (["run", "--seed-list", "1,x"], "seeds: cannot parse '1,x'"),
            (["run", "--seed-list", "0:y"], "seeds: cannot parse '0:y'"),
            (["sweep", "--epsilons", "0.2,abc"], "epsilons: cannot parse 'abc'"),
            (["run", "--seeds", "5", "--seed-list", "3"], "not allowed with argument --seeds"),
        ],
    )
    def test_repeated_or_negative_values_exit_code(self, tmp_path, capsys, flags, message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        out_dir = tmp_path / "x"
        code = main([flags[0], "--config", str(cfg_path), "--out", str(out_dir), *flags[1:]])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_list_range(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        out_dir = tmp_path / "results"
        code = main([
            "run", "--config", str(cfg_path), "--out", str(out_dir),
            "--algorithm", "natural", "--seed-list", "2:4",
        ])
        assert code == 0
        rows = (out_dir / "report.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["2", "3"]
        assert "seeds = 2,3" in (out_dir / "effective_config.cfg").read_text()

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL)
        code = main(["run", "--config", str(cfg_path), "--out", "/proc/nope/dir"])
        assert code == 2

    def test_bad_flag_is_validation_error(self):
        assert main(["run", "--config", "x", "--out", "y", "--algorithm", "quantum"]) == 1

    def test_failed_verification_exit_code(self, monkeypatch, capsys):
        from crowdpac import cli as cli_module
        from crowdpac.analytic import CheckResult

        monkeypatch.setattr(
            cli_module, "run_verification",
            lambda grid, seed: [CheckResult("stub", False, "forced failure")],
        )
        assert main(["verify"]) == 1


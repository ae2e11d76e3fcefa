import os
import subprocess
import sys
from pathlib import Path

import pytest

import srpfl
from srpfl import cli
from srpfl.config import build_config, load_config, parse_pairs
from srpfl.errors import ConfigError

GOOD_CONFIG = """\
# small deterministic run (times in abstract time units)
d = 10
k = 2
N = 8
n0 = 2
m = 40
sigma = 0.1
c_hat = 1.2
lam = 1
comm_cost = 0.5
seed = 3
plan_mode = fixed
fixed_rounds = 5
epsilon = 0
sweep_seeds = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    return path


class TestConfigFile:
    def test_load(self, config_path):
        cfg = load_config(config_path)
        assert cfg.d == 10 and cfg.n_total == 8 and cfg.n_clients == 8
        assert cfg.epsilon == 0.0 and cfg.eta is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_pairs(["bogus = 3"])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pairs(["d = 3", "d = 4"])

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            build_config({"d": "4"})

    def test_range_check_names_field(self):
        pairs = parse_pairs(GOOD_CONFIG.splitlines())
        pairs["c_hat"] = "9"
        with pytest.raises(ConfigError, match="c_hat"):
            build_config(pairs)

    def test_override_and_seed(self, config_path):
        cfg = load_config(config_path, overrides=["m=50"], seed=77)
        assert cfg.m == 50 and cfg.seed == 77

    def test_bad_override(self, config_path):
        with pytest.raises(ConfigError, match="override"):
            load_config(config_path, overrides=["m"])

    def test_later_override_wins(self, config_path):
        cfg = load_config(config_path, overrides=["m=50", "m = 60"])
        assert cfg.m == 60
        with pytest.raises(ConfigError, match=r"--override:1: unknown field 'bogus'"):
            load_config(config_path, overrides=["bogus=1"])


class TestExitCodes:
    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert "nope.cfg" in captured.err

    def test_bad_field_exit_one(self, config_path, capsys):
        rc = cli.main(["run", "--config", str(config_path), "--override", "c_hat=5"])
        assert rc == cli.EXIT_CONFIG
        assert "c_hat" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", ["sigma", "eta", "a", "epsilon", "c_hat", "lam", "comm_cost"])
    def test_non_finite_float_exit_one(self, config_path, tmp_path, capsys, field, value):
        pairs = parse_pairs(GOOD_CONFIG.splitlines())
        pairs[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            build_config(pairs)
        rc = cli.main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--override", f"{field}={value}",
        ])
        assert rc == cli.EXIT_CONFIG
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nonconvergence_exit_two(self, config_path, tmp_path, capsys):
        rc = cli.main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--override", "plan_mode=distance_threshold",
            "--override", "max_rounds=4",
            "--override", "epsilon=1e-12",
        ])
        assert rc == cli.EXIT_NONCONVERGENCE
        assert "stage" in capsys.readouterr().err

    def test_run_success(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(config_path), "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "trace.csv").exists() and (out / "summary.txt").exists()
        assert "final_dist" in capsys.readouterr().out


class TestTraceCsv:
    def test_schema_and_monotone_time(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        text = (out / "trace.csv").read_text()
        lines = text.split("\n")
        assert lines[0] == "stage,round,n,round_time,cumulative_time,dist"
        assert text.endswith("\n") and "\r" not in text
        records = cli.parse_trace_csv(text)
        cumulative = [r.cumulative_time for r in records]
        assert all(b > a for a, b in zip(cumulative, cumulative[1:]))

    def test_round_trip_at_emitted_precision(self, config_path, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--config", str(config_path), "--out", str(out)])
        text = (out / "trace.csv").read_text()
        records = cli.parse_trace_csv(text)
        # re-emitting the parsed records reproduces the file byte for byte
        trace_like = type("T", (), {"records": records})
        assert cli.trace_to_csv(trace_like) == text

    def test_identical_invocations_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(config_path), "--out", str(out1)])
        cli.main(["run", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestCompareVerifyGen:
    def test_compare_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = cli.main([
            "compare", "--config", str(config_path), "--out", str(out),
            "--override", "epsilon=auto", "--override", "plan_mode=analytic",
        ])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "mean_ratio" in stdout and "analytic_ratio_bound" in stdout
        rows = (out / "compare.csv").read_text().strip().split("\n")
        assert rows[0].startswith("seed,algorithm,")
        assert len(rows) == 1 + 2 * 2  # two seeds, two algorithms

    def test_compare_parallel_determinism(self, config_path, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        args = ["--override", "epsilon=auto", "--override", "plan_mode=analytic"]
        monkeypatch.setenv("SRPFL_THREADS", "1")
        assert cli.main(["compare", "--config", str(config_path), "--out", str(out1)] + args) == 0
        monkeypatch.setenv("SRPFL_THREADS", "2")
        assert cli.main(["compare", "--config", str(config_path), "--out", str(out2)] + args) == 0
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()

    def test_gen_and_reload(self, config_path, tmp_path, capsys):
        target = tmp_path / "model.txt"
        rc = cli.main(["gen", "--config", str(config_path), "--out", str(target)])
        assert rc == cli.EXIT_OK and target.exists()
        from srpfl.synthesis import load_model

        gt = load_model(target)
        assert gt.d == 10 and gt.n_clients == 8

    def test_verify_passes_on_reference_config(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            "d = 12\nk = 2\nN = 16\nn0 = 4\nm = 80\nsigma = 0.1\nseed = 4\n"
            "plan_mode = fixed\nfixed_rounds = 15\nepsilon = 0\ncomm_cost = 1\n"
        )
        rc = cli.main(["verify", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert out.count("PASS") == 3

    def test_verify_exit_three_names_failing_check(self, tmp_path, capsys):
        # a grossly oversized step violates the contraction inequality
        cfg = tmp_path / "verify_bad.cfg"
        cfg.write_text(
            "d = 10\nk = 2\nN = 8\nn0 = 2\nm = 40\nsigma = 0.3\nseed = 4\n"
            "plan_mode = fixed\nfixed_rounds = 15\nepsilon = 0\neta = 8.0\n"
        )
        rc = cli.main(["verify", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_VERIFY
        assert "contraction_inequality" in captured.err
        assert "FAIL contraction_inequality" in captured.out


def test_module_entry_point(config_path, tmp_path):
    # the child must import the same package as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(srpfl.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "srpfl", "run", "--config", str(config_path),
         "--out", str(tmp_path / "cli_out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli_out" / "trace.csv").exists()

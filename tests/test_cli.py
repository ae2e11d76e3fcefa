import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import srpfl
from srpfl import checks, cli, engine
from srpfl.config import _SCHEMA, build_config, load_config, parse_pairs
from srpfl.errors import ConfigError
from srpfl.straggler import SpeedModel

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


REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    return path


class TestConfigFile:
    def test_load(self, config_path):
        cfg = load_config(config_path)
        assert cfg.d == 10 and cfg.n_total == 8 and cfg.population == 8
        assert cfg.epsilon == 0.0 and cfg.eta is None

    def test_reference_config_holds_every_key(self):
        # README points to demos/reference.cfg as the full key list
        with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
            assert sorted(parse_pairs(fh)) == sorted(_SCHEMA)

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

    @pytest.mark.parametrize("value", ["AUTO", "Auto"])
    def test_auto_in_any_case(self, config_path, value):
        assert load_config(config_path, overrides=[f"epsilon = {value}"]).epsilon is None

    @pytest.mark.parametrize("key, value, message", [
        ("sigma", "auto", "field 'sigma': expected a number, got 'auto'"),
        ("lam", "AUTO", "field 'lam': expected a number, got 'AUTO'"),
        ("d", "auto", "field 'd': expected an integer, got 'auto'"),
        ("algorithm", "AUTO", "algorithm must be one of ('srpfl', 'fedrep_full'), got 'AUTO'"),
    ], ids=["sigma", "lam", "d", "algorithm"])
    def test_auto_is_read_only_by_eta_a_and_epsilon(self, config_path, key, value, message):
        # only a `float | None` field reads `auto` as None; a text field keeps it as text for its choice rule
        with pytest.raises(ConfigError) as refused:
            load_config(config_path, overrides=[f"{key} = {value}"])
        assert str(refused.value) == message

    @pytest.mark.parametrize("value", ["none", ""])
    def test_auto_is_the_only_spelling(self, config_path, tmp_path, capsys, value):
        path = tmp_path / "blank.cfg"
        path.write_text(GOOD_CONFIG.replace("epsilon = 0", f"epsilon = {value}"))
        with pytest.raises(ConfigError, match="field 'epsilon': expected a number"):
            load_config(path)
        rc = cli.main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--override", f"epsilon={value}",
        ])
        assert rc == cli.EXIT_CONFIG
        assert "field 'epsilon': expected a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, encoding, message", [
        ("d = 10", "d = abc", "utf-8", "field 'd': expected an integer, got 'abc'"),
        ("k = 2", "k 2", "utf-8", "{path}:3: expected 'key = value', got 'k 2'"),
        ("sweep_seeds = 2", "sweep_seeds = 2\nd = 8", "utf-8", "{path}:16: duplicate field 'd'"),
        ("sweep_seeds = 2", "sweep_seeds = 2\nrank = 2", "utf-8", "{path}:16: unknown field 'rank'"),
        ("# small", "# caf\xe9, small", "latin-1", "cannot read config file {path}"),
    ], ids=["bad_integer", "no_equals", "duplicate_with_line", "unknown_key", "not_utf8"])
    def test_malformed_file_is_config_error(self, tmp_path, old, new, encoding, message):
        # a fault at a line names the file and the line; a bad value names its field
        path = tmp_path / "run.cfg"
        path.write_bytes(GOOD_CONFIG.replace(old, new).encode(encoding))
        with pytest.raises(ConfigError, match=re.escape(message.format(path=path))):
            load_config(path)

    def test_later_override_wins(self, config_path):
        cfg = load_config(config_path, overrides=["m=50", "m = 60"])
        assert cfg.m == 60
        with pytest.raises(ConfigError, match=r"--override:1: unknown field 'bogus'"):
            load_config(config_path, overrides=["bogus=1"])


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, message", [
        (["--help"], cli.EXIT_OK, ""),
        (["run"], cli.EXIT_CONFIG, "the following arguments are required: --config"),
        (["run", "--config", "{cfg}", "--seed", "abc"], cli.EXIT_CONFIG, "invalid int value: 'abc'"),
        (["gen", "--config", "{cfg}", "--out", "{tmp}/model.txt"], cli.EXIT_CONFIG, "invalid choice: 'gen'"),
        (["compare", "--config", "{cfg}", "--out", "{tmp}/o", "--override", "fixed_rounds=2",
          "--override", "epsilon=0.001"], cli.EXIT_NONCONVERGENCE,
         "non-convergence: srpfl trace never reached epsilon=0.001"),
        # in 5 rounds on the reference config's seed 0, srpfl reaches 0.9 and the baseline does not
        (["compare", "--config", "{ref}", "--out", "{tmp}/o", "--override", "plan_mode=fixed",
          "--override", "fixed_rounds=5", "--override", "epsilon=0.9", "--override", "sweep_seeds=1"],
         cli.EXIT_NONCONVERGENCE,
         "non-convergence: baseline trace never reached epsilon=0.9"),
        (["run", "--config", "{cfg}", "--out", "{tmp}/file/o"], cli.EXIT_CONFIG,
         "config error: cannot write {tmp}/file/o/trace.csv"),
    ], ids=["help", "no_config", "bad_seed", "gen", "target_not_reached", "baseline_not_reached",
            "out_under_file"])
    def test_exit_code(self, config_path, tmp_path, capsys, argv, code, message):
        (tmp_path / "file").write_text("")
        fill = {"cfg": config_path, "ref": REFERENCE_CONFIG, "tmp": tmp_path}
        rc = cli.main([arg.format(**fill) for arg in argv])
        assert rc == code
        assert message.format(**fill) in capsys.readouterr().err
        assert not (tmp_path / "model.txt").exists()

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

    def test_batch_smaller_than_rank_exit_one(self, config_path, tmp_path, capsys):
        pairs = parse_pairs(GOOD_CONFIG.splitlines())
        pairs.update(k="3", m="2")
        with pytest.raises(ConfigError, match=r"need m > k, got m=2, k=3"):
            build_config(pairs)
        rc = cli.main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--override", "k=3", "--override", "m=2",
        ])
        assert rc == cli.EXIT_CONFIG
        assert "need m > k, got m=2, k=3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        # each head fits its batch exactly, so the representation never moves
        ({"k": "2", "m": "2"}, "need m > k, got m=2, k=2"),
        # two heads span two of B*'s three directions
        ({"k": "3", "N": "2", "M": "2"}, "need M >= k, got M=2, k=3"),
    ], ids=["batch_equal_to_rank", "fewer_clients_than_rank"])
    def test_config_that_cannot_learn_exit_one(self, config_path, tmp_path, capsys, overrides, message):
        pairs = parse_pairs(GOOD_CONFIG.splitlines())
        pairs.update(overrides)
        with pytest.raises(ConfigError, match=message):
            build_config(pairs)
        rc = cli.main(
            ["run", "--config", str(config_path), "--out", str(tmp_path / "o")]
            + [arg for key, value in overrides.items() for arg in ("--override", f"{key}={value}")]
        )
        assert rc == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("a", ["0", "0.3"])
    def test_contraction_factor_out_of_range_exit_one(self, config_path, tmp_path, capsys, a):
        rc = cli.main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--override", f"a={a}",
        ])
        assert rc == cli.EXIT_CONFIG
        assert f"contraction factor a must lie in (0, 1/4], got {float(a)}" in capsys.readouterr().err

    def test_config_not_utf8_exit_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(GOOD_CONFIG.replace("# small", "# caf\xe9, small").encode("latin-1"))
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: cannot read config file {path}")
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

    @pytest.mark.parametrize("lam, code", [("1e-320", cli.EXIT_CONFIG), ("1e-300", cli.EXIT_OK)])
    def test_overflowed_time_exit_one(self, tmp_path, capsys, lam, code):
        # at lam = 1e-320 the mean time 1/lam overflows to inf; 1e-300 stays finite
        path = tmp_path / "slow.cfg"
        path.write_text(
            "d = 6\nk = 2\nN = 8\nn0 = 2\nm = 20\nsigma = 0.1\na = 0.1\nepsilon = 0.1\n"
            f"plan_mode = fixed\nfixed_rounds = 3\nlam = {lam}\n"
        )
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == code
        if code == cli.EXIT_CONFIG:
            assert "simulated time inf is not finite" in captured.err
            assert not (tmp_path / "o").exists()
        else:
            assert "total_time      = inf" not in captured.out

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
        cumulative = [float(line.split(",")[4]) for line in lines[1:-1]]
        assert len(cumulative) > 1
        assert all(b > a for a, b in zip(cumulative, cumulative[1:]))

    def test_identical_invocations_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(config_path), "--out", str(out1)])
        cli.main(["run", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def assert_not_vacuous(rows):
    """Every compare.csv row took more than one round and reached its epsilon."""
    header = rows[0].split(",")
    for row in rows[1:]:
        fields = dict(zip(header, row.split(",")))
        assert int(fields["rounds"]) > 1, row
        assert float(fields["final_dist"]) <= float(fields["epsilon"]), row


class TestCompareVerify:
    def test_compare_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = cli.main([
            "compare", "--config", str(config_path), "--out", str(out),
            "--override", "epsilon=0.1", "--override", "plan_mode=analytic",
        ])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "mean_ratio" in stdout and "analytic_ratio_bound" in stdout
        rows = (out / "compare.csv").read_text().strip().split("\n")
        assert rows[0].startswith("seed,algorithm,")
        assert len(rows) == 1 + 2 * 2  # two seeds, two algorithms
        assert_not_vacuous(rows)

    def test_compare_parallel_determinism(self, config_path, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        args = ["--override", "epsilon=0.1", "--override", "plan_mode=analytic"]
        monkeypatch.setenv("SRPFL_THREADS", "1")
        assert cli.main(["compare", "--config", str(config_path), "--out", str(out1)] + args) == 0
        monkeypatch.setenv("SRPFL_THREADS", "2")
        assert cli.main(["compare", "--config", str(config_path), "--out", str(out2)] + args) == 0
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()
        assert_not_vacuous((out1 / "compare.csv").read_text().strip().split("\n"))

    def test_compare_bound_uses_the_speed_model_rate(self, config_path, tmp_path, capsys):
        # the bound must use the mean slot rate of the runs' models, not
        # config.lam (here 1)
        out = tmp_path / "cmp"
        rc = cli.main([
            "compare", "--config", str(config_path), "--out", str(out),
            "--override", "epsilon=0.1", "--override", "plan_mode=analytic",
            "--override", "speed_kind=dynamic",
        ])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        assert_not_vacuous((out / "compare.csv").read_text().strip().split("\n"))
        summary = {}
        for line in (out / "compare_summary.txt").read_text().splitlines():
            key, sep, value = line.partition("=")
            assert sep, line
            summary[key.strip()] = float(value)
        cfg = load_config(config_path)
        lam = statistics.fmean(
            SpeedModel.dynamic(cfg.n_total, cfg.lam, cfg.comm_cost, cfg.seed + i).lam for i in range(cfg.sweep_seeds)
        )
        assert summary["mean_lam"] == pytest.approx(lam, rel=1e-11) and abs(lam - 1.0) > 0.2
        upper, lower, ratio = engine.analytic_speedup_bound(
            cfg.n_total, cfg.c_hat, summary["mean_a"], cfg.comm_cost, lam,
        )
        assert summary["analytic_upper_srpfl"] == pytest.approx(upper, rel=1e-9)
        assert summary["analytic_lower_fedrep"] == pytest.approx(lower, rel=1e-9)
        assert summary["analytic_ratio_bound"] == pytest.approx(ratio, rel=1e-9)

    def test_compare_refuses_one_client_before_any_run(self, tmp_path, capsys, monkeypatch):
        # the bounds read log N, 0 at N = 1; a run at N = 1 stays valid
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "d = 6\nk = 1\nN = 1\nM = 2\nn0 = 1\nm = 20\nsigma = 0.1\na = 0.1\nepsilon = 0.3\nsweep_seeds = 3\n"
        )
        calls = []
        monkeypatch.setattr(engine, "run", calls.append)
        monkeypatch.setenv("SRPFL_THREADS", "1")
        assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: bounds need N >= 2, got 1\n"
        assert calls == [] and not (tmp_path / "o").exists()
        monkeypatch.undo()
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == cli.EXIT_OK

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

    @pytest.mark.parametrize("name, attr", [
        ("order_statistics_monte_carlo", "order_statistics"),
        ("kernel_invariants", "kernel_invariants"),
    ])
    def test_verify_exit_three_names_each_check(self, config_path, capsys, monkeypatch, name, attr):
        monkeypatch.setattr(checks, attr, lambda: (False, "forced"))
        rc = cli.main(["verify", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_VERIFY
        assert captured.err == f"verification failed: {name}\n"
        assert f"FAIL {name}: forced" in captured.out
        assert captured.out.count("PASS") == 2


def test_every_exported_name_resolves():
    assert [name for name in srpfl.__all__ if not hasattr(srpfl, name)] == []


def run_python(*args, **env):
    """``python *args`` in a fresh interpreter, with ``env`` added to the environment."""
    # the child must import the same package as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(srpfl.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(*args, **env):
    return run_python("-m", "srpfl", *args, **env)


def test_module_entry_point(config_path, tmp_path):
    proc = run_module("run", "--config", str(config_path), "--out", str(tmp_path / "cli_out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli_out" / "trace.csv").exists()


# what run never needs: the process pool, compare's statistics, verify's checks
# numpy.random is loaded by the first draw, not by importing srpfl
LAZY_MODULES = ("concurrent.futures", "multiprocessing", "statistics", "srpfl.checks", "numpy.random")
IMPORT_BUDGET = """
import json, sys
lazy = sys.argv[1].split(",")
loaded = lambda: [m for m in lazy if m in sys.modules]
import srpfl, srpfl.cli
steps = {"import": loaded()}
rc = srpfl.cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]])
steps["run"] = loaded()
verify_rc = srpfl.cli.main(["verify", "--config", sys.argv[2]])
steps["verify"] = loaded()
print(json.dumps({"rc": [rc, verify_rc], "steps": steps}))
"""


def test_run_and_verify_load_only_what_they_use(tmp_path):
    proc = run_python("-c", IMPORT_BUDGET, ",".join(LAZY_MODULES), str(REFERENCE_CONFIG), str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == [cli.EXIT_OK, cli.EXIT_OK]
    assert result["steps"] == {"import": [], "run": ["numpy.random"], "verify": ["srpfl.checks", "numpy.random"]}


def test_pooled_compare_in_a_fresh_process(config_path, tmp_path):
    # the in-process determinism test shares the imports of every test before
    # it; this one starts the pool from `python -m srpfl` in a fresh interpreter
    args = ["--config", str(config_path), "--override", "fixed_rounds=60", "--override", "epsilon=0.1"]
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = run_module("compare", *args, "--out", str(out), SRPFL_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs[threads] = (out / "compare.csv").read_bytes()
    assert outs["1"] == outs["2"]
    rows = outs["2"].decode().strip().split("\n")
    assert len(rows) == 1 + 2 * 2  # two seeds, two algorithms
    assert_not_vacuous(rows)


QR_NOT_FINITE = "QR factor is not finite: the input is not, or its column norms overflow\n"
MOMENTS_NOT_FINITE = "error: warm start: expected a finite matrix, got an inf or nan entry\n"
OVERFLOWS = [
    # overflows in the step, not the move: round 1's largest step entry is about 1e8 eta (6e7 to 1.6e8
    # over seeds 0-9), five orders above the largest float, while the summed move stays near 4e10
    pytest.param(("eta=1e306", "sigma=1e5"), "error: stage 0, round 1: " + QR_NOT_FINITE, id="eta_and_sigma"),
    pytest.param(("sigma=1e200",), "error: stage 0, round 1: " + QR_NOT_FINITE, id="sigma"),  # overflows in the summed move
    # a nan moment matrix passes the symmetry test; unchecked, eigh raises LinAlgError
    pytest.param(("init_mode=moments", "sigma=1e200"), MOMENTS_NOT_FINITE, id="warm_start"),
]


@pytest.mark.parametrize("overrides, error", OVERFLOWS)
def test_overflowing_run_exit_one(tmp_path, capsys, overrides, error):
    args = ["run", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path / "o")]
    for pair in overrides:
        args += ["--override", pair]
    # in process, this suite turns a numpy RuntimeWarning into an error
    assert cli.main(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == error
    # in a child, a warning would print the source path before the error
    proc = run_module(*args)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_CONFIG, error)
    assert not (tmp_path / "o").exists()

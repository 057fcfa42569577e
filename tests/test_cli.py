import os
import stat
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkaczmarz import cli, instances, solvers


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def column(path, name):
    header, rows = read_csv(path)
    i = header.index(name)
    return [r[i] for r in rows]


# ----------------------------------------------------------------- generate

def test_generate_writes_bundle(tmp_path, capsys):
    out = str(tmp_path / "bundle")
    code = run_cli(["generate", "--m", "30", "--n", "5", "--s", "2",
                    "--beta", "0.2", "--corruption", "10", "--noise", "0.01",
                    "--seed", "3", "--out", out])
    assert code == 0
    for fname in ("A.mtx", "b.mtx", "bclean.mtx", "bcorrupt.mtx",
                  "noise.mtx", "xhat.mtx", "meta.txt"):
        assert os.path.exists(os.path.join(out, fname))
    line = capsys.readouterr().out.strip()
    assert "seed=3" in line and "corrupted_rows=6" in line


def test_generate_rerun_is_byte_identical(tmp_path):
    args = ["generate", "--m", "20", "--n", "4", "--s", "2", "--beta", "0.1",
            "--corruption", "5", "--seed", "1"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    for fname in os.listdir(out1):
        with open(os.path.join(out1, fname), "rb") as f1, \
                open(os.path.join(out2, fname), "rb") as f2:
            assert f1.read() == f2.read(), fname


def test_generate_requires_dimensions(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--m", "10", "--out", str(tmp_path)])
    assert exc.value.code == 1


# -------------------------------------------------------------------- solve

def solve_args(tmp_path, extra):
    return ["solve", "--m", "40", "--n", "8", "--s", "3", "--beta", "0.2",
            "--corruption", "10", "--seed", "2", "--out", str(tmp_path)] + extra


def test_solve_writes_trace(tmp_path, capsys):
    code = run_cli(solve_args(tmp_path, ["--method", "quantile-rask",
                                         "--iters", "100", "--trace-every", "10"]))
    assert code == 0
    path = tmp_path / "trace_quantile-rask.csv"
    header, rows = read_csv(path)
    assert header == ["k", "rel_error", "bregman_dist", "quantile",
                      "set_size", "elapsed_s"]
    assert [r[0] for r in rows] == [str(k) for k in range(10, 101, 10)]
    # elapsed is zeroed without --timings, for reproducible bytes
    assert all(float(r[5]) == 0.0 for r in rows)
    assert "rel_error=" in capsys.readouterr().out


def test_solve_rerun_is_byte_identical(tmp_path):
    args = solve_args(tmp_path, ["--iters", "50"])
    assert run_cli(args) == 0
    first = (tmp_path / "trace_quantile-rask.csv").read_bytes()
    assert run_cli(args) == 0
    assert (tmp_path / "trace_quantile-rask.csv").read_bytes() == first


def test_solve_stop_tol_unreached_exits_2(tmp_path):
    code = run_cli(solve_args(tmp_path, ["--iters", "5",
                                         "--stop-tol", "1e-12"]))
    assert code == 2


def test_solve_stop_tol_reached_exits_0(tmp_path):
    code = run_cli(solve_args(tmp_path, ["--method", "quantile-erask",
                                         "--iters", "20000",
                                         "--stop-tol", "1e-6",
                                         "--trace-every", "100"]))
    assert code == 0


def test_solve_rask_equals_quantile_rask_at_q_one(tmp_path):
    # with q = 1 every row is acceptable, so the filtered method reduces to
    # the unfiltered one draw for draw
    for method, extra in (("rask", []), ("quantile-rask", ["--q", "1.0"])):
        run_cli(solve_args(tmp_path, ["--method", method, "--iters", "300"] + extra))
    a = column(tmp_path / "trace_rask.csv", "rel_error")
    b = column(tmp_path / "trace_quantile-rask.csv", "rel_error")
    assert a == b


def test_solve_quantile_rk_forces_lambda_zero(tmp_path):
    run_cli(solve_args(tmp_path, ["--method", "quantile-rk", "--iters", "200",
                                  "--lambda", "7.5",
                                  "--trace", str(tmp_path / "rk.csv")]))
    run_cli(solve_args(tmp_path, ["--method", "quantile-rask", "--iters", "200",
                                  "--lambda", "0.0",
                                  "--trace", str(tmp_path / "rask0.csv")]))
    assert column(tmp_path / "rk.csv", "rel_error") == \
        column(tmp_path / "rask0.csv", "rel_error")


def test_solve_from_bundle_matches_inline_generation(tmp_path):
    bundle = str(tmp_path / "inst")
    run_cli(["generate", "--m", "40", "--n", "8", "--s", "3", "--beta", "0.2",
             "--corruption", "10", "--seed", "2", "--out", bundle])
    run_cli(solve_args(tmp_path, ["--iters", "100",
                                  "--trace", str(tmp_path / "inline.csv")]))
    run_cli(["solve", "--instance", bundle, "--seed", "2",
             "--iters", "100", "--trace", str(tmp_path / "loaded.csv")])
    assert (tmp_path / "inline.csv").read_bytes() == \
        (tmp_path / "loaded.csv").read_bytes()


def test_solve_takes_a_one_column_bundle(tmp_path):
    bundle = str(tmp_path / "inst")
    assert run_cli(["generate", "--m", "20", "--n", "1", "--s", "1",
                    "--out", bundle]) == 0
    assert run_cli(["solve", "--instance", bundle, "--iters", "20",
                    "--stop-tol", "1e-12", "--out", str(tmp_path)]) == 0
    assert column(tmp_path / "trace_quantile-rask.csv", "rel_error")[-1] == "0"


def test_solve_trials_median(tmp_path):
    code = run_cli(solve_args(tmp_path, ["--iters", "50", "--trials", "3",
                                         "--trace-every", "50",
                                         "--trace", str(tmp_path / "med.csv")]))
    assert code == 0
    rels = column(tmp_path / "med.csv", "rel_error")
    assert len(rels) == 1 and float(rels[0]) > 0


@pytest.mark.parametrize("method, runs", [("quantile-raska", 1),
                                          ("quantile-rka", 1),
                                          ("quantile-rask", 4)])
def test_solve_trials_of_a_block_method_run_once(tmp_path, monkeypatch, method,
                                                 runs):
    # a block method draws no rows, so its 4 trials on one instance are one
    # run: the trace CSV keeps the bytes of the 4-trial median
    argv = solve_args(tmp_path, ["--method", method, "--iters", "30",
                                 "--trace-every", "5", "--trials", "4"])
    real_run, real_median = solvers.run, solvers.median_of_trials
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(solvers, "run", counted)
    assert run_cli(argv + ["--trace", str(tmp_path / "once.csv")]) == 0
    assert len(calls) == runs
    monkeypatch.setattr(solvers, "median_of_trials",
                        lambda inst, config, trials: real_median(inst, config, 4))
    assert run_cli(argv + ["--trace", str(tmp_path / "four.csv")]) == 0
    assert len(calls) == runs + 4
    assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "four.csv").read_bytes()


@pytest.mark.parametrize("value", ["0", "-4"])
def test_solve_trials_must_be_positive(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(solve_args(tmp_path, ["--iters", "5", "--trials", value]))
    assert exc.value.code == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--m", "999"), ("--n", "4"), ("--s", "2"),
                                         ("--beta", "0.9"), ("--corruption", "0"),
                                         ("--noise", "5")])
def test_solve_instance_refuses_generator_flags(tmp_path, capsys, flag, value):
    bundle = make_bundle(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--instance", bundle, flag, value, "--iters", "10",
                 "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert f"does not read {flag}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "trace_quantile-rask.csv")


def test_solve_instance_refuses_generator_keys_of_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise=0.5\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--instance", make_bundle(tmp_path), "--config", str(cfg),
                 "--iters", "10", "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "does not read --noise" in capsys.readouterr().err


def test_solve_divergence_exits_1_naming_the_iteration(tmp_path, capsys):
    # the iterate overflows: a named failure, not the empty acceptable set
    # that the NaN residuals would leave
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(solve_args(tmp_path, ["--m", "200", "--n", "20", "--s", "3",
                                             "--beta", "0.2", "--corruption", "10",
                                             "--method", "quantile-raska",
                                             "--w", "50n"]))
    assert code == 1
    err = capsys.readouterr().err
    assert "diverged" in err and "not finite after iteration" in err


def test_solve_short_diverging_run_exits_1_without_warnings(tmp_path, capsys):
    # the trace's norms overflow long before the iterate does: the run stops
    # there, and numpy's overflow warnings stay silent
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(solve_args(tmp_path, ["--m", "200", "--n", "20", "--s", "3",
                                             "--beta", "0.2", "--corruption", "10",
                                             "--method", "quantile-raska",
                                             "--w", "50n", "--iters", "200"]))
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "diverged" in err and "not finite after iteration" in err


def test_solve_zero_residual_stop_records_its_iteration_once(tmp_path):
    # the first block step solves the system; the second finds every
    # residual zero and stops the run at the iteration already recorded
    A = np.array([[1.0, 0.0], [0.0, 1.0], [2 ** -0.5, 2 ** -0.5]])
    x_hat = np.ones(2)
    b = A @ x_hat
    bundle = tmp_path / "inst"
    bundle.mkdir()
    instances.save_bundle(instances.ProblemInstance(
        A=A, b_clean=b, b_corrupt=np.zeros(3), noise=np.zeros(3), b_observed=b,
        x_hat=x_hat, beta=0.0, corruption_scale=0.0, noise_bound=0.0, seed=0),
        str(bundle))
    assert run_cli(["solve", "--instance", str(bundle), "--method", "quantile-rka",
                    "--q", "1", "--w", "2", "--iters", "10",
                    "--out", str(tmp_path)]) == 0
    assert column(tmp_path / "trace_quantile-rka.csv", "k") == ["1"]


def test_solve_bundle_with_nan_exits_1(tmp_path, capsys):
    bundle = tmp_path / "inst"
    assert run_cli(["generate", "--m", "30", "--n", "5", "--s", "2",
                    "--out", str(bundle)]) == 0
    lines = (bundle / "b.mtx").read_text().splitlines()
    lines[5] = "nan"
    (bundle / "b.mtx").write_text("\n".join(lines) + "\n")
    code = run_cli(["solve", "--instance", str(bundle), "--iters", "5",
                    "--out", str(tmp_path / "out")])
    assert code == 1
    assert "b.mtx has non-finite entries" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_solve_unknown_method_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(solve_args(tmp_path, ["--method", "nonsense"]))
    assert exc.value.code == 1


@pytest.mark.parametrize("extra, name", [
    (["--lambda", "nan"], "lambda"),
    (["--lambda", "inf"], "lambda"),
    (["--w", "nann"], "stepsize w"),
    (["--w", "inf"], "stepsize w"),
    (["--w", "nan", "--method", "quantile-raska"], "stepsize w"),
    (["--stop-tol", "nan"], "stop_tol"),
    (["--stop-tol", "nan", "--trials", "3"], "stop_tol"),
], ids=["lambda-nan", "lambda-inf", "w-nann", "w-inf", "raska-w-nan",
        "stop-tol-nan", "trials-stop-tol-nan"])
def test_solve_non_finite_setting_exits_1_naming_it(tmp_path, capsys, extra, name):
    # refused before the first iteration, also where the method never reads it
    code = run_cli(solve_args(tmp_path, ["--iters", "50"] + extra))
    assert code == 1
    err = capsys.readouterr().err
    assert name in err and "diverged" not in err
    assert not any(p.name.startswith("trace_") for p in tmp_path.iterdir())


@pytest.fixture
def realdata_files(tmp_path):
    from qkaczmarz import matrices

    matrices.mm_write(tmp_path / "A.mtx", np.random.default_rng(0).standard_normal((60, 8)))
    matrices.mm_write(tmp_path / "x.mtx", np.eye(8)[1])
    return ["--matrix", str(tmp_path / "A.mtx"), "--xhat", str(tmp_path / "x.mtx")]


GENERATED = ["--m", "40", "--n", "8", "--s", "3", "--beta", "0.2"]


@pytest.mark.parametrize("argv, name", [
    (["generate", *GENERATED, "--corruption", "nan"], "corruption scale"),
    (["solve", *GENERATED, "--noise", "inf"], "noise bound"),
    (["solve", *GENERATED, "--noise", "nan"], "noise bound"),
    (["solve", *GENERATED, "--corruption", "inf"], "corruption scale"),
    (["experiment", "realdata", "--beta", "1.5"], "beta"),
    (["experiment", "realdata", "--beta", "nan"], "beta"),
    (["experiment", "realdata", "--beta", "-0.1"], "beta"),
], ids=["generate-corruption-nan", "solve-noise-inf", "solve-noise-nan",
        "solve-corruption-inf", "realdata-beta-1.5", "realdata-beta-nan",
        "realdata-beta-negative"])
def test_bad_corruption_setting_exits_1_naming_it(tmp_path, capsys, realdata_files,
                                                  argv, name):
    if argv[0] == "experiment":
        argv = argv + realdata_files
    code = run_cli(argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("how", ["generated", "bundle", "realdata"])
def test_a_zero_ground_truth_exits_1_naming_it(tmp_path, capsys, how):
    # every relative error divides by the norm of x_hat
    bundle = str(tmp_path / "bundle")
    assert run_cli(["generate", "--m", "30", "--n", "5", "--s", "0", "--out", bundle]) == 0
    argv = {"generated": ["solve", "--m", "30", "--n", "5", "--s", "0", "--iters", "5"],
            "bundle": ["solve", "--instance", bundle, "--iters", "5"],
            "realdata": ["experiment", "realdata", "--matrix", f"{bundle}/A.mtx",
                         "--xhat", f"{bundle}/xhat.mtx"]}[how]
    capsys.readouterr()
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x_hat has norm 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "solve", "spectral", "experiment"])
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, command):
    # PCG64 takes seeds >= 0: refused by argv and by a config file alike
    argv = {"generate": ["generate", *GENERATED],
            "solve": ["solve", *GENERATED, "--iters", "5"],
            "spectral": ["spectral", "--instance", make_bundle(tmp_path), "--q", "0.5",
                         "--sampled", "--samples", "5"],
            "experiment": ["experiment", "qbeta-grid", "--trials", "1"]}[command]
    argv = argv + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--seed", "-1"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err
    (tmp_path / "seed.cfg").write_text("seed=-1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", str(tmp_path / "seed.cfg")])
    assert exc.value.code == 1
    assert "'seed'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_trace_csv_gets_the_mode_of_bundle_files(tmp_path):
    # all are created the way open() creates a file: 0o666 less the umask
    old = os.umask(0o022)
    try:
        assert run_cli(["generate", *GENERATED, "--out", str(tmp_path / "b")]) == 0
        assert run_cli(["solve", "--instance", str(tmp_path / "b"), "--iters", "10",
                        "--trace", str(tmp_path / "t.csv")]) == 0
        assert run_cli(["spectral", "--instance", str(tmp_path / "b"), "--q", "0.5",
                        "--sampled", "--samples", "5", "--out", str(tmp_path / "s")]) == 0
    finally:
        os.umask(old)
    files = ("t.csv", "b/A.mtx", "b/meta.txt", "s/spectral.csv")
    assert {stat.S_IMODE(os.stat(tmp_path / p).st_mode) for p in files} == {0o644}


def test_solve_timings_writes_real_elapsed(tmp_path):
    run_cli(solve_args(tmp_path, ["--iters", "50", "--timings",
                                  "--trace-every", "50",
                                  "--trace", str(tmp_path / "t.csv")]))
    assert float(column(tmp_path / "t.csv", "elapsed_s")[0]) > 0


# --------------------------------------------------------------- config file

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=40\nn=8\ns=3\nbeta=0.2\ncorruption=10\niters=100\n")
    run_cli(["solve", "--config", str(cfg), "--seed", "2",
             "--trace", str(tmp_path / "cfg.csv")])
    run_cli(solve_args(tmp_path, ["--iters", "100",
                                  "--trace", str(tmp_path / "flag.csv")]))
    assert (tmp_path / "cfg.csv").read_bytes() == \
        (tmp_path / "flag.csv").read_bytes()


def test_config_file_explicit_flag_wins(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=40\nn=8\ns=3\niters=5\n")
    argv = ["solve", "--config", str(cfg), "--iters", "100", "--seed", "2",
            "--trace", str(tmp_path / "o.csv")]
    monkeypatch.setattr(sys, "argv", ["qkaczmarz"] + argv)
    run_cli(argv)
    ks = column(tmp_path / "o.csv", "k")
    assert ks[-1] == "100"


def test_config_file_explicit_flag_wins_over_main_argv(tmp_path):
    # the explicit flags are those of the argv given to main, not of the
    # host process's sys.argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=40\nn=8\ns=3\niters=5\n")
    run_cli(["solve", "--config", str(cfg), "--iters", "100", "--seed", "2",
             "--trace", str(tmp_path / "o.csv")])
    ks = column(tmp_path / "o.csv", "k")
    assert ks[-1] == "100"


def test_config_file_lam_does_not_beat_explicit_lambda(tmp_path):
    # the config key is the dest `lam`, the flag `--lambda`: still one option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam=0\n")
    run_cli(solve_args(tmp_path, ["--config", str(cfg), "--lambda", "2",
                                  "--iters", "50", "--trace", str(tmp_path / "c.csv")]))
    run_cli(solve_args(tmp_path, ["--lambda", "2", "--iters", "50",
                                  "--trace", str(tmp_path / "f.csv")]))
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


def test_config_file_accepts_long_option_names(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=2\ntrace-every=10\n")
    run_cli(solve_args(tmp_path, ["--config", str(cfg), "--iters", "50",
                                  "--trace", str(tmp_path / "c.csv")]))
    run_cli(solve_args(tmp_path, ["--lambda", "2", "--trace-every", "10",
                                  "--iters", "50", "--trace", str(tmp_path / "f.csv")]))
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


def test_config_file_abbreviated_flag_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=40\nn=8\ns=3\niters=5\n")
    run_cli(["solve", "--config", str(cfg), "--it", "100", "--seed", "2",
             "--trace", str(tmp_path / "o.csv")])
    assert column(tmp_path / "o.csv", "k")[-1] == "100"


@pytest.mark.parametrize("text", ["lamda=2\n", "iters=many\n",
                                  "method=nonsense\n", "jobs=2\n"])
def test_config_file_bad_key_or_value_exits_1(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(solve_args(tmp_path, ["--config", str(cfg)]))
    assert exc.value.code == 1


@pytest.mark.parametrize("word, on", [("1", True), ("TRUE", True), ("Yes", True),
                                      ("0", False), ("False", False), ("NO", False)])
def test_config_switch_takes_on_and_off_words(tmp_path, word, on):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"timings={word}\n")
    assert run_cli(solve_args(tmp_path, ["--config", str(cfg), "--iters", "20",
                                         "--trace", str(tmp_path / "t.csv")])) == 0
    assert (float(column(tmp_path / "t.csv", "elapsed_s")[-1]) > 0) == on


@pytest.mark.parametrize("word", ["on", "off", "2", ""])
def test_config_switch_refuses_other_words(tmp_path, capsys, word):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"timings={word}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(solve_args(tmp_path, ["--config", str(cfg)]))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and "'timings'" in err


def test_config_file_missing_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--config", str(tmp_path / "nope.cfg"),
                 "--m", "10", "--n", "4", "--s", "2"])
    assert exc.value.code == 1


# solve options: (flag, dest, value texts); a value is parsed as its flag's
SOLVE_SETTINGS = [
    ("--method", "method", st.sampled_from(sorted(cli.METHOD_TABLE))),
    ("--q", "q", st.floats(0.01, 1.0).map(repr)),
    ("--lambda", "lam", st.floats(0.0, 10.0).map(repr)),
    ("--w", "w", st.sampled_from(["1.0", "0.5", "1.7n", "n"])),
    ("--iters", "iters", st.integers(1, 10**6).map(repr)),
    ("--trials", "trials", st.integers(1, 50).map(repr)),
    ("--trace-every", "trace_every", st.integers(1, 1000).map(repr)),
    ("--stop-tol", "stop_tol", st.floats(0.0, 1.0).map(repr)),
    ("--seed", "seed", st.integers(0, 2**31).map(repr)),
    ("--m", "m", st.integers(1, 5000).map(repr)),
    ("--s", "s", st.integers(0, 100).map(repr)),
    ("--beta", "beta", st.floats(0.0, 0.99).map(repr)),
    ("--noise", "noise", st.floats(0.0, 1.0).map(repr)),
    ("--timings", "timings", st.sampled_from(["1", "true", "yes", "no", "0"])),
]


def _abbreviations(actions, flag):
    """flag and every prefix of it that argparse resolves to flag alone."""
    return [flag[:k] for k in range(3, len(flag) + 1)
            if flag[:k] == flag or (flag[:k] not in actions and
                                    sum(o.startswith(flag[:k]) for o in actions) == 1)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_file_and_flag_precedence(data):
    # each setting goes nowhere, into the file, onto the command line (full
    # or abbreviated) or both: the flag's value wins, then the file's, then
    # the default
    parser = cli.build_parser()
    actions = parser.commands["solve"]._option_string_actions
    expected, lines, argv = vars(parser.parse_args(["solve"])), [], ["solve"]
    for flag, dest, texts in SOLVE_SETTINGS:
        where = data.draw(st.sampled_from(["none", "file", "flag", "both"]))
        action = actions[flag]
        if where in ("file", "both"):
            text = data.draw(texts)
            key = data.draw(st.sampled_from([dest, flag[2:], flag[2:].replace("-", "_")]))
            lines.append(f"{key}={text}")
            expected[dest] = (text in ("1", "true", "yes") if action.nargs == 0
                              else (action.type or str)(text))
        if where in ("flag", "both"):
            word = data.draw(st.sampled_from(_abbreviations(actions, flag)))
            if action.nargs == 0:
                argv.append(word)
                expected[dest] = True
            else:
                text = data.draw(texts)
                argv.append(f"{word}={text}")
                expected[dest] = (action.type or str)(text)
    seen = []
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        # no solve runs: cmd_solve only keeps the parsed args
        mp.setattr(cli, "cmd_solve", lambda args, parser: seen.append(args) or 0)
        if lines:
            path = os.path.join(work, "run.cfg")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            argv += ["--config", path]
            expected["config"] = path
        assert cli.main(argv) == 0
    got = vars(seen[0])
    got.pop("cmd_line")
    assert got == expected


# ----------------------------------------------------------------- spectral

def make_bundle(tmp_path, m=10, n=4):
    bundle = str(tmp_path / "inst")
    run_cli(["generate", "--m", str(m), "--n", str(n), "--s", "2",
             "--beta", "0.2", "--corruption", "5", "--seed", "4",
             "--out", bundle])
    return bundle


def test_spectral_report(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    code = run_cli(["spectral", "--instance", bundle, "--q", "0.5",
                    "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    kv = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert kv["mode"] == "exact"
    assert float(kv["sigma_max"]) >= float(kv["sigma_min"])
    assert float(kv["sigma_q_beta_min_rowcol"]) <= float(kv["sigma_q_beta_min_rows"])
    assert 0 < float(kv["alpha"]) < 1
    assert kv["condition2"] in ("true", "false")
    header, rows = read_csv(tmp_path / "spectral.csv")
    assert header[:2] == ["mode", "samples"] and len(rows) == 1


def test_spectral_keys_keep_their_order(tmp_path, capsys):
    bundle = make_bundle(tmp_path)
    capsys.readouterr()
    code = run_cli(["spectral", "--instance", bundle, "--q", "0.5",
                    "--out", str(tmp_path)])
    assert code == 0
    keys = [line.split("=", 1)[0]
            for line in capsys.readouterr().out.strip().splitlines()]
    header, _ = read_csv(tmp_path / "spectral.csv")
    assert header == keys == [
        "mode", "samples", "row_subset_size", "sigma_max", "sigma_min",
        "sigma_tilde_min", "sigma_q_beta_min_rowcol", "sigma_q_beta_min_rows",
        "alpha", "kappa_tilde", "gamma", "C1", "C2", "condition2", "C",
        "condition_corrupted"]


def test_summary_cmd_line_is_mains_argv_relative_to_out(tmp_path):
    bundle = make_bundle(tmp_path)
    code = run_cli(["spectral", "--inst", bundle, "--q", "0.5",
                    f"--out={tmp_path}"])
    assert code == 0
    with open(tmp_path / "spectral.csv") as fh:
        assert fh.readline() == \
            "# cmd: qkaczmarz spectral --inst inst --q 0.5 --out=.\n"


@pytest.mark.parametrize("extra, name, xhat", [
    (["--q", "nan"], "quantile_q", True),
    (["--q", "inf"], "quantile_q", True),
    (["--q", "1.5"], "quantile_q", False),
    (["--lambda", "nan"], "lambda", True),
    (["--lambda", "-1"], "lambda", True),
], ids=["q-nan", "q-inf", "q-1.5-without-xhat", "lambda-nan", "lambda-negative"])
def test_spectral_q_and_lambda_follow_solves_rules(tmp_path, capsys, extra, name, xhat):
    bundle = make_bundle(tmp_path)
    if not xhat:
        os.unlink(os.path.join(bundle, "xhat.mtx"))
    capsys.readouterr()
    code = run_cli(["spectral", "--instance", bundle, "--q", "0.5", *extra,
                    "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not os.path.exists(tmp_path / "spectral.csv")


def test_spectral_budget_exceeded_hints_sampled(tmp_path, capsys):
    bundle = make_bundle(tmp_path, m=60, n=14)
    capsys.readouterr()
    code = run_cli(["spectral", "--instance", bundle, "--q", "0.5",
                    "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr() == ("", (
        "error: exact enumeration needs 15154759375535622150 SVDs "
        "(> budget 2000000); use sampled mode\n"
        "hint: rerun with --sampled\n"))
    assert not os.path.exists(tmp_path / "spectral.csv")
    code = run_cli(["spectral", "--instance", bundle, "--q", "0.5",
                    "--sampled", "--samples", "100", "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_spectral_samples_must_be_positive(tmp_path, capsys, value):
    # no draw would leave infinite minima that pass every condition
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectral", "--instance", make_bundle(tmp_path), "--q", "0.5",
                 "--sampled", "--samples", value, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "--samples" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "spectral.csv")


def test_spectral_has_no_budget_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectral", "--instance", make_bundle(tmp_path), "--q", "0.5",
                 "--budget", "10", "--out", str(tmp_path)])
    assert exc.value.code == 1


# -------------------------------------------------------------- experiments

def test_experiment_stepsize_sweep(tmp_path, capsys):
    code = run_cli(["experiment", "stepsize-sweep", "--n", "20",
                    "--trials", "1", "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    header, rows = read_csv(tmp_path / "summary.csv")
    assert header == ["n", "w_over_n", "rel_error_at_20", "best_w_over_n"]
    assert len(rows) == 15  # coefficients 0.2, 0.4, ..., 3.0
    coeffs = [float(r[1]) for r in rows]
    assert coeffs == [round(0.2 * i, 1) for i in range(1, 16)]
    best = {float(r[3]) for r in rows}
    assert len(best) == 1
    with open(tmp_path / "summary.csv") as fh:
        assert fh.readline().startswith("# cmd: ")


def test_experiment_qbeta_grid(tmp_path, capsys):
    code = run_cli(["experiment", "qbeta-grid", "--trials", "1",
                    "--jobs", "2", "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "best_q=" in out
    header, rows = read_csv(tmp_path / "summary.csv")
    assert [float(r[0]) for r in rows] == [round(0.1 * i, 1) for i in range(1, 11)]
    best_q = float(out.split("best_q=")[1].strip())
    errs = {float(r[0]): float(r[1]) for r in rows}
    assert errs[best_q] == min(errs.values())


COEFFS = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6,
          2.8, 3.0]
QS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def preset_grid(name, full, ns=None):
    return [tuple(p) for p in cli.PRESETS[name].grid(full, ns)]


@pytest.mark.parametrize("full", [False, True])
def test_preset_grids(full):
    # (labels, method, iters, w, q, (m, n, s, corruption, noise),
    #  trace records per run, trace file, iters-to level): the constants of
    # the per-preset code the table replaced
    m, n, s, erask_iters = (10000, 500, 40, 20000) if full else (2000, 100, 10, 8000)
    assert preset_grid("corruption-scale", full) == [
        row for k in (1.0, 10.0, 100.0) for row in (
            (("quantile-erask", k), "quantile-erask", erask_iters, "1.0", 0.7,
             (m, n, s, k, 0.02), 200, f"trace_quantile-erask_k{int(k)}.csv", 5e-2),
            (("quantile-raska", k), "quantile-raska", 200, "1.5n", 0.7,
             (m, n, s, k, 0.02), 200, f"trace_quantile-raska_k{int(k)}.csv", 5e-2))]

    m = 10000 if full else 2000
    for ns, want in ((None, [100, 200, 300, 400] if full else [50, 100]),
                     ([20, 30], [20, 30])):
        assert preset_grid("stepsize-sweep", full, ns) == [
            ((n, c), "quantile-raska", 20, f"{c}n", 0.7, (m, n, 10, 100.0, 0.0),
             1, None, None) for n in want for c in COEFFS]

    m, n = (10000, 200) if full else (2000, 100)
    assert preset_grid("qbeta-grid", full) == [
        ((q,), "quantile-raska", 40, "1.7n", q, (m, n, 10, 100.0, 0.02), 1,
         None, None) for q in QS]

    shape = (2000, 200 if full else 100, 10, 100.0, 0.0)
    assert preset_grid("method-compare", full) == [
        ((method,), method, iters, w, 0.7, shape, 500, f"trace_{method}.csv", 1e-2)
        for method, iters, w in (("quantile-rka", 3000, "1.7n"),
                                 ("quantile-erask", 20000, "1.0"),
                                 ("quantile-raska", 3000, "1.7n"))]

    assert preset_grid("realdata", full) == [
        ((method,), method, iters, w, 0.7, None, 500, f"trace_{method}.csv", None)
        for method, iters, w in (("quantile-rka", 500, "1.0n"),
                                 ("quantile-erask", 20000, "1.0"),
                                 ("quantile-raska", 500, "1.0n"))]


def test_preset_headers():
    assert {name: p.header for name, p in cli.PRESETS.items()} == {
        "corruption-scale": ("method", "corruption_scale", "iters_to_5e-2",
                             "final_rel_error"),
        "stepsize-sweep": ("n", "w_over_n", "rel_error_at_20", "best_w_over_n"),
        "qbeta-grid": ("q", "rel_error_at_40", "best_q"),
        "method-compare": ("method", "iters_to_1e-2", "final_rel_error"),
        "realdata": ("method", "final_rel_error"),
    }


def test_jobs_is_an_experiment_flag_only(tmp_path):
    bundle = make_bundle(tmp_path)
    for argv in (["generate", "--m", "10", "--n", "3", "--s", "2"],
                 ["solve", "--instance", bundle, "--iters", "5"],
                 ["spectral", "--instance", bundle, "--q", "0.5"]):
        assert run_cli(argv + ["--out", str(tmp_path / "ok")]) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--jobs", "2", "--out", str(tmp_path / "ok")])
        assert exc.value.code == 1


def test_summary_does_not_depend_on_jobs(tmp_path):
    # every spelling argparse takes for --jobs, its value included, stays
    # out of the `# cmd:` line
    summaries = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"], ["--jobs=2"], ["--jo", "2"],
                 ["--jo=2"], []):
        out = tmp_path / str(len(summaries))
        assert run_cli(["experiment", "qbeta-grid", "--trials", "1", *jobs,
                        "--seed", "3", "--out", str(out)]) == 0
        summaries.append((out / "summary.csv").read_bytes())
    assert summaries[0].startswith(
        b"# cmd: qkaczmarz experiment qbeta-grid --trials 1 --seed 3 --out .\n")
    assert summaries == summaries[:1] * len(summaries)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_experiment_jobs_must_be_positive(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["experiment", "qbeta-grid", "--trials", "1", "--jobs", value,
                 "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_experiment_refuses_flags_its_preset_does_not_read(tmp_path, capsys, preset):
    values = {"full": [], "n": ["5"], "matrix": ["nothere.mtx"], "xhat": ["x.mtx"],
              "timings": []}
    reads = cli.PRESETS[preset].reads
    for flag, value in values.items():
        if flag in reads:
            continue
        with pytest.raises(SystemExit) as exc:
            run_cli(["experiment", preset, f"--{flag}", *value, "--trials", "1",
                     "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert f"--{flag}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_preset_reads_lists_the_flags_its_grid_uses(preset):
    # a flag a preset does not list must leave its grid unchanged
    reads = cli.PRESETS[preset].reads
    assert set(reads) <= set(cli._PRESET_FLAGS)
    if "full" not in reads:
        assert preset_grid(preset, False) == preset_grid(preset, True)
    if "n" not in reads:
        assert preset_grid(preset, False) == preset_grid(preset, False, [5])
    assert ("matrix" in reads) == ("xhat" in reads) == (preset == "realdata")


def test_experiment_realdata(tmp_path):
    from qkaczmarz import matrices

    rng = np.random.default_rng(0)
    matrices.mm_write(tmp_path / "A.mtx", rng.standard_normal((60, 8)))
    x = np.zeros(8)
    x[[1, 4]] = [2.0, -1.5]
    matrices.mm_write(tmp_path / "x.mtx", x)
    code = run_cli(["experiment", "realdata", "--matrix",
                    str(tmp_path / "A.mtx"), "--xhat", str(tmp_path / "x.mtx"),
                    "--out", str(tmp_path / "out"), "--seed", "1"])
    assert code == 0
    header, rows = read_csv(tmp_path / "out" / "summary.csv")
    assert [r[0] for r in rows] == ["quantile-rka", "quantile-erask",
                                    "quantile-raska"]
    for fname in ("trace_quantile-rka.csv", "trace_quantile-erask.csv",
                  "trace_quantile-raska.csv"):
        assert os.path.exists(tmp_path / "out" / fname)


def test_experiment_realdata_takes_a_one_column_matrix(tmp_path):
    from qkaczmarz import matrices

    matrices.mm_write(tmp_path / "A.mtx", np.random.default_rng(0).standard_normal((60, 1)))
    matrices.mm_write(tmp_path / "x.mtx", np.array([1.5]))
    code = run_cli(["experiment", "realdata", "--matrix", str(tmp_path / "A.mtx"),
                    "--xhat", str(tmp_path / "x.mtx"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(read_csv(tmp_path / "out" / "summary.csv")[1]) == 3


def test_experiment_realdata_refuses_trials(tmp_path, capsys):
    # realdata makes one run on the file instance: --trials would be ignored
    from qkaczmarz import matrices

    matrices.mm_write(tmp_path / "A.mtx", np.random.default_rng(0).standard_normal((60, 8)))
    matrices.mm_write(tmp_path / "x.mtx", np.eye(8)[1])
    with pytest.raises(SystemExit) as exc:
        run_cli(["experiment", "realdata", "--matrix", str(tmp_path / "A.mtx"),
                 "--xhat", str(tmp_path / "x.mtx"), "--trials", "7",
                 "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "--trials" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_experiment_realdata_needs_paths(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["experiment", "realdata", "--out", str(tmp_path)])
    assert exc.value.code == 1


# ------------------------------------------------------------ console script

def test_console_script_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qkaczmarz.cli", "generate", "--m", "10",
         "--n", "3", "--s", "2", "--out", str(tmp_path / "b")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "seed=0" in proc.stdout

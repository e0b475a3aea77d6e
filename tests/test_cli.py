"""Command line behavior: subcommands, outputs, exit codes."""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

import cctuner.cli as cli
from cctuner.cli import main
from cctuner.tuner import TuningError

SMALL_CFG = """
case = rts24
modes = single
distributions = gaussian
eps = 0.1
replications = 2
tuning.samples = 1500
oos.samples = 1500
gamma = 1e-3
seed = 11
gaussian.std_mw = 9.4, 13.1
gaussian.correlation = 0.2
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture()
def case_path():
    import cctuner.data
    from importlib.resources import files

    return str(files("cctuner.data") / "ieee_rts24.case")


def test_parse_summary(case_path, capsys):
    assert main(["parse", case_path]) == 0
    out = capsys.readouterr().out
    assert "buses=24" in out and "lines=38" in out
    assert "load_mw=2850" in out and "capacity_mw=3405" in out


@pytest.mark.parametrize(
    "record, field, value",
    [
        ("line 1 2 ", 3, "nan"),  # reactance
        ("line 1 2 ", 4, "nan"),  # capacity
        ("line 1 2 ", 4, "inf"),
        ("gen 1 15.2 ", 3, "nan"),  # a unit's pmax
        ("gen 1 15.2 ", 4, "nan"),  # a unit's c2
    ],
)
def test_non_finite_case_number_exits_1(case_path, tmp_path, capsys, record, field, value):
    # One number of the bundled case made non-finite, with buses 8 and
    # 15 flagged uncertain as the rts24 study flags them. Before, parse
    # accepted each, and later commands failed in the solver or not at all.
    with open(case_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith(record))
    fields = lines[line_no - 1].split()
    fields[field] = value
    lines[line_no - 1] = " ".join(fields)
    text = "\n".join(lines).replace("bus 8 171", "bus 8 171 uncertain").replace("bus 15 317", "bus 15 317 uncertain")
    case = tmp_path / "bad.case"
    case.write_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CFG.replace("case = rts24", f"case = {case}"))
    for argv in (["parse", str(case)], ["solve", "--config", str(cfg), "--s", "1"], ["tune", "--config", str(cfg)]):
        assert main(argv) == 1
        message = f"error: line {line_no}: malformed number in '{record.split()[0]}' record: '{value}' is not a number"
        assert message in capsys.readouterr().err


# Each subcommand's flags as (option strings or positional name, default,
# required, choices, help).
CLI_SURFACE = {
    "parse": {(("file",), None, True, None, None)},
    "ptdf": {
        (("--case",), None, False, None, "case key or path (default rts24)"),
        (("--config",), None, False, None, None),
        (("--slack",), 1, False, None, None),
        (("--out",), None, False, None, None),
    },
    "sample": {
        (("--case",), None, False, None, None),
        (("--config",), None, False, None, None),
        (("--distribution",), None, False, ("gaussian", "mixture"), None),
        (("--n",), 1000, False, None, None),
        (("--seed",), None, False, None, None),
        (("--out",), None, False, None, None),
    },
    "solve": {
        (("--case",), None, False, None, None),
        (("--config",), None, False, None, None),
        (("--distribution",), None, False, ("gaussian", "mixture"), None),
        (("--s",), None, True, None, None),
        (("--out",), None, False, None, None),
    },
    "tune": {
        (("--case",), None, False, None, None),
        (("--config",), None, False, None, None),
        (("--distribution",), None, False, ("gaussian", "mixture"), None),
        (("--eps",), None, False, None, None),
        (("--mode",), None, False, ("single", "joint"), None),
        (("--seed",), None, False, None, None),
        (("--out",), None, False, None, "write the bisection trace here"),
        (("--format",), "csv", False, ("csv", "json"), None),
    },
    "evaluate": {
        (("--case",), None, False, None, None),
        (("--config",), None, False, None, None),
        (("--distribution",), None, False, ("gaussian", "mixture"), None),
        (("--s",), None, True, None, None),
        (("--n",), 10_000, False, None, None),
        (("--seed",), None, False, None, None),
        (("--out",), None, False, None, "write the full JSON report here"),
    },
    "experiment": {
        (("--config",), None, True, None, None),
        (("--eps",), None, False, None, None),
        (("--mode",), None, False, ("single", "joint"), None),
        (("--seed",), None, False, None, None),
        (("--jobs",), 1, False, None, None),
        (("--out",), None, False, None, None),
        (("--format",), "csv", False, ("csv", "json"), None),
    },
}


def test_every_command_keeps_its_flags():
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            (tuple(a.option_strings) or (a.dest,), a.default, a.required, a.choices, a.help)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in commands.choices.items()
    }
    assert surface == CLI_SURFACE


def test_parse_missing_file(capsys):
    assert main(["parse", "/no/such/file.case"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["bogus"]) == 1


def test_usage_error_exit_code(capsys):
    # argparse defaults to exit 2; the CLI reserves 2 for solver failures.
    assert main(["tune", "--mode", "sideways"]) == 1
    assert main(["experiment"]) == 1


def test_ptdf_output(tmp_path, capsys):
    out = tmp_path / "ptdf.csv"
    assert main(["ptdf", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 38
    assert all(len(r.split(",")) == 24 for r in rows)


def test_sample_respects_uncertain_buses(cfg_path, capsys):
    assert main(["sample", "--config", cfg_path, "--n", "4", "--seed", "3"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert data.shape == (4, 24)
    nonzero_cols = {int(j) + 1 for j in np.nonzero(np.any(data != 0.0, axis=0))[0]}
    assert nonzero_cols == {8, 15}


def test_sample_and_evaluate_draw_from_the_experiment_streams(cfg_path, tmp_path, capsys):
    from cctuner.experiment import STREAM_OOS, ExperimentConfig, Sweep, load_case, parse_config_file
    from cctuner.uncertainty import derive_seed, sampleset_to_csv

    config = ExperimentConfig.from_mapping(parse_config_file(cfg_path))
    case = load_case(config.case)
    pair = Sweep(config, case).replication("gaussian", 1)
    assert main(["sample", "--config", cfg_path, "--n", str(config.n_tuning)]) == 0
    # Compared outside the assert: pytest's diff of two 1,500-line
    # strings takes minutes.
    same = capsys.readouterr().out == sampleset_to_csv(pair.tuning_samples, case)
    assert same, "sample does not print replication 1's tuning draw"

    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", cfg_path, "--s", "1.3", "--n", "50", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == derive_seed(config.seed, STREAM_OOS, 1)


def test_solve_and_infeasible_exit(cfg_path, capsys):
    assert main(["solve", "--config", cfg_path, "--s", "1.3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s=1.3\ncost=")
    assert main(["solve", "--config", cfg_path, "--s", "50"]) == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "evaluate"])
def test_nonfinite_s_exits_1(cfg_path, command, capsys):
    # --s is read as every input number is, so nan and inf are not numbers.
    for s in ("nan", "inf"):
        assert main([command, "--config", cfg_path, "--s", s]) == 1
        assert f"argument --s: invalid number value: '{s}'" in capsys.readouterr().err
    assert main([command, "--config", cfg_path, "--s", "-1"]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_tune_with_trace_outputs(cfg_path, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(
        ["tune", "--config", cfg_path, "--eps", "0.1", "--mode", "single",
         "--seed", "5", "--out", str(trace)]
    ) == 0
    out = capsys.readouterr().out
    assert "s=" in out and "terminated_by=" in out
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iteration,s,feasible,eps_single,eps_joint,cost"
    assert len(lines) >= 2

    trace_json = tmp_path / "trace.json"
    assert main(
        ["tune", "--config", cfg_path, "--seed", "5", "--format", "json",
         "--out", str(trace_json)]
    ) == 0
    payload = json.loads(trace_json.read_text())
    assert payload["trace"] and payload["s"] > 0
    assert payload["terminated_by"] in ("eps_tolerance", "interval_collapse", "iteration_cap")


def test_tune_json_trace_records_qp_solves(cfg_path, tmp_path):
    trace_json = tmp_path / "trace.json"
    assert main(
        ["tune", "--config", cfg_path, "--seed", "5", "--format", "json",
         "--out", str(trace_json)]
    ) == 0
    payload = json.loads(trace_json.read_text())
    assert payload["trace"][payload["chosen_iteration"] - 1]["feasible"]
    # The command's program starts from the case start, so no solve is
    # cold.
    assert all(it["qp_start"] != "cold" for it in payload["trace"])
    assert any(it["qp_start"] == "segment" for it in payload["trace"])
    for it in payload["trace"]:
        # The bracket the iterate bisected, as a JSON list.
        s_min, s_max = it["bracket"]
        assert it["s"] == (s_max - s_min) / 2.0 + s_min
        assert it["qp_status"] == ("optimal" if it["feasible"] else "infeasible")
        assert isinstance(it["qp_iterations"], int) and it["qp_iterations"] >= 0
        # How the status was decided: a kept certificate is rechecked at
        # 0 pivots, and a segment counts the swaps walked to reach s.
        assert it["qp_start"] in ("segment", "certificate", "cold")
        if it["qp_start"] == "certificate":
            assert it["qp_iterations"] == 0 and it["qp_status"] == "infeasible"
        if it["qp_status"] == "optimal":
            # Cold, looked up or walked to, an optimal point is certified.
            assert it["kkt_max"] <= 1e-8
        else:
            assert it["kkt_max"] > 1e-8
        # Wall-clock seconds of the solve and of the tuning-set count.
        assert it["solve_s"] > 0.0
        assert (it["count_s"] > 0.0) if it["feasible"] else (it["count_s"] == 0.0)


def test_tune_without_uncertain_buses(tmp_path, capsys):
    # An empty Gaussian spec: nothing to tighten against, so every s gives
    # the same dispatch and the tune stops after its first iterate.
    case = tmp_path / "two.case"
    case.write_text("base 100\nbus 1 0\nbus 2 20\nline 1 2 0.1 100\ngen 1 0 40 0.01 10 0\n")
    cfg = tmp_path / "certain.cfg"
    cfg.write_text(
        SMALL_CFG.replace("case = rts24", f"case = {case}")
        .replace("gaussian.std_mw = 9.4, 13.1", "gaussian.std_mw =")
    )
    assert main(["tune", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "iterations=1 " in out and "terminated_by=interval_collapse" in out


def test_tune_failure_maps_to_exit_2(cfg_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise TuningError("no feasible conservative anchor")

    monkeypatch.setattr(cli, "tune", boom)
    assert main(["tune", "--config", cfg_path]) == 2
    assert "conservative anchor" in capsys.readouterr().err


def test_evaluate_json_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(
        ["evaluate", "--config", cfg_path, "--s", "1.3", "--n", "500",
         "--seed", "2", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["n_samples"] == 500
    assert len(data["constraints"]) == 124
    assert main(["evaluate", "--config", cfg_path, "--s", "50"]) == 2


def test_no_internal_path_builds_the_nodal_sample_matrix(cfg_path, monkeypatch, capsys):
    # A SampleSet keeps only its drawn columns; the (n, n_buses) matrix
    # is for the edges (CSV output, reference checks), never for the
    # sweep or a count.
    from cctuner.experiment import ExperimentConfig, run_experiment
    from cctuner.uncertainty import SampleSet

    def refuse(self):
        raise AssertionError("the nodal sample matrix was built")

    monkeypatch.setattr(SampleSet, "samples", property(refuse))
    with pytest.raises(AssertionError, match="nodal"):
        SampleSet(np.zeros((2, 1)), [0], 3).samples
    config = ExperimentConfig.from_text(
        SMALL_CFG.replace("distributions = gaussian", "distributions = gaussian, mixture")
        .replace("replications = 2", "replications = 1")
        + "moment_source = auto\n"
    )
    report = run_experiment(config)
    assert len(report.rows) == 2 and not any(r.failed for r in report.rows)
    assert main(["evaluate", "--config", cfg_path, "--s", "1.3", "--n", "500"]) == 0
    assert "eps_joint=" in capsys.readouterr().out


def test_experiment_end_to_end(cfg_path, tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(
        ["experiment", "--config", cfg_path, "--out", str(out), "--jobs", "2"]
    ) == 0
    console = capsys.readouterr().out
    assert "s_true=" in console
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("mode,distribution,eps_des,replication")
    assert len(lines) == 1 + 2 + 1
    assert lines[-1].split(",")[3] == "avg"

    out_json = tmp_path / "results.json"
    assert main(
        ["experiment", "--config", cfg_path, "--seed", "12",
         "--out", str(out_json), "--format", "json"]
    ) == 0
    data = json.loads(out_json.read_text())
    assert data["config"]["seed"] == "12"
    assert len(data["rows"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_rejects_jobs_below_one(cfg_path, monkeypatch, capsys, jobs):
    def must_not_run(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("cctuner.experiment.Sweep.run", must_not_run)
    assert main(["experiment", "--config", cfg_path, "--jobs", jobs]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_experiment_eps_and_mode_overrides(cfg_path, tmp_path):
    out = tmp_path / "narrow.csv"
    assert main(
        ["experiment", "--config", cfg_path, "--eps", "0.05", "--mode", "single",
         "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(r.split(",")[2] == "0.05" for r in rows)


def test_tune_accepts_fraction_eps(cfg_path, capsys):
    assert main(["tune", "--config", cfg_path, "--eps", "0.1"]) == 0
    decimal = capsys.readouterr().out
    assert main(["tune", "--config", cfg_path, "--eps", "1/10"]) == 0
    assert capsys.readouterr().out == decimal


# Each eps lies inside (0, 1), but no float bracket holds it: 5e-324 / 96
# rounds to 0 (a ZeroDivisionError traceback before), and the top of the
# 1e-310 bracket overflows (a solve at s = inf before).
@pytest.mark.parametrize("eps, mode", [("5e-324", "joint"), ("1e-310", "single"), ("1e-310", "joint")])
def test_eps_too_small_for_a_float_bracket_exits_1(cfg_path, capsys, eps, mode):
    argv = ["--config", cfg_path, "--eps", eps, "--mode", mode]
    assert main(["tune", *argv]) == 1
    assert "error: eps_des is too close to 0 or 1 for floats" in capsys.readouterr().err
    # The sweep stops there too.
    assert main(["experiment", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: eps_des is too close to 0 or 1 for floats")


def _one_replication(tmp_path, eps):
    path = tmp_path / "one.cfg"
    path.write_text(
        SMALL_CFG.replace("replications = 2", "replications = 1")
        .replace("tuning.samples = 1500", "tuning.samples = 1000")
        .replace("oos.samples = 1500", "oos.samples = 1000")
        .replace("eps = 0.1", f"eps = {eps}")
    )
    return ["experiment", "--config", str(path), "--mode", "single"]


def test_experiment_takes_an_eps_below_float_resolution_of_one(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1.0, so s_true must be read as the upper
    # quantile of eps itself.
    assert main(_one_replication(tmp_path, "1e-17")) == 0
    assert "s_true=8.4938" in capsys.readouterr().out


# Inside (0, 1) exactly, but the float of 1e-400 is 0, and 1e-5000 has a
# denominator of more than 4300 digits, which str() refuses to print.
@pytest.mark.parametrize("eps", ["1e-400", "1e-5000"])
def test_experiment_names_eps_des_when_its_float_is_0(tmp_path, capsys, eps):
    assert main(_one_replication(tmp_path, eps)) == 1
    err = capsys.readouterr().err
    assert "eps_des is too close to 0 or 1 for floats" in err and "Traceback" not in err


def test_experiment_writes_its_report_when_every_replication_fails(tmp_path, capsys):
    # One bisection step cannot meet eps = 0.01 jointly, so every
    # replication fails; the JSON report must still carry each row's error.
    from importlib.resources import files

    text = (files("cctuner.data") / "rts24_sweep.cfg").read_text(encoding="utf-8")
    path = tmp_path / "fail.cfg"
    path.write_text(text.replace("replications = 20", "replications = 1").replace("max_iterations = 60", "max_iterations = 1"))
    out = tmp_path / "r.json"
    argv = ["experiment", "--config", str(path), "--mode", "joint", "--eps", "0.01", "--format", "json", "--out", str(out)]
    assert main(argv) == 2
    assert "all replications failed" in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2 and all(row["failed"] and row["error"] for row in rows)


def test_commands_build_only_the_distribution_they_use(tmp_path, capsys):
    # solve works on the first listed distribution, so the Gaussian's
    # missing spec key does not concern it; the experiment builds both.
    path = tmp_path / "mixture-first.cfg"
    path.write_text(
        SMALL_CFG.replace("distributions = gaussian", "distributions = mixture, gaussian")
        .replace("gaussian.std_mw = 9.4, 13.1\n", "")
    )
    assert main(["solve", "--config", str(path), "--s", "1.5"]) == 0
    capsys.readouterr()
    assert main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "missing required key 'gaussian.std_mw'" in err and "Traceback" not in err


def test_negative_seed_exits_1(cfg_path, capsys):
    assert main(["tune", "--config", cfg_path, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "'seed'" in err and "Traceback" not in err


def test_misspelled_key_exits_1(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(SMALL_CFG + "tuning.sample = 500\n")
    assert main(["tune", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'tuning.sample'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, distribution",
    [("gaussian.std_mw", "1e200, 13.1", "gaussian"), ("mixture.uniform.high_mw", "1e308", "mixture")],
)
def test_spec_with_moments_beyond_floats_exits_1(tmp_path, capsys, key, value, distribution):
    # Each value is a finite float, but the spec's variance overflows.
    # Before, the overflow warned, and the QP then failed on the inf
    # tightening (exit 2); now the spec is rejected when it is built.
    from importlib.resources import files

    text = (files("cctuner.data") / "rts24_sweep.cfg").read_text(encoding="utf-8")
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in text.splitlines()]
    path = tmp_path / "wide.cfg"
    path.write_text("\n".join(lines) + "\n")
    for command in (["tune"], ["solve", "--s", "1"]):
        assert main([*command, "--config", str(path), "--distribution", distribution]) == 1
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, distribution, cause",
    [
        # A negative deviation would run as the opposite correlation.
        ("gaussian.std_mw", "-9.4, 13.1", "gaussian", "gaussian.std_mw"),
        ("mixture.g1.std_mw", "-7, 14", "mixture", "mixture.g1.std_mw"),
        ("mixture.weights", "1/2, 1/2", "mixture", "mixture.weights must have three entries"),
        ("oos.samples", "0", "gaussian", "sample counts must be positive"),
    ],
)
def test_config_a_command_cannot_run_exits_1_naming_its_cause(tmp_path, capsys, key, value, distribution, cause):
    from importlib.resources import files

    text = (files("cctuner.data") / "rts24_sweep.cfg").read_text(encoding="utf-8")
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in text.splitlines()]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    for command in (["tune"], ["solve", "--s", "1"], ["experiment"]):
        argv = [*command, "--config", str(path)]
        if command[0] != "experiment":
            argv += ["--distribution", distribution]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {cause}" in err and "Traceback" not in err


def test_repeated_eps_exits_1(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text(SMALL_CFG.replace("eps = 0.1", "eps = 0.1, 0.10"))
    assert main(["experiment", "--config", str(path)]) == 1
    assert "distinct" in capsys.readouterr().err


def test_solve_reproduces_tuned_mixture_cost(cfg_path, tmp_path, capsys):
    # Under moment_source = auto the mixture tightens with the moments of
    # replication 1's tuning draw, in tune and solve alike.
    trace = tmp_path / "trace.json"
    assert main(
        ["tune", "--config", cfg_path, "--distribution", "mixture",
         "--format", "json", "--out", str(trace)]
    ) == 0
    tuned = json.loads(trace.read_text())
    capsys.readouterr()
    assert main(
        ["solve", "--config", cfg_path, "--distribution", "mixture", "--s", repr(tuned["s"])]
    ) == 0
    assert f"cost={tuned['cost']:.12g}\n" in capsys.readouterr().out


def test_tune_reproduces_the_sweeps_rows_bit_for_bit(tmp_path, capsys):
    # The command's pair is the experiment's replication 1, and its
    # program starts from the case start as each of the sweep's does: so
    # it walks the same path, and its answers are the experiment's rows,
    # cost to the last bit, with no solve cold.
    from importlib.resources import files

    from cctuner.experiment import ExperimentConfig, parse_config_file, run_experiment

    text = (files("cctuner.data") / "rts24_sweep.cfg").read_text(encoding="utf-8")
    path = tmp_path / "one.cfg"
    path.write_text(text.replace("replications = 20", "replications = 1"))
    report = run_experiment(ExperimentConfig.from_mapping(parse_config_file(str(path))))
    rows = {(row.mode, row.distribution, row.eps_des): row for row in report.rows}
    for mode in ("single", "joint"):
        out = tmp_path / f"{mode}.json"
        argv = ["tune", "--config", str(path), "--mode", mode, "--eps", "0.1", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        tuned = json.loads(out.read_text())
        row = rows[mode, "gaussian", 0.1]
        assert (tuned["s"], tuned["cost"]) == (row.s, row.cost), mode
        assert (tuned["eps_single"], tuned["eps_joint"]) == (row.eps_obs_single, row.eps_obs_joint), mode
        assert all(it["qp_start"] != "cold" for it in tuned["trace"])
    capsys.readouterr()


def test_qp_failure_exits_2(cfg_path, monkeypatch, capsys):
    import cctuner.qp as qp
    import cctuner.reformulation as reformulation

    real_solve = qp.solve

    def stalled(*args, **kwargs):
        return replace(real_solve(*args, **kwargs), status="max_iterations")

    # With no case start, the program's first solve is cold.
    monkeypatch.setattr(reformulation, "case_start", lambda case: None)
    monkeypatch.setattr(qp, "solve", stalled)
    assert main(["tune", "--config", cfg_path]) == 2
    assert "max_iterations" in capsys.readouterr().err

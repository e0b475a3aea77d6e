"""Config parsing, normal quantiles, and the replication sweep."""

from __future__ import annotations

import json
import logging
import pickle
from fractions import Fraction
from importlib.resources import files

import numpy as np
import pytest

import cctuner.experiment as experiment
from cctuner import qp
from cctuner.experiment import (
    REPORT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    Sweep,
    build_distribution,
    load_case,
    parse_config_file,
    parse_config_text,
    report_to_csv,
    report_to_json,
    run_experiment,
    write_report,
)
from cctuner.reformulation import DispatchProgram, case_start, solve_dispatch
from cctuner.tuner import TuningError, initial_bounds, tune
from cctuner.uncertainty import GaussianSpec, MixtureSpec, UniformBoxSpec

SMALL_GAUSSIAN = """
modes = single
distributions = gaussian
eps = 0.1
replications = 2
tuning.samples = 2000
oos.samples = 3000
seed = 42
gaussian.std_mw = 9.4, 13.1
gaussian.correlation = 0.2
"""


@pytest.fixture(autouse=True)
def quiet_resolution_warning():
    # The deliberately small test sample counts trip the gamma warning.
    with pytest.MonkeyPatch.context() as mp:
        import warnings

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*sample resolution.*")
            yield


def test_parse_config_text():
    cfg = parse_config_text(
        "# comment\n\nkey = value\ndotted.key = 1, 2, 3\nspaces   =   kept inside\n"
    )
    assert cfg == {
        "key": "value",
        "dotted.key": "1, 2, 3",
        "spaces": "kept inside",
    }
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= value\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_experiment_config_validation():
    defaults = ExperimentConfig.from_text("")
    assert defaults.modes == ("single",)
    # The tuning defaults are TuningConfig's, read back exactly.
    assert (defaults.width_tol, defaults.max_iterations) == (Fraction(1, 10**6), 60)
    with pytest.raises(ConfigError, match="unknown mode"):
        ExperimentConfig.from_text("modes = both")
    with pytest.raises(ConfigError, match="unknown distribution"):
        ExperimentConfig.from_text("distributions = cauchy")
    with pytest.raises(ConfigError, match="eps_des must lie strictly between 0 and 1, got 1.5"):
        ExperimentConfig.from_text("eps = 1.5")
    with pytest.raises(ConfigError, match="moment_source"):
        ExperimentConfig.from_text("moment_source = guess")
    with pytest.raises(ConfigError, match="'replications': 'few' is not a number"):
        ExperimentConfig.from_text("replications = few")
    with pytest.raises(ConfigError, match="'replications': '2.5' is not an integer"):
        ExperimentConfig.from_text("replications = 2.5")
    with pytest.raises(ConfigError, match="not a number"):
        ExperimentConfig.from_text("width_tol = wide")
    # numpy would reject it only at the first draw, without naming the key.
    with pytest.raises(ConfigError, match="'seed' must be nonnegative"):
        ExperimentConfig.from_text("seed = -1")
    assert ExperimentConfig.from_text("seed = 0").seed == 0


@pytest.mark.parametrize(
    "text, keys",
    [
        ("tuning.sample = 500", ["tuning.sample"]),
        ("repliactions = 3\nmode = joint", ["mode", "repliactions"]),
        ("mixture.weight = 1/2, 1/4, 1/4", ["mixture.weight"]),
    ],
)
def test_unknown_keys_are_named_not_ignored(text, keys):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_text(SMALL_GAUSSIAN + text)
    assert str(info.value) == "; ".join(f"unknown key {key!r}" for key in keys)


@pytest.mark.parametrize(
    "line, message",
    [
        ("max_iterations = 0", "max_iterations"),
        ("width_tol = 0", "width_tol"),
        ("gamma = -1", "gamma"),
    ],
)
def test_tuning_settings_rejected_at_parse_time(line, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(line)


def test_build_distribution_shapes():
    case = load_case("rts24")
    raw = parse_config_text(SMALL_GAUSSIAN)
    spec = build_distribution("gaussian", raw, case)
    assert isinstance(spec, GaussianSpec)
    np.testing.assert_allclose(np.diag(spec.covariance_mw2), [9.4**2, 13.1**2])
    assert spec.covariance_mw2[0, 1] == pytest.approx(0.2 * 9.4 * 13.1)

    mix = build_distribution("mixture", raw, case)
    assert isinstance(mix, MixtureSpec)
    assert len(mix.components) == 3
    weights = [w for w, _ in mix.components]
    assert sum(weights) == pytest.approx(1.0)
    assert all(w == pytest.approx(1 / 3) for w in weights)
    g1, g2, box = (spec for _, spec in mix.components)
    assert isinstance(g1, GaussianSpec) and isinstance(g2, GaussianSpec)
    assert isinstance(box, UniformBoxSpec)
    np.testing.assert_allclose(np.diag(g1.covariance_mw2), [49.0, 196.0])
    np.testing.assert_allclose(box.lower_mw, [-30.0, -30.0])
    np.testing.assert_allclose(box.upper_mw, [30.0, 30.0])

    with pytest.raises(ConfigError, match="uncertain buses"):
        build_distribution("gaussian", {"gaussian.std_mw": "5"}, case)
    with pytest.raises(ConfigError, match="mixture.g1.std_mw has 3 entries for 2 uncertain buses"):
        build_distribution("mixture", {"mixture.g1.std_mw": "7, 14, 1"}, case)
    with pytest.raises(ConfigError, match="unknown distribution"):
        build_distribution("laplace", raw, case)


@pytest.fixture
def cold_solves(monkeypatch):
    """The qp.solve calls a test makes, counted from an empty case_start slot."""
    case_start.cache_clear()
    calls, cold_solve = [], qp.solve
    monkeypatch.setattr(qp, "solve", lambda *arrays: calls.append(arrays) or cold_solve(*arrays))
    return calls


@pytest.fixture(scope="module")
def small_report():
    import warnings

    config = ExperimentConfig.from_text(SMALL_GAUSSIAN)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*sample resolution.*")
        return run_experiment(config)


def test_run_experiment_rows(small_report):
    rows = small_report.rows
    assert [r.replication for r in rows] == [1, 2]
    for r in rows:
        assert r.mode == "single" and r.distribution == "gaussian"
        assert not r.failed
        assert r.s_true == pytest.approx(1.2816, abs=1e-4)
        assert 1.0 < r.s < 1.6
        assert r.iterations >= 1
        assert r.cost > 0
        # Union frequency dominates the single worst row, in and out of sample.
        assert r.eps_oos_joint >= r.eps_oos_single
        assert r.eps_obs_joint >= r.eps_obs_single
    avg = small_report.averages
    assert len(avg) == 1
    assert avg[0].replications == 2
    assert avg[0].s == pytest.approx((rows[0].s + rows[1].s) / 2)
    assert avg[0].cost == pytest.approx((rows[0].cost + rows[1].cost) / 2)


def test_run_experiment_deterministic(small_report):
    config = ExperimentConfig.from_text(SMALL_GAUSSIAN)
    again = run_experiment(config)
    assert report_to_csv(again) == report_to_csv(small_report)


def test_jobs_do_not_change_the_report(small_report):
    config = ExperimentConfig.from_text(SMALL_GAUSSIAN)
    parallel = run_experiment(config, jobs=2)
    assert report_to_csv(parallel) == report_to_csv(small_report)


def test_a_run_solves_cold_once_and_jobs_do_not_change_the_json_report(small_report, cold_solves):
    # Every pair's program starts from case_start(case), which the
    # process solves once per case: from an empty slot, a serial run
    # makes that one cold solve and no other, and workers, which inherit
    # the slot or solve the same start, report the same, qp_starts
    # included.
    config = ExperimentConfig.from_text(SMALL_GAUSSIAN)
    serial = report_to_json(run_experiment(config))
    assert len(cold_solves) == 1
    assert report_to_json(run_experiment(config, jobs=2)) == serial == report_to_json(small_report)


def test_jobs_start_no_more_workers_than_pairs(small_report, monkeypatch):
    # A process pool forks all its workers up front, so a worker beyond
    # the pair count would only sit idle. The stand-in pool records its
    # size and what each task would ship, runs its initializer and maps
    # in this process.
    sizes, shipped = [], []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            tasks = list(zip(*iterables))
            shipped.extend(len(pickle.dumps((fn, task))) for task in tasks)
            return (fn(*task) for task in tasks)

    monkeypatch.setattr(experiment.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiment, "_worker_sweep", None)
    config = ExperimentConfig.from_text(SMALL_GAUSSIAN)
    report = run_experiment(config, jobs=4)
    assert sizes == [2]
    assert report_to_csv(report) == report_to_csv(small_report)
    # The sweep reaches each worker once, through the initializer; a task
    # ships only its pair.
    assert len(shipped) == 2 and max(shipped) < 200


@pytest.mark.parametrize("distribution", ["gaussian", "mixture"])
def test_a_pairs_program_decides_beyond_its_path_end_by_the_sweeps_ray(distribution):
    # The case's s = 0 hand-off, which every pair of the sweep starts
    # from, carries the dual ray where the path of its unit-moment
    # catalog ends. A pair's program rechecks it at its own sigmas, so
    # its first joint midpoint at eps 0.05 is decided with no swap, and
    # it answers, bit for bit, as a program handed the s = 0 solution
    # alone, which walks its path there.
    config = ExperimentConfig.from_mapping(parse_config_file(files("cctuner.data") / "rts24_sweep.cfg"))
    sweep = Sweep(config)
    arrays, s0, ray = case_start(sweep.case)
    assert s0.optimal and ray is not None
    pair = sweep.replication(distribution, 1)
    bare = DispatchProgram(sweep.case, pair.catalog)
    assert pair.program.start_from((arrays, s0, ray)) and bare.start_from((arrays, s0, None))
    s = initial_bounds(config.cells["joint", Fraction(1, 20)], pair.catalog.n_active)[1] / 2.0
    assert round(s, 1) == 21.9
    sol = pair.program.solve(s)
    assert (sol.status, sol.qp_start, sol.qp_solution.iterations) == ("infeasible", "certificate", 0)
    walked = bare.solve(s)
    assert (walked.status, walked.qp_start) == ("infeasible", "segment") and walked.qp_solution.iterations > 0
    for s in np.linspace(0.0, 50.0, 51):
        with_ray, without = pair.program.solve(s), bare.solve(s)
        assert with_ray.qp_start != "cold" or s == 0.0
        assert (with_ray.status, with_ray.p_g.tobytes()) == (without.status, without.p_g.tobytes()), s
        assert with_ray.objective == without.objective


def test_zero_replications_header_only(cold_solves):
    config = ExperimentConfig.from_text(
        SMALL_GAUSSIAN.replace("replications = 2", "replications = 0")
    )
    # A run with no pairs has no program to start, so it solves nothing.
    report = run_experiment(config)
    assert cold_solves == []
    assert report.rows == ()
    assert report.averages == ()
    text = report_to_csv(report)
    assert text == ",".join(REPORT_COLUMNS) + "\n"


def test_failed_replication_excluded_from_average(monkeypatch, caplog):
    real_tune = experiment.tune
    calls = {"n": 0}

    def flaky(case, catalog, samples, config, program):
        calls["n"] += 1
        if calls["n"] == 1:
            raise TuningError("no feasible conservative anchor")
        return real_tune(case, catalog, samples, config, program)

    monkeypatch.setattr(experiment, "tune", flaky)
    config = ExperimentConfig.from_text(SMALL_GAUSSIAN)
    with caplog.at_level(logging.WARNING, logger="cctuner.experiment"):
        report = run_experiment(config)
    assert "failed" in caplog.text
    assert report.rows[0].failed and not report.rows[1].failed
    assert report.rows[0].s is None and report.rows[0].cost is None
    avg = report.averages[0]
    assert avg.replications == 1
    assert avg.s == report.rows[1].s
    csv_text = report_to_csv(report)
    failed_line = csv_text.splitlines()[1]
    # Fixed columns stay aligned; missing values are blank cells.
    assert failed_line.startswith("single,gaussian,0.1,1,,,")


def test_csv_layout(small_report):
    lines = report_to_csv(small_report).splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + 2 + 1
    assert lines[-1].split(",")[3] == "avg"
    for line in lines[1:]:
        assert len(line.split(",")) == len(REPORT_COLUMNS)


def test_json_mirror(small_report, tmp_path):
    data = json.loads(report_to_json(small_report))
    assert set(data) == {"config", "rows", "averages"}
    assert len(data["rows"]) == 2
    assert data["rows"][0]["failed"] is False
    assert data["averages"][0]["replication"] == "avg"
    assert data["config"]["seed"] == "42"
    # Where each row's solves came from: each pair's program walks its
    # path from the s = 0 solution, so none is cold. A diagnostic, so no
    # CSV column.
    for row in data["rows"]:
        assert sum(row["qp_starts"].values()) == row["iterations"]
        assert "cold" not in row["qp_starts"]
    assert "qp_starts" not in REPORT_COLUMNS

    out_csv = tmp_path / "r.csv"
    out_json = tmp_path / "r.json"
    write_report(small_report, out_csv, fmt="csv")
    write_report(small_report, out_json, fmt="json")
    assert out_csv.read_text().startswith("mode,")
    assert json.loads(out_json.read_text())["rows"]
    with pytest.raises(ValueError, match="format"):
        write_report(small_report, tmp_path / "r.x", fmt="yaml")


def test_twelve_average_rows_for_full_grid():
    config = ExperimentConfig.from_text(
        """
modes = single, joint
distributions = gaussian, mixture
eps = 0.1, 0.05, 0.01
replications = 1
tuning.samples = 800
oos.samples = 800
seed = 7
gaussian.std_mw = 9.4, 13.1
gaussian.correlation = 0.2
"""
    )
    report = run_experiment(config)
    assert len(report.rows) == 12
    assert len(report.averages) == 12
    keys = [(a.mode, a.distribution, a.eps_des) for a in report.averages]
    assert keys[0] == ("single", "gaussian", 0.1)
    assert keys[-1] == ("joint", "mixture", 0.01)
    assert len(set(keys)) == 12
    # s_true appears exactly on the gaussian single rows.
    for a in report.averages:
        if a.mode == "single" and a.distribution == "gaussian":
            assert a.s_true is not None
        else:
            assert a.s_true is None


def test_fraction_syntax_matches_decimals():
    decimal = ExperimentConfig.from_text(
        SMALL_GAUSSIAN.replace("replications = 2", "replications = 1") + "gamma = 0.001\n"
    )
    fraction = ExperimentConfig.from_text(
        SMALL_GAUSSIAN.replace("replications = 2", "replications = 1")
        .replace("eps = 0.1", "eps = 1/10")
        + "gamma = 1/1000\n"
    )
    assert report_to_csv(run_experiment(fraction)) == report_to_csv(run_experiment(decimal))


@pytest.mark.parametrize(
    "line",
    ["eps = 0.1, 0.10", "modes = single, single", "distributions = gaussian, gaussian", "eps ="],
)
def test_sweep_axis_must_list_distinct_entries(line):
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig.from_text(line)


def test_replication_draws_and_catalogs_once_per_distribution(monkeypatch, cold_solves):
    names = ("compute_ptdf", "build_distribution", "spec_moments", "empirical_moments", "build_catalog", "sample", "evaluate")
    counts = dict.fromkeys(names, 0)
    for name in counts:
        real = getattr(experiment, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiment, name, spy)
    config = ExperimentConfig.from_text(
        """
modes = single, joint
distributions = gaussian, mixture
eps = 0.1, 0.05, 0.01
replications = 2
tuning.samples = 800
oos.samples = 800
seed = 7
gaussian.std_mw = 9.4, 13.1
"""
    )
    report = run_experiment(config)
    assert len(report.rows) == 24 and not any(r.failed for r in report.rows)
    # One PTDF per run and one spec per distribution. Under auto, the
    # Gaussian's pairs share one catalog from its spec moments, and each
    # mixture pair builds its own from its tuning draw. Each pair draws
    # one tuning and one out-of-sample set, and each cell counts once.
    # The run's one cold solve is the s = 0 solve of case_start, whose
    # unit-moment catalog is built outside this module.
    assert counts == {
        "compute_ptdf": 1,
        "build_distribution": 2,
        "spec_moments": 1,
        "empirical_moments": 2,
        "build_catalog": 3,
        "sample": 8,
        "evaluate": 24,
    }
    assert len(cold_solves) == 1


def test_equal_cases_share_one_s0_solve_across_runs_and_tunes(cold_solves):
    # case_start keeps its slot for an equal case, not only the same
    # object: two runs on two loads of the case, and a tune without a
    # program on the second, solve the s = 0 program once in all.
    config = ExperimentConfig.from_text(SMALL_GAUSSIAN.replace("replications = 2", "replications = 1"))
    first, second = load_case("rts24"), load_case("rts24")
    assert first == second and first is not second
    runs = [report_to_json(run_experiment(config, case=case)) for case in (first, second)]
    assert runs[0] == runs[1]
    pair = Sweep(config, second).replication("gaussian", 1)
    result = tune(second, pair.catalog, pair.tuning_samples, config.cells["single", Fraction(1, 10)])
    assert all(it.qp_start != "cold" for it in result.trace)
    assert len(cold_solves) == 1


def test_a_distribution_that_cannot_be_built_fails_before_any_pair_runs(monkeypatch):
    real_tune = experiment.tune
    calls = []

    def spy(*args):
        calls.append(args)
        return real_tune(*args)

    monkeypatch.setattr(experiment, "tune", spy)
    config = ExperimentConfig.from_text(
        SMALL_GAUSSIAN.replace("distributions = gaussian", "distributions = mixture, gaussian")
        .replace("gaussian.std_mw = 9.4, 13.1\n", "")
    )
    with pytest.raises(ConfigError, match="missing required key 'gaussian.std_mw'"):
        run_experiment(config)
    assert calls == []


def test_one_tuning_sample_fails_before_any_pair_runs_where_its_moments_tighten(monkeypatch):
    real_tune = experiment.tune
    calls = []

    def spy(*args):
        calls.append(args)
        return real_tune(*args)

    monkeypatch.setattr(experiment, "tune", spy)
    text = SMALL_GAUSSIAN.replace("tuning.samples = 2000", "tuning.samples = 1")
    for refused in (
        text.replace("distributions = gaussian", "distributions = gaussian, mixture"),
        text + "moment_source = empirical\n",
    ):
        with pytest.raises(ConfigError, match="key 'tuning.samples' must be at least 2"):
            run_experiment(ExperimentConfig.from_text(refused))
    assert calls == []
    # Under auto the Gaussian tightens with its spec moments, so a
    # Gaussian-only sweep still runs on one tuning sample.
    report = run_experiment(ExperimentConfig.from_text(text))
    assert len(calls) == len(report.rows) == 2


def test_number_beyond_float_range_rejected():
    with pytest.raises(ConfigError, match="float range"):
        ExperimentConfig.from_text("gaussian.std_mw = 1e400, 1")


def test_tiny_joint_mixture_tunes_through_a_capped_qp():
    # At 400 tuning samples this replication's first feasible midpoint is
    # a joint program whose inequality duals reach ~8e5, where an
    # interior-point method stalls at absolute stationarity ~2e-7. The
    # active-set method certifies it on the absolute test, below the cap.
    raw = experiment.parse_config_file(files("cctuner.data") / "rts24_sweep.cfg")
    raw.update({"distributions": "mixture", "modes": "joint", "eps": "0.1"})
    raw.update({"tuning.samples": "400", "seed": "4"})
    config = ExperimentConfig.from_mapping(raw)
    case = load_case(config.case)
    pair = experiment.Sweep(config, case).replication("mixture", 1)
    sol = solve_dispatch(case, pair.catalog, 15.483862567202022)
    assert sol.status == "optimal"
    assert sol.qp_solution.iterations < qp.DEFAULT_MAX_ITERS
    assert max(sol.qp_solution.kkt_residuals) <= qp.DEFAULT_TOL
    result = experiment.tune(case, pair.catalog, pair.tuning_samples, config.cells["joint", Fraction(1, 10)])
    assert result.eps_joint <= Fraction(1, 10)

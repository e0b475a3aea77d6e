"""Fuzz gate on input numbers: one numeric field of the bundled case or
config set to an awkward value.

Every command must exit 0, 1 or 2 with no exception escaping cli.main and
no RuntimeWarning (the pytest settings make one an error), and a non-finite
value must exit 1. Each explicit example is a failure seen before: a
traceback, a warning, or a solver failure caused by bad input.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import warnings
from importlib.resources import files

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cctuner.cli import main

# The bundled case with buses 8 and 15 flagged uncertain, as the rts24
# study flags them.
CASE_LINES = (
    (files("cctuner.data") / "ieee_rts24.case")
    .read_text(encoding="utf-8")
    .replace("bus 8 171", "bus 8 171 uncertain")
    .replace("bus 15 317", "bus 15 317 uncertain")
    .splitlines()
)
RECORDS = ("base", "bus", "line", "gen")
# ("case", line index, field index) of every number of every record.
CASE_FIELDS = [
    ("case", i, j)
    for i, line in enumerate(CASE_LINES)
    if line.split() and line.split()[0] in RECORDS
    for j, text in enumerate(line.split()[1:], start=1)
    if text != "uncertain"
]

# tune runs the first mode, so joint; the experiment runs both.
CONFIG = {
    "modes": "joint, single",
    "eps": "0.1",
    "replications": "1",
    "tuning.samples": "1000",
    "oos.samples": "1000",
    "gamma": "1e-3",
    "width_tol": "1e-6",
    "max_iterations": "60",
    "seed": "11",
    "gaussian.std_mw": "9.4, 13.1",
    "gaussian.correlation": "0.2",
    "mixture.weights": "1/3, 1/3, 1/3",
    "mixture.g1.std_mw": "7, 14",
    "mixture.g1.correlation": "0.5",
    "mixture.g2.std_mw": "6, 6",
    "mixture.g2.correlation": "0.1",
    "mixture.uniform.low_mw": "-30",
    "mixture.uniform.high_mw": "30",
}
# ("config", key, entry index) of every number of every numeric key.
CONFIG_FIELDS = [
    ("config", key, j) for key, value in CONFIG.items() if key != "modes" for j in range(len(value.split(",")))
]

NON_FINITE = ("nan", "inf", "-inf")
HUGE = ("1e308", str(10**30))
VALUES = NON_FINITE + HUGE + ("1e-320", "5e-324", "-0.0", "abc", "1/0", "0x10")
# A huge count would allocate gigabytes (or, for replications, a list of
# 10**30 pairs), so the count keys never get one.
COUNT_KEYS = ("replications", "tuning.samples", "oos.samples")


def _line(prefix):
    return next(i for i, line in enumerate(CASE_LINES) if line.startswith(prefix))


def _set(text, j, value):
    parts = text.split(",") if "," in text else text.split()
    parts[j] = value
    return ("," if "," in text else " ").join(parts)


def _inputs(target, value, directory):
    """Write the case and config with the target field set to value."""
    kind, where, j = target
    case_lines, config = list(CASE_LINES), dict(CONFIG)
    if kind == "case":
        case_lines[where] = _set(case_lines[where], j, value)
    else:
        config[where] = _set(config[where], j, value)
    case = os.path.join(directory, "fuzz.case")
    with open(case, "w", encoding="utf-8") as handle:
        handle.write("\n".join(case_lines) + "\n")
    config["case"] = case if kind == "case" else "rts24"
    config["distributions"] = "mixture" if str(where).startswith("mixture.") else "gaussian"
    cfg = os.path.join(directory, "fuzz.cfg")
    with open(cfg, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{key} = {text}\n" for key, text in config.items()))
    return case, cfg


def exit_codes(target, value, explicit=False):
    """Run each command on the input; return {command: exit code}."""
    with tempfile.TemporaryDirectory() as directory:
        case, cfg = _inputs(target, value, directory)
        commands = {
            "solve": ["solve", "--config", cfg, "--s", "1"],
            "tune": ["tune", "--config", cfg],
            "evaluate": ["evaluate", "--config", cfg, "--s", "1", "--n", "200"],
        }
        if target[0] == "case":
            commands["parse"] = ["parse", case]
        if explicit:
            commands["ptdf"] = ["ptdf", "--config", cfg, "--out", os.path.join(directory, "ptdf.csv")]
            commands["sample"] = ["sample", "--config", cfg, "--n", "3"]
            commands["experiment"] = ["experiment", "--config", cfg]
        codes = {}
        with warnings.catch_warnings():
            # Only the gamma-resolution UserWarning of tiny gammas; a
            # RuntimeWarning is still an error.
            warnings.filterwarnings("ignore", category=UserWarning)
            for name, argv in commands.items():
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    codes[name] = main(argv)
        return codes


def _values(target):
    if target[1] in COUNT_KEYS:
        return st.sampled_from([v for v in VALUES if v not in HUGE])
    return st.sampled_from(VALUES)


# Failures seen before: (target, value).
EXAMPLES = [
    # OverflowError traceback from base_mva**2.
    (("case", _line("base "), 1), "1e308"),
    # Overflow warning, then a solver failure (exit 2).
    (("case", _line("base "), 1), "1e-320"),
    # Warnings in the PTDF, then "SVD did not converge".
    (("case", _line("line 1 2 "), 3), "1e-320"),
    # Overflow in the ratio test of the QP.
    (("case", _line("line 1 2 "), 3), "1e308"),
    # c2 on bus 18, a single-unit bus: warning, then "Eigenvalues did not converge".
    (("case", _line("gen 18 "), 4), "1e308"),
    # eps/96 underflows to 0: ZeroDivisionError in joint mode.
    (("config", "eps", 0), "5e-324"),
]


def _with_examples(test):
    for entry in EXAMPLES:
        test = example(entry)(test)
    return test


INPUTS = st.sampled_from(CASE_FIELDS + CONFIG_FIELDS).flatmap(
    lambda target: st.tuples(st.just(target), _values(target))
)


@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(INPUTS)
@_with_examples
def test_one_awkward_number_exits_cleanly(entry):
    target, value = entry
    # The explicit examples also run ptdf, sample and a one-replication experiment.
    codes = exit_codes(target, value, explicit=entry in EXAMPLES)
    assert set(codes.values()) <= {0, 1, 2}, codes
    if value in NON_FINITE:
        assert set(codes.values()) == {1}, codes

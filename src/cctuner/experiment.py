"""Replicated tuning experiments and their reports.

An experiment sweeps mode x distribution x eps over independent
replications. A Sweep builds what its (distribution, replication) pairs
share once. Each pair draws its own tuning and out-of-sample sets from
seed streams that depend only on the replication index, and tunes every
(mode, eps) cell against them; each tuned dispatch is scored out of
sample. Rows come out in canonical sweep order regardless of worker
scheduling.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from statistics import NormalDist
from typing import Dict, Optional, Tuple, Union

from .grid import GridCase, apply_rts_modifications, parse_case_file, parse_integer, parse_number
from .ptdf import compute_ptdf
from .reformulation import ConstraintCatalog, DispatchProgram, build_catalog, case_start, participation_factors
from .tuner import TuningConfig, TuningError, tune
from .uncertainty import (
    MixtureSpec,
    SampleSet,
    UniformBoxSpec,
    derive_seed,
    empirical_moments,
    gaussian_from_std_corr,
    sample,
    spec_moments,
)
from .violation import evaluate

logger = logging.getLogger(__name__)

# Seed stream tags: child seeds depend only on the tag and the
# replication index, so every sweep cell of a replication shares its
# tuning draw and its out-of-sample draw.
STREAM_TUNING = 0
STREAM_OOS = 1

DISTRIBUTIONS = ("gaussian", "mixture")


class ConfigError(ValueError):
    """Raised for malformed experiment configuration."""


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse flat key = value lines with dotted keys.

    Blank lines and full-line # comments are skipped. Duplicate keys are
    rejected so a typo cannot silently shadow an earlier setting.
    """
    out: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config_file(path) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def _names(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _numbers(text: str) -> Tuple[Fraction, ...]:
    return tuple(parse_number(part) for part in _names(text))


def _parse(key: str, text: str, parse):
    """One config value through its parser; a ValueError names the key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


# Sweep and tuning keys: key -> (ExperimentConfig field, default, parser).
_KEYS = {
    "case": ("case", "rts24", str),
    "modes": ("modes", "single", _names),
    "distributions": ("distributions", "gaussian", _names),
    "eps": ("eps_values", "0.1", _numbers),
    "replications": ("replications", "1", parse_integer),
    "tuning.samples": ("n_tuning", "10000", parse_integer),
    "oos.samples": ("n_oos", "100000", parse_integer),
    "gamma": ("gamma", "1e-4", parse_number),
    "width_tol": ("width_tol", str(TuningConfig.width_tol), parse_number),
    "max_iterations": ("max_iterations", str(TuningConfig.max_iterations), parse_integer),
    "seed": ("seed", "1", parse_integer),
    "moment_source": ("moment_source", "auto", str),
}

# Numeric keys of the distribution specs: key -> (default, parser).
# gaussian.std_mw has no default; only the Gaussian spec requires it.
_SPEC_KEYS = {
    "gaussian.std_mw": (None, _numbers),
    "gaussian.correlation": ("0", parse_number),
    "mixture.weights": ("1/3, 1/3, 1/3", _numbers),
    "mixture.g1.std_mw": ("7, 14", _numbers),
    "mixture.g1.correlation": ("0.5", parse_number),
    "mixture.g2.std_mw": ("6, 6", _numbers),
    "mixture.g2.correlation": ("0.1", parse_number),
    "mixture.uniform.low_mw": ("-30", parse_number),
    "mixture.uniform.high_mw": ("30", parse_number),
}

_SpecNumber = Union[Fraction, Tuple[Fraction, ...]]


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a flat experiment configuration.

    from_mapping parses every number once, through grid.parse_number:
    counts and the seed to int, the rest to Fraction. The keys and their
    defaults are those of _KEYS and _SPEC_KEYS; any other key raises
    ConfigError. raw keeps the text it was parsed from for the JSON report.
    cells holds the TuningConfig of each (mode, eps) cell, keyed by
    (mode, eps) in sweep order and built once, from the exact numbers;
    the sweep and the CLI tune with these objects.
    """

    case: str
    modes: Tuple[str, ...]
    distributions: Tuple[str, ...]
    eps_values: Tuple[Fraction, ...]
    replications: int
    n_tuning: int
    n_oos: int
    gamma: Fraction
    width_tol: Fraction
    max_iterations: int
    seed: int
    moment_source: str
    spec_numbers: Dict[str, _SpecNumber]
    raw: Dict[str, str]
    cells: Dict[Tuple[str, Fraction], TuningConfig] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for dist in self.distributions:
            if dist not in DISTRIBUTIONS:
                raise ConfigError(f"unknown distribution {dist!r}")
        if self.moment_source not in ("auto", "spec", "empirical"):
            raise ConfigError(f"unknown moment_source {self.moment_source!r}")
        # An empty axis would run nothing; a repeated entry would run its
        # cells twice and count each replication twice in the averages.
        for key, values in (
            ("modes", self.modes),
            ("distributions", self.distributions),
            ("eps", self.eps_values),
        ):
            if not values or len(set(values)) != len(values):
                raise ConfigError(
                    f"key {key!r} must list distinct entries, got {', '.join(map(str, values))!r}"
                )
        for key in ("replications", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"key {key!r} must be nonnegative, got {getattr(self, key)}")
        if self.n_tuning < 1 or self.n_oos < 1:
            raise ConfigError("sample counts must be positive")
        try:
            cells = {
                (mode, eps): TuningConfig(
                    eps_des=eps,
                    gamma=self.gamma,
                    mode=mode,
                    width_tol=self.width_tol,
                    max_iterations=self.max_iterations,
                )
                for mode in self.modes
                for eps in self.eps_values
            }
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_mapping(cls, cfg: Dict[str, str]) -> "ExperimentConfig":
        unknown = sorted(cfg.keys() - _KEYS.keys() - _SPEC_KEYS.keys())
        if unknown:
            raise ConfigError("; ".join(f"unknown key {key!r}" for key in unknown))
        spec_numbers = {
            key: _parse(key, cfg.get(key, default), parse)
            for key, (default, parse) in _SPEC_KEYS.items()
            if key in cfg or default is not None
        }
        return cls(
            **{name: _parse(key, cfg.get(key, default), parse) for key, (name, default, parse) in _KEYS.items()},
            spec_numbers=spec_numbers,
            raw=dict(cfg),
        )

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_config_text(text))


def load_case(name_or_path: str) -> GridCase:
    """Resolve the case key: the built-in study network or a file path."""
    if name_or_path == "rts24":
        from . import load_rts_case

        return apply_rts_modifications(load_rts_case())
    return parse_case_file(name_or_path)


def build_distribution(name: str, config, case: GridCase):
    """Construct the sampling spec for a configured distribution name.

    config is an ExperimentConfig or the raw key = value mapping it is
    parsed from.
    """
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_mapping(config)
    numbers = config.spec_numbers
    n_unc = len(case.uncertain_buses)

    def floats(key):
        if key not in numbers:
            raise ConfigError(f"missing required key {key!r}")
        value = numbers[key]
        return [float(v) for v in value] if isinstance(value, tuple) else float(value)

    def gaussian(prefix):
        std = floats(f"{prefix}.std_mw")
        if len(std) != n_unc:
            raise ConfigError(f"{prefix}.std_mw has {len(std)} entries for {n_unc} uncertain buses")
        return gaussian_from_std_corr(std, floats(f"{prefix}.correlation"))

    if name == "gaussian":
        return gaussian("gaussian")
    if name == "mixture":
        weights = floats("mixture.weights")
        if len(weights) != 3:
            raise ConfigError("mixture.weights must have three entries")
        box = UniformBoxSpec(
            lower_mw=[floats("mixture.uniform.low_mw")] * n_unc,
            upper_mw=[floats("mixture.uniform.high_mw")] * n_unc,
        )
        components = (gaussian("mixture.g1"), gaussian("mixture.g2"), box)
        return MixtureSpec(components=tuple(zip(weights, components)))
    raise ConfigError(f"unknown distribution {name!r}")


@dataclass(frozen=True)
class Replication:
    """What the (mode, eps) cells of one (distribution, replication) pair
    share: the tuning draw, the catalog and its DispatchProgram."""

    tuning_samples: SampleSet
    catalog: ConstraintCatalog
    program: DispatchProgram


@dataclass(frozen=True)
class ResultRow:
    mode: str
    distribution: str
    eps_des: float
    replication: int
    iterations: Optional[int] = None
    cost: Optional[float] = None
    s: Optional[float] = None
    s_true: Optional[float] = None
    eps_obs_single: Optional[float] = None
    eps_oos_single: Optional[float] = None
    eps_obs_joint: Optional[float] = None
    eps_oos_joint: Optional[float] = None
    terminated_by: str = ""
    failed: bool = False
    error: str = ""
    # How many of the tune's iterates each qp_start decided.
    qp_starts: Dict[str, int] = field(default_factory=dict)


# The JSON report carries these per-row diagnostics; the CSV does not.
_DIAGNOSTICS = ("terminated_by", "failed", "error", "qp_starts")
REPORT_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name not in _DIAGNOSTICS)
# Columns averaged over a cell's replications: those after the four cell
# coordinates, except s_true, which belongs to the cell and is copied.
_MEAN_COLUMNS = tuple(c for c in REPORT_COLUMNS[4:] if c != "s_true")
_AVERAGE_KEYS = REPORT_COLUMNS[:4] + ("replications",) + REPORT_COLUMNS[4:]


@dataclass(frozen=True)
class AverageRow:
    mode: str
    distribution: str
    eps_des: float
    replications: int
    iterations: Optional[float] = None
    cost: Optional[float] = None
    s: Optional[float] = None
    s_true: Optional[float] = None
    eps_obs_single: Optional[float] = None
    eps_oos_single: Optional[float] = None
    eps_obs_joint: Optional[float] = None
    eps_oos_joint: Optional[float] = None

    # What the reports print in the replication column.
    replication = "avg"


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: Tuple[ResultRow, ...]
    averages: Tuple[AverageRow, ...]


class Sweep:
    """What the pairs of one run share, each built once: the case, its
    PTDF and participation factors, every configured distribution's spec
    and, where the moments come from the spec, its catalog.

    The one home of the seed streams and of the moment_source policy:
    auto tightens with the exact spec moments for the Gaussian and with
    the moments of the tuning draw for the mixture. A config that cannot
    be run raises ConfigError here, before any pair runs.
    """

    def __init__(self, config: ExperimentConfig, case: Optional[GridCase] = None):
        self.config = config
        self.case = case = load_case(config.case) if case is None else case
        self.specs = {d: build_distribution(d, config, case) for d in config.distributions}
        self.ptdf = compute_ptdf(case)
        self.alpha = participation_factors(case)
        # The catalogs from spec moments, each shared by its distribution's pairs.
        self.catalogs = {}
        for dist_name, spec in self.specs.items():
            if config.moment_source == "spec" or (config.moment_source, dist_name) == ("auto", "gaussian"):
                self.catalogs[dist_name] = build_catalog(case, self.ptdf, self.alpha, spec_moments(spec, case))
            elif config.n_tuning < 2:
                raise ConfigError(f"key 'tuning.samples' must be at least 2 for the empirical moments of {dist_name}")

    def draw(self, dist_name: str, stream: int, rep: int, n: int) -> SampleSet:
        """n samples of a distribution from a replication's seed stream."""
        return sample(self.specs[dist_name], n, derive_seed(self.config.seed, stream, rep), self.case)

    def replication(self, dist_name: str, rep: int) -> Replication:
        """A pair's tuning draw, its catalog and a program of its own, so
        its reuse state stays inside the pair whatever the job count."""
        tuning_samples = self.draw(dist_name, STREAM_TUNING, rep, self.config.n_tuning)
        catalog = self.catalogs.get(dist_name)
        if catalog is None:
            catalog = build_catalog(self.case, self.ptdf, self.alpha, empirical_moments(tuning_samples))
        return Replication(tuning_samples, catalog, DispatchProgram(self.case, catalog))

    def run(self, dist_name: str, rep: int):
        """Tune every (mode, eps) cell of one pair and score it out of
        sample; returns the rows keyed by (mode, eps). The out-of-sample
        set is drawn once, after the pair's first successful tune. The
        pair's program starts from case_start(case), which the process
        solves once per case, not once per pair or run."""
        pair = self.replication(dist_name, rep)
        pair.program.start_from(case_start(self.case))
        oos_samples = None
        rows = {}
        for (mode, eps), tuning in self.config.cells.items():
            s_true = None
            if dist_name == "gaussian" and mode == "single":
                # The upper eps-quantile; 0.0 - keeps eps = 0.5 at +0.0.
                s_true = 0.0 - NormalDist().inv_cdf(float(eps))
            cell = dict(
                mode=mode, distribution=dist_name, eps_des=float(eps), replication=rep, s_true=s_true
            )
            try:
                result = tune(self.case, pair.catalog, pair.tuning_samples, tuning, pair.program)
            except TuningError as exc:
                rows[mode, eps] = ResultRow(**cell, failed=True, error=str(exc))
                continue
            if oos_samples is None:
                oos_samples = self.draw(dist_name, STREAM_OOS, rep, self.config.n_oos)
            oos = evaluate(result.p_g, oos_samples, pair.catalog)
            rows[mode, eps] = ResultRow(
                **cell,
                iterations=result.iterations,
                cost=result.objective,
                s=result.s,
                eps_obs_single=float(result.eps_single),
                eps_oos_single=float(oos.eps_single),
                eps_obs_joint=float(result.eps_joint),
                eps_oos_joint=float(oos.eps_joint),
                terminated_by=result.terminated_by,
                qp_starts=dict(sorted(Counter(it.qp_start for it in result.trace).items())),
            )
        return rows


def _average(group) -> AverageRow:
    """Mean of a cell's successful replications."""
    first = group[0]
    cell = dict(mode=first.mode, distribution=first.distribution, eps_des=first.eps_des)
    ok = [r for r in group if not r.failed]
    if not ok:
        logger.warning(
            "all %d replications failed for mode=%s distribution=%s eps=%g",
            len(group),
            first.mode,
            first.distribution,
            first.eps_des,
        )
        return AverageRow(**cell, replications=0)

    def mean(column):
        values = [getattr(r, column) for r in ok]
        if any(v is None for v in values):
            return None
        return sum(values) / len(values)

    return AverageRow(
        **cell,
        replications=len(ok),
        s_true=ok[0].s_true,
        **{column: mean(column) for column in _MEAN_COLUMNS},
    )


# A pool worker's Sweep, set once by _set_worker_sweep.
_worker_sweep: Optional[Sweep] = None


def _set_worker_sweep(sweep: Sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _run_pair(dist_name: str, rep: int):
    return _worker_sweep.run(dist_name, rep)


def run_experiment(config: ExperimentConfig, jobs: int = 1, case: Optional[GridCase] = None) -> ExperimentReport:
    """Run the full sweep and reduce rows in canonical order.

    Work is split by (distribution, replication) pair; jobs > 1 runs the
    pairs in worker processes. The reduction is keyed by cell
    coordinates, so scheduling order never changes the report. Every
    pair's program starts from case_start(case), solved once per case
    and process: before the pool where one runs, so that forked workers
    inherit it, and otherwise by the first pair; a run with no pairs
    solves nothing. jobs below 1 raises ValueError, and a configuration
    the Sweep rejects raises ConfigError, before any pair runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    sweep = Sweep(config, case)
    reps = range(1, config.replications + 1)
    pairs = [(dist_name, rep) for dist_name in config.distributions for rep in reps]
    if jobs > 1 and len(pairs) > 1:
        case_start(sweep.case)
        # Each worker receives the sweep once, not once per pair.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(pairs)), initializer=_set_worker_sweep, initargs=(sweep,)
        ) as pool:
            results = list(pool.map(_run_pair, *zip(*pairs), chunksize=1))
    else:
        results = [sweep.run(*pair) for pair in pairs]
    by_pair = dict(zip(pairs, results))

    rows = []
    averages = []
    for mode in config.modes:
        for dist_name in config.distributions:
            for eps in config.eps_values:
                group = [by_pair[dist_name, rep][mode, eps] for rep in reps]
                for row in group:
                    if row.failed:
                        logger.warning(
                            "replication %d of mode=%s distribution=%s eps=%g failed: %s",
                            row.replication,
                            mode,
                            dist_name,
                            row.eps_des,
                            row.error,
                        )
                rows.extend(group)
                if group:
                    averages.append(_average(group))
    return ExperimentReport(config=config, rows=tuple(rows), averages=tuple(averages))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def report_to_csv(report: ExperimentReport) -> str:
    """Fixed-column CSV: one row per replication, then averages with
    the replication column set to 'avg'."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in (*report.rows, *report.averages):
        writer.writerow([_fmt(getattr(row, column)) for column in REPORT_COLUMNS])
    return out.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    """JSON mirror of the CSV report, with failure details included."""
    payload = {
        "config": dict(report.config.raw),
        "rows": [asdict(r) for r in report.rows],
        "averages": [{key: getattr(a, key) for key in _AVERAGE_KEYS} for a in report.averages],
    }
    return json.dumps(payload, indent=2)


def write_report(report: ExperimentReport, path, fmt: str = "csv") -> None:
    writers = {"csv": report_to_csv, "json": report_to_json}
    if fmt not in writers:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(writers[fmt](report))

"""The three benchmark workloads and the checks on their outputs.

Each workload is closed-loop with a single caller in one process: the
next op starts when the previous one has returned. `prepare(i)` builds the
inputs of op i from the run seed (untimed), `op` makes the one public call
that is timed, and `check` verifies the output in the benchmark's own code
(untimed) and returns (units of work, units that failed).

- sweep: `experiment.run_experiment` on the bundled sweep config, one
  replication (all 12 mode x distribution x eps cells, 10k tuning and
  100k out-of-sample draws) per op. Only here do sampling, moments, PTDF,
  catalog and out-of-sample scoring run once per cell. Unit: one cell.
- tune: `tuner.tune` cycling mode x eps x distribution, each call on its
  own fresh 10k tuning set and catalog. Isolates the bisection loop
  (tuning-set counting plus QP). Unit: one call.
- score: `violation.evaluate` of a dispatch solved at set-up on its own
  fresh 100k draw, alternating the two distributions. One-shot, large-n
  counting with no QP and no bisection. Unit: one call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from cctuner import experiment, tuner, uncertainty, violation
from cctuner.ptdf import compute_ptdf
from cctuner.reformulation import build_catalog, participation_factors, solve_dispatch

SWEEP_CFG = Path("src") / "cctuner" / "data" / "rts24_sweep.cfg"

# Dispatches scored by the score workload, one per safety parameter.
SCORE_S = tuple(np.linspace(0.5, 4.0, 8))

# Feasibility slack for the tune output check (per unit).
ROW_TOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    n_tuning: int
    n_oos: int


FULL = Sizes(n_tuning=10_000, n_oos=100_000)
TINY = Sizes(n_tuning=400, n_oos=2_000)


def reference_counts(p_g, catalog, xi):
    """Violation counts computed row by row, independently of the package.

    Per element it follows tests/oracles.naive_violation_counts: start at
    the dispatch term g.p, add sens[j] * xi[k, j] over the nonzero sample
    columns in ascending order, and compare strictly against the limit.
    The joint count covers the non-degenerate rows.
    """
    n = xi.shape[0]
    cols = np.flatnonzero(np.any(xi != 0.0, axis=0))
    columns = [np.ascontiguousarray(xi[:, j]) for j in cols]
    counts = np.zeros(len(catalog.rows), dtype=np.int64)
    any_hit = np.zeros(n, dtype=bool)
    for c, row in enumerate(catalog.rows):
        acc = np.full(n, float(np.dot(row.dispatch_row, p_g)))
        for j, column in zip(cols, columns):
            acc += row.sensitivity[j] * column
        hits = acc > row.nominal_limit
        counts[c] = np.count_nonzero(hits)
        if not row.degenerate:
            any_hit |= hits
    return counts, int(np.count_nonzero(any_hit))


def _moments(dist_name, spec, tuning_samples, case):
    """Tightening moments under moment_source = auto, as the sweep uses."""
    if dist_name == "gaussian":
        return uncertainty.spec_moments(spec, case)
    return uncertainty.empirical_moments(tuning_samples)


class _Base:
    #: ops per block in the traced run's traced/untraced alternation; a
    #: block holds one whole cycle of the workload's input kinds.
    period = 1

    def __init__(self, root: Path, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.raw = experiment.parse_config_file(root / SWEEP_CFG)
        self.config = experiment.ExperimentConfig.from_mapping(self.raw)
        self.case = experiment.load_case(self.config.case)
        self.seed = seed
        self._warm_seed = self._derive(1)

    def _derive(self, *path: int) -> int:
        return int(np.random.SeedSequence([self.seed, *path]).generate_state(1)[0])

    def op_seed(self, i: int) -> int:
        """Seed of op i's inputs; the warm-up draws from another stream."""
        return self._derive(0, i)

    def units(self, inputs) -> int:
        """Units of work in one op."""
        return 1

    def extra(self):
        """Workload-specific results for the human-readable report."""
        return {}


class Sweep(_Base):
    name = "sweep"

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        self.first_csv = None
        self.gaps: list[float] = []

    def _config(self, seed: int, **overrides):
        raw = {
            **self.raw,
            "replications": "1",
            "seed": str(seed),
            "tuning.samples": str(self.sizes.n_tuning),
            "oos.samples": str(self.sizes.n_oos),
            **overrides,
        }
        return experiment.ExperimentConfig.from_mapping(raw)

    def warm_up(self):
        self.op(self._config(self._warm_seed, modes="single", distributions="gaussian", eps="0.1"))

    def prepare(self, i):
        return self._config(self.op_seed(i))

    def op(self, cfg):
        return experiment.run_experiment(cfg, jobs=1, case=self.case)

    def units(self, cfg):
        return len(cfg.modes) * len(cfg.distributions) * len(cfg.eps_values)

    def check(self, cfg, report):
        units = self.units(cfg)
        failed = max(units - len(report.rows), 0)
        for row in report.rows:
            single = row.mode == "single"
            eps_obs = row.eps_obs_single if single else row.eps_obs_joint
            if row.failed or eps_obs is None or eps_obs > row.eps_des:
                failed += 1
                continue
            eps_oos = row.eps_oos_single if single else row.eps_oos_joint
            self.gaps.append(abs(eps_oos - row.eps_des))
        if self.first_csv is None:
            digest = hashlib.sha256(experiment.report_to_csv(report).encode("utf-8")).hexdigest()
            self.first_csv = f"{digest} (CSV report of the first op, config seed {cfg.seed})"
        return units, failed

    def extra(self):
        gap = sum(self.gaps) / len(self.gaps) if self.gaps else float("nan")
        return {
            "oos_eps_gap": f"{gap:.6g} (mean |eps_oos - eps_des| over {len(self.gaps)} cells)",
            "sweep_csv_sha256": self.first_csv or "none",
        }


class _Sampled(_Base):
    """Shared set-up of tune and score: the two specs, PTDF and alpha."""

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        self.specs = {
            d: experiment.build_distribution(d, self.raw, self.case)
            for d in self.config.distributions
        }
        self.ptdf = compute_ptdf(self.case)
        self.alpha = participation_factors(self.case)

    def catalog(self, dist_name, tuning_samples):
        moments = _moments(dist_name, self.specs[dist_name], tuning_samples, self.case)
        return build_catalog(self.case, self.ptdf, self.alpha, moments)


class Tune(_Sampled):
    name = "tune"

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        cfg = self.config
        self.cells = [
            (mode, eps, dist)
            for mode in cfg.modes
            for eps in cfg.eps_values
            for dist in cfg.distributions
        ]
        self.period = len(self.cells)
        self.load_pu = float(self.case.loads_mw().sum() / self.case.base_mva)

    def _inputs(self, cell, seed):
        mode, eps, dist = cell
        xi = uncertainty.sample(self.specs[dist], self.sizes.n_tuning, seed, self.case)
        cfg = self.config
        conf = tuner.TuningConfig(
            eps_des=eps,
            gamma=cfg.gamma,
            mode=mode,
            width_tol=cfg.width_tol,
            max_iterations=cfg.max_iterations,
        )
        return self.catalog(dist, xi), xi, conf

    def warm_up(self):
        self.op(self._inputs(self.cells[0], self._warm_seed))

    def prepare(self, i):
        return self._inputs(self.cells[i % len(self.cells)], self.op_seed(i))

    def op(self, inputs):
        catalog, xi, conf = inputs
        return tuner.tune(self.case, catalog, xi, conf)

    def check(self, inputs, result):
        catalog, xi, _ = inputs
        p = result.p_g
        n = xi.n_samples
        counts, joint = reference_counts(p, catalog, xi.samples)
        active = ~catalog.degenerate
        eps_single = Fraction(int(counts[active].max()), n)
        ok = eps_single == result.eps_single and Fraction(joint, n) == result.eps_joint
        rhs = catalog.limits - result.s * catalog.sigmas
        ok = ok and bool(np.all(catalog.dispatch_matrix @ p <= rhs + ROW_TOL))
        ok = ok and abs(float(p.sum()) - self.load_pu) <= ROW_TOL
        return 1, 0 if ok else 1


class Score(_Sampled):
    name = "score"

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        self.dists = list(self.config.distributions)
        self.catalogs = {}
        self.dispatches = {}
        for d in self.dists:
            draw = uncertainty.sample(self.specs[d], sizes.n_tuning, self._derive(2), self.case)
            self.catalogs[d] = self.catalog(d, draw)
            sols = [solve_dispatch(self.case, self.catalogs[d], s) for s in SCORE_S]
            if not all(sol.feasible for sol in sols):
                raise RuntimeError(f"score set-up: a {d} dispatch is infeasible")
            self.dispatches[d] = [sol.p_g for sol in sols]
        self.period = len(self.dists)

    def _inputs(self, i, seed):
        d = self.dists[i % len(self.dists)]
        p_g = self.dispatches[d][(i // len(self.dists)) % len(SCORE_S)]
        xi = uncertainty.sample(self.specs[d], self.sizes.n_oos, seed, self.case)
        return p_g, xi, self.catalogs[d]

    def warm_up(self):
        self.op(self._inputs(0, self._warm_seed))

    def prepare(self, i):
        return self._inputs(i, self.op_seed(i))

    def op(self, inputs):
        p_g, xi, catalog = inputs
        return violation.evaluate(p_g, xi, catalog)

    def check(self, inputs, report):
        p_g, xi, catalog = inputs
        counts, joint = reference_counts(p_g, catalog, xi.samples)
        ok = np.array_equal(counts, report.counts) and joint == report.joint_count
        return 1, 0 if ok else 1


WORKLOADS = {w.name: w for w in (Sweep, Tune, Score)}

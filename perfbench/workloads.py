"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, then
runs timed ops through dpflow's public API or its in-process CLI
(``dpflow.cli.main``). Every op's output is checked; a failed check counts
the op as failed. Library entry points are looked up through their modules
at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from dpflow import accounting, anomaly, cli, data, gmm, initialization
from dpflow import training
from dpflow.flows import FlowModel, GmmBase, build_maf


@dataclass(frozen=True)
class Sizes:
    rows: int               # rows of 2-D data every workload generates
    train_steps: int        # noisy step cap of one private training op
    query_model_steps: int  # train_flow steps of the model_queries model
    dp_ad_train_steps: int  # train_flow steps of each ensemble member
    setup_reps: int         # least set-ups per run; setup_s is their median
    setup_min_s: float      # ...and more set-ups (up to 20) until this long
    traced_ops: int         # ops traced in a --trace 1 run


FULL = Sizes(rows=30_000, train_steps=200, query_model_steps=100,
             dp_ad_train_steps=60, setup_reps=3, setup_min_s=1.0,
             traced_ops=3)
SMOKE = Sizes(rows=3_000, train_steps=20, query_model_steps=10,
              dp_ad_train_steps=10, setup_reps=1, setup_min_s=0.0,
              traced_ops=1)

# ROADMAP reference config: D=2, 5 MADE blocks, H=64, b=64, sigma=0.8,
# C=300, Adam at lr 3e-4, delta=3.7e-5.
BLOCKS, HIDDEN = 5, 64
BATCH, SIGMA, CLIP, LR, DELTA = 64, 0.8, 300.0, 3e-4, 3.7e-5
HOLDOUT_FRAC = 0.1
# Private actnorm init: features clipped to [-4, 4], (5.0, 1e-5) budget.
# Wider ranges or smaller budgets let the Laplace noise push scales to the
# floor and the model diverges, which would measure a broken run.
INIT = dict(clip_range=8.0, epsilon=5.0, delta=1e-5)
GMM_COMPONENTS, GMM_ITERS = 5, 100

QUERY_TEST_FRAC = 0.2   # rows held out of the query model for anomaly-roc
DP_AD_K, DP_AD_HIDDEN = 10, 32
DP_AD_EPS = (0.1, 0.5, 1.0, 2.0, 5.0)
# 2% of 30k rows gives 600 in-distribution plus 600 anomalous queries: the
# pooled threshold search over k * 1200 scores is quadratic and at the
# CLI's default 20% it alone would take minutes.
DP_AD_TEST_FRAC = 0.02


class CheckFailed(Exception):
    """An op completed but its output failed the benchmark's check."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 32-bit seed for one input of the run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def run_cli(argv):
    """Run one dpflow command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def cli_json(code, stdout, command):
    check(code == 0, f"{command} exited with code {code}")
    lines = stdout.strip().splitlines()
    check(lines, f"{command} printed nothing")
    return json.loads(lines[-1])


def read_rows(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    check(rows and (rows[0] == header if header else True),
          f"{path.name}: unexpected header {rows[:1]}")
    body = rows[1:] if header else rows
    return np.array([[float(v) for v in row] for row in body], dtype=float)


def pair_auc(pos, neg) -> float:
    """P(score_pos > score_neg) + P(tie) / 2 by counting pairs."""
    neg = np.sort(np.asarray(neg, dtype=float))
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (len(pos) * len(neg)))


class Workload:
    """``setup`` builds the inputs, ``prepare_checks`` the untimed expected
    outputs, and ``ops`` one round of ops; each op returns its wall time as
    ``op_s`` plus the values it measured. ``run`` is the harness."""

    def __init__(self, run):
        self.run = run
        self.sizes = run.sizes
        self.work = run.work

    def seed(self, *path):
        return derive_seed(self.run.seed, *path)

    def cli_op(self, argv, round_index):
        """Time one CLI call inside the round's trace segment."""
        with self.run.segment(round_index, span=f"cli.{argv[0]}"):
            start = time.perf_counter()
            code, stdout = run_cli(argv)
            elapsed = time.perf_counter() - start
        return elapsed, cli_json(code, stdout, argv[0])


class PrivateTraining(Workload):
    """Budget-gated noisy training for a fixed step cap."""

    def __init__(self, run, *, shape, accountant, epsilon, sampling, fuller):
        super().__init__(run)
        self.shape = shape
        self.accountant = accountant
        self.epsilon = epsilon
        self.sampling = sampling
        self.fuller = fuller  # actnorm + private init + EM-fit mixture base

    def setup(self):
        n = self.sizes.rows
        gen = data.gen_half_moons if self.shape == "half-moons" \
            else data.gen_pinwheel
        ds = data.standardize(gen(n, seed=self.seed(1)))
        perm = np.random.default_rng(self.seed(2)).permutation(n)
        n_hold = int(n * HOLDOUT_FRAC)
        self.holdout, self.train = ds.X[perm[:n_hold]], ds.X[perm[n_hold:]]
        model_seed = self.seed(3)
        model = build_maf(2, n_blocks=BLOCKS, hidden=HIDDEN,
                          actnorm=self.fuller, seed=model_seed)
        if self.fuller:
            initialization.dp_nf_init(
                self.train, model,
                initialization.InitConfig(seed=model_seed, **INIT))
            params, _ = gmm.gmm_fit_em(model.transform_to_base(self.train),
                                       GMM_COMPONENTS, n_iters=GMM_ITERS,
                                       seed=model_seed)
            model.base = GmmBase(params)
        self.q = BATCH / self.train.shape[0]
        self.acc = accounting.Accountant(self.accountant, self.q, SIGMA, DELTA)
        self.model_path = self.work / "init_model.json"
        model.save(self.model_path)

    def prepare_checks(self):
        # Built apart from the accountant the ops use, so a stale or shared
        # cache in one would not agree with the other by construction.
        self.check_acc = accounting.Accountant(self.accountant, self.q,
                                               SIGMA, DELTA)

    def config(self, round_index):
        return training.TrainConfig(
            learning_rate=LR, batch_size=BATCH, noise_multiplier=SIGMA,
            clip_norm=CLIP, epsilon=self.epsilon, delta=DELTA,
            accountant=self.accountant, optimizer="adam",
            max_steps=self.sizes.train_steps, seed=self.seed(4, round_index),
            sampling=self.sampling, eval_every=50_000)

    def ops(self, round_index):
        return [lambda: self.train_op(round_index)]

    def train_op(self, round_index):
        cfg = self.config(round_index)
        with self.run.segment(round_index):
            model = FlowModel.load(self.model_path)
            start = time.perf_counter()
            model, report = training.train_dp_nf(self.train, model, cfg,
                                                 accountant=self.acc)
            elapsed = time.perf_counter() - start
        cap = self.sizes.train_steps
        check(report.steps == cap, f"ran {report.steps} of {cap} steps")
        check(report.final_epsilon < self.epsilon,
              f"spent eps {report.final_epsilon} >= budget {self.epsilon}")
        expected = self.check_acc.eps(report.steps + report.skipped_batches)
        check(math.isclose(report.final_epsilon, expected, rel_tol=1e-9,
                           abs_tol=1e-12),
              f"spent eps {report.final_epsilon} != accountant {expected}")
        nll = model.nll(self.holdout)
        check(np.isfinite(nll), f"held-out NLL {nll}")
        return {"op_s": elapsed, "train_steps_per_s": report.steps / elapsed,
                "heldout_nll": nll, "dp_steps": report.steps,
                "skipped_batches": report.skipped_batches}


class ModelQueries(Workload):
    """logprob, sample and anomaly-roc on a saved non-private model."""

    def setup(self):
        n = self.sizes.rows
        ds = data.standardize(data.gen_half_moons(n, seed=self.seed(1)))
        perm = np.random.default_rng(self.seed(2)).permutation(n)
        n_test = int(n * QUERY_TEST_FRAC)
        self.X = ds.X
        self.test = ds.X[perm[:n_test]]
        self.rows_path = self.work / "rows.csv"
        self.test_path = self.work / "test.csv"
        data.save_csv(self.rows_path, ds)
        data.save_csv(self.test_path, self.test)
        model_seed = self.seed(3)
        model = build_maf(2, n_blocks=BLOCKS, hidden=HIDDEN, seed=model_seed)
        training.train_flow(ds.X[perm[n_test:]], model,
                            self.sizes.query_model_steps, batch_size=128,
                            learning_rate=1e-3, seed=model_seed)
        self.model_path = self.work / "model.json"
        model.save(self.model_path)

    def prepare_checks(self):
        model = FlowModel.load(self.model_path)
        self.expected_lp = model.log_prob(self.X)
        self.sample_seed = self.seed(5)
        self.roc_seed = self.seed(6)
        anomalies = anomaly.gen_tail_anomalies(self.test, len(self.test),
                                               seed=self.roc_seed)
        self.expected_auc = pair_auc(model.log_prob(self.test),
                                     model.log_prob(anomalies))
        self.sample_digest = None

    def ops(self, round_index):
        n = self.sizes.rows
        model, out = str(self.model_path), self.work

        def logprob():
            path = out / "scores.csv"
            elapsed, doc = self.cli_op([
                "logprob", "--model", model, "--data", str(self.rows_path),
                "--out", str(path)], round_index)
            check(doc["rows"] == n, f"logprob reported {doc['rows']} rows")
            scores = read_rows(path, ["log_prob"])
            check(scores.shape == (n, 1), f"scores shape {scores.shape}")
            check(np.all(np.isfinite(scores)), "non-finite score")
            err = float(np.max(np.abs(scores[:, 0] - self.expected_lp)))
            check(err <= 1e-12, f"scores differ from log_prob by {err}")
            return {"op_s": elapsed, "score_rows_per_s": n / elapsed}

        def sample():
            path = out / "samples.csv"
            elapsed, doc = self.cli_op([
                "sample", "--model", model, "--n", str(n), "--seed",
                str(self.sample_seed), "--out", str(path)], round_index)
            check(doc["rows"] == n, f"sample reported {doc['rows']} rows")
            rows = read_rows(path, None)
            check(rows.shape == (n, 2), f"samples shape {rows.shape}")
            check(np.all(np.isfinite(rows)), "non-finite sample")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.sample_digest is None:
                self.sample_digest = digest
            check(digest == self.sample_digest,
                  "same seed gave different sample bytes")
            return {"op_s": elapsed, "sample_rows_per_s": n / elapsed}

        def roc():
            path = out / "roc.csv"
            elapsed, doc = self.cli_op([
                "anomaly-roc", "--model", model, "--data",
                str(self.test_path), "--seed", str(self.roc_seed),
                "--out", str(path)], round_index)
            auc = doc["auc"]
            check(0.0 <= auc <= 1.0, f"AUC {auc} outside [0, 1]")
            check(abs(auc - self.expected_auc) <= 1e-9,
                  f"AUC {auc} != pair-counting AUC {self.expected_auc}")
            check(read_rows(path, ["threshold", "fpr", "tpr"]).shape[0] >= 2,
                  "ROC has fewer than two points")
            return {"op_s": elapsed,
                    "roc_rows_per_s": 2 * len(self.test) / elapsed}

        return [logprob, sample, roc]


class DpAdEnsemble(Workload):
    """One ``dpflow dp-ad`` sweep per op."""

    def setup(self):
        ds = data.standardize(data.gen_half_moons(self.sizes.rows,
                                                  seed=self.seed(1)))
        self.data_path = self.work / "moons.csv"
        data.save_csv(self.data_path, ds)

    def prepare_checks(self):
        self.n_test = int(round(DP_AD_TEST_FRAC * self.sizes.rows))

    def ops(self, round_index):
        return [lambda: self.sweep_op(round_index)]

    def sweep_op(self, round_index):
        path = self.work / "sweep.csv"
        elapsed, doc = self.cli_op([
            "dp-ad", "--data", str(self.data_path), "--k", str(DP_AD_K),
            "--eps", ",".join(repr(e) for e in DP_AD_EPS),
            "--test-frac", repr(DP_AD_TEST_FRAC),
            "--train-steps", str(self.sizes.dp_ad_train_steps),
            "--hidden", str(DP_AD_HIDDEN), "--blocks", str(BLOCKS),
            "--seed", str(self.seed(4, round_index)), "--out", str(path)],
            round_index)
        check(doc["k"] == DP_AD_K, f"dp-ad reported k={doc['k']}")
        check(doc["queries"] == 2 * self.n_test,
              f"dp-ad answered {doc['queries']} queries")
        rows = read_rows(path, ["eps", "accuracy"])
        check(rows.shape == (len(DP_AD_EPS), 2), f"sweep shape {rows.shape}")
        check(np.array_equal(rows[:, 0], DP_AD_EPS), "eps grid changed")
        acc = rows[:, 1]
        check(np.all((acc >= 0.0) & (acc <= 1.0)), f"accuracy {acc}")
        return {"op_s": elapsed, "dp_ad_s": elapsed,
                "dp_ad_accuracy": float(acc.mean())}


def make(name, run):
    if name == "moons_gdp":
        w = PrivateTraining(run, shape="half-moons", accountant="gdp",
                            epsilon=3.0, sampling="uniform", fuller=False)
    elif name == "pinwheel_gmm_rdp":
        w = PrivateTraining(run, shape="pinwheel", accountant="rdp",
                            epsilon=4.5, sampling="poisson", fuller=True)
    elif name == "model_queries":
        w = ModelQueries(run)
    elif name == "dp_ad_ensemble":
        w = DpAdEnsemble(run)
    else:
        raise ValueError(f"unknown workload {name!r}")
    w.name = name
    return w


# Values each workload's rounds report beyond op_s, as (unit, better).
DETAIL_UNITS = {
    "train_steps_per_s": ("steps/s", "higher"),
    "heldout_nll": ("nats/row", "lower"),
    "score_rows_per_s": ("rows/s", "higher"),
    "sample_rows_per_s": ("rows/s", "higher"),
    "roc_rows_per_s": ("rows/s", "higher"),
    "dp_ad_s": ("s", "lower"),
    "dp_ad_accuracy": ("fraction", "higher"),
}

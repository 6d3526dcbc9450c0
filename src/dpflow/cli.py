"""Command-line front end for reproducible experiment runs.

Every subcommand takes its configuration from flags over an optional JSON
config file (click's ``default_map``), writes a manifest capturing the
resolved values plus any spent privacy budget, and emits metrics as JSON on
stdout with tables as CSV files; both JSON documents are strict JSON.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import anomaly as ad
from . import data as dt
from .accounting import Accountant, exp_mech_binary, gdp_mu
from .errors import ConfigurationError, DpflowError
from .flows import FlowModel, GmmBase, build_maf
from .gmm import gmm_fit_em
from .initialization import InitConfig, dp_nf_init
from .training import TrainConfig, train_dp_nf


def _check_json_type(path, option, value):
    """Click's types would cast config-file values the command line cannot
    give: a flag accepts only a JSON bool, an int option no JSON float or
    bool (``10.7`` would become 10, ``true`` 1), a float option no bool, and
    no option an array or an object. ``null`` leaves an option unset, so it
    is accepted only where the option has no default and is not
    required."""
    if value is None:
        bad = option.required or option.default is not None
    elif isinstance(value, (list, dict)):
        bad = True
    elif isinstance(option.type, click.types.BoolParamType):
        bad = not isinstance(value, bool)
    elif isinstance(option.type, click.types.IntParamType):
        bad = isinstance(value, (bool, float))
    elif isinstance(option.type, click.types.FloatParamType):
        bad = isinstance(value, bool)
    else:
        bad = False
    if bad:
        raise ConfigurationError(
            f"{path}: {option.name}: expected {option.type.name}, "
            f"got {json.dumps(value)}")


def _config_default(ctx, path, option, value):
    """The default for an option a config file sets: a function that checks
    and casts the value, which click calls only when the command line does
    not give the option (and ``--help`` shows as ``(dynamic)``)."""
    def default():
        _check_json_type(path, option, value)
        try:
            return option.type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise ConfigurationError(
                f"{path}: {exc.format_message()}") from None
    return default


def _load_config(ctx, _param, path):
    """Lay a JSON config file (or a manifest's ``config`` block) under the
    command line as the command's ``default_map``; a key that names no
    option of the command is an error, not a setting silently dropped."""
    if not path:
        return
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    file_cfg = doc.get("config", doc) if isinstance(doc, dict) else doc
    if not isinstance(file_cfg, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    options = {p.name: p for p in ctx.command.params}
    for name in file_cfg:
        if name not in options:
            raise ConfigurationError(
                f"{path}: {name}: no such option of {ctx.command.name}")
    ctx.default_map = {name: _config_default(ctx, path, options[name], value)
                       for name, value in file_cfg.items()}


def _dumps(doc, **kwargs) -> str:
    """``doc`` as strict JSON: a non-finite number becomes the string
    "inf", "-inf" or "nan", which click's float type reads back."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda c: str(float(c)))
    return json.dumps(doc, allow_nan=False, **kwargs)


def _write_manifest(command: str, cfg: dict, extra: dict | None = None):
    path = cfg.get("manifest")
    if not path:
        out = cfg.get("out")
        path = f"{out}.manifest.json" if out else f"{command}.manifest.json"
    config = {k: v for k, v in cfg.items() if k != "manifest"}
    doc = {"command": command, "config": config}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        fh.write(_dumps(doc, indent=2))


def _write_rows(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        dt.write_rows(fh, header, rows)


def _echo_json(obj):
    click.echo(_dumps(obj))


def _data_options(help_text=None):
    def decorate(fn):
        fn = click.option("--has-header", is_flag=True, default=False)(fn)
        return click.option("--data", type=click.Path(exists=True),
                            required=True, help=help_text)(fn)
    return decorate


_model_option = click.option("--model", "model_path",
                             type=click.Path(exists=True), required=True)


def _common_options(fn):
    fn = click.option("--config", type=click.Path(exists=True), default=None,
                      is_eager=True, expose_value=False, callback=_load_config,
                      help="JSON config file (or manifest); flags override it.")(fn)
    fn = click.option("--manifest", type=click.Path(), default=None,
                      help="Manifest output path.")(fn)
    fn = click.option("--seed", type=click.IntRange(min=0), default=0,
                      show_default=True)(fn)
    return fn


def _train_options(fn):
    for opt in reversed([
        click.option("--epsilon", type=float, default=1.0, show_default=True),
        click.option("--delta", type=float, default=1e-5, show_default=True),
        click.option("--sigma", type=float, default=1.1, show_default=True,
                     help="Noise multiplier."),
        click.option("--clip", type=float, default=10.0, show_default=True,
                     help="Per-example gradient l2 bound."),
        click.option("--batch-size", type=int, default=256, show_default=True),
        click.option("--lr", type=float, default=1e-4, show_default=True),
        click.option("--optimizer", type=click.Choice(["sgd", "adam"]),
                     default="adam", show_default=True),
        click.option("--accountant", type=click.Choice(["rdp", "gdp"]),
                     default="gdp", show_default=True),
        click.option("--sampling", type=click.Choice(["uniform", "poisson"]),
                     default="uniform", show_default=True),
        click.option("--max-steps", type=int, default=1_000_000),
        click.option("--eval-every", type=int, default=500),
        click.option("--blocks", type=int, default=5, show_default=True),
        click.option("--hidden", type=int, default=64, show_default=True),
        click.option("--actnorm/--no-actnorm", default=False),
        click.option("--base", type=click.Choice(["spherical", "gmm"]),
                     default="spherical", show_default=True),
        click.option("--gmm-components", type=int, default=5),
        click.option("--gmm-iters", type=int, default=100),
    ]):
        fn = opt(fn)
    return fn


def _gdp_note(cfg) -> dict:
    """Run metadata for a GDP-accounted run: its epsilon is the central-limit
    approximation, not a bound."""
    return ({"gdp_note": "CLT-approximate"} if cfg["accountant"] == "gdp"
            else {})


def _make_train_config(cfg) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg["lr"], batch_size=cfg["batch_size"],
        noise_multiplier=cfg["sigma"], clip_norm=cfg["clip"],
        epsilon=cfg["epsilon"], delta=cfg["delta"],
        accountant=cfg["accountant"], optimizer=cfg["optimizer"],
        max_steps=cfg["max_steps"], seed=cfg["seed"],
        sampling=cfg["sampling"], eval_every=cfg["eval_every"])


def _build_model(cfg, X_train, seed):
    model = build_maf(X_train.shape[1], n_blocks=cfg["blocks"],
                      hidden=cfg["hidden"], actnorm=cfg["actnorm"], seed=seed)
    if cfg["base"] == "gmm":
        # Fit the mixture in the latent frame the base actually sees (at the
        # identity initialization, the stack's net permutation of the data;
        # the zero-head MADE layers are skipped, so no trunk runs).
        latent = model.transform_to_base(X_train)
        params, _ = gmm_fit_em(latent, cfg["gmm_components"],
                               n_iters=cfg["gmm_iters"], seed=seed)
        model.base = GmmBase(params)
    return model


@click.group()
def cli():
    """Differentially private density estimation with autoregressive flows."""


@cli.command("gen-data")
@click.option("--shape", type=click.Choice(["half-moons", "pinwheel",
                                            "gaussians8"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--noise-std", type=float, default=0.1, show_default=True)
@click.option("--arms", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_common_options
def gen_data(**cfg):
    """Write a synthetic benchmark dataset as CSV."""
    if cfg["shape"] == "half-moons":
        ds = dt.gen_half_moons(cfg["n"], noise_std=cfg["noise_std"],
                               seed=cfg["seed"])
    elif cfg["shape"] == "pinwheel":
        ds = dt.gen_pinwheel(cfg["n"], arms=cfg["arms"], seed=cfg["seed"])
    else:
        ds = dt.gen_gaussians8(cfg["n"], seed=cfg["seed"])
    dt.save_csv(cfg["out"], ds)
    _write_manifest("gen-data", cfg)
    _echo_json({"rows": ds.n, "dim": ds.dim, "out": cfg["out"]})


@cli.command("train")
@_data_options()
@click.option("--holdout-frac", type=float, default=0.1, show_default=True)
@click.option("--out", type=click.Path(), required=True,
              help="Model file (JSON).")
@click.option("--report", type=click.Path(), default=None,
              help="Training report (JSON lines).")
@_train_options
@_common_options
def train(**cfg):
    """Train a flow privately on a CSV dataset (budget-gated)."""
    if not 0.0 <= cfg["holdout_frac"] < 1.0:
        raise ConfigurationError(
            f"--holdout-frac must be in [0, 1), got {cfg['holdout_frac']}")
    X = dt.load_csv(cfg["data"], has_header=cfg["has_header"]).X
    rng = np.random.default_rng(cfg["seed"])
    holdout = None
    if cfg["holdout_frac"] > 0:
        n_hold = int(round(cfg["holdout_frac"] * X.shape[0]))
        if n_hold == 0:
            raise ConfigurationError(
                f"--holdout-frac {cfg['holdout_frac']} gives no holdout row "
                f"of {X.shape[0]}; use 0 for no holdout")
        perm = rng.permutation(X.shape[0])
        holdout, X = X[perm[:n_hold]], X[perm[n_hold:]]
    model = _build_model(cfg, X, cfg["seed"])
    model, rep = train_dp_nf(X, model, _make_train_config(cfg),
                             holdout=holdout)
    model.save(cfg["out"])
    if cfg["report"]:
        with open(cfg["report"], "w") as fh:
            fh.write(rep.to_jsonl())
    summary = {"steps": rep.steps, "spent_epsilon": rep.final_epsilon,
               "skipped_batches": rep.skipped_batches,
               "train_nll": rep.checkpoints[-1].train_nll,
               "holdout_nll": rep.checkpoints[-1].holdout_nll,
               "gdp_note": _gdp_note(cfg).get("gdp_note")}
    _write_manifest("train", cfg, {"spent_epsilon": rep.final_epsilon,
                                   **_gdp_note(cfg)})
    _echo_json(summary)


@cli.command("sample")
@_model_option
@click.option("--n", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
@_common_options
def sample(**cfg):
    """Draw synthetic rows from a saved model."""
    model = FlowModel.load(cfg["model_path"])
    dt.save_csv(cfg["out"], model.sample(cfg["n"], cfg["seed"]))
    _write_manifest("sample", cfg)
    _echo_json({"rows": cfg["n"], "out": cfg["out"]})


@cli.command("logprob")
@_model_option
@_data_options()
@click.option("--out", type=click.Path(), default=None)
@_common_options
def logprob(**cfg):
    """Per-row log-density of a dataset under a saved model."""
    model = FlowModel.load(cfg["model_path"])
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    lp = model.log_prob(ds.X)
    if cfg["out"]:
        _write_rows(cfg["out"], ["log_prob"], lp[:, None])
    _write_manifest("logprob", cfg, {"private": False})
    _echo_json({"mean_log_prob": float(np.mean(lp)), "rows": ds.n})


@cli.command("eval-ll")
@_data_options()
@click.option("--folds", type=int, default=10, show_default=True)
@_train_options
@_common_options
def eval_ll(**cfg):
    """Cross-validated mean test log-likelihood: train on each 90% split,
    score the held-out 10%."""
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    splits = dt.make_cv_splits(ds.n, folds=cfg["folds"], seed=cfg["seed"])
    per_fold = []
    for fold, (tr, te) in enumerate(splits):
        train_X = ds.X[tr]
        model = _build_model(cfg, train_X, cfg["seed"] + fold)
        config = _make_train_config(cfg)
        config.seed = cfg["seed"] + fold
        model, _rep = train_dp_nf(train_X, model, config)
        per_fold.append(float(np.mean(model.log_prob(ds.X[te]))))
        click.echo(f"fold {fold}: test log-likelihood {per_fold[-1]:.4f}",
                   err=True)
    _write_manifest("eval-ll", cfg, {"private": False, **_gdp_note(cfg)})
    _echo_json({"mean_test_log_likelihood": float(np.mean(per_fold)),
                "std": float(np.std(per_fold)), "per_fold": per_fold})


@cli.command("accountant")
@click.option("--q", type=float, required=True, help="Sampling ratio b/n.")
@click.option("--sigma", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--t-max", type=click.IntRange(min=1), required=True)
@click.option("--t-min", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--points", type=click.IntRange(min=1), default=30,
              show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="CSV path (default: stdout).")
@_common_options
def accountant_cmd(**cfg):
    """Tabulate spent epsilon under both accountants over a step range."""
    if cfg["t_min"] > cfg["t_max"]:
        raise ConfigurationError(
            f"--t-min {cfg['t_min']} exceeds --t-max {cfg['t_max']}")
    rdp = Accountant("rdp", cfg["q"], cfg["sigma"], cfg["delta"])
    gdp = Accountant("gdp", cfg["q"], cfg["sigma"], cfg["delta"])
    grid = np.unique(np.geomspace(cfg["t_min"], cfg["t_max"],
                                  cfg["points"]).astype(int))
    rows = [[t, rdp.eps(t), gdp.eps(t), gdp_mu(t, cfg["q"], cfg["sigma"])]
            for t in grid.tolist()]
    header = ["t", "eps_rdp", "eps_gdp", "mu"]
    if cfg["out"]:
        _write_rows(cfg["out"], header, rows)
    else:
        dt.write_rows(sys.stdout, header, rows)
    _write_manifest("accountant", cfg, {"gdp_note": "CLT-approximate"})


@cli.command("init")
@_data_options()
@click.option("--out", type=click.Path(), required=True)
@click.option("--ctilde", type=float, default=20.0, show_default=True,
              help="Feature clip range width.")
@click.option("--epsilon", type=float, default=1.0, show_default=True)
@click.option("--delta", type=float, default=1e-5, show_default=True)
@click.option("--blocks", type=int, default=5, show_default=True)
@click.option("--hidden", type=int, default=64, show_default=True)
@_common_options
def init_cmd(**cfg):
    """Build a flow with actnorm layers initialized from privatized
    feature statistics."""
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    model = build_maf(ds.dim, n_blocks=cfg["blocks"], hidden=cfg["hidden"],
                      actnorm=True, seed=cfg["seed"])
    config = InitConfig(clip_range=cfg["ctilde"], epsilon=cfg["epsilon"],
                        delta=cfg["delta"], seed=cfg["seed"])
    dp_nf_init(ds.X, model, config)
    model.save(cfg["out"])
    spent = {
        "spent_epsilon": cfg["epsilon"], "spent_delta": cfg["delta"],
        "sensitivity_note": "mean c/n, std c/sqrt(n) for clipped features"}
    # At epsilon = inf the statistics are released exactly.
    _write_manifest("init", cfg, {"private": False}
                    if math.isinf(cfg["epsilon"]) else spent)
    _echo_json({"out": cfg["out"], "epsilon": cfg["epsilon"],
                "delta": cfg["delta"]})


@cli.command("anomaly-roc")
@_model_option
@_data_options(help_text="In-distribution test rows (CSV).")
@click.option("--out", type=click.Path(), required=True,
              help="ROC points CSV (threshold, fpr, tpr).")
@_common_options
def anomaly_roc(**cfg):
    """Likelihood-threshold ROC against generated tail anomalies."""
    model = FlowModel.load(cfg["model_path"])
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    anomalies = ad.gen_tail_anomalies(ds.X, ds.n, seed=cfg["seed"])
    scores = np.concatenate([model.log_prob(ds.X), model.log_prob(anomalies)])
    labels = np.concatenate([np.ones(ds.n, dtype=int),
                             np.zeros(ds.n, dtype=int)])
    curve = ad.roc(scores, labels)
    _write_rows(cfg["out"], ["threshold", "fpr", "tpr"],
                np.column_stack([curve.thresholds, curve.fpr, curve.tpr]))
    threshold, accuracy = ad.select_threshold(scores, labels)
    _write_manifest("anomaly-roc", cfg, {"private": False})
    _echo_json({"auc": curve.auc, "best_threshold": threshold,
                "best_accuracy": accuracy})


@cli.command("dp-ad")
@_data_options()
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--eps", "eps_grid", type=str, default="0.1,0.5,1,2,5",
              show_default=True, help="Comma-separated per-query budgets.")
@click.option("--test-frac", type=float, default=0.2, show_default=True)
@click.option("--train-steps", type=int, default=1000, show_default=True)
@click.option("--hidden", type=int, default=64, show_default=True)
@click.option("--blocks", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(), required=True,
              help="CSV of (eps, accuracy).")
@_common_options
def dp_ad(**cfg):
    """Ensemble anomaly detection accuracy as a function of the per-query
    privacy budget."""
    try:
        grid = [float(token) for token in cfg["eps_grid"].split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--eps: {exc}") from None
    for eps in grid:
        if not 0.0 <= eps < math.inf:
            raise ConfigurationError(
                f"--eps: each value must be finite and >= 0, got {eps}")
    if not 0.0 < cfg["test_frac"] < 1.0:
        raise ConfigurationError(
            f"--test-frac must be in (0, 1), got {cfg['test_frac']}")
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    rng = np.random.default_rng(cfg["seed"])
    n_test = int(round(cfg["test_frac"] * ds.n))
    if n_test < ad.MIN_REFERENCE_ROWS:
        raise ConfigurationError(
            f"--test-frac {cfg['test_frac']} gives {n_test} test rows of "
            f"{ds.n}; need at least {ad.MIN_REFERENCE_ROWS}")
    perm = rng.permutation(ds.n)
    test_X, train_X = ds.X[perm[:n_test]], ds.X[perm[n_test:]]
    anomalies = ad.gen_tail_anomalies(test_X, n_test, seed=cfg["seed"])
    queries = np.vstack([test_X, anomalies])
    labels = np.repeat([True, False], n_test)

    detector = ad.build_ensemble(train_X, cfg["k"], n_blocks=cfg["blocks"],
                                 hidden=cfg["hidden"],
                                 train_steps=cfg["train_steps"],
                                 seed=cfg["seed"])
    scores = detector.scores(queries)
    detector.fit_threshold(scores, labels)
    votes = detector.votes(scores)
    children = np.random.SeedSequence(cfg["seed"]).spawn(len(grid))
    rows = []
    for eps, child in zip(grid, children):
        released = exp_mech_binary(votes, detector.k, eps, child)
        rows.append([eps, float(np.mean(released == labels))])
    _write_rows(cfg["out"], ["eps", "accuracy"], rows)
    # Simple composition over the queries: one total per row of the CSV.
    _write_manifest("dp-ad", cfg, {
        "threshold": detector.threshold,
        "cumulative_epsilon": [len(labels) * eps for eps in grid],
        "ensemble_workers": ad._ensemble_workers(cfg["k"])})
    _echo_json({"k": cfg["k"], "queries": int(len(labels)),
                "threshold": detector.threshold, "out": cfg["out"]})


@cli.command("downstream-knn")
@_model_option
@click.option("--train", "train_path", type=click.Path(exists=True),
              required=True, help="Real training rows (last column = target).")
@click.option("--test", "test_path", type=click.Path(exists=True),
              required=True)
@click.option("--has-header", is_flag=True, default=False)
@click.option("--k", type=int, default=3, show_default=True)
@_common_options
def downstream_knn(**cfg):
    """kNN regression MSE on real test data, trained on model samples vs on
    the real training data (baseline)."""
    model = FlowModel.load(cfg["model_path"])
    train_ds = dt.load_csv(cfg["train_path"], has_header=cfg["has_header"])
    test_ds = dt.load_csv(cfg["test_path"], has_header=cfg["has_header"])
    synth = dt.Dataset(model.sample(train_ds.n, cfg["seed"]))
    baseline = dt.knn_regress_mse(train_ds, test_ds, k=cfg["k"])
    synthetic = dt.knn_regress_mse(synth, test_ds, k=cfg["k"])
    _write_manifest("downstream-knn", cfg, {"private": False})
    _echo_json({"baseline_mse": baseline, "synthetic_mse": synthetic,
                "k": cfg["k"]})


@cli.command("project-pca")
@_data_options()
@click.option("--components", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_common_options
def project_pca(**cfg):
    """Project a dataset onto its top principal components (CSV out)."""
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    projected, comps = dt.pca_project(ds, components=cfg["components"])
    _write_rows(cfg["out"],
                [f"pc{i + 1}" for i in range(cfg["components"])],
                projected)
    _write_manifest("project-pca", cfg, {"private": False})
    _echo_json({"components": comps.tolist(), "out": cfg["out"]})


@cli.command("hist")
@_data_options()
@click.option("--bins", type=int, default=50, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_common_options
def hist(**cfg):
    """Dimension-wise histogram table: (dim, bin_left, bin_right, count)."""
    ds = dt.load_csv(cfg["data"], has_header=cfg["has_header"])
    rows = []
    for j, (edges, counts) in enumerate(dt.dimwise_histogram(ds, cfg["bins"])):
        for b in range(len(counts)):
            rows.append([j, float(edges[b]), float(edges[b + 1]),
                         int(counts[b])])
    _write_rows(cfg["out"], ["dim", "bin_left", "bin_right", "count"], rows)
    _write_manifest("hist", cfg, {"private": False})
    _echo_json({"dims": ds.dim, "bins": cfg["bins"], "out": cfg["out"]})


def main(argv=None):
    """Run the CLI in click's standalone mode (usage errors exit 2, click's
    other errors 1); a package or file error prints an ``error:`` line and
    exits 1."""
    try:
        cli.main(args=argv)
    except (DpflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

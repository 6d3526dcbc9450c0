import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpflow import anomaly as ad
from dpflow import data as dt
from dpflow import training
from dpflow.accounting import Accountant, gdp_mu
from dpflow.cli import cli, main
from dpflow.flows import FlowModel, build_maf
from dpflow.training import train_flow
from test_data import CSV_FILES, csv_float_oracle, csv_writer_oracle
from test_flows import overflowing_model


@pytest.fixture
def runner():
    return CliRunner()


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_no_arguments_usage_error(runner):
    result = runner.invoke(cli, [])
    assert result.exit_code == 2


def test_unknown_flag_usage_error(runner):
    result = runner.invoke(cli, ["gen-data", "--bogus", "1"])
    assert result.exit_code == 2


def test_gen_data_deterministic_bytes(runner, tmp_path):
    args = ["gen-data", "--shape", "half-moons", "--n", "100", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(cli, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(cli, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").exists()


def test_gen_data_shapes(runner, tmp_path):
    for shape in ("pinwheel", "gaussians8"):
        out = tmp_path / f"{shape}.csv"
        result = runner.invoke(cli, ["gen-data", "--shape", shape, "--n",
                                     "64", "--seed", "0", "--out", str(out)])
        assert result.exit_code == 0
        assert len(read_csv_rows(out)) == 64


@pytest.mark.parametrize("extra, message", [
    (["--shape", "pinwheel", "--arms", "0"], "arms must be >= 1"),
    (["--shape", "pinwheel", "--arms", "-2"], "arms must be >= 1"),
    (["--shape", "half-moons", "--noise-std", "-0.5"], "noise_std"),
    (["--shape", "half-moons", "--noise-std", "nan"], "noise_std"),
    (["--shape", "half-moons", "--noise-std", "inf"], "noise_std")])
def test_gen_data_bad_shape_setting_exit_code(tmp_path, capsys, extra,
                                              message):
    """Zero arms wrote NaN rows and a negative or NaN noise level
    noise-free arcs, both with exit 0; now exit 1 and no CSV."""
    out = tmp_path / "d.csv"
    code, err = run_main(["gen-data", "--n", "50", "--out", str(out)]
                         + extra, capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not out.exists()
    assert not (tmp_path / "d.csv.manifest.json").exists()


def test_accountant_gdp_below_rdp(runner, tmp_path):
    out = tmp_path / "acct.csv"
    result = runner.invoke(cli, [
        "accountant", "--q", "0.004676", "--sigma", "2.1", "--delta", "1e-4",
        "--t-max", "100000", "--points", "12", "--out", str(out)])
    assert result.exit_code == 0
    rows = read_csv_rows(out)
    assert rows[0] == ["t", "eps_rdp", "eps_gdp", "mu"]
    for t, eps_rdp, eps_gdp, mu in rows[1:]:
        assert float(eps_gdp) <= float(eps_rdp)
        assert float(mu) >= 0


def test_accountant_stdout(runner):
    result = runner.invoke(cli, [
        "accountant", "--q", "0.01", "--sigma", "1.0", "--delta", "1e-5",
        "--t-max", "100", "--points", "4",
        "--manifest", "/dev/null"])
    assert result.exit_code == 0
    assert result.output.startswith("t,eps_rdp,eps_gdp,mu")


def test_accountant_huge_sigma(runner, tmp_path):
    """At sigma 1e9 exp(-1/sigma^2) rounds to 1; the table is still
    written, with finite epsilons."""
    out = tmp_path / "acct.csv"
    result = runner.invoke(cli, [
        "accountant", "--q", "0.01", "--sigma", "1e9", "--delta", "1e-5",
        "--t-max", "10", "--out", str(out),
        "--manifest", str(tmp_path / "manifest.json")])
    assert result.exit_code == 0, result.output
    rows = read_csv_rows(out)[1:]
    assert len(rows) > 1
    assert all(np.isfinite([float(v) for v in row]).all() for row in rows)


@pytest.fixture
def small_data(runner, tmp_path):
    path = tmp_path / "data.csv"
    result = runner.invoke(cli, ["gen-data", "--shape", "half-moons",
                                 "--n", "400", "--seed", "3",
                                 "--out", str(path)])
    assert result.exit_code == 0
    return path


def train_args(data, model, **extra):
    args = ["train", "--data", str(data), "--out", str(model),
            "--batch-size", "32", "--max-steps", "5", "--epsilon", "10",
            "--blocks", "1", "--hidden", "4", "--seed", "5",
            "--eval-every", "100"]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


def test_train_writes_artifacts_and_rerun_is_bit_exact(runner, small_data,
                                                       tmp_path):
    model = tmp_path / "model.json"
    report = tmp_path / "report.jsonl"
    result = runner.invoke(cli, train_args(small_data, model,
                                           report=report))
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["steps"] == 5
    assert summary["spent_epsilon"] < 10
    assert model.exists()
    lines = report.read_text().strip().splitlines()
    assert json.loads(lines[-1])["final"] is True
    manifest = Path(str(model) + ".manifest.json")
    assert manifest.exists()

    # Re-running from the manifest reproduces the model bit-exactly.
    first_bytes = model.read_bytes()
    model2 = tmp_path / "model2.json"
    rerun = runner.invoke(cli, ["train", "--config", str(manifest),
                                "--out", str(model2)])
    assert rerun.exit_code == 0, rerun.output
    assert model2.read_bytes() == first_bytes


def test_train_gmm_base(runner, small_data, tmp_path):
    model = tmp_path / "gmm_model.json"
    result = runner.invoke(cli, train_args(small_data, model, base="gmm",
                                           **{"gmm-components": 2,
                                              "gmm-iters": 10}))
    assert result.exit_code == 0, result.output
    doc = json.loads(model.read_text())
    assert doc["base"]["type"] == "gmm"


@pytest.mark.parametrize("huge", ["1e200", "1e160"])
def test_train_gmm_base_huge_value_is_an_error(tmp_path, capsys, huge):
    """A huge finite value overflows the mixture's k-means++ distances:
    exit 1 with one ``error:`` line naming the overflow, no traceback."""
    X = np.random.default_rng(0).normal(size=(600, 2))
    X[0] = [float(huge), 0.0]
    path = tmp_path / "big.csv"
    dt.save_csv(path, X)
    model = tmp_path / "m.json"
    code, err = run_main(["train", "--data", str(path), "--out", str(model),
                          "--base", "gmm", "--max-steps", "3",
                          "--batch-size", "64", "--epsilon", "50"], capsys)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "overflow" in lines[0] and "rescale the data" in lines[0]
    assert not model.exists()


def test_train_gmm_base_overflowing_row_is_one_error_line(tmp_path, capsys):
    """A finite row that the fitted mixture cannot score (its square
    overflows): exit 1 with one ``error:`` line, empty stdout and no
    model, where the run once printed RuntimeWarnings and
    ``"train_nll": Infinity``."""
    X = dt.gen_half_moons(600, seed=0).X
    X[0] = [1e150, 0.0]
    path = tmp_path / "big.csv"
    dt.save_csv(path, X)
    model = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(path), "--out", str(model),
              "--base", "gmm", "--max-steps", "3", "--batch-size", "64",
              "--epsilon", "50"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "1e+150" not in err
    assert not model.exists()


def strict_json(text):
    """Parse ``text`` refusing the NaN and Infinity keywords."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_init_infinite_epsilon_is_strict_json_and_replays(runner, small_data,
                                                          tmp_path):
    """At epsilon = inf the statistics are exact: the manifest says
    ``"private": false``, both documents are strict JSON with epsilon
    written as "inf", and the manifest replays the run."""
    model = tmp_path / "init.json"
    result = runner.invoke(cli, ["init", "--data", str(small_data),
                                 "--out", str(model), "--epsilon", "inf",
                                 "--blocks", "2", "--hidden", "4"])
    assert result.exit_code == 0, result.output
    assert strict_json(result.output)["epsilon"] == "inf"
    doc = strict_json(Path(f"{model}.manifest.json").read_text())
    assert doc["private"] is False and "spent_epsilon" not in doc
    assert doc["config"]["epsilon"] == "inf"
    again = tmp_path / "again.json"
    result = runner.invoke(cli, ["init", "--config",
                                 f"{model}.manifest.json",
                                 "--out", str(again)])
    assert result.exit_code == 0, result.output
    assert again.read_bytes() == model.read_bytes()


def test_train_infinite_epsilon_manifest_is_strict_json(runner, small_data,
                                                        tmp_path):
    model = tmp_path / "model.json"
    args = train_args(small_data, model)
    args[args.index("--epsilon") + 1] = "inf"
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    summary = strict_json(result.output)
    assert summary["steps"] == 5
    manifest = Path(f"{model}.manifest.json")
    assert strict_json(manifest.read_text())["config"]["epsilon"] == "inf"
    again = tmp_path / "again.json"
    result = runner.invoke(cli, ["train", "--config", str(manifest),
                                 "--out", str(again)])
    assert result.exit_code == 0, result.output
    assert strict_json(result.output) == summary
    assert again.read_bytes() == model.read_bytes()


def test_sample_and_logprob_round_trip(runner, small_data, tmp_path):
    model = tmp_path / "model.json"
    assert runner.invoke(cli, train_args(small_data, model)).exit_code == 0
    samples = tmp_path / "samples.csv"
    result = runner.invoke(cli, ["sample", "--model", str(model), "--n",
                                 "50", "--seed", "1", "--out", str(samples)])
    assert result.exit_code == 0
    assert len(read_csv_rows(samples)) == 50

    scores = tmp_path / "scores.csv"
    result = runner.invoke(cli, ["logprob", "--model", str(model), "--data",
                                 str(samples), "--out", str(scores)])
    assert result.exit_code == 0
    rows = read_csv_rows(scores)
    assert rows[0] == ["log_prob"] and len(rows) == 51
    assert np.isfinite(json.loads(result.output)["mean_log_prob"])


def test_init_command(runner, small_data, tmp_path):
    model = tmp_path / "init_model.json"
    result = runner.invoke(cli, ["init", "--data", str(small_data), "--out",
                                 str(model), "--epsilon", "2", "--delta",
                                 "0.1", "--blocks", "2", "--hidden", "4",
                                 "--seed", "0"])
    assert result.exit_code == 0, result.output
    doc = json.loads(model.read_text())
    assert any(layer["type"] == "actnorm" for layer in doc["layers"])


def test_eval_ll_small(runner, small_data, tmp_path):
    result = runner.invoke(cli, [
        "eval-ll", "--data", str(small_data), "--folds", "2",
        "--batch-size", "32", "--max-steps", "3", "--epsilon", "10",
        "--blocks", "1", "--hidden", "4", "--seed", "2",
        "--manifest", str(tmp_path / "m.json")])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert len(summary["per_fold"]) == 2
    assert np.isfinite(summary["mean_test_log_likelihood"])


@pytest.mark.parametrize("accountant", ["gdp", "rdp"])
def test_manifest_gdp_note(runner, small_data, tmp_path, accountant):
    """A GDP-accounted ``train`` or ``eval-ll`` run labels its epsilon
    CLT-approximate in its manifest, as ``train`` does on stdout; an RDP
    run's manifest has no such key."""
    train_manifest, eval_manifest = tmp_path / "t.json", tmp_path / "e.json"
    result = runner.invoke(cli, train_args(
        small_data, tmp_path / "model.json", accountant=accountant,
        manifest=train_manifest))
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    result = runner.invoke(cli, [
        "eval-ll", "--data", str(small_data), "--folds", "2",
        "--batch-size", "32", "--max-steps", "2", "--epsilon", "10",
        "--blocks", "1", "--hidden", "4", "--accountant", accountant,
        "--manifest", str(eval_manifest)])
    assert result.exit_code == 0, result.output
    note = {"gdp_note": "CLT-approximate"} if accountant == "gdp" else {}
    assert summary["gdp_note"] == note.get("gdp_note")
    for path in (train_manifest, eval_manifest):
        doc = json.loads(path.read_text())
        assert {k: v for k, v in doc.items() if k == "gdp_note"} == note


def test_anomaly_roc(runner, small_data, tmp_path):
    model = tmp_path / "model.json"
    assert runner.invoke(cli, train_args(small_data, model)).exit_code == 0
    out = tmp_path / "roc.csv"
    result = runner.invoke(cli, ["anomaly-roc", "--model", str(model),
                                 "--data", str(small_data), "--out",
                                 str(out), "--seed", "4"])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert 0.0 <= summary["auc"] <= 1.0
    rows = read_csv_rows(out)
    assert rows[0] == ["threshold", "fpr", "tpr"]


def test_dp_ad_sweep(runner, small_data, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(cli, [
        "dp-ad", "--data", str(small_data), "--k", "2", "--eps", "0.1,100",
        "--train-steps", "10", "--hidden", "4", "--blocks", "1",
        "--out", str(out), "--seed", "6"])
    assert result.exit_code == 0, result.output
    rows = read_csv_rows(out)
    assert rows[0] == ["eps", "accuracy"]
    assert len(rows) == 3
    accs = [float(r[1]) for r in rows[1:]]
    assert all(0.0 <= a <= 1.0 for a in accs)

    # The same seed gives the same bytes.
    again = tmp_path / "again.csv"
    result = runner.invoke(cli, [
        "dp-ad", "--data", str(small_data), "--k", "2", "--eps", "0.1,100",
        "--train-steps", "10", "--hidden", "4", "--blocks", "1",
        "--out", str(again), "--seed", "6"])
    assert result.exit_code == 0, result.output
    assert again.read_bytes() == out.read_bytes()


def run_main(argv, capsys):
    """Exit code and stderr of the ``dpflow`` entry point."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("eps, token", [("0.1,abc", "'abc'"),
                                        ("0.1,nan", "nan"),
                                        ("inf", "inf")])
def test_dp_ad_bad_eps_grid(small_data, tmp_path, capsys, eps, token):
    out = tmp_path / "sweep.csv"
    code, err = run_main([
        "dp-ad", "--data", str(small_data), "--k", "2", "--eps", eps,
        "--train-steps", "2", "--hidden", "4", "--blocks", "1",
        "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error:") and token in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["-1", "0.1,-0.5", "-1,nan,inf", "0.1,nan",
                                 "1,inf", "-inf"])
def test_dp_ad_bad_eps_refused_before_training(small_data, tmp_path, capsys,
                                                monkeypatch, eps):
    """A negative, NaN or infinite grid value is refused, naming --eps,
    before the ensemble is built."""
    calls = []
    monkeypatch.setattr(ad, "build_ensemble",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / "sweep.csv"
    code, err = run_main([
        "dp-ad", "--data", str(small_data), "--k", "2", "--eps", eps,
        "--train-steps", "2", "--hidden", "4", "--blocks", "1",
        "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: --eps:") and "Traceback" not in err
    assert calls == []
    assert not out.exists()


def test_dp_ad_manifest_cost_per_row(runner, small_data, tmp_path):
    """The manifest gives one simple-composition total per row of the CSV,
    query count times that row's eps, in the CSV's order."""
    out, manifest = tmp_path / "sweep.csv", tmp_path / "m.json"
    result = runner.invoke(cli, [
        "dp-ad", "--data", str(small_data), "--k", "2",
        "--eps", "0.1,1e-05,7,0", "--train-steps", "4", "--hidden", "4",
        "--blocks", "1", "--out", str(out), "--manifest", str(manifest)])
    assert result.exit_code == 0, result.output
    queries = json.loads(result.output.strip().splitlines()[-1])["queries"]
    eps_column = [float(row[0]) for row in read_csv_rows(out)[1:]]
    assert eps_column == [0.1, 1e-05, 7.0, 0.0]
    cost = json.loads(manifest.read_text())["cumulative_epsilon"]
    assert cost == [queries * eps for eps in eps_column]



def test_dp_ad_same_bytes_for_every_worker_count(runner, small_data, tmp_path,
                                                 monkeypatch):
    """Members trained in one process or in two give the same sweep CSV and
    the same manifest apart from the top-level ``ensemble_workers``, which
    ``--config <manifest>`` does not replay."""
    args = ["dp-ad", "--data", str(small_data), "--k", "2",
            "--eps", "0.1,100", "--train-steps", "6", "--hidden", "4",
            "--blocks", "1", "--seed", "3"]
    csvs, docs = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(ad, "_ensemble_workers", lambda k: workers)
        out = tmp_path / f"w{workers}.csv"
        manifest = tmp_path / f"w{workers}.json"
        result = runner.invoke(cli, args + ["--out", str(out),
                                            "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output
        csvs[workers] = out.read_bytes()
        docs[workers] = json.loads(manifest.read_text())
        assert docs[workers].pop("ensemble_workers") == workers
        assert "ensemble_workers" not in docs[workers]["config"]
        assert docs[workers]["config"].pop("out") == str(out)
    assert csvs[1] == csvs[2]
    assert docs[1] == docs[2]

    again = tmp_path / "again.csv"
    rerun = runner.invoke(cli, ["dp-ad", "--config", str(tmp_path / "w2.json"),
                                "--out", str(again),
                                "--manifest", str(tmp_path / "m3.json")])
    assert rerun.exit_code == 0, rerun.output
    assert again.read_bytes() == csvs[2]


def test_dp_ad_worker_death_is_one_error_line(small_data, tmp_path, capsys,
                                              monkeypatch):
    """A training process that dies without its result ends dp-ad with one
    ``error:`` line and exit 1; no process is left behind."""
    parent = os.getpid()

    def train(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return train_flow(*args, **kwargs)

    monkeypatch.setattr(ad, "_ensemble_workers", lambda k: 2)
    monkeypatch.setattr(ad, "train_flow", train)
    out = tmp_path / "sweep.csv"
    code, err = run_main([
        "dp-ad", "--data", str(small_data), "--k", "2",
        "--train-steps", "2", "--hidden", "4", "--blocks", "1",
        "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ensemble worker") and "exit code 3" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_noise_producer_death_is_one_error_line(small_data, tmp_path,
                                                      capsys, monkeypatch):
    """A noise producer that dies ends train with one ``error:`` line and
    exit 1, writes no model and leaves no process behind."""
    parent = os.getpid()

    def die_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        raise AssertionError("noise drawn in the training process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(training, "_draw_noise", die_in_child)
    model = tmp_path / "model.json"
    code, err = run_main(train_args(small_data, model), capsys)
    assert code == 1
    assert err.startswith("error: noise producer")
    assert len(err.splitlines()) == 1
    assert not model.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

@pytest.mark.parametrize("command", ["hist", "project-pca", "anomaly-roc",
                                     "downstream-knn", "logprob", "eval-ll"])
def test_raw_data_releases_labelled_non_private(runner, small_data,
                                                query_model, tmp_path,
                                                command):
    """Outputs computed from the rows with no noise carry a top-level
    ``"private": false``; ``--config <manifest>`` still reproduces them."""
    args = {
        "hist": ["--data", str(small_data), "--bins", "5"],
        "project-pca": ["--data", str(small_data)],
        "anomaly-roc": ["--model", str(query_model), "--data",
                        str(small_data), "--seed", "4"],
        "downstream-knn": ["--model", str(query_model), "--train",
                           str(small_data), "--test", str(small_data),
                           "--k", "3", "--seed", "2"],
        "logprob": ["--model", str(query_model), "--data", str(small_data)],
        "eval-ll": ["--data", str(small_data), "--folds", "2",
                    "--max-steps", "3", "--blocks", "1", "--hidden", "4",
                    "--batch-size", "32", "--epsilon", "10"],
    }[command]
    has_out = command not in ("downstream-knn", "eval-ll")
    out, manifest = tmp_path / "out.csv", tmp_path / "m.json"
    first = runner.invoke(cli, [command, *args, "--manifest", str(manifest)]
                          + (["--out", str(out)] if has_out else []))
    assert first.exit_code == 0, first.output
    doc = json.loads(manifest.read_text())
    assert doc["private"] is False
    assert "private" not in doc["config"]

    again = tmp_path / "again.csv"
    rerun = runner.invoke(cli, [command, "--config", str(manifest),
                                "--manifest", str(tmp_path / "m2.json")]
                          + (["--out", str(again)] if has_out else []))
    assert rerun.exit_code == 0, rerun.output
    if has_out:
        assert again.read_bytes() == out.read_bytes()
    else:
        assert rerun.output == first.output


@pytest.mark.parametrize("flag, value, message", [
    ("--test-frac", "-0.1", "--test-frac must be in (0, 1)"),
    ("--test-frac", "0", "--test-frac must be in (0, 1)"),
    ("--test-frac", "1", "--test-frac must be in (0, 1)"),
    ("--test-frac", "1.5", "--test-frac must be in (0, 1)"),
    ("--test-frac", "nan", "--test-frac must be in (0, 1)"),
    # Once failed with only "need at least 20 reference rows".
    ("--test-frac", "0.001", "--test-frac 0.001 gives 0 test rows of 400"),
    ("--test-frac", "0.04", "--test-frac 0.04 gives 16 test rows of 400"),
    ("--train-steps", "-3", "step count must be nonnegative"),
    ("--blocks", "-1", "n_blocks must be >= 1"),
])
def test_dp_ad_bad_sizes(small_data, tmp_path, capsys, flag, value, message):
    out = tmp_path / "sweep.csv"
    argv = ["dp-ad", "--data", str(small_data), "--k", "2",
            "--train-steps", "2", "--hidden", "4", "--blocks", "1",
            "--out", str(out), flag, value]
    code, err = run_main(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def query_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    build_maf(2, n_blocks=1, hidden=4, seed=0).save(path)
    return path


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=CSV_FILES)
def test_logprob_malformed_csv_exit_code(query_model, tmp_path, capsys, raw):
    """Any CSV bytes: logprob exits 0 on a two-column table of moderate
    values, and 1 with an ``error:`` line on a refused table, never with an
    exception. (Values near the float range may overflow in the model,
    which is also exit 1.)"""
    data = tmp_path / "random.csv"
    data.write_bytes(raw)
    code, err = run_main(["logprob", "--model", str(query_model),
                          "--data", str(data),
                          "--manifest", str(tmp_path / "m.json")], capsys)
    want = csv_float_oracle(data)
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:") and "Traceback" not in err
    if want is None or want.shape[1] != 2:
        assert code == 1
    elif np.all(np.abs(want) < 1e100):
        assert code == 0, err


@pytest.mark.parametrize("text", [
    '{"shape": "half-moons", "n": 10,',
    '[{"shape": "half-moons", "n": 10}]',
    '{"shape": "half-moons", "n": "abc"}',
    '{"shape": "cubes", "n": 10}',
    '{"shape": "half-moons", "n": 10.7}',
    '{"shape": "half-moons", "n": 10, "seed": true}',
    '{"epsilon": true}',
    '{"shape": "half-moons", "n": [1, 2]}',
    '{"shape": "half-moons", "n": {"rows": 10}}',
    '{"shape": "half-moons", "n": null}',
    '{"shape": "half-moons", "n": 10, "seed": null}',
    '{"delta": [0.1]}',
    '{"shape": "half-moons", "n": 10, "seed": -1}',
], ids=["invalid_json", "top_level_list", "bad_int", "bad_choice",
        "float_for_int", "bool_for_int", "bool_for_float", "array_for_int",
        "object_for_int", "null_for_required", "null_for_default",
        "array_for_float", "negative_seed"])
def test_bad_config_file_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "rows.csv"
    if "epsilon" in text or "delta" in text:  # float options: train has them
        data = tmp_path / "data.csv"
        data.write_text("0.0,0.0\n1.0,1.0\n")
        argv = ["train", "--data", str(data)]
    else:
        argv = ["gen-data"]
    code, err = run_main(argv + ["--config", str(cfg), "--out", str(out)],
                         capsys)
    assert code == 1
    assert err.startswith("error:") and str(cfg) in err
    assert not out.exists()


def test_config_file_numbers_of_option_type_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shape": "half-moons", "n": 12, "noise_std": 0,'
                   ' "seed": 4}')
    out = tmp_path / "rows.csv"
    code, _ = run_main(["gen-data", "--config", str(cfg), "--out", str(out)],
                       capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 12


# Any JSON value: scalars of every type (NaN and infinities included),
# strings, arrays and objects. Integers stay small, since a valid size runs.
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)

# Base config of each command; the test replaces one option under it.
# Path options are left out: any string there names a file to write.
CONFIG_BASES = {
    "gen-data": {"shape": "half-moons", "n": 20},
    "train": {"batch_size": 8, "max_steps": 3, "epsilon": 10.0,
              "blocks": 1, "hidden": 4, "eval_every": 2},
}
CONFIG_KEYS = [("gen-data", key) for key in
               ("shape", "n", "noise_std", "arms", "seed")] + \
    [("train", key) for key in
     ("epsilon", "delta", "sigma", "clip", "batch_size", "lr", "optimizer",
      "accountant", "sampling", "max_steps", "eval_every", "blocks",
      "hidden", "actnorm", "base", "gmm_components", "gmm_iters",
      "holdout_frac", "has_header", "seed")]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CONFIG_KEYS), value=CONFIG_VALUES)
def test_config_value_exit_code(small_data, tmp_path, capsys, case, value):
    """Any JSON value under a known option of a config file: the command
    runs (exit 0) or refuses it with an ``error:`` line (exit 1), never a
    traceback."""
    command, key = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_BASES[command], key: value}))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--manifest", str(tmp_path / "manifest.json")]
    if command == "train":
        argv += ["--data", str(small_data)]
    code, err = run_main(argv, capsys)
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    ["--base", "gmm", "--gmm-components", "0"],
    ["--base", "gmm", "--gmm-components", "-2"],
    ["--base", "gmm", "--gmm-iters", "-1"],
], ids=["zero_components", "negative_components", "negative_iters"])
def test_bad_mixture_size_exit_code(small_data, tmp_path, capsys, extra):
    model = tmp_path / "model.json"
    code, err = run_main(train_args(small_data, model) + extra, capsys)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--epsilon", "nan", "epsilon"), ("--clip", "nan", "clip_norm"),
    ("--clip", "inf", "clip_norm"), ("--sigma", "inf", "noise_multiplier"),
    ("--lr", "inf", "learning_rate"), ("--eval-every", "0", "eval_every"),
    ("--holdout-frac", "1.5", "--holdout-frac"),
    ("--sigma", "0.03", "epsilon exceeds"),
    ("--blocks", "0", "n_blocks"),
    # Once ran zero steps, reported spent_epsilon 0.0 and exited 0.
    ("--max-steps", "-7", "max_steps"),
])
def test_bad_train_setting_exit_code(small_data, tmp_path, capsys, flag,
                                     value, message):
    """A setting no run can use exits 1 with one ``error:`` line naming
    it, and writes no model."""
    model = tmp_path / "model.json"
    code, err = run_main(train_args(small_data, model) + [flag, value],
                         capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not model.exists()


def test_init_nan_epsilon_exit_code(small_data, tmp_path, capsys):
    """A NaN budget would skip the Laplace noise and write the exact
    clipped feature means; it exits 1 and writes no model."""
    model = tmp_path / "init.json"
    code, err = run_main(["init", "--data", str(small_data), "--out",
                          str(model), "--epsilon", "nan", "--blocks", "1",
                          "--hidden", "4"], capsys)
    assert code == 1
    assert err.startswith("error:") and "epsilon must be positive" in err
    assert not model.exists()
    assert not (tmp_path / "init.json.manifest.json").exists()


@pytest.mark.parametrize("ctilde, message", [
    ("inf", "clip range must be positive and finite"),
    ("nan", "clip range must be positive and finite"),
    ("1e308", "not finite at clip range 1e+308")])
def test_init_non_finite_clip_range_exit_code(small_data, tmp_path, capsys,
                                              ctilde, message):
    """A clip range that is not finite, or so wide that the noisy
    statistics or the data they normalize overflow, exits 1 and writes no
    model instead of one holding infinities and NaNs."""
    model = tmp_path / "init.json"
    code, err = run_main(["init", "--data", str(small_data), "--out",
                          str(model), "--ctilde", ctilde, "--blocks", "2",
                          "--hidden", "4"], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not model.exists()
    assert not (tmp_path / "init.json.manifest.json").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("downstream-knn", ["--k", "0"], "k must be >= 1"),
    ("downstream-knn", ["--k", "-1"], "k must be >= 1"),
    ("project-pca", ["--components", "0"], "components must be >= 1"),
    ("project-pca", ["--components", "-1"], "components must be >= 1"),
    ("eval-ll", ["--folds", "0"], "folds must be >= 1"),
], ids=["knn_k_zero", "knn_k_negative", "pca_zero_components",
        "pca_negative_components", "eval_ll_no_folds"])
def test_bad_evaluation_setting_exit_code(query_model, small_data, tmp_path,
                                          capsys, command, extra, message):
    """An evaluation setting that would give a NaN, empty or meaningless
    result exits 1 with an ``error:`` line and writes no table or
    manifest."""
    out, manifest = tmp_path / "out.csv", tmp_path / "m.json"
    argv = [command, "--manifest", str(manifest)]
    if command == "downstream-knn":
        argv += ["--model", str(query_model), "--train", str(small_data),
                 "--test", str(small_data)]
    elif command == "project-pca":
        argv += ["--data", str(small_data), "--out", str(out)]
    else:
        argv += ["--data", str(small_data), "--max-steps", "1",
                 "--blocks", "1", "--hidden", "4"]
    code, err = run_main(argv + extra, capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists() and not manifest.exists()


def test_downstream_knn_width_mismatch_exit_code(query_model, tmp_path,
                                                 capsys):
    """Samples of a 2-D model against 3-column tables would be scored by
    broadcast distances; the command exits 1 instead."""
    rows = tmp_path / "wide.csv"
    rows.write_text("".join(f"{i},{i % 3},{i % 5}\n" for i in range(20)))
    manifest = tmp_path / "m.json"
    code, err = run_main(["downstream-knn", "--model", str(query_model),
                          "--train", str(rows), "--test", str(rows),
                          "--manifest", str(manifest)], capsys)
    assert code == 1
    assert err.startswith("error:") and "columns" in err
    assert not manifest.exists()


def test_holdout_frac_without_rows_refused_before_training(
        small_data, tmp_path, capsys, monkeypatch):
    """A holdout fraction that rounds to no row of the data is refused
    before any model is built or trained, and no model is written."""
    import dpflow.cli

    def never(*args, **kwargs):
        raise AssertionError("reached model building or training")
    monkeypatch.setattr(dpflow.cli, "build_maf", never)
    monkeypatch.setattr(dpflow.cli, "train_dp_nf", never)
    model = tmp_path / "model.json"
    code, err = run_main(train_args(small_data, model,
                                    **{"holdout-frac": 0.001}), capsys)
    assert code == 1
    assert err.startswith("error:") and "--holdout-frac" in err
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("key, value", [
    ("t_min", 0), ("t_min", -3), ("t_max", 0), ("points", 0),
    ("points", -1)])
@pytest.mark.parametrize("route", ["command_line", "config"])
def test_accountant_range_exit_code(tmp_path, capsys, key, value, route):
    """A step bound or point count below 1 is a usage error (exit 2) on
    the command line and an ``error:`` line (exit 1) from a config file;
    no table is written either way."""
    out = tmp_path / "acct.csv"
    settings = {"q": 0.01, "sigma": 1.0, "delta": 1e-5, "t_max": 100,
                key: value}
    argv = ["accountant", "--out", str(out),
            "--manifest", str(tmp_path / "manifest.json")]
    if route == "command_line":
        for name, setting in settings.items():
            argv += [f"--{name.replace('_', '-')}", str(setting)]
        code, err = run_main(argv, capsys)
        assert code == 2
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code, err = run_main(argv + ["--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith("error:") and str(cfg) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_accountant_t_min_above_t_max_exit_code(tmp_path, capsys):
    """Once tabulated t = 10, 14, 20 for --t-min 20 --t-max 10."""
    out, manifest = tmp_path / "acct.csv", tmp_path / "manifest.json"
    code, err = run_main(["accountant", "--q", "0.01", "--sigma", "1",
                          "--delta", "1e-5", "--t-min", "20", "--t-max", "10",
                          "--points", "3", "--out", str(out),
                          "--manifest", str(manifest)], capsys)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "--t-min" in err and "--t-max" in err
    assert not out.exists() and not manifest.exists()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sample_size_below_one_exit_code(small_data, tmp_path, capsys, n):
    model = tmp_path / "model.json"
    assert run_main(train_args(small_data, model), capsys)[0] == 0
    out = tmp_path / "synth.csv"
    code, err = run_main(["sample", "--model", str(model), "--n", n,
                          "--seed", "0", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error:") and "n must be >= 1" in err
    assert not out.exists()


def test_sample_overflow_exit_code(tmp_path, capsys):
    """A model whose inverse overflows: exit 1 with one ``error:`` line and
    no rows, where it once wrote ``inf,nan`` rows with RuntimeWarnings."""
    model = tmp_path / "m.json"
    overflowing_model().save(model)
    out = tmp_path / "s.csv"
    code, err = run_main(["sample", "--model", str(model), "--n", "4",
                          "--out", str(out)], capsys)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("where", ["s_max", "gmm_variance"])
def test_overlong_literal_model_exit_code(small_data, tmp_path, capsys,
                                          where):
    model = tmp_path / "model.json"
    assert run_main(train_args(small_data, model, base="gmm",
                               **{"gmm-components": 2, "gmm-iters": 5}),
                    capsys)[0] == 0
    doc = json.loads(model.read_text())
    if where == "s_max":
        doc["layers"][0]["s_max"] = "INF"
    else:
        doc["base"]["variances"][1][0] = "INF"
    model.write_text(json.dumps(doc).replace('"INF"', "1e999"))
    out = tmp_path / "scores.csv"
    code, err = run_main(["logprob", "--model", str(model), "--data",
                          str(small_data), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err
    assert not out.exists()


def test_downstream_knn(runner, small_data, tmp_path):
    model = tmp_path / "model.json"
    assert runner.invoke(cli, train_args(small_data, model)).exit_code == 0
    result = runner.invoke(cli, ["downstream-knn", "--model", str(model),
                                 "--train", str(small_data), "--test",
                                 str(small_data), "--k", "3", "--seed", "0",
                                 "--manifest", str(tmp_path / "knn.json")])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["baseline_mse"] >= 0
    assert summary["synthetic_mse"] >= 0


def test_project_pca_and_hist(runner, small_data, tmp_path):
    pca_out = tmp_path / "pca.csv"
    result = runner.invoke(cli, ["project-pca", "--data", str(small_data),
                                 "--out", str(pca_out)])
    assert result.exit_code == 0
    assert read_csv_rows(pca_out)[0] == ["pc1", "pc2"]

    hist_out = tmp_path / "hist.csv"
    result = runner.invoke(cli, ["hist", "--data", str(small_data),
                                 "--bins", "5", "--out", str(hist_out)])
    assert result.exit_code == 0
    rows = read_csv_rows(hist_out)
    assert rows[0] == ["dim", "bin_left", "bin_right", "count"]
    counts = [int(r[3]) for r in rows[1:] if r[0] == "0"]
    assert sum(counts) == 400


def test_tables_match_csv_writer_oracle(runner, small_data, tmp_path):
    """Every CLI table is written as csv.writer would write the repr of
    each value, recomputed here through the library."""
    def run(*args):
        result = runner.invoke(cli, [*args, "--manifest",
                                     str(tmp_path / "m.json")])
        assert result.exit_code == 0, result.output
        return result.output

    def assert_table(path, header, rows):
        assert path.read_text() == csv_writer_oracle(header, rows)

    ds = dt.load_csv(small_data)
    model_path = tmp_path / "model.json"
    assert runner.invoke(cli, train_args(small_data, model_path)).exit_code == 0
    model = FlowModel.load(model_path)

    out = tmp_path / "lp.csv"
    run("logprob", "--model", str(model_path), "--data", str(small_data),
        "--out", str(out))
    assert_table(out, ["log_prob"], model.log_prob(ds.X)[:, None])

    out = tmp_path / "roc.csv"
    summary = json.loads(run("anomaly-roc", "--model", str(model_path),
                             "--data", str(small_data), "--seed", "4",
                             "--out", str(out)))
    anomalies = ad.gen_tail_anomalies(ds.X, ds.n, seed=4)
    scores = np.concatenate([model.log_prob(ds.X), model.log_prob(anomalies)])
    labels = np.repeat([1, 0], ds.n)
    curve = ad.roc(scores, labels)
    assert_table(out, ["threshold", "fpr", "tpr"],
                 zip(curve.thresholds, curve.fpr, curve.tpr))
    assert (summary["best_threshold"], summary["best_accuracy"]) == \
        ad.select_threshold(scores, labels)

    header = ["t", "eps_rdp", "eps_gdp", "mu"]
    rdp = Accountant("rdp", 0.01, 1.1, 1e-5)
    gdp = Accountant("gdp", 0.01, 1.1, 1e-5)
    rows = [[t, rdp.eps(t), gdp.eps(t), gdp_mu(t, 0.01, 1.1)]
            for t in [1, 3, 10, 31, 100]]
    args = ["accountant", "--q", "0.01", "--sigma", "1.1", "--delta", "1e-5",
            "--t-max", "100", "--points", "5"]
    out = tmp_path / "acct.csv"
    run(*args, "--out", str(out))
    assert_table(out, header, rows)
    assert run(*args) == csv_writer_oracle(header, rows)

    out = tmp_path / "hist.csv"
    run("hist", "--data", str(small_data), "--bins", "6", "--out", str(out))
    assert_table(out, ["dim", "bin_left", "bin_right", "count"],
                 [[j, edges[b], edges[b + 1], int(counts[b])]
                  for j, (edges, counts) in enumerate(
                      dt.dimwise_histogram(ds, 6))
                  for b in range(len(counts))])

    out = tmp_path / "pca.csv"
    run("project-pca", "--data", str(small_data), "--out", str(out))
    assert_table(out, ["pc1", "pc2"], dt.pca_project(ds, components=2)[0])

    # dp-ad: the eps column is the grid as given and every accuracy cell is
    # the repr of a float.
    out = tmp_path / "sweep.csv"
    run("dp-ad", "--data", str(small_data), "--k", "2", "--eps", "0.1,1e-05,7",
        "--train-steps", "5", "--hidden", "4", "--blocks", "1", "--seed", "6",
        "--out", str(out))
    cells = read_csv_rows(out)[1:]
    assert [float(eps) for eps, _ in cells] == [0.1, 1e-05, 7.0]
    assert_table(out, ["eps", "accuracy"],
                 [[float(eps), float(accuracy)] for eps, accuracy in cells])


def test_flag_overrides_config_file(runner, small_data, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": "half-moons", "n": 10, "seed": 1}))
    out = tmp_path / "n25.csv"
    result = runner.invoke(cli, ["gen-data", "--config", str(cfg), "--shape",
                                 "half-moons", "--n", "25", "--out",
                                 str(out)])
    assert result.exit_code == 0
    assert len(read_csv_rows(out)) == 25  # flag wins over config n=10


def test_config_value_under_command_line_flag_ignored(tmp_path, capsys):
    """A config value is checked only when it is used: one under an option
    the command line also gives is neither checked nor cast."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": "half-moons", "n": "abc",
                               "seed": True, "arms": [1]}))
    out = tmp_path / "rows.csv"
    code, err = run_main(["gen-data", "--config", str(cfg), "--n", "20",
                          "--seed", "1", "--arms", "3", "--out", str(out)],
                         capsys)
    assert code == 0, err
    assert len(read_csv_rows(out)) == 20
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert (manifest["config"]["n"], manifest["config"]["seed"],
            manifest["config"]["arms"]) == (20, 1, 3)


@pytest.mark.parametrize("manifest", [False, True])
def test_unknown_config_key_exit_code(tmp_path, capsys, manifest):
    """A config key that names no option of the command (here a typo of
    ``noise_std``) exits 1 naming the file and the key, instead of leaving
    the option at its default."""
    settings = {"shape": "half-moons", "n": 20, "noise_sd": 0.5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gen-data", "config": settings}
                              if manifest else settings))
    out = tmp_path / "rows.csv"
    code, err = run_main(["gen-data", "--config", str(cfg), "--out",
                          str(out)], capsys)
    assert code == 1
    assert err.startswith("error:") and str(cfg) in err and "noise_sd" in err
    assert not out.exists()
    assert not (tmp_path / "rows.csv.manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "eval-ll"])
def test_standardize_flag_is_a_usage_error(small_data, tmp_path, capsys,
                                           command):
    """``--standardize`` is gone from both commands: a model describes its
    CSV at the CSV's own scale. The flag is click's usage error, exit 2."""
    out = tmp_path / "m.json"
    argv = [command, "--data", str(small_data), "--standardize",
            "--max-steps", "3"] + (["--out", str(out)]
                                   if command == "train" else [])
    code, err = run_main(argv, capsys)
    assert code == 2
    assert "No such option" in err and "--standardize" in err
    assert not out.exists()


@pytest.mark.parametrize("manifest", [False, True])
@pytest.mark.parametrize("command", ["train", "eval-ll"])
def test_do_standardize_config_key_exit_code(small_data, tmp_path, capsys,
                                             command, manifest):
    """An old config file or manifest holding ``do_standardize`` exits 1
    with one ``error:`` line naming the key; it is not read as a setting."""
    settings = {"max_steps": 3, "blocks": 1, "hidden": 4,
                "do_standardize": False}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "config": settings}
                              if manifest else settings))
    out = tmp_path / "m.json"
    argv = [command, "--config", str(cfg), "--data", str(small_data),
            "--manifest", str(tmp_path / "manifest.json")] + (
        ["--out", str(out)] if command == "train" else [])
    code, err = run_main(argv, capsys)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cfg) in lines[0] and "do_standardize" in lines[0]
    assert not out.exists()
    assert not (tmp_path / "manifest.json").exists()


def test_cli_import_loads_no_scipy():
    """Importing the CLI in a fresh interpreter loads no scipy module:
    scipy.special alone about doubles the start-up time and resident memory
    of every ``dpflow`` command."""
    import subprocess
    import sys
    code = ("import sys, dpflow.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


REQUIRED_OPTIONS = {
    "gen-data": {"--shape", "--n", "--out"},
    "train": {"--data", "--out"},
    "sample": {"--model", "--n", "--out"},
    "logprob": {"--model", "--data"},
    "eval-ll": {"--data"},
    "accountant": {"--q", "--sigma", "--delta", "--t-max"},
    "init": {"--data", "--out"},
    "anomaly-roc": {"--model", "--data", "--out"},
    "dp-ad": {"--data", "--out"},
    "downstream-knn": {"--model", "--train", "--test"},
    "project-pca": {"--data", "--out"},
    "hist": {"--data", "--out"},
}


def help_entries(text):
    """Each option's first flag and its whole (possibly wrapped) entry in
    a ``--help`` listing."""
    entries = {}
    flag = None
    for line in text.splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].split("/")[0]
            entries[flag] = line
        elif flag and line.startswith("   "):
            entries[flag] += line
        else:
            flag = None
    return entries


@pytest.mark.parametrize("command", sorted(REQUIRED_OPTIONS))
def test_help_marks_required_options(runner, command):
    """``--help`` marks exactly the options the command requires, and each
    of them missing is click's usage error (exit 2) naming it."""
    assert set(cli.commands) == set(REQUIRED_OPTIONS)
    result = runner.invoke(cli, [command, "--help"])
    assert result.exit_code == 0
    marked = {flag for flag, entry in help_entries(result.output).items()
              if "required]" in entry}
    assert marked == REQUIRED_OPTIONS[command]
    result = runner.invoke(cli, [command])
    assert result.exit_code == 2
    missing = result.output.rsplit("Missing option '", 1)[1].split("'")[0]
    assert missing in REQUIRED_OPTIONS[command]


def test_exit_codes(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "dpflow.cli", "logprob", "--model",
         "/nonexistent.json", "--data", "/nonexistent.csv"],
        capture_output=True, text=True)
    assert proc.returncode == 2  # click validates exists=True paths

    proc = subprocess.run([sys.executable, "-m", "dpflow.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2

    # A missing path from a config file is a bad config value: exit 1 with
    # an error line, not click's usage error.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_path": "/nonexistent.json",
                               "data": "/nonexistent.csv"}))
    proc = subprocess.run(
        [sys.executable, "-m", "dpflow.cli", "logprob", "--config", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()

    # A model file whose MADE weight has the wrong shape is rejected on load
    # instead of broadcasting into a silently wrong model.
    from dpflow.flows import build_maf
    doc = json.loads(build_maf(2, n_blocks=1, hidden=4, seed=0).to_json())
    doc["layers"][0]["params"]["W1"] = [[1.0]]
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text(json.dumps(doc))
    rows = tmp_path / "rows.csv"
    rows.write_text("0.0,0.0\n1.0,1.0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "dpflow.cli", "logprob", "--model",
         str(bad_model), "--data", str(rows)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr

    # A non-finite tensor value is rejected too, instead of sampling NaN rows.
    doc = json.loads(build_maf(2, n_blocks=1, hidden=4, seed=0).to_json())
    doc["layers"][0]["params"]["bm"] = [float("nan"), 0.0]
    bad_model.write_text(json.dumps(doc))
    out = tmp_path / "synth.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dpflow.cli", "sample", "--model",
         str(bad_model), "--n", "5", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()

    # A GDP epsilon beyond the accountant's search range is an error line,
    # not a traceback (and epsilons above 4096 on the way there finish).
    proc = subprocess.run(
        [sys.executable, "-m", "dpflow.cli", "accountant", "--q", "0.5",
         "--sigma", "0.5", "--delta", "1e-5", "--t-max", "1000000",
         "--manifest", str(tmp_path / "acct.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr

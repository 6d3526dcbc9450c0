"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible under ``pytest -s``). The
training-based checks (5-7) run full privacy budgets and take minutes;
everything else finishes in seconds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import dpflow
from dpflow import accounting as acc
from dpflow.anomaly import build_ensemble, gen_tail_anomalies, roc
from dpflow.data import (Dataset, gen_half_moons, gen_pinwheel,
                         knn_regress_mse, pca_project, standardize)
from dpflow.flows import ActNormLayer, GmmBase, build_maf
from dpflow.gmm import gmm_fit_em
from dpflow.training import TrainConfig, train_dp_nf

from test_accounting import (gaussian_mechanism, gaussian_mechanism_sigma,
                             rdp_at, rdp_oracle)
from test_anomaly import auc_pair_counting, majority_oracle
from test_data import knn_oracle


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL criterion {number}: {description} "
              f"[{time.time() - start:.0f}s]")
        raise
    print(f"ACCEPTANCE PASS criterion {number}: {description} "
          f"[{time.time() - start:.0f}s]")


def random_small_model(rng):
    model = build_maf(int(rng.integers(1, 6)), n_blocks=int(rng.integers(1, 4)),
                      hidden=int(rng.integers(4, 17)),
                      actnorm=bool(rng.integers(2)),
                      seed=int(rng.integers(1 << 31)))
    model.set_flat(rng.normal(0.0, 0.4, model.n_params))
    for layer in model.layers:
        if isinstance(layer, ActNormLayer):
            layer.w[...] = np.abs(layer.w) + 0.5
    return model


@pytest.mark.slow
def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic per-example gradients match central finite "
                      "differences (rel < 1e-5) on 100 random small models"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            model = random_small_model(rng)
            flat = model.get_flat()
            x = rng.normal(size=model.dim)
            grad = model.clipped_grad_sum(x[None], np.inf)[1]
            h = 1e-5
            for j in range(model.n_params):
                bumped = flat.copy()
                bumped[j] += h
                model.set_flat(bumped)
                hi = -model.log_prob(x)
                bumped[j] -= 2 * h
                model.set_flat(bumped)
                lo = -model.log_prob(x)
                fd = (hi - lo) / (2 * h)
                rel = abs(grad[j] - fd) / max(1.0, abs(grad[j]), abs(fd))
                worst = max(worst, rel)
            model.set_flat(flat)
        assert worst < 1e-5, f"worst relative error {worst}"


@pytest.mark.slow
def test_criterion_2_flow_invariants():
    with criterion(2, "invertibility < 1e-8, log-det vs numerical Jacobian "
                      "< 1e-4, 1-D density integrates to 1 +- 1e-3"):
        rng = np.random.default_rng(77)
        # Round-trip invertibility on random stacks of every dimension.
        for _ in range(20):
            model = random_small_model(rng)
            x = rng.normal(size=(50, model.dim))
            z = model.transform_to_base(x)
            back = z
            for layer in reversed(model.layers):
                back, _ = layer.inverse(back)
            assert np.abs(back - x).max() < 1e-8

        # Analytic log-det vs a full-stack numerical Jacobian (D <= 4).
        for _ in range(10):
            model = random_small_model(rng)
            if model.dim > 4:
                continue
            x = rng.normal(size=model.dim)
            base_lp = model.base.log_prob(model.transform_to_base(x)[None])[0]
            analytic = model.log_prob(x) - base_lp
            h = 1e-6
            jac = np.empty((model.dim, model.dim))
            for j in range(model.dim):
                hi, lo = x.copy(), x.copy()
                hi[j] += h
                lo[j] -= h
                jac[:, j] = (model.transform_to_base(hi)
                             - model.transform_to_base(lo)) / (2 * h)
            numeric = math.log(abs(np.linalg.det(jac)))
            assert abs(analytic - numeric) / max(1.0, abs(analytic)) < 1e-4

        # Normalization of a random 1-D model by trapezoidal quadrature.
        for _ in range(3):
            model = build_maf(1, n_blocks=2, hidden=8,
                              seed=int(rng.integers(1 << 31)))
            model.set_flat(rng.normal(0.0, 0.25, model.n_params))
            xs = np.arange(-20.0, 20.0 + 1e-3, 1e-3)[:, None]
            integral = np.trapezoid(np.exp(model.log_prob(xs)), dx=1e-3)
            assert abs(integral - 1.0) < 1e-3


@pytest.mark.slow
def test_criterion_3_accountant_fidelity():
    with criterion(3, "RDP matches high-precision oracle to 1e-6 rel, GDP "
                      "round-trips to 1e-9, GDP below RDP on the reference "
                      "training parameters"):
        rng = np.random.default_rng(31)
        for _ in range(60):
            alpha = int(rng.integers(2, 65))
            q = float(rng.uniform(1e-4, 0.05))
            sigma = float(rng.uniform(0.5, 10.0))
            t = int(rng.integers(1, 100_001))
            got = t * rdp_at(alpha, q, sigma)
            want = t * rdp_oracle(alpha, q, sigma)
            assert abs(got - want) / want < 1e-6

        for _ in range(40):
            mu = float(rng.uniform(0.05, 4.0))
            delta = float(10 ** rng.uniform(-10, -2))
            if acc.gdp_delta_for_eps(mu, 0.0) <= delta:
                continue
            eps, ok = acc.gdp_eps_for_delta(mu, delta)
            assert ok
            assert abs(acc.gdp_delta_for_eps(mu, eps) - delta) < 1e-9
            # and the reverse direction: eps(delta(eps)) recovers eps
            eps0 = float(rng.uniform(0.01, 5.0))
            delta0 = acc.gdp_delta_for_eps(mu, eps0)
            if 0.0 < delta0 < acc.gdp_delta_for_eps(mu, 0.0):
                back, _ = acc.gdp_eps_for_delta(mu, delta0)
                assert abs(back - eps0) < 1e-9

        q = 100 / 21384
        for t in (10 ** 3, 10 ** 4, 10 ** 5):
            rdp = acc.Accountant("rdp", q, 2.1, 1e-4).eps(t)
            gdp = acc.Accountant("gdp", q, 2.1, 1e-4).eps(t)
            assert gdp < rdp, f"t={t}: gdp {gdp} not below rdp {rdp}"


@pytest.mark.slow
def test_criterion_4_mechanism_distributions():
    with criterion(4, "Gaussian/Laplace empirical moments within 3% over 1e5 "
                      "draws; exponential-mechanism frequencies within 3 "
                      "binomial sigma for 20 triples"):
        out = gaussian_mechanism(np.zeros(100_000), 1.0, 1.0, 1e-5, seed=3)
        sigma = gaussian_mechanism_sigma(1.0, 1.0, 1e-5)
        assert abs(np.std(out) - sigma) / sigma < 0.03
        assert abs(np.mean(out)) < 3 * sigma / math.sqrt(100_000)

        lap = acc.laplace_noise(np.zeros(100_000), 2.0, seed=4)
        assert abs(np.var(lap) - 8.0) / 8.0 < 0.03

        rng = np.random.default_rng(21)
        n = 10_000
        for trial in range(20):
            k = int(rng.integers(1, 20))
            c = int(rng.integers(0, k + 1))
            eps = float(rng.uniform(0.0, 3.0))
            p = 1 / (1 + math.exp(-eps * (2 * c - k) / 2))
            seq = np.random.SeedSequence([0, trial]).spawn(n)
            freq = np.mean([acc.exp_mech_binary(c, k, eps, s) for s in seq])
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 3 * se + 1e-9


HALF_MOONS_CONFIG = dict(learning_rate=3e-4, batch_size=64,
                         noise_multiplier=0.8, clip_norm=300.0,
                         delta=3.7e-5, optimizer="adam", eval_every=50_000)


def train_on_split(X_all, seed, epsilon, accountant, base_kind="spherical"):
    rng = np.random.default_rng(1000 + seed)
    perm = rng.permutation(X_all.shape[0])
    n_test = X_all.shape[0] // 10
    test, train = X_all[perm[:n_test]], X_all[perm[n_test:]]
    model = build_maf(2, n_blocks=5, hidden=64, seed=seed)
    if base_kind == "gmm":
        latent = model.transform_to_base(train)
        params, _ = gmm_fit_em(latent, 5, n_iters=100, seed=seed)
        model.base = GmmBase(params)
    config = TrainConfig(epsilon=epsilon, accountant=accountant, seed=seed,
                         **HALF_MOONS_CONFIG)
    model, report = train_dp_nf(train, model, config)
    assert report.final_epsilon < epsilon
    return float(np.mean(model.log_prob(test)))


@pytest.mark.slow
def test_criterion_5_half_moons_training():
    with criterion(5, "half-moons, GDP accountant, eps=3.0, delta=3.7e-5: "
                      "mean held-out log-likelihood >= -2.60 over 3 seeds"):
        lls = []
        for seed in range(3):
            X = standardize(gen_half_moons(30_000, seed=100 + seed)).X
            ll = train_on_split(X, seed, epsilon=3.0, accountant="gdp")
            print(f"  seed {seed}: held-out log-likelihood {ll:.4f}")
            lls.append(ll)
        mean_ll = float(np.mean(lls))
        print(f"  mean held-out log-likelihood {mean_ll:.4f}")
        assert mean_ll >= -2.60


@pytest.mark.slow
def test_criterion_6_gmm_prior_ordering():
    with criterion(6, "pinwheel at matched eps=4.5 (moments accounting): "
                      "5-component EM-fit mixture base beats the spherical "
                      "base by >= 0.2 nats test NLL over 3 seeds"):
        gaps = []
        for seed in range(3):
            X = standardize(gen_pinwheel(30_000, seed=200 + seed)).X
            ll_sph = train_on_split(X, seed, epsilon=4.5, accountant="rdp",
                                    base_kind="spherical")
            ll_gmm = train_on_split(X, seed, epsilon=4.5, accountant="rdp",
                                    base_kind="gmm")
            gap = (-ll_sph) - (-ll_gmm)  # NLL difference
            print(f"  seed {seed}: NLL spherical {-ll_sph:.4f}, "
                  f"mixture base {-ll_gmm:.4f}, gap {gap:.4f}")
            gaps.append(gap)
        mean_gap = float(np.mean(gaps))
        print(f"  mean NLL gap {mean_gap:.4f}")
        assert mean_gap >= 0.2


@pytest.mark.slow
def test_criterion_7_dp_ad_behavior():
    with criterion(7, "k=10 ensemble on half-moons + tail anomalies: "
                      "query frequencies match the vote formula (3 sigma) "
                      "and eps=1e6 accuracy equals majority voting exactly"):
        X_all = standardize(gen_half_moons(30_000, seed=400)).X
        rng = np.random.default_rng(401)
        perm = rng.permutation(30_000)
        test, train = X_all[perm[:6000]], X_all[perm[6000:]]
        anomalies = gen_tail_anomalies(test, 6000, seed=402)
        queries = np.vstack([test, anomalies])
        labels = np.concatenate([np.ones(6000, dtype=bool),
                                 np.zeros(6000, dtype=bool)])

        detector = build_ensemble(train, 10, n_blocks=5, hidden=32,
                                  train_steps=1200, seed=403)
        scores = detector.scores(queries)
        detector.fit_threshold(scores, labels)
        votes = detector.votes(scores)

        # (a) frequencies at fixed votes match the formula within 3 sigma
        fixed_c = int(votes[np.argmin(np.abs(votes - 7))])
        n = 10_000
        for eps in (0.3, 1.0, 3.0):
            p = 1 / (1 + math.exp(-eps * (2 * fixed_c - 10) / 2))
            seq = np.random.SeedSequence([404, int(eps * 10)]).spawn(n)
            freq = np.mean([acc.exp_mech_binary(fixed_c, 10, eps, s)
                            for s in seq])
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 3 * se + 1e-9, (eps, fixed_c, freq, p)

        # (b) at eps=1e6 the private label equals majority voting (with the
        # mechanism's own fair coin at exact ties), so accuracies match
        private = acc.exp_mech_binary(votes, 10, 1e6, 405)
        majority = majority_oracle(votes, 10, 405)
        np.testing.assert_array_equal(private, majority)
        acc_private = float(np.mean(private == labels))
        acc_majority = float(np.mean(majority == labels))
        print(f"  ensemble accuracy at eps=1e6: {acc_private:.4f} "
              f"(ties in votes: {int(np.sum(votes == 5))})")
        assert acc_private == acc_majority
        assert acc_private > 0.5  # the detector does better than chance


@pytest.mark.slow
def test_criterion_8_evaluation_utilities():
    with criterion(8, "kNN equals brute force (n <= 50), ROC AUC equals "
                      "pair counting on 100 score sets, PCA orthonormality "
                      "< 1e-10"):
        rng = np.random.default_rng(88)
        for _ in range(30):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 5))
            train = rng.normal(size=(n, d))
            test = rng.normal(size=(int(rng.integers(1, 15)), d))
            k = int(rng.integers(1, min(6, n + 1)))
            assert knn_regress_mse(Dataset(train), Dataset(test), k=k) \
                == pytest.approx(knn_oracle(train, test, k), rel=1e-12)

        for _ in range(100):
            n = int(rng.integers(4, 120))
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc(scores, labels).auc \
                == pytest.approx(auc_pair_counting(scores, labels), rel=1e-12)

        for _ in range(10):
            n = int(rng.integers(10, 200))
            d = int(rng.integers(2, 8))
            comps = int(rng.integers(1, d + 1))
            _, basis = pca_project(Dataset(rng.normal(size=(n, d))),
                                   components=comps)
            err = np.abs(basis @ basis.T - np.eye(comps)).max()
            assert err < 1e-10

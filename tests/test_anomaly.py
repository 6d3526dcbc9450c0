import math
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpflow import anomaly
from dpflow.accounting import exp_mech_binary
from dpflow.anomaly import (EnsembleDetector, build_ensemble,
                            gen_tail_anomalies, partition_indices, roc,
                            select_threshold)
from dpflow.errors import ConfigurationError, TrainingInstabilityError
from dpflow.flows import build_maf
from dpflow.training import train_flow


def identity_model(dim=2):
    model = build_maf(dim, n_blocks=1, hidden=4, seed=0)
    model.set_flat(np.zeros(model.n_params))
    return model


def votes_oracle(models, queries, threshold):
    """Per-point vote counts: one single-row log_prob call per member and
    query, with the strict rule log p(x) > threshold."""
    return np.array([sum(int(m.log_prob(x) > threshold) for m in models)
                     for x in queries])


def majority_oracle(votes, k, seed):
    """Non-private majority label per vote count. An exact tie takes the
    fair coin the exponential mechanism draws at that position of its
    stream (rng.random() < 0.5), so it equals the mechanism at huge eps."""
    votes = np.asarray(votes)
    coin = np.random.default_rng(seed).random(votes.shape) < 0.5
    return np.where(2 * votes == k, coin, 2 * votes > k)


class TestThresholdClassify:
    """The single-model rule "in iff log p(x) > T", as a one-member vote."""

    def test_infinite_thresholds(self):
        model = identity_model()
        x = np.array([0.3, -0.4])
        for t, want in [(-np.inf, 1), (np.inf, 0)]:
            det = EnsembleDetector([model], t)
            assert det.votes(det.scores(x)) == want

    def test_identity_flow_origin(self):
        # log p(0) = -log(2 pi) ~ -1.8379 > -2
        for t, want in [(-2.0, 1), (-1.5, 0)]:
            det = EnsembleDetector([identity_model()], t)
            assert det.votes(det.scores(np.zeros(2))) == want


def random_members(k, seed):
    members = []
    for i in range(k):
        model = build_maf(2, n_blocks=2, hidden=8, seed=seed + i)
        rng = np.random.default_rng(seed + i)
        model.set_flat(0.3 * rng.normal(size=model.n_params))
        members.append(model)
    return members


class TestEnsembleVotes:
    def test_batch_matches_per_point_oracle(self):
        rng = np.random.default_rng(13)
        members = random_members(5, seed=20) + [identity_model()]
        queries = rng.normal(size=(200, 2)) * 1.5
        scores = EnsembleDetector(members, 0.0).scores(queries)
        assert scores.shape == (6, 200)
        for j, member in enumerate(members):
            assert scores[j].tobytes() == member.log_prob(queries).tobytes()
        # Thresholds sitting exactly on member scores: those members vote
        # "out" for that row, since the rule is a strict ">".
        for t in [scores[0, 0], scores[5, 7], np.median(scores), -np.inf,
                  np.inf]:
            det = EnsembleDetector(members, float(t))
            votes = det.votes(scores)
            assert votes.shape == (200,)
            np.testing.assert_array_equal(
                votes, votes_oracle(members, queries, t))
        det = EnsembleDetector(members, float(scores[0, 0]))
        assert det.votes(scores)[0] == np.sum(scores[:, 0] > scores[0, 0])
        point = det.scores(queries[0])
        assert point.shape == (6,)
        assert det.votes(point) == det.votes(scores)[0]

    def test_ties_at_identity_flow_scores(self):
        # The identity flow scores exactly: log p(x) = -log(2 pi) - |x|^2/2.
        queries = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [2.0, 0.0]])
        t = -math.log(2 * math.pi) - 0.5
        members = [identity_model() for _ in range(3)]
        assert members[0].log_prob(queries[1]) == t  # an exact tie
        det = EnsembleDetector(members, t)
        votes = det.votes(det.scores(queries))
        np.testing.assert_array_equal(votes, [3, 0, 0, 0])
        np.testing.assert_array_equal(votes,
                                      votes_oracle(members, queries, t))

    def test_fit_threshold_pools_member_scores(self, monkeypatch):
        """The search is looked up in ``dpflow.anomaly`` at call time and
        gets the member-major pooled scores as its first positional
        argument, where a tracer that wraps it counts the candidates."""
        from dpflow import anomaly
        calls = []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return select_threshold(*args, **kwargs)
        monkeypatch.setattr(anomaly, "select_threshold", recorded)
        rng = np.random.default_rng(14)
        members = random_members(4, seed=30)
        queries = rng.normal(size=(60, 2))
        labels = np.repeat([1, 0], 30)
        det = EnsembleDetector(members, 0.0)
        det.fit_threshold(det.scores(queries), labels)
        pooled = np.concatenate([m.log_prob(queries) for m in members])
        want, _ = select_threshold(pooled, np.tile(labels, 4))
        assert det.threshold == want
        (args, kwargs), = calls
        assert args[0].tobytes() == pooled.tobytes() and kwargs == {}


def threshold_oracle(scores, labels):
    """Best accuracy over every cut position for the rule in iff score > T."""
    uniq = np.unique(scores)
    cuts = np.concatenate([[uniq[0] - 1.0], uniq])
    return max(float(np.mean((scores > t).astype(int) == labels))
               for t in cuts)


class TestSelectThreshold:
    def test_perfect_separation(self):
        scores = np.array([1.0, 2.0, 5.0, 6.0])
        labels = np.array([0, 0, 1, 1])
        t, accuracy = select_threshold(scores, labels)
        assert t == pytest.approx(3.5)
        assert accuracy == 1.0

    def test_all_scores_equal(self):
        scores = np.full(10, 2.0)
        labels = np.array([1] * 7 + [0] * 3)
        _, accuracy = select_threshold(scores, labels)
        assert accuracy == pytest.approx(0.7)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 60))
            scores = np.round(rng.normal(size=n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            _, accuracy = select_threshold(scores, labels)
            assert accuracy == pytest.approx(threshold_oracle(scores, labels))

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError):
            select_threshold([1.0, 2.0], [1, 1])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bitwise_equal_to_loop_oracle(self, values, data):
        # Draw scores from a small pool so that ties are common, and labels
        # that hold both classes.
        picks = data.draw(st.lists(st.integers(0, len(values) - 1),
                                   min_size=2, max_size=80))
        scores = np.array([values[i] for i in picks])
        labels = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=len(scores), max_size=len(scores))))
        labels[0], labels[1] = 0, 1
        assert_same_as_oracle(scores, labels)

    def test_midpoint_rounding_onto_a_score(self):
        # The midpoint of two adjacent floats rounds onto one of them.
        a = 1.0
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) in (a, b)
        for labels in ([0, 1], [1, 0], [1, 1, 0], [0, 0, 1]):
            scores = np.array([a, b, a, b][:len(labels)])
            assert_same_as_oracle(scores, np.array(labels))
        assert_same_as_oracle(np.array([-b, -a, a, b, 0.0]),
                              np.array([0, 1, 0, 1, 1]))

    def test_large_pooled_scores(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.normal(size=3000), 3)
        labels = (rng.random(3000) < 0.5 + 0.2 * np.tanh(scores)).astype(int)
        assert_same_as_oracle(scores, labels)


def select_threshold_loop(scores, labels):
    """The O(n^2) reference: every candidate's accuracy from a full pass
    over the scores, scanned in candidate order with ties to the larger
    threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    uniq = np.unique(scores)
    candidates = [uniq[0] - 1.0, uniq[-1]]
    candidates.extend(0.5 * (uniq[:-1] + uniq[1:]))
    best_t, best_acc = None, -1.0
    for t in candidates:
        acc = float(np.mean((scores > t).astype(int) == labels))
        if acc > best_acc or (acc == best_acc and t > best_t):
            best_t, best_acc = float(t), acc
    return best_t, best_acc


def assert_same_as_oracle(scores, labels):
    got = select_threshold(scores, labels)
    want = select_threshold_loop(scores, labels)
    assert type(got[0]) is float and type(got[1]) is float
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


def auc_pair_counting(scores, labels):
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.0, 0.1, 0.9, 1.0], [0, 0, 1, 1])
        assert curve.auc == pytest.approx(1.0)

    def test_uninformative_scores(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=10_000)
        labels = rng.integers(0, 2, size=10_000)
        assert roc(scores, labels).auc == pytest.approx(0.5, abs=0.02)

    def test_hand_case(self):
        curve = roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert curve.auc == pytest.approx(0.75)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(5, 80))
            scores = np.round(rng.normal(size=n), 1)  # force some ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc(scores, labels).auc \
                == pytest.approx(auc_pair_counting(scores, labels), rel=1e-12)

    def test_monotone_curve_with_endpoints(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200)
        curve = roc(scores, labels)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert 0.0 <= curve.auc <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError):
            roc([1.0, 2.0], [1, 1])


class TestTailAnomalies:
    def test_coordinates_inside_bands(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(5000, 3))
        out = gen_tail_anomalies(ref, 2000, seed=6)
        assert out.shape == (2000, 3)
        qs = np.percentile(ref, [5, 30, 70, 95], axis=0)
        for j in range(3):
            col = out[:, j]
            in_lower = (col >= qs[0, j]) & (col <= qs[1, j])
            in_upper = (col >= qs[2, j]) & (col <= qs[3, j])
            assert np.all(in_lower | in_upper)

    def test_band_selection_frequency(self):
        rng = np.random.default_rng(7)
        ref = rng.normal(size=(1000, 2))
        out = gen_tail_anomalies(ref, 10_000, seed=8)
        qs = np.percentile(ref, [5, 30, 70, 95], axis=0)
        for j in range(2):
            upper_rate = np.mean(out[:, j] >= qs[2, j])
            assert abs(upper_rate - 0.5) < 3 * math.sqrt(0.25 / 10_000)

    def test_needs_enough_reference_rows(self):
        with pytest.raises(ConfigurationError):
            gen_tail_anomalies(np.zeros((10, 2)), 5)

    def test_degenerate_dimension_rejected(self):
        ref = np.column_stack([np.arange(30.0), np.full(30, 1.0)])
        with pytest.raises(ConfigurationError):
            gen_tail_anomalies(ref, 5)


class TestPartition:
    def test_exact_sizes(self):
        parts = partition_indices(30_000, 10, seed=0)
        assert [len(p) for p in parts] == [3000] * 10

    def test_disjoint_and_covering(self):
        parts = partition_indices(101, 7, seed=1)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(101))

    def test_changed_example_touches_one_partition(self):
        # The index partition depends only on (n, k, seed), so a changed row
        # lands in exactly one part and shifts at most one vote.
        parts_a = partition_indices(50, 5, seed=2)
        parts_b = partition_indices(50, 5, seed=2)
        for a, b in zip(parts_a, parts_b):
            np.testing.assert_array_equal(a, b)
        touched = [i for i, part in enumerate(parts_a) if 17 in part]
        assert len(touched) == 1


class TestDpAdQuery:
    def detector(self):
        return EnsembleDetector([identity_model() for _ in range(10)],
                                threshold=-2.0)

    def test_huge_eps_unanimous(self):
        det = self.detector()
        # log p ~ -1.84 > -2 for every member
        votes = det.votes(det.scores(np.zeros(2)))
        assert votes == 10
        assert all(exp_mech_binary(votes, det.k, 1e6, seed=s)
                   for s in range(100))
        assert exp_mech_binary(det.votes(det.scores(np.zeros((100, 2)))),
                               det.k, 1e6, seed=0).all()

    def test_eps_zero_fair_coin(self):
        det = self.detector()
        votes = det.votes(det.scores(np.zeros((10_000, 2))))
        draws = exp_mech_binary(votes, det.k, 0.0, seed=0)
        assert draws.shape == (10_000,)
        assert np.mean(draws) == pytest.approx(0.5, abs=0.015)

    def test_fixed_votes_frequency(self):
        p = 1 / (1 + math.exp(-2))  # c=7, k=10, eps=1
        assert p == pytest.approx(0.8808, abs=1e-4)
        n = 10_000
        seq = np.random.SeedSequence(9).spawn(n)
        freq = np.mean([exp_mech_binary(7, 10, 1.0, s) for s in seq])
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_huge_eps_matches_majority_label(self):
        det = self.detector()
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(50, 2)) * 2
        votes = det.votes(det.scores(queries))
        for s in range(50):
            np.testing.assert_array_equal(
                exp_mech_binary(votes, det.k, 1e6, seed=s),
                majority_oracle(votes, det.k, seed=s))
        # Exact ties take the mechanism's own fair coin.
        ties = np.array([0, 5, 5, 10, 5, 4, 6, 5])
        for s in range(50):
            np.testing.assert_array_equal(
                exp_mech_binary(ties, 10, 1e6, seed=s),
                majority_oracle(ties, 10, seed=s))


def ensemble_oracle(X, k, *, n_blocks, hidden, train_steps, seed,
                    batch_size=128):
    """The per-member reference: member j is built from child j of the
    seed and trained alone by its own ``train_flow`` loop on its part, at
    batch size min(batch_size, its part's rows) and the default rate."""
    X = np.asarray(X, dtype=float)
    parts = partition_indices(X.shape[0], k, seed=seed)
    models = []
    for part, child in zip(parts, np.random.SeedSequence(seed).spawn(k)):
        child_seed = child.generate_state(1)[0]
        model = build_maf(X.shape[1], n_blocks=n_blocks, hidden=hidden,
                          seed=child_seed)
        train_flow(X[part], model, train_steps,
                   batch_size=min(batch_size, len(part)), seed=child_seed)
        models.append(model)
    return models


class TestBuildEnsemble:
    @pytest.mark.parametrize("n, k", [
        (515, 4),    # parts of 129, 129, 129 and 128 rows, all >= 128
        (641, 5),    # parts of 129 and 128 rows
        (400, 4),    # equal parts of 100 rows, fewer than 128
    ])
    def test_members_bitwise_equal_to_per_member_oracle(self, n, k):
        X = np.random.default_rng(n).normal(size=(n, 3))
        kwargs = dict(n_blocks=2, hidden=6, train_steps=15, seed=n + k)
        det = build_ensemble(X, k, **kwargs)
        want = ensemble_oracle(X, k, **kwargs)
        assert det.k == k
        for got, expected in zip(det.models, want):
            assert got.members is None
            assert got.params.tobytes() == expected.params.tobytes()
            assert got.to_json() == expected.to_json()
            assert got.log_prob(X[:9]).tobytes() \
                == expected.log_prob(X[:9]).tobytes()

    def test_small_parts_share_the_smallest_batch(self):
        """With a part smaller than 128 rows, every member takes
        min(128, smallest part) rows per step."""
        X = np.random.default_rng(31).normal(size=(150, 2))  # parts 38, 37
        kwargs = dict(n_blocks=1, hidden=5, train_steps=12, seed=4)
        det = build_ensemble(X, 4, **kwargs)
        want = ensemble_oracle(X, 4, batch_size=37, **kwargs)
        for got, expected in zip(det.models, want):
            assert got.params.tobytes() == expected.params.tobytes()

    # The batch size and learning rate are train_flow's own and are tested
    # there; build_ensemble still passes on its step count and width.
    @pytest.mark.parametrize("bad", [
        dict(train_steps=-1), dict(hidden=0), dict(train_steps=-50),
        dict(hidden=-3), dict(n_blocks=0), dict(n_blocks=-1)])
    def test_bad_training_sizes_rejected(self, bad):
        X = np.random.default_rng(32).normal(size=(40, 2))
        kwargs = dict(n_blocks=1, hidden=4, train_steps=2, seed=0)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            build_ensemble(X, 2, **kwargs)

    def test_small_end_to_end(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(400, 2))
        det = build_ensemble(X, 4, n_blocks=1, hidden=8, train_steps=20,
                             seed=0)
        assert det.k == 4
        assert det.threshold == 0.0
        det.threshold = -4.0
        votes = det.votes(det.scores(np.zeros(2)))
        assert 0 <= votes <= 4

    def test_k1_reduces_to_single_model_classifier(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 2))
        det = build_ensemble(X, 1, n_blocks=1, hidden=8, train_steps=10,
                             seed=1)
        det.threshold = -3.0
        queries = rng.normal(size=(20, 2))
        want = [det.models[0].log_prob(x) > -3.0 for x in queries]
        votes = det.votes(det.scores(queries))
        for s in range(20):
            np.testing.assert_array_equal(
                exp_mech_binary(votes, 1, 1e6, seed=s), want)

    def test_insufficient_data(self):
        with pytest.raises(ConfigurationError):
            build_ensemble(np.zeros((5, 2)), 5, train_steps=1)


# TestBuildEnsemble's cases as (data seed, rows, k, build_ensemble settings,
# oracle batch size), among them k = 5 (groups of 3 and 2 in two
# processes) and parts of 38 and 37 rows (a shared batch of 37).
ENSEMBLE_CASES = [
    (515, (515, 3), 4, dict(n_blocks=2, hidden=6, train_steps=15, seed=519),
     128),
    (641, (641, 3), 5, dict(n_blocks=2, hidden=6, train_steps=15, seed=646),
     128),
    (400, (400, 3), 4, dict(n_blocks=2, hidden=6, train_steps=15, seed=404),
     128),
    (31, (150, 2), 4, dict(n_blocks=1, hidden=5, train_steps=12, seed=4), 37),
]


@pytest.fixture
def no_child_left():
    """After the test, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def process_state(pid):
    """The state letter of process ``pid`` (``Z`` for a zombie), or None
    once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(anomaly, "_ensemble_workers", lambda k: workers)


class PickleFails(ValueError):
    """An error that pickle cannot write: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class RebuildFails(ValueError):
    """An error that pickle writes but cannot rebuild: its constructor
    takes an argument that ``args`` does not keep."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def fail_in(where, error):
    """A ``train_flow`` that raises ``error`` in the parent or in a forked
    child (``where``) and trains as usual in the other."""
    parent = os.getpid()

    def train(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise error
        return train_flow(*args, **kwargs)

    return train


@pytest.mark.usefixtures("no_child_left")
class TestForkedEnsemble:
    """``build_ensemble`` trains its members in W processes with the bytes
    of one process, and leaves no process behind."""

    @pytest.mark.parametrize("workers", [1, 2, 3, "k+2"])
    @pytest.mark.parametrize("data_seed, shape, k, kwargs, batch",
                             ENSEMBLE_CASES)
    def test_members_bitwise_equal_for_every_worker_count(
            self, monkeypatch, forks, data_seed, shape, k, kwargs, batch,
            workers):
        if workers == "k+2":
            # More usable CPUs than members: the helper caps W at k.
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(k + 2)), raising=False)
            assert anomaly._ensemble_workers(k) == k
            workers = k
        else:
            use_workers(monkeypatch, workers)
        X = np.random.default_rng(data_seed).normal(size=shape)
        det = build_ensemble(X, k, **kwargs)
        want = ensemble_oracle(X, k, batch_size=batch, **kwargs)
        assert len(forks) == workers - 1
        assert det.k == k and det.threshold == 0.0
        for got, expected in zip(det.models, want):
            assert got.members is None
            assert got.params.tobytes() == expected.params.tobytes()

    def test_child_error_reraised_with_type_and_message(self, monkeypatch,
                                                        forks):
        use_workers(monkeypatch, 3)
        monkeypatch.setattr(anomaly, "train_flow", fail_in(
            "child", TrainingInstabilityError("member gradient is nan")))
        X = np.random.default_rng(5).normal(size=(120, 2))
        with pytest.raises(TrainingInstabilityError) as info:
            build_ensemble(X, 3, n_blocks=1, hidden=4, train_steps=3)
        assert type(info.value) is TrainingInstabilityError
        assert str(info.value) == "member gradient is nan"
        assert len(forks) == 2

    @pytest.mark.parametrize("error, text", [
        (PickleFails("bad member"), "PickleFails: bad member"),
        (RebuildFails("bad member", 7), "RebuildFails: bad member"),
    ], ids=["pickle", "rebuild"])
    def test_unsendable_child_error_keeps_type_name_and_message(
            self, monkeypatch, error, text):
        use_workers(monkeypatch, 2)
        monkeypatch.setattr(anomaly, "train_flow", fail_in("child", error))
        X = np.random.default_rng(6).normal(size=(80, 2))
        with pytest.raises(ChildProcessError, match=f"^{text}$"):
            build_ensemble(X, 2, n_blocks=1, hidden=4, train_steps=3)

    def test_parent_error_kills_and_reaps_child(self, monkeypatch, forks):
        """The parent's own group fails at once while the child would train
        for a minute: the child is killed, not waited for."""
        parent = os.getpid()

        def train(*args, **kwargs):
            if os.getpid() == parent:
                raise ConfigurationError("parent group failed")
            time.sleep(60)
            return train_flow(*args, **kwargs)

        use_workers(monkeypatch, 2)
        monkeypatch.setattr(anomaly, "train_flow", train)
        X = np.random.default_rng(7).normal(size=(80, 2))
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match="parent group failed"):
            build_ensemble(X, 2, n_blocks=1, hidden=4, train_steps=3)
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(forks[0], 0)

    @pytest.mark.parametrize("death, status", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit", "killed"])
    def test_child_death_without_result(self, monkeypatch, death, status):
        parent = os.getpid()

        def train(*args, **kwargs):
            if os.getpid() != parent:
                death()
            return train_flow(*args, **kwargs)

        use_workers(monkeypatch, 2)
        monkeypatch.setattr(anomaly, "train_flow", train)
        X = np.random.default_rng(8).normal(size=(80, 2))
        with pytest.raises(ChildProcessError, match=status):
            build_ensemble(X, 2, n_blocks=1, hidden=4, train_steps=3)

    def test_child_killed_while_sending_its_error(self, monkeypatch):
        """A cut-off error reply from a killed child is not unpickled: the
        child ended without a result."""
        def killed(code):
            os.kill(os.getpid(), signal.SIGKILL)

        use_workers(monkeypatch, 2)
        monkeypatch.setattr(anomaly, "train_flow",
                            fail_in("child", ValueError("bad member")))
        monkeypatch.setattr(anomaly, "_pickle_error",
                            lambda exc: pickle.dumps(exc)[:5])
        monkeypatch.setattr(os, "_exit", killed)
        X = np.random.default_rng(10).normal(size=(80, 2))
        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            build_ensemble(X, 2, n_blocks=1, hidden=4, train_steps=3)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_orphaned_worker_exits_at_its_pipe_write(self):
        """A worker whose parent dies before reading the reply fails its
        pipe write (EPIPE) and exits within seconds. The middle process
        forks the worker, reports its pid and dies; the worker waits until
        it is orphaned, then sends its reply."""
        report_r, report_w = os.pipe()
        middle = os.fork()
        if middle == 0:
            code = 1
            try:
                os.close(report_r)
                parent = os.getpid()

                def run():
                    deadline = time.monotonic() + 30
                    while os.getppid() == parent \
                            and time.monotonic() < deadline:
                        time.sleep(0.01)
                    return np.zeros(4)

                worker, _ = anomaly._fork_worker(run, [report_w])
                os.write(report_w, str(worker).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(report_w)
        with open(report_r, "rb") as fh:
            worker = int(fh.read())
        assert os.waitstatus_to_exitcode(os.waitpid(middle, 0)[1]) == 0
        try:
            deadline = time.monotonic() + 10
            while process_state(worker) not in (None, "Z"):
                assert time.monotonic() < deadline, "orphaned worker runs on"
                time.sleep(0.05)
        finally:
            if process_state(worker) is not None:
                os.kill(worker, signal.SIGKILL)
            try:  # a child only where this process adopts orphans
                os.waitpid(worker, 0)
            except ChildProcessError:
                pass

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        def fork():
            raise AssertionError("forked with a second thread alive")

        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert anomaly._ensemble_workers(4) == 1
            X = np.random.default_rng(9).normal(size=(160, 2))
            kwargs = dict(n_blocks=1, hidden=4, train_steps=5, seed=2)
            det = build_ensemble(X, 4, **kwargs)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        for got, expected in zip(det.models, ensemble_oracle(X, 4, **kwargs)):
            assert got.params.tobytes() == expected.params.tobytes()


class TestEnsembleWorkers:
    @pytest.mark.parametrize("k, cpus, want", [
        (10, 2, 2), (1, 2, 1), (3, 8, 3), (10, 1, 1)])
    def test_one_per_usable_cpu_at_most_k(self, monkeypatch, k, cpus, want):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert anomaly._ensemble_workers(k) == want

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert anomaly._ensemble_workers(10) == 3

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        assert anomaly._ensemble_workers(10) == 1

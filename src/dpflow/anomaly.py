"""Likelihood-threshold anomaly detection and the private voting ensemble.

A single model classifies a point as in-distribution when its log-density
exceeds a threshold. The private variant partitions the data and trains one
non-private flow per part (``build_ensemble``); ``EnsembleDetector`` scores
the queries once per member (``scores``), fits one threshold on those
scores pooled over labelled queries and counts, per query row, the members
that vote "in". The caller releases each label from those counts with the
binary exponential mechanism (``accounting.exp_mech_binary``, vectorised
over the counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .flows import FlowModel, build_maf
from .training import train_flow

# Lower and upper tail bands of gen_tail_anomalies, as percentile pairs.
TAIL_PERCENTILES = (5.0, 30.0, 70.0, 95.0)


def select_threshold(scores, labels):
    """Pick the accuracy-maximizing cut for the rule "in iff score > T".

    Candidates are midpoints between adjacent sorted unique scores plus the
    two all-in / all-out extremes; ties break toward the larger threshold.
    Each candidate's correct count comes from binary searches of its value
    in the sorted scores of each class, so the search is O(n log n).
    Returns (threshold, accuracy). Labels: 1 = in-distribution.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(set(labels.tolist())) < 2:
        raise ConfigurationError("both classes must be present")
    uniq = np.unique(scores)
    candidates = np.concatenate([[uniq[0] - 1.0, uniq[-1]],
                                 0.5 * (uniq[:-1] + uniq[1:])])
    # Search on candidate values, not positions in uniq: a midpoint that
    # rounds onto a neighbouring score must still count it as "out".
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    correct = (pos.size - np.searchsorted(pos, candidates, side="right")
               + np.searchsorted(neg, candidates, side="right"))
    best = np.flatnonzero(correct == correct.max())
    # np.argmax keeps the first of equal values, as a strict ">" scan would.
    i = best[np.argmax(candidates[best])]
    return float(candidates[i]), int(correct[i]) / scores.size


@dataclass
class RocCurve:
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc(scores, labels) -> RocCurve:
    """Threshold sweep over the unique scores; AUC by the trapezoid rule.

    Positive class (label 1) is predicted when score > threshold, so the
    curve starts at (0, 0) for threshold +inf and ends at (1, 1).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("both classes must be present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1)
    fp = np.cumsum(sorted_labels == 0)
    # Keep one point per distinct score (the last index of each run).
    distinct = np.flatnonzero(np.diff(sorted_scores, append=np.nan))
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct]])
    tpr = np.concatenate([[0.0], tp[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fp[distinct] / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(thresholds, fpr, tpr, auc)


def gen_tail_anomalies(reference, count: int, seed=0) -> np.ndarray:
    """Uniform draws from the per-dimension tail bands of a reference sample
    (``TAIL_PERCENTILES``: between the 5th-30th and 70th-95th percentiles);
    the band is chosen by a fair coin per coordinate."""
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    n, d = reference.shape
    if n < 20:
        raise ConfigurationError("need at least 20 reference rows")
    rng = np.random.default_rng(seed)
    qs = np.percentile(reference, TAIL_PERCENTILES, axis=0)  # (4, D)
    if np.any(reference.max(axis=0) == reference.min(axis=0)):
        raise ConfigurationError("degenerate dimension: all values equal")
    pick_upper = rng.random((count, d)) < 0.5
    lo = np.where(pick_upper, qs[2], qs[0])
    hi = np.where(pick_upper, qs[3], qs[1])
    return lo + rng.random((count, d)) * (hi - lo)


@dataclass
class EnsembleDetector:
    models: list
    threshold: float

    @property
    def k(self) -> int:
        return len(self.models)

    def scores(self, queries) -> np.ndarray:
        """Member log-densities of the queries: (k, n) for a batch (n, D),
        (k,) for one point (D,). One log_prob call per member."""
        return np.array([m.log_prob(queries) for m in self.models])

    def fit_threshold(self, scores, labels) -> None:
        """Set the threshold to the accuracy-maximizing cut for the
        ``scores`` of labelled queries, pooled over members (member-major,
        with the labels tiled k times). Labels: 1 = in-distribution."""
        self.threshold, _ = select_threshold(np.ravel(scores),
                                             np.tile(labels, self.k))

    def votes(self, scores):
        """Per query, the number of members whose score strictly exceeds
        the threshold: an int array for (k, n) scores, an integer for
        (k,)."""
        return (scores > self.threshold).sum(axis=0)


def partition_indices(n: int, k: int, seed=0):
    """Seeded shuffle then contiguous split into k near-equal parts.

    Equal-size parts keep the vote sensitivity of one changed example at 1.
    """
    if k < 1 or k > n:
        raise ConfigurationError("need 1 <= k <= n")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, k)


def build_ensemble(X, k: int, *, n_blocks: int = 5, hidden: int = 64,
                   train_steps: int = 1000, seed=0) -> EnsembleDetector:
    """Train one non-private flow per data partition.

    The k members, each built and seeded from its own child of ``seed``,
    train as one stacked model (``FlowModel.stack``) in a single
    ``train_flow`` loop at its default rate, at batch size min(128,
    smallest part), and are returned as k plain models under threshold 0
    (``fit_threshold`` sets it). A negative step count raises
    ConfigurationError (from ``train_flow``).
    """
    X = np.asarray(X, dtype=float)
    parts = partition_indices(X.shape[0], k, seed=seed)
    min_size = min(len(p) for p in parts)
    if min_size < 2:
        raise ConfigurationError("insufficient data per partition")
    seeds = [child.generate_state(1)[0]
             for child in np.random.SeedSequence(seed).spawn(k)]
    stacked = FlowModel.stack(
        build_maf(X.shape[1], n_blocks=n_blocks, hidden=hidden, seed=s)
        for s in seeds)
    train_flow([X[part] for part in parts], stacked, train_steps, seed=seeds)
    return EnsembleDetector([stacked.member(j) for j in range(k)], 0.0)

"""Scoring, thresholding, voting and metric tests.

The metric oracle is an independent brute-force confusion loop; the vote
properties are exercised on seeded random fixtures.
"""

import dataclasses
import math

import numpy as np
import pytest

from pumpwatch.detect import (Metrics, Threshold, calibrate_threshold,
                              classify, evaluate, make_score)
from pumpwatch.errors import CalibrationError, ShapeError, UsageError


# ---------------------------------------------------------------- scoring

def test_make_score_takes_mean():
    scores = make_score([[1.0, 2.0, 6.0], [0.5, 0.5, 2.0]])
    assert scores.tolist() == [3.0, 1.0]
    with pytest.raises(UsageError):
        make_score(np.zeros((2, 0)))
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    # only a (samples, windows) matrix: one sample's (windows,) vector is refused
    for errs in ([1.0, 2.0, 6.0], [], np.zeros((2, 3, 4))):
        with pytest.raises(ShapeError):
            make_score(errs)
        with pytest.raises(ShapeError):
            classify(errs, th)


# ---------------------------------------------------------------- threshold

def test_calibrate_hand_case():
    th = calibrate_threshold([1.0, 2.0, 3.0])
    assert th.mean == 2.0
    assert abs(th.std - math.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(th.value - (2.0 + math.sqrt(2.0 / 3.0))) < 1e-12
    assert th.calibration_count == 3


def test_calibrate_constant_errors():
    th = calibrate_threshold([0.25] * 10)
    assert th.value == 0.25 and th.std == 0.0


def test_calibrate_preconditions():
    with pytest.raises(CalibrationError):
        calibrate_threshold([1.0])
    with pytest.raises(CalibrationError):
        calibrate_threshold([])
    with pytest.raises(CalibrationError):
        calibrate_threshold([1.0, float("nan")])
    with pytest.raises(CalibrationError):
        calibrate_threshold([1.0, -0.5])


def test_calibrate_uses_population_std():
    errors = [0.0, 1.0, 2.0, 5.0]
    th = calibrate_threshold(errors)
    mean = sum(errors) / 4
    var = sum((e - mean) ** 2 for e in errors) / 4  # divisor N, not N-1
    assert abs(th.std - math.sqrt(var)) < 1e-12


def test_calibrate_matches_the_per_element_reference_bit_for_bit():
    # a per-element reference: each error a Python float, squared one at a time
    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 1000, 57600):
        errors = rng.gamma(1.5, 0.3, size=n)
        for given in (errors, errors.reshape(-1, 16) if n % 16 == 0 else errors[:, None],
                      errors.astype(np.float32)):
            ref = [float(e) for e in np.ravel(given)]
            mean = float(np.mean(ref))
            std = float(np.sqrt(np.mean([(e - mean) ** 2 for e in ref])))
            assert calibrate_threshold(given) == Threshold(mean + std, mean, std, n)


# ---------------------------------------------------------------- voting

def _errors_with(above, below, threshold=1.0):
    """A one-sample (1, windows) error matrix."""
    return [[threshold + 1.0] * above + [threshold - 0.5] * below]


def test_majority_vote_flags():
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    votes, flagged = classify(_errors_with(9, 7), th)
    assert flagged.tolist() == [True]
    assert votes.tolist() == [9]


def test_tie_vote_flags_anomalous():
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    assert classify(_errors_with(8, 8), th)[1].tolist() == [True]


def test_minority_vote_stays_healthy():
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    assert classify(_errors_with(0, 16), th)[1].tolist() == [False]
    assert classify(_errors_with(7, 9), th)[1].tolist() == [False]


def test_vote_is_strictly_above():
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    votes, flagged = classify([[1.0] * 16], th)  # exactly at the threshold
    assert flagged.tolist() == [False]
    assert votes.tolist() == [0]


def test_nan_window_errors_vote_anomalous():
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    nan = float("nan")
    votes, flagged = classify([[nan] * 16], th)
    assert flagged.tolist() == [True]
    assert votes.tolist() == [16]
    # NaN votes join the strictly-above votes; the majority rule is unchanged
    votes, flagged = classify([[nan] * 4 + [2.0] * 4 + [0.5] * 8,
                               [nan] * 7 + [0.5] * 9], th)
    assert flagged.tolist() == [True, False]
    assert votes.tolist() == [8, 7]


def test_classify_rejects_empty():
    th = Threshold(value=1.0, mean=1.0, std=0.0, calibration_count=2)
    with pytest.raises(UsageError):
        classify(np.zeros((1, 0)), th)


def test_votes_monotone_in_threshold():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        errors = rng.uniform(0, 2, size=(1, rng.integers(1, 20)))
        t1, t2 = sorted(rng.uniform(0, 2, size=2))
        v1, _ = classify(errors, Threshold(t1, t1, 0.0, 2))
        v2, _ = classify(errors, Threshold(t2, t2, 0.0, 2))
        assert v2[0] <= v1[0]


def test_classify_permutation_invariant():
    rng = np.random.default_rng(1)
    errors = rng.uniform(0, 2, size=16)
    th = Threshold(0.9, 0.9, 0.0, 2)
    base_votes, base_flagged = classify(errors[None], th)
    shuffled = np.stack([rng.permutation(errors) for _ in range(10)])
    votes, flagged = classify(shuffled, th)
    assert (flagged == base_flagged[0]).all()
    assert (votes == base_votes[0]).all()


def test_healthy_gaussian_fixture_rarely_flags():
    # errors ~ N(1, 0.1); at mean + std roughly 16% of windows vote, so a
    # 16-window majority almost never fires on healthy samples
    rng = np.random.default_rng(2)
    th = calibrate_threshold(np.abs(rng.normal(1.0, 0.1, size=200)))
    _, flagged = classify(np.abs(rng.normal(1.0, 0.1, size=(100, 16))), th)
    assert flagged.sum() / 100 < 0.5


# ------------------------------------------- bit-for-bit against one sample
# The per-sample score and vote that the (samples, windows) matrix calls
# replaced, kept as references: sample scores must match bit for bit so
# timelines stay byte-identical.

def _ref_make_score(window_errors):
    return float(np.mean([float(e) for e in window_errors]))


def _ref_classify(window_errors, th):
    votes = sum(1 for e in window_errors if not e <= th.value)
    return votes, votes * 2 >= len(window_errors)


@pytest.mark.parametrize("windows", [3, 5, 8, 16])
def test_matrix_scores_and_votes_match_per_sample_code(windows):
    rng = np.random.default_rng(windows)
    # the harness reshapes one split's flat window-error vector
    errs = rng.gamma(2.0, 1e-3, size=5000 * windows).reshape(5000, windows)
    errs[rng.random(errs.shape) < 0.01] = np.nan
    th = Threshold(value=float(errs[17, 1]), mean=0.0, std=0.0, calibration_count=2)
    errs[rng.random(errs.shape) < 0.05] = th.value  # windows exactly at the threshold
    assert (errs == th.value).sum() > 100

    want_scores = np.array([_ref_make_score(row) for row in errs])
    assert np.array_equal(make_score(errs), want_scores, equal_nan=True)
    ref = [_ref_classify(row, th) for row in errs]
    votes, flagged = classify(errs, th)
    assert votes.tolist() == [v for v, _ in ref]
    assert flagged.tolist() == [f for _, f in ref]
    # one sample's (1, windows) row gives the same as its row of the matrix
    for i in (0, 17, 4999):
        assert np.array_equal(make_score(errs[i:i + 1]), want_scores[i:i + 1],
                              equal_nan=True)
        one_votes, one_flag = classify(errs[i:i + 1], th)
        assert (one_votes.tolist(), one_flag.tolist()) == ([ref[i][0]], [ref[i][1]])


# ---------------------------------------------------------------- metrics

def test_evaluate_perfect_prediction():
    truth = [True, False, True, False, True]
    m = evaluate(truth, truth)
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert (m.tp, m.fp, m.tn, m.fn) == (3, 0, 2, 0)


def test_evaluate_hand_confusion():
    # tp=3, fp=1, fn=2, tn=4
    predicted = [True] * 3 + [True] + [False] * 2 + [False] * 4
    truth = [True] * 3 + [False] + [True] * 2 + [False] * 4
    m = evaluate(predicted, truth)
    assert m.accuracy == 0.7
    assert m.precision == 0.75
    assert abs(m.recall - 0.6) < 1e-12
    assert abs(m.f1 - 2.0 / 3.0) < 1e-12
    assert (m.tp, m.fp, m.tn, m.fn) == (3, 1, 4, 2)


def test_evaluate_zero_denominator_conventions():
    m = evaluate([False, False, False], [True, False, True])
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.accuracy == 1.0 / 3.0

    # no true positives possible: recall denominator zero
    m2 = evaluate([False, False], [False, False])
    assert m2.recall == 0.0 and m2.precision == 0.0 and m2.f1 == 0.0
    assert m2.accuracy == 1.0


def test_evaluate_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        predicted = [bool(b) for b in rng.integers(0, 2, size=n)]
        truth = [bool(b) for b in rng.integers(0, 2, size=n)]
        m = evaluate(predicted, truth)
        # boolean arrays count the same, into Python numbers
        from_arrays = evaluate(np.array(predicted), np.array(truth))
        assert from_arrays == m
        assert [type(v) for v in dataclasses.astuple(from_arrays)] == [float] * 4 + [int] * 4

        tp = fp = tn = fn = 0
        for p, t in zip(predicted, truth):
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif not p and t:
                fn += 1
            else:
                tn += 1
        assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
        assert m.accuracy == (tp + tn) / n
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        pr = m.precision + m.recall
        assert m.f1 == (2 * m.precision * m.recall / pr if pr else 0.0)


def test_evaluate_errors():
    with pytest.raises(UsageError):
        evaluate([True], [True, False])
    with pytest.raises(UsageError):
        evaluate([], [])

"""Unit tests for the pulse-level Monte Carlo simulator.

Statistical checks use fixed seeds and 4-sigma margins, so they are
deterministic in practice; analytic comparisons reuse the closed forms
that the acceptance suite validates at scale.
"""

import math

import numpy as np
import pytest

from pbsgraph import montecarlo
from pbsgraph.montecarlo import (
    ConnectionResult,
    DetectorModel,
    LevelCounters,
    Segment,
    SourceModel,
    _base_block,
    _UniformStream,
    attempt_base_pair,
    attempt_connection,
    build_segment,
    run_campaign,
    wilson_interval,
)
from pbsgraph.scaling import (
    ProtocolParams,
    a_closed_form,
    base_success_prob,
    connection_success_prob,
)


def _margin(p: float, n: int, sigmas: float = 4.0) -> float:
    return sigmas * math.sqrt(p * (1.0 - p) / n)


def test_model_validation():
    with pytest.raises(ValueError):
        SourceModel(0.0)
    with pytest.raises(ValueError):
        SourceModel(1.2)
    with pytest.raises(ValueError):
        DetectorModel(0.5, dark_count_prob=1.0)
    with pytest.raises(ValueError):
        DetectorModel(-0.1)
    DetectorModel(1.0, dark_count_prob=0.0, number_resolving=True)


def test_wilson_interval_against_textbook_formula():
    z = 1.959963984540054
    for successes, trials in [(0, 50), (50, 50), (25, 50), (3, 17), (999, 1000)]:
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        denom = 1 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
        assert lo == pytest.approx(max(0.0, center - half), abs=1e-15)
        assert hi == pytest.approx(min(1.0, center + half), abs=1e-15)
        assert 0.0 <= lo <= hi <= 1.0
    assert wilson_interval(0, 40)[0] == 0.0
    assert wilson_interval(40, 40)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_uniform_stream_is_keyed_by_trial():
    a = _UniformStream(42, 0)
    b = _UniformStream(42, 0)
    c = _UniformStream(42, 1)
    seq_a = [a.next() for _ in range(100)]
    assert seq_a == [b.next() for _ in range(100)]
    assert seq_a != [c.next() for _ in range(100)]
    assert all(0.0 <= x < 1.0 for x in seq_a)
    with pytest.raises(ValueError):
        _UniformStream(-1, 0)
    with pytest.raises(ValueError):
        _UniformStream(1 << 64, 0)


def test_uniform_stream_returns_the_generators_draws_as_python_floats():
    u = _UniformStream(5, 3, block=16)
    key = (5 << 64) | 3
    expected = np.random.Generator(np.random.Philox(key=key)).random(40)  # crosses two refills
    drawn = [u.next() for _ in range(40)]
    assert all(type(x) is float for x in drawn)
    assert drawn == expected.tolist()


def test_base_pair_click_rate():
    source, detector = SourceModel(0.3), DetectorModel(0.5)
    u = _UniformStream(7, 0)
    n = 40_000
    clicks = sum(attempt_base_pair(source, detector, u) is not None for _ in range(n))
    expected = base_success_prob(0.3, 0.5)
    assert abs(clicks / n - expected) < _margin(expected, n)


def test_base_pair_perfect_devices():
    u = _UniformStream(7, 1)
    seg = attempt_base_pair(SourceModel(1.0), DetectorModel(1.0), u)
    assert seg == Segment(0, True, 1)


def _reference_block(source, detector, u):
    """attempt_base_pair repeated until it returns a segment: the
    pulse-by-pulse definition of a level-0 block."""
    pulses = 1
    while (seg := attempt_base_pair(source, detector, u)) is None:
        pulses += 1
    return pulses, seg.connection_photon_present


def _chi2_two_sample(a, b):
    """Pearson statistic of two histograms over the same bins, and its
    degrees of freedom (bins that either sample fills, minus one)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    filled = a + b > 0
    a, b = a[filled], b[filled]
    share = a.sum() / (a.sum() + b.sum())
    expect_a, expect_b = (a + b) * share, (a + b) * (1.0 - share)
    stat = ((a - expect_a) ** 2 / expect_a + (b - expect_b) ** 2 / expect_b).sum()
    return float(stat), int(filled.sum()) - 1


def _ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.searchsorted(a, grid, side="right") / len(a) - np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(gap).max())


# Upper 0.001 points of chi-square by degrees of freedom. With df 0 every
# draw of both samples fell in one bin, so the statistic is exactly 0.
_CHI2_CRIT_999 = {0: 0.0, 1: 10.828, 9: 27.877}
# Pulse-count bins {1}, {2}, {3}, {4, 5}, ..., {28..40} and a tail bin {41, ...}.
_PULSE_EDGES = [1, 2, 3, 4, 6, 9, 13, 19, 28, 41, 2**62]


@pytest.mark.parametrize(
    "source, detector, dfs",
    [
        # without dark counts every click carries the photon: one flag bin
        (SourceModel(0.1), DetectorModel(0.7), (9, 0)),
        (SourceModel(0.1), DetectorModel(0.7, dark_count_prob=0.05), (9, 1)),
        (SourceModel(0.1), DetectorModel(0.7, dark_count_prob=0.05, number_resolving=True), (9, 1)),
        (SourceModel(1.0), DetectorModel(1.0), (0, 0)),
    ],
    ids=["ideal", "dark", "resolving-dark", "perfect"],
)
def test_base_block_matches_pulse_loop_reference(source, detector, dfs):
    """50k blocks drawn whole against 50k built pulse by pulse: the pulse
    counts (10 bins, df 9) and the photon flags (df 1) agree by a
    two-sample chi-square test at the 0.001 level. A sure outcome fills
    one bin (df 0), and then both samples must hold only it."""
    n = 50_000
    u_block, u_ref = _UniformStream(41, 0), _UniformStream(42, 0)
    block = np.array([_base_block(source, detector, u_block) for _ in range(n)])
    ref = np.array([_reference_block(source, detector, u_ref) for _ in range(n)])
    for column, edges, df in ((0, _PULSE_EDGES, dfs[0]), (1, [0, 1, 2], dfs[1])):
        stat, got_df = _chi2_two_sample(
            np.histogram(block[:, column], edges)[0], np.histogram(ref[:, column], edges)[0]
        )
        assert got_df == df
        assert stat <= _CHI2_CRIT_999[df], f"column {column}: chi2 {stat:.2f} on {df} df"


class _ConstantStream:
    """A stub uniform stream that always returns one value."""

    def __init__(self, value):
        self.value = value

    def next(self):
        return self.value


def test_base_block_inverse_cdf_edges():
    source, detector = SourceModel(0.1), DetectorModel(0.7)
    assert _base_block(source, detector, _ConstantStream(0.0))[0] == 1
    pulses, _ = _base_block(source, detector, _ConstantStream(1.0 - 2.0**-53))
    assert isinstance(pulses, int) and 1 <= pulses < 10**4
    # A sure click (p_click == 1) takes one pulse and carries the photon,
    # without evaluating log1p(-1).
    for source, detector in [
        (SourceModel(1.0), DetectorModel(1.0)),
        (SourceModel(1.0), DetectorModel(1.0, number_resolving=True)),
        (SourceModel(1.0), DetectorModel(1.0, dark_count_prob=0.3)),
    ]:
        for value in (0.0, 0.5, 1.0 - 2.0**-53):
            assert _base_block(source, detector, _ConstantStream(value)) == (1, True)


@pytest.mark.parametrize("policy", ["both", "kept"])
def test_campaign_with_block_draws_matches_pulse_loop(monkeypatch, policy):
    """The same run_campaign with level 0 drawn per block and per pulse:
    per-level p_hat and a_hat agree at 4 sigma and the pulse totals by a
    two-sample KS test at the 0.001 level."""
    params = ProtocolParams(3, 0.3, 0.8)
    source = SourceModel(0.3)
    detector = DetectorModel(0.8, dark_count_prob=0.02, number_resolving=True)
    trials = 1500
    block = run_campaign(params, source, detector, trials=trials, seed=61, policy=policy)
    monkeypatch.setattr(montecarlo, "_base_block", _reference_block)
    ref = run_campaign(params, source, detector, trials=trials, seed=62, policy=policy)
    for row_b, row_r in zip(block.per_level, ref.per_level):
        for hits, n in (("acceptances", "attempts"), ("good", "acceptances")):
            k_b, n_b = getattr(row_b, hits), getattr(row_b, n)
            k_r, n_r = getattr(row_r, hits), getattr(row_r, n)
            pooled = (k_b + k_r) / (n_b + n_r)
            sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_b + 1.0 / n_r))
            assert abs(k_b / n_b - k_r / n_r) <= 4.0 * sigma, (row_b.level, hits)
    # 1.949 = sqrt(-ln(0.0005) / 2), the two-sided 0.001 point of KS
    ks_crit = 1.949 * math.sqrt(2.0 / trials)
    assert _ks_two_sample(block.total_pulses, ref.total_pulses) <= ks_crit


def test_connection_outcome_distribution_two_photons():
    """Perfect detector, both photons present: half the attempts are
    clean good acceptances, a quarter accept vacuum (both photons hit
    the measured port), a quarter reject (nothing to detect)."""
    detector = DetectorModel(1.0)
    u = _UniformStream(11, 0)
    n = 20_000
    tallies = {r: 0 for r in ConnectionResult}
    for _ in range(n):
        seg_a = Segment(0, True, 1)
        seg_b = Segment(0, True, 1)
        tallies[attempt_connection(seg_a, seg_b, detector, u)] += 1
    assert abs(tallies[ConnectionResult.ACCEPTED_GOOD] / n - 0.5) < _margin(0.5, n)
    assert abs(tallies[ConnectionResult.ACCEPTED_VACUUM] / n - 0.25) < _margin(0.25, n)
    assert abs(tallies[ConnectionResult.REJECTED] / n - 0.25) < _margin(0.25, n)


def test_connection_outcome_distribution_one_photon():
    detector = DetectorModel(1.0)
    u = _UniformStream(11, 1)
    n = 20_000
    tallies = {r: 0 for r in ConnectionResult}
    for _ in range(n):
        tallies[attempt_connection(Segment(0, True, 1), Segment(0, False, 1), detector, u)] += 1
    assert tallies[ConnectionResult.ACCEPTED_GOOD] == 0
    assert abs(tallies[ConnectionResult.ACCEPTED_VACUUM] / n - 0.5) < _margin(0.5, n)


def test_connection_vacuum_inputs_need_dark_counts():
    quiet = DetectorModel(1.0)
    u = _UniformStream(11, 2)
    for _ in range(200):
        result = attempt_connection(Segment(0, False, 1), Segment(0, False, 1), quiet, u)
        assert result is ConnectionResult.REJECTED

    noisy = DetectorModel(1.0, dark_count_prob=0.5)
    n = 20_000
    accepted = sum(
        attempt_connection(Segment(0, False, 1), Segment(0, False, 1), noisy, u)
        is ConnectionResult.ACCEPTED_VACUUM
        for _ in range(n)
    )
    assert abs(accepted / n - 0.5) < _margin(0.5, n)


def test_number_resolving_rejects_double_counts():
    """With a photon guaranteed on the measured port, a near-certain dark
    count makes the count 2: a threshold detector still accepts, a
    resolving one almost never does."""
    u = _UniformStream(13, 0)
    n = 10_000
    threshold = DetectorModel(1.0, dark_count_prob=0.9)
    resolving = DetectorModel(1.0, dark_count_prob=0.9, number_resolving=True)

    def good_rate(detector):
        hits = 0
        for _ in range(n):
            result = attempt_connection(Segment(0, True, 1), Segment(0, True, 1), detector, u)
            hits += result is ConnectionResult.ACCEPTED_GOOD
        return hits / n

    # threshold: every separate-port event is a good acceptance (~0.5)
    assert good_rate(threshold) > 0.45
    # resolving: good additionally needs the dark count absent (~0.05)
    assert good_rate(resolving) < 0.10


def test_build_segment_level1_statistics():
    """Perfect devices: level-1 acceptance is 3/4 and two thirds of the
    acceptances keep their photon, matching the closed forms."""
    source, detector = SourceModel(1.0), DetectorModel(1.0)
    u = _UniformStream(5, 0)
    stats = [LevelCounters() for _ in range(2)]
    builds = 3000
    for _ in range(builds):
        build_segment(1, source, detector, u, stats)
    lvl = stats[1]
    p_hat = lvl.acceptances / lvl.attempts
    a_hat = lvl.good / lvl.acceptances
    assert abs(p_hat - connection_success_prob(1.0, 1.0)) < _margin(0.75, lvl.attempts)
    assert abs(a_hat - a_closed_form(1, 1.0)) < _margin(2 / 3, lvl.acceptances)
    # base level: every pulse clicks and is good
    assert stats[0].attempts == stats[0].acceptances == stats[0].good


def test_build_segment_elapsed_counts_attempts_under_parallel_convention():
    """With perfect devices every level-0 block takes one pulse, so a
    level-1 segment's elapsed time equals its attempt count."""
    source, detector = SourceModel(1.0), DetectorModel(1.0)
    for trial in range(20):
        u = _UniformStream(99, trial)
        stats = [LevelCounters() for _ in range(2)]
        seg = build_segment(1, source, detector, u, stats)
        assert seg.elapsed_pulses == stats[1].attempts
        assert seg.level == 1


def test_kept_policy_reuses_survivor():
    """Reusing the kept-side segment after a rejection consumes fewer
    base pairs per acceptance than rebuilding both."""
    source, detector = SourceModel(1.0), DetectorModel(1.0)
    counts = {}
    for policy in ("both", "kept"):
        u = _UniformStream(17, 0)
        stats = [LevelCounters() for _ in range(2)]
        for _ in range(2000):
            build_segment(1, source, detector, u, stats, policy=policy)
        counts[policy] = stats[0].attempts / stats[1].acceptances
    assert counts["kept"] < counts["both"]


def test_run_campaign_reproducible_and_seed_sensitive():
    params = ProtocolParams(2, 0.5, 0.8)
    source, detector = SourceModel(0.5), DetectorModel(0.8)
    first = run_campaign(params, source, detector, trials=50, seed=3)
    again = run_campaign(params, source, detector, trials=50, seed=3)
    assert first == again
    other = run_campaign(params, source, detector, trials=50, seed=4)
    assert first.total_pulses != other.total_pulses


def test_run_campaign_is_thread_invariant():
    params = ProtocolParams(2, 0.4, 0.9)
    source, detector = SourceModel(0.4), DetectorModel(0.9)
    serial = run_campaign(params, source, detector, trials=40, seed=8, threads=1)
    pooled = run_campaign(params, source, detector, trials=40, seed=8, threads=3)
    assert serial.to_json_dict() == pooled.to_json_dict()


def test_run_campaign_matches_analytics_at_three_sigma():
    params = ProtocolParams(2, 0.5, 0.8)
    result = run_campaign(params, SourceModel(0.5), DetectorModel(0.8), trials=400, seed=21)
    analytic_p = [base_success_prob(0.5, 0.8), connection_success_prob(a_closed_form(0, 0.8), 0.8)]
    analytic_a = [a_closed_form(0, 0.8), a_closed_form(1, 0.8)]
    for row in result.per_level:
        lo, hi = wilson_interval(row.acceptances, row.attempts, z=3.0)
        assert lo <= analytic_p[row.level] <= hi
        lo, hi = wilson_interval(row.good, row.acceptances, z=3.0)
        assert lo <= analytic_a[row.level] <= hi


def test_final_measurement_toggle():
    params = ProtocolParams(2, 0.6, 0.6)
    source, detector = SourceModel(0.6), DetectorModel(0.6)
    unconfirmed = run_campaign(
        params, source, detector, trials=60, seed=12, final_measurement=False
    )
    assert unconfirmed.total_pulses == unconfirmed.total_pulses_unconfirmed
    confirmed = run_campaign(params, source, detector, trials=60, seed=12)
    assert all(
        total >= first
        for total, first in zip(confirmed.total_pulses, confirmed.total_pulses_unconfirmed)
    )
    mean_confirmed = sum(confirmed.total_pulses) / len(confirmed.total_pulses)
    mean_unconfirmed = sum(unconfirmed.total_pulses) / len(unconfirmed.total_pulses)
    assert mean_confirmed > mean_unconfirmed


def test_run_campaign_budget_flags_partial():
    params = ProtocolParams(3, 0.1, 0.7)
    result = run_campaign(
        params, SourceModel(0.1), DetectorModel(0.7),
        trials=100_000, seed=5, max_seconds=0.2,
    )
    assert result.partial
    assert 1 <= result.trials_completed < 100_000
    assert len(result.total_pulses) == result.trials_completed


def test_run_campaign_validation():
    params = ProtocolParams(2, 0.5, 0.5)
    source, detector = SourceModel(0.5), DetectorModel(0.5)
    with pytest.raises(ValueError):
        run_campaign(params, source, detector, trials=0, seed=1)
    with pytest.raises(ValueError):
        run_campaign(params, source, detector, trials=5, seed=1, policy="sometimes")
    with pytest.raises(ValueError):
        run_campaign(params, source, detector, trials=5, seed=1, threads=0)


def test_json_document_shape():
    params = ProtocolParams(2, 0.5, 0.8)
    result = run_campaign(params, SourceModel(0.5), DetectorModel(0.8), trials=30, seed=2)
    doc = result.to_json_dict()
    assert set(doc) == {
        "params", "models", "seed", "trials", "per_level",
        "total_pulses", "total_pulses_unconfirmed", "analytic", "partial",
    }
    assert doc["trials"] == 30
    assert [row["m"] for row in doc["per_level"]] == [0, 1]
    assert set(doc["per_level"][0]) == {
        "m", "attempts", "acceptances", "p_hat", "p_ci95", "a_hat", "a_ci95"
    }
    assert len(doc["analytic"]["a_m"]) == params.m
    assert len(doc["analytic"]["p_m"]) == params.m
    assert doc["total_pulses"]["geomean"] > 0
    stamped = result.to_json_dict(timestamp="2026-01-01T00:00:00+00:00")
    assert stamped["timestamp"] == "2026-01-01T00:00:00+00:00"
    assert "timestamp" not in doc

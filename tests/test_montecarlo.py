"""Unit tests for the pulse-level Monte Carlo simulator.

Statistical checks use fixed seeds and 4-sigma margins, so they are
deterministic in practice; analytic comparisons reuse the closed forms
that the acceptance suite validates at scale.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pbsgraph import montecarlo
from pbsgraph.montecarlo import (
    ConnectionResult,
    DetectorModel,
    LevelCounters,
    Segment,
    SourceModel,
    _base_blocks,
    _block_probs,
    _connection_table,
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


def test_wilson_interval_holds_its_estimate_at_the_extremes():
    """At p_hat = 0 and 1 the bounds are exactly 0 and 1, where the float
    formula alone gives 0.9999999999999999 for thousands of n."""
    for z in (1.959963984540054, 3.0, 4.0):
        for n in range(1, 5001):
            lo, hi = wilson_interval(n, n, z)
            assert hi == 1.0 and 0.0 < lo < 1.0, (z, n)
            lo, hi = wilson_interval(0, n, z)
            assert lo == 0.0 and 0.0 < hi < 1.0, (z, n)


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


def _base_block(source, detector, u):
    """The scalar form of one _base_blocks draw, reading its two uniforms
    from u: the inverse-CDF pulse count, then the photon flag."""
    p_good, p_click = _block_probs(source, detector)
    pulses = 1
    if p_click < 1.0:  # log1p(-1) raises; a sure click takes one pulse
        pulses += math.floor(math.log(1.0 - u.next()) / math.log1p(-p_click))
    return pulses, bool(u.next() * p_click < p_good)


def _reference_build_segment(level, source, detector, u, stats, policy="both"):
    """build_segment drawing every event one at a time: level 0 pulse by
    pulse (_reference_block), each connection by attempt_connection."""
    counters = stats[level]
    if level == 0:
        pulses, present = _reference_block(source, detector, u)
        counters.attempts += pulses
        counters.acceptances += 1
        counters.good += present
        return Segment(0, present, pulses)

    elapsed = 0
    kept = None
    while True:
        seg_a = _reference_build_segment(level - 1, source, detector, u, stats, policy)
        if kept is None:
            seg_b = _reference_build_segment(level - 1, source, detector, u, stats, policy)
            elapsed += max(seg_a.elapsed_pulses, seg_b.elapsed_pulses)
        else:
            seg_b = kept
            elapsed += seg_a.elapsed_pulses
        counters.attempts += 1
        result = attempt_connection(seg_a, seg_b, detector, u)
        if result is ConnectionResult.REJECTED:
            kept = seg_b if policy == "kept" else None
            continue
        counters.acceptances += 1
        present = result is ConnectionResult.ACCEPTED_GOOD
        if present:
            counters.good += 1
        return Segment(level, present, elapsed)


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
_CHI2_CRIT_999 = {0: 0.0, 1: 10.828, 2: 13.816, 9: 27.877}
# Pulse-count bins {1}, {2}, {3}, {4, 5}, ..., {28..40} and a tail bin {41, ...}.
_PULSE_EDGES = [1, 2, 3, 4, 6, 9, 13, 19, 28, 41, 2**62]
_BLOCK_MODELS = [
    (SourceModel(0.1), DetectorModel(0.7)),
    (SourceModel(0.1), DetectorModel(0.7, dark_count_prob=0.05)),
    (SourceModel(0.1), DetectorModel(0.7, dark_count_prob=0.05, number_resolving=True)),
    (SourceModel(1.0), DetectorModel(1.0)),
]


@pytest.mark.parametrize(
    "source, detector, dfs",
    # without dark counts every click carries the photon: one flag bin
    [(*models, dfs) for models, dfs in zip(_BLOCK_MODELS, [(9, 0), (9, 1), (9, 1), (0, 0)])],
    ids=["ideal", "dark", "resolving-dark", "perfect"],
)
def test_base_block_matches_pulse_loop_reference(source, detector, dfs):
    """50k level-0 blocks as build_segment draws them (from _base_blocks
    batches) against 50k built pulse by pulse: the pulse counts (10
    bins, df 9) and the photon flags (df 1) agree by a two-sample
    chi-square test at the 0.001 level. A sure outcome fills one bin
    (df 0), and then both samples must hold only it."""
    n = 50_000
    u_block, u_ref = _UniformStream(41, 0), _UniformStream(42, 0)
    stats = [LevelCounters()]
    segments = [build_segment(0, source, detector, u_block, stats) for _ in range(n)]
    block = np.array([(seg.elapsed_pulses, seg.connection_photon_present) for seg in segments])
    ref = np.array([_reference_block(source, detector, u_ref) for _ in range(n)])
    for column, edges, df in ((0, _PULSE_EDGES, dfs[0]), (1, [0, 1, 2], dfs[1])):
        stat, got_df = _chi2_two_sample(
            np.histogram(block[:, column], edges)[0], np.histogram(ref[:, column], edges)[0]
        )
        assert got_df == df
        assert stat <= _CHI2_CRIT_999[df], f"column {column}: chi2 {stat:.2f} on {df} df"


class _ListStream:
    """A stub uniform stream that returns the given values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def next(self):
        return next(self._values)


def _one_block(source, detector, u0, u1):
    """_base_blocks on one uniform pair, checked against the scalar
    _base_block reading the same pair."""
    pulses, flags = _base_blocks(np.array([u0]), np.array([u1]), *_block_probs(source, detector))
    assert (pulses[0], flags[0]) == _base_block(source, detector, _ListStream([u0, u1]))
    return pulses[0], flags[0]


def test_base_block_inverse_cdf_edges():
    source, detector = SourceModel(0.1), DetectorModel(0.7)
    assert _one_block(source, detector, 0.0, 0.0)[0] == 1
    pulses, _ = _one_block(source, detector, 1.0 - 2.0**-53, 0.5)
    assert type(pulses) is int and 1 <= pulses < 10**4
    # A sure click (p_click == 1) takes one pulse and carries the photon,
    # without evaluating log1p(-1).
    for source, detector in [
        (SourceModel(1.0), DetectorModel(1.0)),
        (SourceModel(1.0), DetectorModel(1.0, number_resolving=True)),
        (SourceModel(1.0), DetectorModel(1.0, dark_count_prob=0.3)),
    ]:
        for value in (0.0, 0.5, 1.0 - 2.0**-53):
            assert _one_block(source, detector, value, value) == (1, True)
    # Counts past int64 stay exact Python ints.
    pulses, _ = _one_block(SourceModel(1e-30), DetectorModel(0.7), 0.5, 0.5)
    assert type(pulses) is int and pulses > 2**90


def test_base_blocks_equal_the_scalar_draw():
    """On 1000 seeded uniform pairs the batched draw equals the scalar
    _base_block, block for block, on every model of the chi-square test."""
    rng = np.random.default_rng(3)
    u0, u1 = rng.random(1000), rng.random(1000)
    for source, detector in _BLOCK_MODELS:
        pulses, flags = _base_blocks(u0, u1, *_block_probs(source, detector))
        scalar = [_base_block(source, detector, _ListStream(pair)) for pair in zip(u0, u1)]
        assert list(zip(pulses, flags)) == scalar


def _exact_connection_table(detector):
    """[(P(accept | k), P(accept good | k)) for k = 0, 1, 2] in exact
    arithmetic, walking attempt_connection's events photon by photon."""
    eta, dark = Fraction(detector.eta_d), Fraction(detector.dark_count_prob)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    # (probability, photons on the measured port, clean separate-port event)
    routes = [
        [(Fraction(1), 0, False)],
        [(half, 1, False), (half, 0, False)],
        [(half, 1, True), (quarter, 2, False), (quarter, 0, False)],
    ]
    table = []
    for branches in routes:
        accept = good = Fraction(0)
        for p_route, measured, clean in branches:
            for hits in itertools.product((True, False), repeat=measured):
                p_hits = p_route
                for hit in hits:
                    p_hits *= eta if hit else 1 - eta
                for dark_hit in (True, False):
                    p = p_hits * (dark if dark_hit else 1 - dark)
                    count = sum(hits) + dark_hit
                    if count == 1 if detector.number_resolving else count >= 1:
                        accept += p
                        if clean and sum(hits) == 1:
                            good += p
        table.append((accept, good))
    return table


def test_connection_table_matches_exact_enumeration():
    rng = np.random.default_rng(17)
    detectors = [detector for _, detector in _BLOCK_MODELS] + [
        DetectorModel(1.0 - rng.random(), dark_count_prob=dark, number_resolving=bool(rng.integers(2)))
        for dark in [0.0] * 5 + rng.random(15).tolist()
    ]
    for detector in detectors:
        accept, good = _connection_table(detector)
        for k, (exact_accept, exact_good) in enumerate(_exact_connection_table(detector)):
            assert abs(accept[k] - exact_accept) <= 1e-15, (detector, k)
            assert abs(good[k] - exact_good) <= 1e-15, (detector, k)
            assert good[k] <= accept[k]


@pytest.mark.parametrize(
    "detector",
    [DetectorModel(0.8, dark_count_prob=0.05),
     DetectorModel(0.8, dark_count_prob=0.05, number_resolving=True)],
    ids=["threshold-dark", "resolving-dark"],
)
def test_connection_table_draws_match_attempt_connection(detector):
    """20k outcomes per input photon count k, each drawn from one uniform
    as build_segment draws it, against 20k attempt_connection calls: the
    (good, vacuum, rejected) counts agree by a two-sample chi-square test
    at the 0.001 level. Zero or one photon is never good (df 1)."""
    n = 20_000
    accept, good = _connection_table(detector)
    u_table, u_ref = _UniformStream(71, 0), _UniformStream(72, 0)
    for k, df in ((0, 1), (1, 1), (2, 2)):
        table = Counter()
        for _ in range(n):
            r = u_table.next()
            table[
                ConnectionResult.ACCEPTED_GOOD if r < good[k]
                else ConnectionResult.ACCEPTED_VACUUM if r < accept[k]
                else ConnectionResult.REJECTED
            ] += 1
        inputs = Segment(0, k >= 1, 1), Segment(0, k == 2, 1)
        ref = Counter(attempt_connection(*inputs, detector, u_ref) for _ in range(n))
        stat, got_df = _chi2_two_sample(
            [table[result] for result in ConnectionResult], [ref[result] for result in ConnectionResult]
        )
        assert got_df == df
        assert stat <= _CHI2_CRIT_999[df], f"k={k}: chi2 {stat:.2f} on {df} df"


@pytest.mark.parametrize("policy", ["both", "kept"])
def test_campaign_with_block_draws_matches_pulse_loop(monkeypatch, policy):
    """The same run_campaign drawn by build_segment (level-0 blocks and
    one-uniform connections) and by _reference_build_segment (pulse by
    pulse, attempt_connection per attempt): per-level p_hat and a_hat
    agree at 4 sigma and the pulse totals by a two-sample KS test at the
    0.001 level."""
    params = ProtocolParams(3, 0.3, 0.8)
    source = SourceModel(0.3)
    detector = DetectorModel(0.8, dark_count_prob=0.02, number_resolving=True)
    trials = 1500
    block = run_campaign(params, source, detector, trials=trials, seed=61, policy=policy)
    monkeypatch.setattr(montecarlo, "build_segment", _reference_build_segment)
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


@pytest.mark.parametrize("policy", ["both", "kept"])
def test_build_segment_is_called_once_per_segment(monkeypatch, policy):
    """What a wrapper of montecarlo.build_segment relies on: every segment
    is built by one call through the module-level name, so the level-L
    calls equal the level-L acceptances, and the level-0 attempts are the
    pulses of the level-0 segments returned."""
    calls, level0_pulses = Counter(), []
    build = montecarlo.build_segment

    def spy(level, *args, **kwargs):
        segment = build(level, *args, **kwargs)
        calls[level] += 1
        if level == 0:
            level0_pulses.append(segment.elapsed_pulses)
        return segment

    monkeypatch.setattr(montecarlo, "build_segment", spy)
    result = run_campaign(
        ProtocolParams(3, 0.3, 0.8), SourceModel(0.3), DetectorModel(0.8, dark_count_prob=0.02),
        trials=50, seed=81, policy=policy,
    )
    assert [calls[row.level] for row in result.per_level] == [
        row.acceptances for row in result.per_level
    ]
    assert all(calls[level] > 0 for level in range(3))
    assert result.per_level[0].attempts == sum(level0_pulses)


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
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            run_campaign(params, source, detector, trials=5, seed=seed)


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

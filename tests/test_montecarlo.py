"""Unit tests for the pulse-level Monte Carlo simulator.

Statistical checks use fixed seeds and 4-sigma margins, so they are
deterministic in practice; analytic comparisons reuse the closed forms
that the acceptance suite validates at scale.
"""

import itertools
import math
from collections import Counter
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

from pbsgraph import montecarlo
from pbsgraph.montecarlo import (
    DetectorModel,
    LevelCounters,
    Segment,
    SourceModel,
    _base_blocks,
    _block_probs,
    _confirm_connection_qubit,
    _connection_table,
    _UniformStream,
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


# Per-event references that the block and table draws are checked against.


class ConnectionResult(Enum):
    ACCEPTED_GOOD = "good"
    ACCEPTED_VACUUM = "vacuum"
    REJECTED = "rejected"


def _detector_clicks(photons: int, detector: DetectorModel, u: _UniformStream) -> tuple[bool, int]:
    """(click, photons actually registered) for one measured pulse."""
    registered = 0
    for _ in range(photons):
        if u.next() < detector.eta_d:
            registered += 1
    dark = detector.dark_count_prob > 0.0 and u.next() < detector.dark_count_prob
    count = registered + (1 if dark else 0)
    if detector.number_resolving:
        return count == 1, registered
    return count >= 1, registered


def attempt_base_pair(source: SourceModel, detector: DetectorModel, u: _UniformStream) -> Segment | None:
    """One source pulse: emit a pair (or not), measure the outer qubit.

    Returns a level-0 segment on a detector click, else None. One pulse
    is consumed either way. The photon flag is ground truth, so a
    dark-count acceptance with no emitted pair yields a vacuum segment.
    """
    emitted = u.next() < source.eta_s
    click, _ = _detector_clicks(1 if emitted else 0, detector, u)
    if not click:
        return None
    return Segment(0, emitted, 1)


def attempt_connection(
    seg_a: Segment, seg_b: Segment, detector: DetectorModel, u: _UniformStream
) -> ConnectionResult:
    """One fusion attempt on two freshly built segments.

    Both photons present: probability 1/2 they exit separate ports (a
    click on the measured one is the only good acceptance), 1/4 both hit
    the measured port (a click accepts vacuum), 1/4 both stay in the
    kept port (no photon to detect). One photon: it reaches the measured
    port with probability 1/2. Acceptances that are not the clean
    separate-port detection are classified vacuum.
    """
    photons = int(seg_a.connection_photon_present) + int(seg_b.connection_photon_present)
    measured_photons = 0
    clean_good = False
    if photons == 2:
        r = u.next()
        if r < 0.5:
            measured_photons = 1
            clean_good = True
        elif r < 0.75:
            measured_photons = 2
    elif photons == 1:
        if u.next() < 0.5:
            measured_photons = 1
    click, registered = _detector_clicks(measured_photons, detector, u)
    if not click:
        return ConnectionResult.REJECTED
    if clean_good and registered == 1:
        return ConnectionResult.ACCEPTED_GOOD
    return ConnectionResult.ACCEPTED_VACUUM


def test_final_confirmation_draws_as_detector_clicks():
    """_confirm_connection_qubit reads the click of _detector_clicks on
    the segment's photon, from the same uniforms in the same order."""
    for detector in (DetectorModel(0.7), DetectorModel(0.7, 0.3), DetectorModel(0.7, 0.3, True)):
        for present in (False, True):
            u, u_ref = _UniformStream(5, 0), _UniformStream(5, 0)
            for _ in range(2000):
                click = _confirm_connection_qubit(Segment(1, present, 1), detector, u)
                assert click == _detector_clicks(int(present), detector, u_ref)[0]
                assert u.draws == u_ref.draws


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
    """next() alone, then next(), build_segment's inline draws.pop() and
    refill_blocks() in a seeded random order, across several refills of
    each, against a bare Philox generator making the same random(k) and
    random((2, n)) calls in the same order: the uniforms come out in the
    generator's order and the blocks are _base_blocks of its pairs."""
    u = _UniformStream(5, 3, block=16)
    key = (5 << 64) | 3
    expected = np.random.Generator(np.random.Philox(key=key)).random(40)  # crosses a refill
    drawn = [u.next() for _ in range(40)]
    assert all(type(x) is float for x in drawn)
    assert drawn == expected.tolist()

    source, detector = SourceModel(0.3), DetectorModel(0.8, dark_count_prob=0.02)
    probs = _block_probs(source, detector)
    u = _UniformStream(5, 3, block=16)
    u.bind(source, detector)
    draws = u.draws  # next() refills this same list
    gen = np.random.Generator(np.random.Philox(key=key))
    pending, size = gen.random(16).tolist(), 16
    batch, uniform_refills, block_refills = montecarlo._FIRST_BATCH, 0, 0
    rng = np.random.default_rng(29)
    for op in rng.choice(["next", "pop", "blocks"], size=500, p=[0.475, 0.475, 0.05]):
        if op == "blocks":
            start = len(u.blocks)
            u.refill_blocks()
            pair = gen.random((2, batch))
            pulses, flags = _base_blocks(pair[0], pair[1], *probs)
            assert u.blocks[start:] == list(zip(pulses, flags))
            batch = min(2 * batch, montecarlo._MAX_BATCH)
            block_refills += 1
            continue
        r = draws.pop() if op == "pop" and draws else u.next()
        if not pending:
            size = min(2 * size, montecarlo._MAX_BATCH)
            pending = gen.random(size).tolist()
            uniform_refills += 1
        assert type(r) is float and r == pending.pop(0)
    assert uniform_refills >= 3 and block_refills >= 3
    assert u.draws is draws


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
    calls equal the level-L acceptances, and the level-L attempts are the
    growth of stats[L].attempts inside the level-L calls: a level-0 call
    grows it by its segment's pulses, a connection call by at least one
    attempt."""
    calls, growths = Counter(), []
    build = montecarlo.build_segment

    def spy(level, source, detector, u, stats, *args, **kwargs):
        before = stats[level].attempts
        segment = build(level, source, detector, u, stats, *args, **kwargs)
        calls[level] += 1
        growths.append((level, stats[level].attempts - before, segment.elapsed_pulses))
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
    for row in result.per_level:
        assert sum(grown for level, grown, _ in growths if level == row.level) == row.attempts
    assert all(grown == pulses for level, grown, pulses in growths if level == 0)
    assert all(grown >= 1 for level, grown, _ in growths if level > 0)


def test_level0_segments_below_the_bound_come_from_the_shared_table():
    """With perfect devices every level-0 segment is the table's one
    Segment(0, True, 1). At eta_s = 1e-4 few blocks are short: every
    segment returned equals Segment(0, flag, pulses) built fresh from
    _base_blocks on the stream's uniforms, those below _SHARED_PULSES are
    the table's objects and the rest are new ones."""
    table = montecarlo._level0_segments()
    assert len(table) == montecarlo._SHARED_PULSES
    stats = [LevelCounters()]
    u = _UniformStream(23, 1)
    perfect = [build_segment(0, SourceModel(1.0), DetectorModel(1.0), u, stats)
               for _ in range(1000)]
    assert all(seg is table[1][True] for seg in perfect)

    source, detector = SourceModel(1e-4), DetectorModel(0.7)
    u = _UniformStream(23, 0)
    stats = [LevelCounters()]
    sizes = [montecarlo._FIRST_BATCH << k for k in range(6)]
    got = [build_segment(0, source, detector, u, stats) for _ in range(sum(sizes))]

    gen = np.random.Generator(np.random.Philox(key=23 << 64))
    gen.random(montecarlo._FIRST_BATCH)  # the stream's first uniforms
    expected = []
    for size in sizes:
        pair = gen.random((2, size))
        pulses, flags = _base_blocks(pair[0], pair[1], *_block_probs(source, detector))
        # popped from the end of each batch
        expected += reversed([Segment(0, f, p) for p, f in zip(pulses, flags)])
    assert got == expected
    assert stats[0].attempts == sum(seg.elapsed_pulses for seg in expected)
    short = [seg for seg in got if seg.elapsed_pulses < montecarlo._SHARED_PULSES]
    long = [seg for seg in got if seg.elapsed_pulses >= montecarlo._SHARED_PULSES]
    assert 0 < len(short) < len(long)
    assert all(seg is table[seg.elapsed_pulses][seg.connection_photon_present] for seg in short)
    assert len({id(seg) for seg in long}) == len(long)


@pytest.mark.parametrize("policy", ["both", "kept"])
def test_campaigns_leave_the_shared_level0_table_intact(policy):
    """No engine path assigns to a segment it is given: after campaigns
    over every block model, with and without the final measurement, run
    in this process, every entry of the shared table still reads its own
    (level 0, flag, pulses). A mutated shared segment would be
    returned by every later level-0 build of its key."""
    table = montecarlo._level0_segments()
    for source, detector in _BLOCK_MODELS:
        for final in (True, False):
            run_campaign(ProtocolParams(3, source.eta_s, detector.eta_d), source, detector,
                         trials=8, seed=41, final_measurement=final, policy=policy)
    assert len(table) == montecarlo._SHARED_PULSES
    for pulses, pair in enumerate(table):
        assert pair == (Segment(0, False, pulses), Segment(0, True, pulses))


class _IndexedStream:
    """_UniformStream in its plain form, the reference for the lean one:
    an index into each batch of uniforms, and level-0 blocks kept as
    (pulses, flag) tuples. The tables come from the uncached
    derivations."""

    def __init__(self, seed, trial_index, block=montecarlo._FIRST_BATCH):
        key = (seed << 64) | (trial_index & ((1 << 64) - 1))
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._buf = self._gen.random(block).tolist()
        self._pos = 0
        self.source = self.detector = None
        self.blocks = []

    def next(self):
        buf, pos = self._buf, self._pos
        if pos == len(buf):
            buf = self._buf = self._gen.random(min(2 * len(buf), montecarlo._MAX_BATCH)).tolist()
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def bind(self, source, detector):
        self.source, self.detector = source, detector
        self.accept, self.good = _connection_table.__wrapped__(detector)
        self._probs = _block_probs.__wrapped__(source, detector)
        self._batch = montecarlo._FIRST_BATCH
        self.blocks.clear()

    def refill_blocks(self):
        n = self._batch
        self._batch = min(2 * n, montecarlo._MAX_BATCH)
        u = self._gen.random((2, n))
        self.blocks.extend(zip(*_base_blocks(u[0], u[1], *self._probs)))


def _indexed_build_segment(level, source, detector, u, stats, policy="both"):
    """build_segment in its plain form on an _IndexedStream, the
    reference for the lean kernel: tuple blocks, u.next() per connection
    attempt, the counters bumped per attempt and a fresh Segment per
    call."""
    if u.source is not source or u.detector is not detector:
        u.bind(source, detector)
    counters = stats[level]
    if level == 0:
        blocks = u.blocks
        if not blocks:
            u.refill_blocks()
        pulses, present = blocks.pop()
        counters.attempts += pulses
        counters.acceptances += 1
        counters.good += present
        return Segment(0, present, pulses)

    accept, good = u.accept, u.good
    elapsed = 0
    kept = None
    while True:
        seg_a = _indexed_build_segment(level - 1, source, detector, u, stats, policy)
        if kept is None:
            seg_b = _indexed_build_segment(level - 1, source, detector, u, stats, policy)
            elapsed += max(seg_a.elapsed_pulses, seg_b.elapsed_pulses)
        else:
            seg_b = kept
            elapsed += seg_a.elapsed_pulses
        counters.attempts += 1
        photons = seg_a.connection_photon_present + seg_b.connection_photon_present
        r = u.next()
        if r < accept[photons]:
            counters.acceptances += 1
            present = r < good[photons]
            counters.good += present
            return Segment(level, present, elapsed)
        kept = seg_b if policy == "kept" else None


@pytest.mark.parametrize("models", _BLOCK_MODELS + [(SourceModel(1e-3), DetectorModel(0.7))],
                         ids=["ideal", "dark", "resolving-dark", "perfect", "low-eta"])
@pytest.mark.parametrize("policy", ["both", "kept"])
def test_build_segment_equals_the_indexed_kernel(monkeypatch, models, policy):
    """run_campaign with build_segment and with _indexed_build_segment on
    an _IndexedStream returns equal SimResults, with and without the
    final measurement, at m = 1..4 on three seeds: the lean kernel draws
    the same numbers in the same order and counts the same events. At
    eta_s = 1e-3 about half the level-0 blocks take _SHARED_PULSES pulses
    or more, so both of level 0's returns are compared."""
    source, detector = models
    cases = [(m, seed, final) for m in range(1, 5) for seed in (2, 97, (1 << 64) - 1)
             for final in (True, False)]

    def campaign(m, seed, final):
        return run_campaign(ProtocolParams(m, source.eta_s, detector.eta_d), source, detector,
                            trials=8 if m < 4 else 3, seed=seed, final_measurement=final,
                            policy=policy)

    lean = [campaign(*case) for case in cases]
    monkeypatch.setattr(montecarlo, "_UniformStream", _IndexedStream)
    monkeypatch.setattr(montecarlo, "build_segment", _indexed_build_segment)
    for case, got in zip(cases, lean):
        assert got == campaign(*case), case


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

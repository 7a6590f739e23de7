"""Pulse-level Monte Carlo of the fusion-based preparation protocol.

This is a classical event simulation over photon-presence flags, not a
quantum simulation: a segment is summarized by whether its connection
qubit still carries a photon. Sources fire per pulse with probability
eta_s, detectors click per photon with probability eta_d (optionally
OR-ed with a dark count), and each fusion attempt routes the incoming
photons 50/25/25 between the separate-port, both-to-measured-port and
both-to-kept-port branches, which is all the quantum mechanics that
survives at this level of description.

build_segment draws every outcome exactly, with no per-pulse loop:

- A level-0 block (source pulses up to the first detector click) is one
  geometric pulse count and one photon flag. Blocks come from per-trial
  lists that _base_blocks refills in numpy batches; the tests check them
  against a per-pulse reference. A block of fewer than _SHARED_PULSES
  pulses is returned as a Segment from one table built once per
  process, so the common short blocks build no object.
- A connection attempt is one uniform, popped from the stream's buffer,
  against a table of P(accept | k) and P(accept good | k), k being the
  photons the two inputs carry. _connection_table derives the table by
  enumerating the routing and detector events of one attempt, and the
  tests check it against a per-event reference; it never uses the
  closed-form p_L of scaling, so the simulation stays an independent
  check of the analytics. The tables are cached per (frozen) model.

Timing follows the parallel-preparation convention: the two inputs of a
connection are built concurrently, so one attempt costs the maximum of
the two build times, and every retry rebuilds per the policy. Each trial
draws from its own counter-based substream keyed by (seed, trial index),
so results are independent of execution order and thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .scaling import (
    ProtocolParams,
    _level_probs,
    a_closed_form,
    total_time_approx_log10,
    total_time_exact_log10,
)

# Workers are started up front, so an unbounded count can exhaust the host.
_MAX_THREADS = 64


@dataclass(frozen=True)
class SourceModel:
    """Pulsed pair source: emits a photon pair with probability eta_s."""

    eta_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_s <= 1.0:
            raise ValueError(f"eta_s must be in (0, 1], got {self.eta_s}")


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector: each photon registers with probability eta_d;
    a dark count is OR-ed in per measured pulse. number_resolving=True
    accepts only an exact count of one."""

    eta_d: float
    dark_count_prob: float = 0.0
    number_resolving: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"eta_d must be in (0, 1], got {self.eta_d}")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError(f"dark_count_prob must be in [0, 1), got {self.dark_count_prob}")


@dataclass(slots=True)
class Segment:
    """A built protocol segment: its level, the ground-truth photon flag
    of its connection qubit, and the pulses it took under the parallel
    convention.

    Level-0 segments of fewer than _SHARED_PULSES pulses are shared:
    build_segment returns the same object for equal ones, so no caller
    may mutate a segment it is given."""

    level: int
    connection_photon_present: bool
    elapsed_pulses: int


# Draws come in batches that double from the first size up to the last,
# so a short trial draws little that it does not use.
_FIRST_BATCH, _MAX_BATCH = 256, 8192
# Level-0 blocks of fewer pulses than this share one Segment per
# (pulses, flag); longer ones, rare unless the click probability is
# below about 1%, get a Segment each.
_SHARED_PULSES = 1024


@cache
def _level0_segments() -> list[tuple[Segment, Segment]]:
    """Level-0 segments by [pulses][photon flag], for pulses below
    _SHARED_PULSES (row 0 is never read). They do not depend on the
    models, so one table serves every stream; it is built on first use."""
    return [(Segment(0, False, pulses), Segment(0, True, pulses))
            for pulses in range(_SHARED_PULSES)]


class _UniformStream:
    """Uniforms and level-0 blocks from a Philox substream keyed by
    (seed, trial).

    Philox is counter-based, so distinct 128-bit keys give independent
    streams regardless of how many numbers each consumes. The uniforms
    sit in draws in reverse, so draws.pop() returns the generator's
    numbers in order; next() pops one and refills the same list when it
    is empty, and build_segment pops inline. bind() looks up the
    connection table and the block probabilities of one (source,
    detector) pair; build_segment calls it whenever it is given another
    pair, compared by identity.
    """

    __slots__ = ("_gen", "_size", "_batch", "_probs",
                 "source", "detector", "accept", "good", "draws", "blocks", "level0")

    def __init__(self, seed: int, trial_index: int, block: int = _FIRST_BATCH):
        key = (seed << 64) | (trial_index & ((1 << 64) - 1))
        # Philox itself rejects a key outside [0, 2**128): a negative seed
        # or one of 64 bits or more.
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # Python floats: arithmetic on numpy scalars is several times slower.
        self.draws: list[float] = self._gen.random(block)[::-1].tolist()
        self._size = block
        self.source = self.detector = None
        self.blocks: list[tuple[int, bool]] = []
        self.level0 = _level0_segments()

    def next(self) -> float:
        draws = self.draws
        if not draws:
            size = self._size = min(2 * self._size, _MAX_BATCH)
            draws.extend(self._gen.random(size)[::-1].tolist())
        return draws.pop()

    def bind(self, source: SourceModel, detector: DetectorModel) -> None:
        self.source, self.detector = source, detector
        self.accept, self.good = _connection_table(detector)
        self._probs = _block_probs(source, detector)
        self._batch = _FIRST_BATCH
        self.blocks.clear()  # drawn for the previous pair

    def refill_blocks(self) -> None:
        """Append a batch of level-0 blocks; build_segment pops them
        from the end (they are i.i.d., so the order is immaterial)."""
        n = self._batch
        self._batch = min(2 * n, _MAX_BATCH)
        u = self._gen.random((2, n))
        self.blocks.extend(zip(*_base_blocks(u[0], u[1], *self._probs)))


# The routing of one fusion attempt for k = 0, 1, 2 photons at the inputs:
# (probability, photons on the measured port, clean separate-port event).
_ROUTES = (
    ((1.0, 0, False),),
    ((0.5, 1, False), (0.5, 0, False)),
    ((0.5, 1, True), (0.25, 2, False), (0.25, 0, False)),
)


@lru_cache(maxsize=64)
def _connection_table(detector: DetectorModel) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(P(accept | k), P(accept good | k)) for k = 0, 1, 2 photons at the
    inputs, by enumerating the events of one attempt: the routing branch
    (_ROUTES), the photons registered (binomial in eta_d) and the dark
    count.

    Good is a click in the clean separate-port branch with exactly one
    photon registered. Every good term is also an accept term, added in
    the same order, so P(good | k) <= P(accept | k) holds in floats too,
    and one uniform r decides both: accept when r < P(accept | k), good
    when r < P(good | k).
    """
    eta, dark = detector.eta_d, detector.dark_count_prob
    accept, good = [], []
    for branches in _ROUTES:
        p_accept = p_good = 0.0
        for p_route, measured, clean in branches:
            for registered in range(measured + 1):
                p_reg = (p_route * math.comb(measured, registered)
                         * eta**registered * (1.0 - eta) ** (measured - registered))
                for count, p_dark in ((registered, 1.0 - dark), (registered + 1, dark)):
                    if count == 1 if detector.number_resolving else count >= 1:
                        p_accept += p_reg * p_dark
                        if clean and registered == 1:
                            p_good += p_reg * p_dark
        accept.append(p_accept)
        good.append(p_good)
    return tuple(accept), tuple(good)


@lru_cache(maxsize=64)
def _block_probs(source: SourceModel, detector: DetectorModel) -> tuple[float, float]:
    """(p_good, p_click) of one source pulse: the probability that its
    detector clicks with an emitted pair behind it, and that it clicks
    at all (a pair, or a dark count alone)."""
    eta_d, dark = detector.eta_d, detector.dark_count_prob
    if detector.number_resolving:
        click_if_photon = eta_d * (1.0 - dark) + (1.0 - eta_d) * dark
    else:
        click_if_photon = 1.0 - (1.0 - eta_d) * (1.0 - dark)
    p_good = source.eta_s * click_if_photon
    return p_good, p_good + (1.0 - source.eta_s) * dark


def _base_blocks(
    u0: np.ndarray, u1: np.ndarray, p_good: float, p_click: float
) -> tuple[list[int], list[bool]]:
    """(pulses, photon flags) of level-0 blocks, one per uniform pair
    (u0[i], u1[i]): source pulses repeated until a detector click, drawn
    exactly.

    Pulses are i.i.d., so the count is geometric in p_click (inverse CDF
    of u0) and the clicking pulse's kind (emitted pair or dark count
    alone) is independent of when it came: it carries the photon when
    u1 * p_click < p_good.
    """
    flags = (u1 * p_click < p_good).tolist()
    if p_click >= 1.0:  # log1p(-1) raises; a sure click takes one pulse
        return [1] * len(flags), flags
    gaps = np.floor(np.log(1.0 - u0) / math.log1p(-p_click))
    if gaps.max() < 2.0**62:
        return (gaps.astype(np.int64) + 1).tolist(), flags
    # int64 would wrap at a tiny p_click; Python ints hold any count
    return [int(gap) + 1 for gap in gaps.tolist()], flags


class LevelCounters:
    """attempts / acceptances / good tallies for one level."""

    __slots__ = ("attempts", "acceptances", "good")

    def __init__(self) -> None:
        self.attempts = 0
        self.acceptances = 0
        self.good = 0


def build_segment(
    level: int,
    source: SourceModel,
    detector: DetectorModel,
    u: _UniformStream,
    stats: list[LevelCounters],
    policy: str = "both",
) -> Segment:
    """Build one accepted segment of the given level, recursively.

    Level 0 is source pulses repeated until a detector click, one block
    drawn by _base_blocks; a failed base attempt restarts only that pair.
    Higher levels build both inputs (in parallel, so an attempt costs max
    of the two block times) and decide the attempt with one uniform
    against _connection_table. On rejection they rebuild per the policy:
    "both" (default) rebuilds both inputs, "kept" reuses the kept-side
    input and rebuilds only the measured side.

    Each nested build is one call through the module-level name, and
    stats[level] grows only in the call that builds that level, once as
    it returns, so wrapping build_segment sees every segment and its
    attempts.
    """
    if u.source is not source or u.detector is not detector:
        u.bind(source, detector)
    if level == 0:
        blocks = u.blocks
        if not blocks:
            u.refill_blocks()
        pulses, present = blocks.pop()
        counters = stats[0]
        counters.attempts += pulses
        counters.acceptances += 1
        counters.good += present
        if pulses < _SHARED_PULSES:
            return u.level0[pulses][present]
        return Segment(0, present, pulses)

    accept, good, draws = u.accept, u.good, u.draws
    keep = policy == "kept"
    elapsed = attempts = 0
    kept: Segment | None = None
    while True:
        seg_a = build_segment(level - 1, source, detector, u, stats, policy)
        if kept is None:
            seg_b = build_segment(level - 1, source, detector, u, stats, policy)
            a, b = seg_a.elapsed_pulses, seg_b.elapsed_pulses
            elapsed += a if a > b else b
        else:
            seg_b = kept
            elapsed += seg_a.elapsed_pulses
        attempts += 1
        photons = seg_a.connection_photon_present + seg_b.connection_photon_present
        r = draws.pop() if draws else u.next()
        if r < accept[photons]:
            present = r < good[photons]
            counters = stats[level]
            counters.attempts += attempts
            counters.acceptances += 1
            counters.good += present
            return Segment(level, present, elapsed)
        if keep:
            kept = seg_b


def _confirm_connection_qubit(seg: Segment, detector: DetectorModel, u: _UniformStream) -> bool:
    """Final confirmation: measure the surviving connection qubit. Its
    photon, if present, registers on a uniform below eta_d; a dark count
    then needs a second uniform below dark_count_prob."""
    registered = seg.connection_photon_present and u.next() < detector.eta_d
    dark = detector.dark_count_prob > 0.0 and u.next() < detector.dark_count_prob
    if detector.number_resolving:
        return registered != dark  # exactly one count
    return registered or dark


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' pool, imported on first use: it loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _run_trial_range(
    args: tuple,
) -> tuple[list[list[int]], list[int], list[int]]:
    (params, source, detector, seed, start, stop, final_measurement, policy) = args
    top_level = params.m - 1
    stats = [LevelCounters() for _ in range(top_level + 1)]
    totals: list[int] = []
    first_builds: list[int] = []
    for trial in range(start, stop):
        u = _UniformStream(seed, trial)
        total = 0
        first = None
        while True:
            seg = build_segment(top_level, source, detector, u, stats, policy)
            total += seg.elapsed_pulses
            if first is None:
                first = seg.elapsed_pulses
            if not final_measurement or _confirm_connection_qubit(seg, detector, u):
                break
        totals.append(total)
        first_builds.append(first)
    counts = [[c.attempts, c.acceptances, c.good] for c in stats]
    return counts, totals, first_builds


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    At p_hat = 0 the lower bound is exactly 0 and at p_hat = 1 the upper
    bound is exactly 1 (center - half and center + half in exact
    arithmetic), so the interval always holds its own estimate; the
    float formula can miss them by one ulp."""
    if trials <= 0:
        return 0.0, 1.0
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4 * trials * trials)) / denom
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == trials else min(1.0, center + half)
    return lower, upper


@dataclass(frozen=True)
class LevelStats:
    level: int
    attempts: int
    acceptances: int
    good: int
    p_hat: float
    p_ci95: tuple[float, float]
    a_hat: float
    a_ci95: tuple[float, float]


@dataclass(frozen=True)
class SimResult:
    params: ProtocolParams
    source: SourceModel
    detector: DetectorModel
    trials: int
    trials_completed: int
    seed: int
    final_measurement: bool
    policy: str
    per_level: tuple[LevelStats, ...]
    total_pulses: tuple[int, ...]
    total_pulses_unconfirmed: tuple[int, ...]
    partial: bool

    def _pulse_summary(self, values: Sequence[int]) -> dict:
        if not values:
            return {"mean": None, "median": None, "geomean": None}
        import statistics  # loaded on first use, not with the package
        n = len(values)
        return {
            "mean": math.fsum(values) / n,
            "median": float(statistics.median(values)),
            "geomean": math.exp(math.fsum(math.log(v) for v in values) / n),
        }

    def analytic_block(self) -> dict:
        """Closed-form predictions at the operating point. They assume an
        ideal threshold detector (no dark counts, not number-resolving)
        and the `both` policy; matches_simulated_detector says whether
        that is the simulated model."""
        m = self.params.m
        a_list = [a_closed_form(level, self.params.eta_d) for level in range(m)]
        return {
            "a_m": a_list,
            "p_m": _level_probs(self.params),
            "T_exact_log10": total_time_exact_log10(self.params),
            "T_approx_log10": total_time_approx_log10(
                self.params.n, self.params.eta_s, self.params.eta_d
            ),
            "matches_simulated_detector": (
                self.detector.dark_count_prob == 0 and not self.detector.number_resolving
                and self.policy == "both"
            ),
        }

    def to_json_dict(self, timestamp: str | None = None) -> dict:
        doc = {
            "params": {
                "m": self.params.m,
                "eta_s": self.params.eta_s,
                "eta_d": self.params.eta_d,
                "final_measurement": self.final_measurement,
                "policy": self.policy,
            },
            "models": {
                "eta_s": self.source.eta_s,
                "eta_d": self.detector.eta_d,
                "dark_count_prob": self.detector.dark_count_prob,
                "number_resolving": self.detector.number_resolving,
            },
            "seed": self.seed,
            "trials": self.trials_completed,
            "per_level": [
                {
                    "m": row.level,
                    "attempts": row.attempts,
                    "acceptances": row.acceptances,
                    "p_hat": row.p_hat,
                    "p_ci95": list(row.p_ci95),
                    "a_hat": row.a_hat,
                    "a_ci95": list(row.a_ci95),
                }
                for row in self.per_level
            ],
            "total_pulses": self._pulse_summary(self.total_pulses),
            "total_pulses_unconfirmed": self._pulse_summary(self.total_pulses_unconfirmed),
            "analytic": self.analytic_block(),
            "partial": self.partial,
        }
        if timestamp is not None:
            doc["timestamp"] = timestamp
        return doc


def run_campaign(
    params: ProtocolParams,
    source: SourceModel,
    detector: DetectorModel,
    trials: int,
    seed: int,
    threads: int = 1,
    final_measurement: bool = True,
    policy: str = "both",
    max_seconds: float | None = None,
) -> SimResult:
    """Run independent full-build trials and aggregate per-level stats.

    Each trial builds a level m-1 segment (connection levels 1..m-1 on
    top of level-0 base pairs) and, with final_measurement, confirms the
    surviving connection qubit, rebuilding everything on a failed
    confirmation. Per-trial substreams keyed by (seed, trial) make the
    result independent of threads; max_seconds (finite and positive)
    enforces a wall-clock budget (serial execution) and flags the result
    partial when it strikes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if policy not in ("both", "kept"):
        raise ValueError(f"unknown rebuild policy {policy!r}")
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError(f"threads must be in [1, {_MAX_THREADS}], got {threads}")
    if max_seconds is not None and not (math.isfinite(max_seconds) and max_seconds > 0):
        raise ValueError(f"max_seconds must be finite and positive, got {max_seconds}")

    top_level = params.m - 1
    counts = [[0, 0, 0] for _ in range(top_level + 1)]
    totals: list[int] = []
    first_builds: list[int] = []
    partial = False

    def merge(result: tuple) -> None:
        chunk_counts, chunk_totals, chunk_firsts = result
        for row, chunk_row in zip(counts, chunk_counts):
            row[0] += chunk_row[0]
            row[1] += chunk_row[1]
            row[2] += chunk_row[2]
        totals.extend(chunk_totals)
        first_builds.extend(chunk_firsts)

    if threads == 1 or max_seconds is not None:
        deadline = None if max_seconds is None else time.monotonic() + max_seconds
        for trial in range(trials):
            if deadline is not None and time.monotonic() > deadline and trial > 0:
                partial = True
                break
            merge(_run_trial_range(
                (params, source, detector, seed, trial, trial + 1, final_measurement, policy)
            ))
    else:
        chunk = max(1, math.ceil(trials / (threads * 4)))
        ranges = [(start, min(start + chunk, trials)) for start in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=min(threads, len(ranges))) as pool:
            for result in pool.map(
                _run_trial_range,
                [
                    (params, source, detector, seed, start, stop, final_measurement, policy)
                    for start, stop in ranges
                ],
            ):
                merge(result)

    per_level = []
    for level, (attempts, acceptances, good) in enumerate(counts):
        p_hat = acceptances / attempts if attempts else 0.0
        a_hat = good / acceptances if acceptances else 0.0
        per_level.append(LevelStats(
            level=level,
            attempts=attempts,
            acceptances=acceptances,
            good=good,
            p_hat=p_hat,
            p_ci95=wilson_interval(acceptances, attempts),
            a_hat=a_hat,
            a_ci95=wilson_interval(good, acceptances),
        ))
    return SimResult(
        params=params,
        source=source,
        detector=detector,
        trials=trials,
        trials_completed=len(totals),
        seed=seed,
        final_measurement=final_measurement,
        policy=policy,
        per_level=tuple(per_level),
        total_pulses=tuple(totals),
        total_pulses_unconfirmed=tuple(first_builds),
        partial=partial,
    )

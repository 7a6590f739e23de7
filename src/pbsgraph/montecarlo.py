"""Pulse-level Monte Carlo of the fusion-based preparation protocol.

This is a classical event simulation over photon-presence flags, not a
quantum simulation: a segment is summarized by whether its connection
qubit still carries a photon. Sources fire per pulse with probability
eta_s, detectors click per photon with probability eta_d (optionally
OR-ed with a dark count), and each fusion attempt routes the incoming
photons 50/25/25 between the separate-port, both-to-measured-port and
both-to-kept-port branches, which is all the quantum mechanics that
survives at this level of description.

A level-0 block (source pulses up to the first detector click) is drawn
exactly as one geometric pulse count and one photon flag, not pulse by
pulse; attempt_base_pair is the per-pulse reference it is tested against.

Timing follows the parallel-preparation convention: the two inputs of a
connection are built concurrently, so one attempt costs the maximum of
the two build times, and every retry rebuilds per the policy. Each trial
draws from its own counter-based substream keyed by (seed, trial index),
so results are independent of execution order and thread count.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .scaling import (
    ProtocolParams,
    a_closed_form,
    base_success_prob,
    connection_success_prob,
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


@dataclass
class Segment:
    """A built protocol segment: its level, the ground-truth photon flag
    of its connection qubit, and the pulses it took under the parallel
    convention."""

    level: int
    connection_photon_present: bool
    elapsed_pulses: int


class ConnectionResult(Enum):
    ACCEPTED_GOOD = "good"
    ACCEPTED_VACUUM = "vacuum"
    REJECTED = "rejected"


class _UniformStream:
    """Buffered uniforms from a Philox substream keyed by (seed, trial).

    Philox is counter-based, so distinct 128-bit keys give independent
    streams regardless of how many numbers each consumes.
    """

    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, seed: int, trial_index: int, block: int = 8192):
        if seed < 0 or seed >= 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        key = (seed << 64) | (trial_index & ((1 << 64) - 1))
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # Python floats: arithmetic on numpy scalars is several times slower.
        self._buf = self._gen.random(block).tolist()
        self._pos = 0

    def next(self) -> float:
        buf, pos = self._buf, self._pos
        if pos == len(buf):
            buf = self._buf = self._gen.random(len(buf)).tolist()
            pos = 0
        self._pos = pos + 1
        return buf[pos]


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


def _base_block(source: SourceModel, detector: DetectorModel, u: _UniformStream) -> tuple[int, bool]:
    """(pulses, photon_present) of one level-0 block: attempt_base_pair
    repeated until a click, drawn exactly from two uniforms.

    Pulses are i.i.d., so the count is geometric in the per-pulse click
    probability and the clicking pulse's kind (emitted pair or dark
    count alone) is independent of when it came.
    """
    eta_d, dark = detector.eta_d, detector.dark_count_prob
    if detector.number_resolving:
        click_if_photon = eta_d * (1.0 - dark) + (1.0 - eta_d) * dark
    else:
        click_if_photon = 1.0 - (1.0 - eta_d) * (1.0 - dark)
    p_good = source.eta_s * click_if_photon
    p_click = p_good + (1.0 - source.eta_s) * dark
    pulses = 1
    if p_click < 1.0:  # log1p(-1) raises; a sure click takes one pulse
        pulses += math.floor(math.log(1.0 - u.next()) / math.log1p(-p_click))
    return pulses, bool(u.next() * p_click < p_good)


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

    Level 0 is attempt_base_pair repeated until a click, drawn as one
    block by _base_block; a failed base attempt restarts only that pair.
    Higher levels build both inputs (in parallel, so an attempt costs max
    of the two block times), attempt the connection and, on rejection,
    rebuild per the policy: "both" (default) rebuilds both inputs, "kept"
    reuses the kept-side input and rebuilds only the measured side.
    """
    counters = stats[level]
    if level == 0:
        pulses, present = _base_block(source, detector, u)
        counters.attempts += pulses
        counters.acceptances += 1
        counters.good += present
        return Segment(0, present, pulses)

    elapsed = 0
    kept: Segment | None = None
    while True:
        seg_a = build_segment(level - 1, source, detector, u, stats, policy)
        if kept is None:
            seg_b = build_segment(level - 1, source, detector, u, stats, policy)
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


def _confirm_connection_qubit(seg: Segment, detector: DetectorModel, u: _UniformStream) -> bool:
    """Final confirmation: measure the surviving connection qubit."""
    click, _ = _detector_clicks(1 if seg.connection_photon_present else 0, detector, u)
    return click


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
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


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
        p_list = [base_success_prob(self.params.eta_s, self.params.eta_d)]
        p_list += [
            connection_success_prob(a_closed_form(level - 1, self.params.eta_d), self.params.eta_d)
            for level in range(1, m)
        ]
        return {
            "a_m": a_list,
            "p_m": p_list,
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

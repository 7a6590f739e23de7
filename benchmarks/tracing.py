"""Per-layer tracing of pbsgraph from outside the package.

``Tracer.install()`` replaces selected public functions and methods of
the pbsgraph layers with timing wrappers and ``uninstall()`` puts the
originals back. A module-level function is replaced at every pbsgraph
module attribute bound to it: ``from .montecarlo import run_campaign``
in ``cli`` copies the binding, so patching the defining module alone
would miss that call site. Methods are replaced on their class, which
every importer shares.

A call is recorded only while a root span is open: an op's ``cli.main``
call, or the benchmark's traced input generation (``Tracer.setup``).
The benchmark's own checks run with no root open, so their calls are
not counted. Each wrapped function keeps count, busy (inclusive) and
self (inclusive minus time in wrapped children) totals. Spans are kept
in memory only for roots and their direct children, the calls from the
CLI into the layers; the hot inner functions (level-0 ``build_segment``,
the search's ``apply_pbs_gate``, ``StabilizerGroup`` construction) run
hundreds of thousands of times per run and keep totals only.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

# Metric prefix -> (module under pbsgraph, attribute path). A path with a
# dot names a method on a class; "StabilizerGroup.__init__" is group
# construction, including the validation it runs.
TRACED = {
    "cli.main": ("cli", "main"),
    "montecarlo.run_campaign": ("montecarlo", "run_campaign"),
    "pauli.StabilizerGroup": ("pauli", "StabilizerGroup.__init__"),
    "pauli.canonical_form": ("pauli", "StabilizerGroup.canonical_form"),
    "pauli.measure_zz_postselect": ("pauli", "StabilizerGroup.measure_zz_postselect"),
    "pauli.apply_hadamard": ("pauli", "StabilizerGroup.apply_hadamard"),
    "graphs.apply_pbs_gate": ("graphs", "apply_pbs_gate"),
    "graphs.stabilizers_to_graph": ("graphs", "stabilizers_to_graph"),
    "graphs.graph_to_stabilizers": ("graphs", "graph_to_stabilizers"),
    "graphs.parse_edge_list": ("graphs", "parse_edge_list"),
    "planner.execute_schedule": ("planner", "execute_schedule"),
    "planner.brute_force_schedule_search": ("planner", "brute_force_schedule_search"),
    "planner.execute_schedule_fock": ("planner", "execute_schedule_fock"),
    "planner.plan_tree_protocol": ("planner", "plan_tree_protocol"),
    "planner.parse_schedule": ("planner", "parse_schedule"),
    "planner.validate_schedule": ("planner", "validate_schedule"),
    "fock.apply_pbs": ("fock", "FockState.apply_pbs"),
    "fock.apply_hwp_hadamard": ("fock", "FockState.apply_hwp_hadamard"),
    "fock.postselect_single_photon": ("fock", "FockState.postselect_single_photon"),
    "fock.qubit_statevector_from_stabilizers": ("fock", "qubit_statevector_from_stabilizers"),
    "fock.fidelity": ("fock", "fidelity"),
    "fock.tensor": ("fock", "tensor"),
    "fock.make_bell_pair": ("fock", "make_bell_pair"),
}
# build_segment is split by level: level 0 is the per-pulse source loop,
# higher levels are connection attempts. The per-pulse helpers it calls
# (attempt_base_pair, attempt_connection) are not wrapped: a wrapper per
# pulse would cost more than the pulse, and build_segment's counters
# already count that work.
LEVEL0 = "montecarlo.build_segment.level0"
CONNECT = "montecarlo.build_segment.connect"
# Every public function of scaling is summed into one metric.
SCALING = "scaling"
ROOT = "cli.main"


class Stat:
    """Totals for one traced function. ``total`` sums a per-call size
    (attempts, qubits) and ``hits`` counts calls with a positive outcome
    (a good segment, a found schedule)."""

    __slots__ = ("count", "busy_s", "self_s", "total", "hits")

    def __init__(self) -> None:
        self.count = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.total = 0
        self.hits = 0

    def snapshot(self) -> tuple:
        return (self.count, self.busy_s, self.self_s, self.total, self.hits)


class Tracer:
    def __init__(self) -> None:
        self.stats = {key: Stat() for key in [*TRACED, LEVEL0, CONNECT, SCALING]}
        # (span id, parent id, op, name, start, end), in completion order.
        self.spans: list[tuple] = []
        self.op: int | str | None = None
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []
        self._wrappers: list[object] = []

    # ----- installation -----

    def install(self) -> None:
        import pbsgraph.cli  # noqa: F401  (loads every layer module)

        if self._patches:
            raise RuntimeError("tracer already installed")
        for key, (module, path) in TRACED.items():
            self._patch(module, path, lambda fn, k=key: self._wrap(fn, k, OBSERVERS.get(k)))
        self._patch("montecarlo", "build_segment", self._wrap_build_segment)
        scaling = sys.modules["pbsgraph.scaling"]
        for name in scaling.__all__:
            if inspect.isfunction(getattr(scaling, name)):
                self._patch("scaling", name, lambda fn: self._wrap(fn, SCALING))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules[f"pbsgraph.{module}"]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, attr)
        wrapper = make(original)
        self._originals.append(original)
        self._wrappers.append(wrapper)
        if owner_name:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for site in _pbsgraph_modules():
            for name, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, name, original))
                    setattr(site, name, wrapper)

    def binding_sites(self, wrapped: bool) -> list[str]:
        """Module attributes and methods still bound to an original
        (wrapped=False) or to a wrapper (wrapped=True). Both lists are
        empty when installation, and then restoration, was complete."""
        wanted = {id(f) for f in (self._wrappers if wrapped else self._originals)}
        found = []
        for site in _pbsgraph_modules():
            for name, value in vars(site).items():
                if id(value) in wanted:
                    found.append(f"{site.__name__}.{name}")
                if inspect.isclass(value) and value.__module__ == site.__name__:
                    found += [
                        f"{site.__name__}.{name}.{attr}"
                        for attr, member in vars(value).items()
                        if id(member) in wanted
                    ]
        return found

    # ----- spans -----

    @contextmanager
    def setup(self):
        """Root span for the benchmark's traced input generation."""
        if self._stack:
            raise RuntimeError("setup span opened inside another root")
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, "setup", start, time.perf_counter())

    def _enter(self) -> list:
        span = -1
        if len(self._stack) <= 1:
            span = self._next_span
            self._next_span += 1
        frame = [0.0, span]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, start: float, end: float) -> float:
        stack = self._stack
        stack.pop()
        elapsed = end - start
        parent = -1
        if stack:
            stack[-1][0] += elapsed
            parent = stack[-1][1]
        if frame[1] >= 0:
            self.spans.append((frame[1], parent, self.op, name, start, end))
        return elapsed

    def _wrap(self, fn, key: str, observe=None):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        is_root = key == ROOT

        def wrapper(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)
            frame = self._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = self._leave(frame, key, start, end)
                stat.count += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - frame[0]
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return wrapper

    def _wrap_build_segment(self, fn):
        """build_segment(level, source, detector, u, stats, policy):
        one call returns one accepted segment of its level, and the
        attempts it took are the growth of stats[level].attempts (the
        recursion only descends, so nested calls never touch that row)."""
        level0, connect = self.stats[LEVEL0], self.stats[CONNECT]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(level, source, detector, u, stats, *rest, **kwargs):
            if not stack:
                return fn(level, source, detector, u, stats, *rest, **kwargs)
            stat = level0 if level == 0 else connect
            counters = stats[level]
            attempts = counters.attempts
            frame = self._enter()
            start = clock()
            try:
                segment = fn(level, source, detector, u, stats, *rest, **kwargs)
            finally:
                end = clock()
                elapsed = self._leave(frame, LEVEL0 if level == 0 else CONNECT, start, end)
                stat.count += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - frame[0]
            stat.total += counters.attempts - attempts
            stat.hits += segment.connection_photon_present
            return segment

        return wrapper

    def snapshot(self) -> dict[str, tuple]:
        return {key: stat.snapshot() for key, stat in self.stats.items()}


def _observe_qubits(stat: Stat, args, kwargs, result) -> None:
    group = args[0]
    stat.total += group.num_qubits


def _observe_found(stat: Stat, args, kwargs, result) -> None:
    stat.hits += result is not None


# Per-call extras, run after the call returns.
OBSERVERS = {
    "pauli.StabilizerGroup": _observe_qubits,
    "planner.brute_force_schedule_search": _observe_found,
}


def _pbsgraph_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "pbsgraph" or name.startswith("pbsgraph."))
    ]

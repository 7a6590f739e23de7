"""Command-line front end: analyze / simulate / plan / verify.

Exit codes: 0 success, 2 usage or parse error, 3 wall-clock budget hit
(partial results written), 4 target unreachable / no schedule found.
An optional --config file holds key=value pairs that map onto long flag
names; explicit flags always win.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

from .graphs import parse_edge_list, to_dot
from .montecarlo import DetectorModel, SourceModel, run_campaign
from .planner import (
    brute_force_schedule_search,
    execute_schedule,
    execute_schedule_fock,
    parse_schedule,
    plan_join_sequence,
    plan_tree_protocol,
    schedule_text,
)
from .fock import MAX_DENSE_QUBITS, fidelity, qubit_statevector_from_stabilizers
from .scaling import (
    ProtocolParams,
    csv_table,
    naive_time_log10,
    scaling_table,
    total_time_approx_log10,
    total_time_exact_log10,
)

# a_closed_form takes 2**m as a float, which overflows past m = 1023.
_MAX_ANALYZE_LEVELS = 1023
# A trial builds at least 2**(m-1) level-0 blocks, one stack frame per
# level: m = 40 is 5.5e11 blocks, days per trial, and deeper runs meet
# Python's recursion limit near m = 990.
_MAX_SIMULATE_LEVELS = 40


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pbsgraph",
        description="Fusion-based graph-state toolkit: scaling analytics, "
        "pulse-level Monte Carlo, schedule planning and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file mapped onto flags; flags take precedence")
        subparsers[name] = p
        return p

    # "Required" flags stay optional at the argparse level so a --config
    # file can supply them; _require checks presence after the merge.
    p = add("analyze", "tabulate success probabilities and preparation times")
    p.add_argument("--eta-s", type=float, help="source efficiency in (0, 1]")
    p.add_argument("--eta-d", type=float, help="detector efficiency in (0, 1]")
    p.add_argument("--m", type=int, help="number of doubling levels (target size n = 2^m)")
    p.add_argument("--naive", action="store_true", help="report the direct-generation baseline instead")
    p.add_argument("--n", type=int, help="target qubit count for --naive (even)")
    p.add_argument("--rep-rate-hz", type=float, help="pulse rate; enables times in seconds")
    p.add_argument("--t0-seconds", type=float, help="pulse period; overrides --rep-rate-hz")
    p.add_argument("--csv", help="write the per-level table to this path")

    p = add("simulate", "run the pulse-level Monte Carlo campaign")
    p.add_argument("--m", type=int, help="doubling levels, >= 1")
    p.add_argument("--eta-s", type=float, help="source efficiency in (0, 1]")
    p.add_argument("--eta-d", type=float, help="detector efficiency in (0, 1]")
    p.add_argument("--trials", type=int, default=1000, help="independent full-build trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dark", type=float, default=0.0, help="per-pulse dark count probability")
    p.add_argument("--number-resolving", action="store_true",
                   help="accept only exactly-one-photon detector counts")
    p.add_argument("--policy", choices=("both", "kept"), default="both",
                   help="which inputs to rebuild after a rejected connection")
    p.add_argument("--no-final-measurement", action="store_true",
                   help="skip the confirmation measurement of the last connection qubit")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes; never changes results")
    p.add_argument("--max-seconds", type=float, help="wall-clock budget; partial results exit 3")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")

    p = add("plan", "synthesize a schedule for a target graph")
    p.add_argument("target", nargs="?", help="edge-list file of the target graph")
    p.add_argument("--protocol", action="store_true", help="emit the doubling-protocol schedule")
    p.add_argument("--m", type=int,
                   help="levels K for --protocol: 2^K pairs, 2^(K+1) qubits "
                   "(analyze and simulate read --m as n = 2^m)")
    p.add_argument("--brute-force", action="store_true",
                   help="exhaustive search instead of tree planning (<= 8 vertices)")
    p.add_argument("--allow-intra", action="store_true",
                   help="brute force may fuse qubits already in one cluster")
    p.add_argument("--allow-hadamard", action="store_true",
                   help="brute force may insert bare Hadamards")
    p.add_argument("--max-gates", type=int,
                   help="cap on the brute-force search's steps: its gates, and under "
                        "--allow-hadamard its bare Hadamards too")
    p.add_argument("--out", help="write the schedule here instead of stdout")
    p.add_argument("--dot", help="also write the target graph in DOT format")

    p = add("verify", "execute a schedule file and report what it builds")
    p.add_argument("schedule", help="schedule file (PAIR/PBS/H/MEASURE lines)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check photon by photon on a dense dual-rail state "
                   f"(<= {MAX_DENSE_QUBITS} qubits; larger schedules skip it)")

    return parser, subparsers


# Words an on/off flag accepts in a config file.
_SWITCH_WORDS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def _load_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built once and never modified: a parser is about 300 objects in
    # reference cycles, and one per call drove a 10-15 ms full garbage
    # collection every few hundred in-process calls.
    return _build_parser()[0]


def _parser_for(argv: list[str]) -> argparse.ArgumentParser:
    """The shared parser, or with --config a fresh one whose chosen
    subcommand takes the file's values as defaults, so explicit flags
    keep precedence."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return _shared_parser()
    parser, subparsers = _build_parser()
    command = next((t for t in argv if not t.startswith("-")), None)
    sub = subparsers.get(command)
    if sub is None:
        return parser
    values = _load_config(path)
    actions = {action.dest: action for action in sub._actions}
    unknown = set(values) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(sorted(unknown))}")
    # String defaults go through each flag's type when argparse parses;
    # only on/off flags, which take no value, translate words here.
    for key, value in values.items():
        if actions[key].nargs == 0:
            if value.lower() not in _SWITCH_WORDS:
                raise ValueError(
                    f"config key {key}: expected true/yes/on or false/no/off, got {value!r}")
            values[key] = _SWITCH_WORDS[value.lower()]
    sub.set_defaults(**values)
    return parser


def _require(args, *names: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")


def _check_levels(m: int, cap: int) -> None:
    if m > cap:
        raise ValueError(f"--m must be at most {cap}, got {m}")


def _positive(value: float) -> bool:
    """True for a finite value above zero; nan and inf are not."""
    return math.isfinite(value) and value > 0


def _resolve_t0(args) -> float | None:
    """The pulse period: --t0-seconds if given, else 1 / --rep-rate-hz.
    Every given flag is checked, and so is the period a rate gives."""
    if args.t0_seconds is not None and not _positive(args.t0_seconds):
        raise ValueError("t0 must be positive")
    if args.rep_rate_hz is not None:
        if not _positive(args.rep_rate_hz):
            raise ValueError("repetition rate must be positive")
        if not math.isfinite(1.0 / args.rep_rate_hz):
            raise ValueError("repetition rate too small: period overflows")
    if args.t0_seconds is not None:
        return args.t0_seconds
    return None if args.rep_rate_hz is None else 1.0 / args.rep_rate_hz


def _seconds(over_t0: float, log10: float, t0: float) -> str:
    """T/t0 times t0, or 10^(log10 T/t0 + log10 t0) when that overflows."""
    seconds = over_t0 * t0
    return f"{seconds:.6g}" if math.isfinite(seconds) else f"10^{log10 + math.log10(t0):.6g}"


def cmd_analyze(args) -> int:
    _require(args, "eta_s", "eta_d")
    t0 = _resolve_t0(args)
    if args.naive:
        if args.n is None:
            raise ValueError("--naive requires --n")
        log10_t = naive_time_log10(args.n, args.eta_s, args.eta_d)
        print(f"direct generation of n={args.n} at eta_s={args.eta_s:g} eta_d={args.eta_d:g}:")
        print(f"log10(T/t0) = {log10_t:.6g}  (T/t0 ~ 10^{log10_t:.1f})")
        if t0 is not None:
            print(f"log10(T/seconds) = {log10_t + math.log10(t0):.6g}")
        return 0

    if args.m is None:
        raise ValueError("analyze needs --m (or --naive with --n)")
    _check_levels(args.m, _MAX_ANALYZE_LEVELS)
    params = ProtocolParams(m=args.m, eta_s=args.eta_s, eta_d=args.eta_d)
    rows = scaling_table(args.m, args.eta_s, args.eta_d)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_table(rows))
        print(f"wrote {args.csv} ({len(rows)} rows)")
    head = rows[-1]
    exact_log10 = total_time_exact_log10(params) + 0.0
    approx_log10 = total_time_approx_log10(params.n, args.eta_s, args.eta_d) + 0.0
    print(f"m={params.m} n={params.n} eta_s={args.eta_s:g} eta_d={args.eta_d:g}")
    print(f"a_m = {head.a_m:.12g}   p_m = {head.p_m:.12g}")
    if math.isfinite(head.t_exact_over_t0):
        print(f"T_exact/t0  = {head.t_exact_over_t0:.12g}  (log10 = {exact_log10:.6g})")
    else:
        print(f"T_exact/t0  = 10^{exact_log10:.6g}")
    if math.isfinite(head.t_approx_over_t0):
        print(f"T_approx/t0 = {head.t_approx_over_t0:.12g}  (log10 = {approx_log10:.6g})")
    else:
        print(f"T_approx/t0 = 10^{approx_log10:.6g}")
    if t0 is not None:
        if math.isfinite(head.t_exact_over_t0):
            print(f"T_exact  = {_seconds(head.t_exact_over_t0, exact_log10, t0)} s at t0 = {t0:.4g} s")
        if math.isfinite(head.t_approx_over_t0):
            print(f"T_approx = {_seconds(head.t_approx_over_t0, approx_log10, t0)} s at t0 = {t0:.4g} s")
    return 0


def cmd_simulate(args) -> int:
    _require(args, "m", "eta_s", "eta_d")
    _check_levels(args.m, _MAX_SIMULATE_LEVELS)
    params = ProtocolParams(m=args.m, eta_s=args.eta_s, eta_d=args.eta_d)
    source = SourceModel(eta_s=args.eta_s)
    detector = DetectorModel(
        eta_d=args.eta_d,
        dark_count_prob=args.dark,
        number_resolving=args.number_resolving,
    )
    result = run_campaign(
        params,
        source,
        detector,
        trials=args.trials,
        seed=args.seed,
        threads=args.threads,
        final_measurement=not args.no_final_measurement,
        policy=args.policy,
        max_seconds=args.max_seconds,
    )
    stamp = None
    if not args.no_timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = json.dumps(result.to_json_dict(timestamp=stamp), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({result.trials_completed}/{result.trials} trials)")
    else:
        sys.stdout.write(text)
    if result.partial:
        print("time budget exceeded: results are partial", file=sys.stderr)
        return 3
    return 0


def cmd_plan(args) -> int:
    if args.protocol:
        if args.m is None:
            raise ValueError("--protocol requires --m")
        sched = plan_tree_protocol(args.m)
        verdict = (
            f"# protocol schedule: {args.m} levels, {sched.pair_count()} pairs, "
            f"{sched.gate_count()} gates"
        )
    else:
        if args.target is None:
            raise ValueError("plan needs a target edge-list file or --protocol")
        with open(args.target, encoding="utf-8") as handle:
            target = parse_edge_list(handle.read())
        if args.brute_force:
            sched = brute_force_schedule_search(
                target,
                allow_intra=args.allow_intra,
                allow_hadamard=args.allow_hadamard,
                max_gates=args.max_gates,
            )
            if sched is None:
                print("no schedule found within the step limit (--max-gates)", file=sys.stderr)
                return 4
            verdict = (
                f"# found by search: {sched.pair_count()} pairs, {sched.gate_count()} gates"
            )
        else:
            sched = plan_join_sequence(target)
            if sched is None:
                print("target is unreachable by joins", file=sys.stderr)
                return 4
            verdict = f"# reachable: {sched.pair_count()} pairs, {sched.gate_count()} gates"

    body = verdict + "\n" + schedule_text(sched)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(verdict.lstrip("# "))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(body)
    if args.dot:
        target_graph = sched.target
        if target_graph is not None:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(to_dot(target_graph))
            print(f"wrote {args.dot}")
    return 0


def cmd_verify(args) -> int:
    with open(args.schedule, encoding="utf-8") as handle:
        sched = parse_schedule(handle.read())
    prob, group, graph = execute_schedule(sched)
    print(f"instructions: {len(sched.instructions)} "
          f"({sched.pair_count()} pairs, {sched.gate_count()} gates)")
    print(f"probability: {prob!r}")
    if graph is None:
        print("graph: not in graph form")
    else:
        edges = " ".join(f"{u}-{v}" for u, v in graph.sorted_edges())
        print(f"graph: {graph.num_vertices} vertices; edges: {edges if edges else '(none)'}")
    if args.oracle:
        n = group.num_qubits
        if n > MAX_DENSE_QUBITS:
            print(f"oracle: skipped ({n} qubits exceeds the {MAX_DENSE_QUBITS}-qubit cap)")
        elif prob == 0.0:
            print("oracle: skipped (impossible postselection)")
        else:
            fock_prob, state = execute_schedule_fock(sched)
            # both arrays have one axis per qubit in sorted id order
            fid = fidelity(state, qubit_statevector_from_stabilizers(group))
            print(f"oracle probability: {fock_prob!r}")
            print(f"oracle fidelity: {fid:.12f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _parser_for(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "plan": cmd_plan,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

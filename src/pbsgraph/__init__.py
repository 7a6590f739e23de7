"""Fusion-based photonic graph-state toolkit.

Stabilizer-level and second-quantized models of the polarizing-beam-
splitter fusion gate, graph join rules, closed-form preparation-time
analytics, a pulse-level Monte Carlo of the doubling protocol, and
schedule planners with an exhaustive small-scale search oracle.
"""

from .pauli import PauliString, StabilizerGroup
from .graphs import (
    Graph,
    apply_pbs_gate,
    edge_list_text,
    graph_to_stabilizers,
    parse_edge_list,
    pbs_join_graphs,
    stabilizers_to_graph,
    to_dot,
)
from .fock import (
    FockState,
    fidelity,
    make_bell_pair,
    qubit_statevector_from_stabilizers,
    tensor,
)
from .scaling import (
    AnalyticRow,
    ProtocolParams,
    a_closed_form,
    a_recursion_step,
    base_success_prob,
    connection_success_prob,
    csv_table,
    naive_time_log10,
    scaling_table,
    total_time_approx,
    total_time_approx_log10,
    total_time_exact,
    total_time_exact_log10,
)
from .montecarlo import (
    DetectorModel,
    LevelStats,
    Segment,
    SimResult,
    SourceModel,
    build_segment,
    run_campaign,
    wilson_interval,
)
from .planner import (
    CreatePair,
    Hadamard,
    Instruction,
    Measure,
    PbsGate,
    Schedule,
    brute_force_schedule_search,
    execute_schedule,
    execute_schedule_fock,
    parse_schedule,
    plan_join_sequence,
    plan_tree_protocol,
    schedule_text,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "PauliString",
    "StabilizerGroup",
    "Graph",
    "apply_pbs_gate",
    "edge_list_text",
    "graph_to_stabilizers",
    "parse_edge_list",
    "pbs_join_graphs",
    "stabilizers_to_graph",
    "to_dot",
    "FockState",
    "fidelity",
    "make_bell_pair",
    "qubit_statevector_from_stabilizers",
    "tensor",
    "AnalyticRow",
    "ProtocolParams",
    "a_closed_form",
    "a_recursion_step",
    "base_success_prob",
    "connection_success_prob",
    "csv_table",
    "naive_time_log10",
    "scaling_table",
    "total_time_approx",
    "total_time_approx_log10",
    "total_time_exact",
    "total_time_exact_log10",
    "DetectorModel",
    "LevelStats",
    "Segment",
    "SimResult",
    "SourceModel",
    "build_segment",
    "run_campaign",
    "wilson_interval",
    "CreatePair",
    "Hadamard",
    "Instruction",
    "Measure",
    "PbsGate",
    "Schedule",
    "brute_force_schedule_search",
    "execute_schedule",
    "execute_schedule_fock",
    "parse_schedule",
    "plan_join_sequence",
    "plan_tree_protocol",
    "schedule_text",
    "validate_schedule",
    "__version__",
]

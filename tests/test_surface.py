"""The package keeps only code that its own modules or its public API use.

A reference that only the tests need lives in the test module that
checks against it, so the src scan below fails when one creeps back.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pbsgraph

PUBLIC = {
    "PauliString", "StabilizerGroup",
    "Graph", "apply_pbs_gate", "edge_list_text", "graph_to_stabilizers", "parse_edge_list",
    "pbs_join_graphs", "stabilizers_to_graph", "to_dot",
    "FockState", "fidelity", "make_bell_pair", "qubit_statevector_from_stabilizers", "tensor",
    "AnalyticRow", "ProtocolParams", "a_closed_form", "a_recursion_step", "base_success_prob",
    "connection_success_prob", "csv_table", "naive_time_log10", "scaling_table",
    "total_time_approx", "total_time_approx_log10", "total_time_exact", "total_time_exact_log10",
    "DetectorModel", "LevelStats", "Segment", "SimResult", "SourceModel", "build_segment",
    "run_campaign", "wilson_interval",
    "CreatePair", "Hadamard", "Instruction", "Measure", "PbsGate", "Schedule",
    "brute_force_schedule_search", "execute_schedule", "execute_schedule_fock", "parse_schedule",
    "plan_join_sequence", "plan_tree_protocol", "schedule_text", "validate_schedule",
    "__version__",
}
# Methods that no src line calls but that users do: from_labels is the
# validating constructor for groups given as labels, and the benchmark
# reads edges.
KEEP = {"StabilizerGroup.from_labels", "Graph.edges"}


def test_src_defines_nothing_that_only_the_tests_use():
    """Each module-level function or class, and each public method, is
    named by src code outside its own body, is in __all__ or is kept."""
    trees = {p.name: ast.parse(p.read_text()) for p in Path(pbsgraph.__file__).parent.glob("*.py")}
    uses = defaultdict(list)  # name -> (module, line); docstrings never appear
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((module, node.lineno))
            elif isinstance(node, ast.alias) and module != "__init__.py":
                uses[node.name].append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
            for name, d in defs:
                if name in PUBLIC or name in KEEP or any(
                    where != module or not d.lineno <= line <= d.end_lineno
                    for where, line in uses[name.rsplit(".", 1)[-1]]
                ):
                    continue
                unused.append(f"{module[:-3]}.{name}")
    public = set(pbsgraph.__all__)
    assert (sorted(unused), sorted(public - PUBLIC), sorted(PUBLIC - public)) == ([], [], [])
    assert len(pbsgraph.__all__) == len(PUBLIC) == 51

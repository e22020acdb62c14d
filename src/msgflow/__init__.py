"""msgflow: message-information flow analysis on time-unrolled graphs.

Build a system (graph + message law + noise + node functions), form its exact
joint distribution (finite enumeration or linear-Gaussian propagation), and
ask which edges carry information about the message, where the flow paths
run, which transmissions are derived from others, and — from sampled trials —
the same flow question as a statistically corrected test cascade.
"""

from .canon import FIXTURE_NAMES, Fixture, build
from .derived import (
    ObservationMask,
    hidden_node_alarm,
    is_derived,
    local_markov_violations,
    markov_holds,
    redundancy_pairs,
)
from .discrete import DEFAULT_BUDGET, DiscreteJoint, enumerate_joint
from .errors import (
    BudgetExceededError,
    ContinuousSamplingWarning,
    DegenerateTestWarning,
    DependentMessagesWarning,
    ExpressionTypeError,
    InvariantViolation,
    ModelViolationAtInput,
    MsgflowError,
    NoPathFound,
    NonAffineError,
    SearchSpaceError,
    SpecParseError,
    ValidationError,
)
from .flow import (
    FlowEntry,
    FlowReport,
    analyze,
    analyze_messages,
    candidate_flow,
    edge_flow,
    find_orphans,
    input_nodes,
    quantified_flow,
    separability_partition,
    set_flow,
)
from .gaussian import GaussianJoint, linear_propagate
from .graph import EdgeRef, NodeRef, UnrolledGraph, edge, unroll
from .paths import (
    Cut,
    PathGraph,
    PathList,
    enumerate_paths,
    find_info_paths,
    zero_information_cut,
)
from .sampling import analyze_sampled, detect_flow_sampled, permutation_ci_test, sample_trials
from .system import MessageSpec, NoiseSpec, SystemSpec, load_system, save_system

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ContinuousSamplingWarning",
    "Cut",
    "DEFAULT_BUDGET",
    "DegenerateTestWarning",
    "DependentMessagesWarning",
    "DiscreteJoint",
    "EdgeRef",
    "ExpressionTypeError",
    "FIXTURE_NAMES",
    "Fixture",
    "FlowEntry",
    "FlowReport",
    "GaussianJoint",
    "InvariantViolation",
    "MessageSpec",
    "ModelViolationAtInput",
    "MsgflowError",
    "NodeRef",
    "NoPathFound",
    "NoiseSpec",
    "NonAffineError",
    "ObservationMask",
    "PathGraph",
    "PathList",
    "SearchSpaceError",
    "SpecParseError",
    "SystemSpec",
    "UnrolledGraph",
    "ValidationError",
    "analyze",
    "analyze_messages",
    "analyze_sampled",
    "build",
    "candidate_flow",
    "detect_flow_sampled",
    "edge",
    "edge_flow",
    "enumerate_joint",
    "enumerate_paths",
    "find_info_paths",
    "find_orphans",
    "hidden_node_alarm",
    "input_nodes",
    "is_derived",
    "linear_propagate",
    "load_system",
    "local_markov_violations",
    "markov_holds",
    "permutation_ci_test",
    "quantified_flow",
    "redundancy_pairs",
    "sample_trials",
    "save_system",
    "separability_partition",
    "set_flow",
    "unroll",
    "zero_information_cut",
]

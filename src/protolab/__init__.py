"""protolab: exact simulation and information measures for multi-party
message-passing protocols."""

from .errors import (
    BudgetExceededError,
    ConfigError,
    DeadlockError,
    InvariantError,
    ModelViolationError,
    NonTerminationError,
    NotObliviousError,
    ProtoLabError,
    SelfDelimitingError,
)
from .info import (
    JointDistribution,
    apply_function,
    cond_entropy,
    entropy,
    mutual_info,
)
from .model import (
    Execution,
    ObliviousStructure,
    ProtocolDef,
    Round,
    View,
    WAIT_ANY,
    bitstrings,
    is_oblivious,
    run,
    run_all,
    run_relaxed,
)
from .measures import (
    InputDistribution,
    MeasureReport,
    acc,
    build_joint,
    cc,
    derandomize_zero_error,
    ic,
    measure_protocol,
    pic,
    pic_decomposition,
    privacy_leakage,
    privacy_terms,
    product_protocol,
    publicize,
    spy_info,
    sup_pic_grid,
    transcript_entropy,
)
from .oblivious import obliviousize, truncation_mass
from .lcp import LcpBox, lcp_exact, lcp_randomized
from .compression import (
    TranscriptTree,
    build_tree,
    compress_run,
    compression_theorem_check,
    is_coherent,
)
from .treefile import load_protocol, protocol_from_dict
from .zoo import FunctionFamily, ZooEntry, get_entry, lift_entry

__version__ = "0.1.0"

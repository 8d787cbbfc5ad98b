"""Role mining under a max-permissions-per-role cardinality constraint.

Library layout:

- model        core types (AccessMatrix, Role, Decomposition, MiningConfig)
               and the completeness / constraint predicates
- constrained  the candidate-union-split mining pipeline
- crm          the Constrained Role Miner baseline
- lattice      redundant-role removal post-processing
- metrics      sizes, WSC, accuracy/distance against ground truth
- datasets     file formats and the seeded synthetic generator
- oracle       brute-force exact optimum for tiny instances
- cli          the `rolemine` command
"""

from .constrained import (
    Candidate,
    CandidatePool,
    eliminate_union_roles,
    initial_candidates,
    mine_constrained,
)
from .crm import mine_crm
from .datasets import (
    GeneratorParams,
    ParseError,
    SparseParseResult,
    generate,
    parse_catalog,
    parse_decomposition,
    parse_dense,
    parse_sparse,
    serialize_catalog,
    serialize_decomposition,
    serialize_dense,
    serialize_sparse,
    witness_assignment,
)
from .lattice import lattice_reduce
from .metrics import (
    MetricsReport,
    accuracy_distance,
    jaccard,
    measure,
    role_lower_bound,
)
from .model import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    IncompleteDecompositionError,
    InvalidDecompositionError,
    MiningConfig,
    Role,
    RoleMiningError,
    is_complete,
    satisfies_constraint,
    singleton_decomposition,
)
from .oracle import InstanceTooLargeError, optimal_role_count
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "AccessMatrix",
    "Candidate",
    "CandidatePool",
    "ConstraintViolationError",
    "Decomposition",
    "GeneratorParams",
    "IncompleteDecompositionError",
    "InstanceTooLargeError",
    "InvalidDecompositionError",
    "MetricsReport",
    "MiningConfig",
    "ParseError",
    "Role",
    "RoleMiningError",
    "SparseParseResult",
    "SplitMix64",
    "accuracy_distance",
    "eliminate_union_roles",
    "generate",
    "initial_candidates",
    "is_complete",
    "jaccard",
    "lattice_reduce",
    "measure",
    "mine_constrained",
    "mine_crm",
    "optimal_role_count",
    "parse_catalog",
    "parse_decomposition",
    "parse_dense",
    "parse_sparse",
    "role_lower_bound",
    "satisfies_constraint",
    "serialize_catalog",
    "serialize_decomposition",
    "serialize_dense",
    "serialize_sparse",
    "singleton_decomposition",
    "witness_assignment",
]

"""Belief revision with credibility-filtered information.

Finite propositional universes, belief sets as point-set theories,
total revision tables with postulate and filter-law checkers, and
generalized choice structures with exhaustive consistency oracles.
"""

from .beliefs import BeliefSet
from .choice import (
    BruteforceOutcome,
    ChoiceStructure,
    CounterModel,
    ExtensionCertificate,
    ExtensionOutcome,
    InvalidStructureError,
    Model,
    PartialRevision,
    agm_consistency_bruteforce,
    build_model,
    check_agm_consistency,
    extension_oracle,
    find_rationalizing_preorder,
    induced_beliefs,
    validate_structure,
    with_valuation,
)
from .formulas import (
    Atom,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    Not,
    Or,
    UnknownAtomError,
    conj,
    iff,
    implies,
    parse_formula,
    print_formula,
)
from .reports import CheckReport, CheckResult, Witness
from .revision import (
    ALL_POSTULATES,
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    PostulateViolation,
    RecoveryOutcome,
    RevisionTable,
    SelectionError,
    SelectionFunction,
    agm_holds_at,
    build_filtered,
    check_agm,
    check_filtered,
    enumerate_preorders,
    filter_holds_at,
    recover_basic,
    revision_from_preorder,
    revision_from_selection,
)
from .scenario import (
    Scenario,
    ScenarioError,
    detective_scenario,
    dumps,
    event_key,
    load_scenario,
    loads,
    save_scenario,
)
from .worlds import (
    Point,
    PointSet,
    SizeLimitError,
    Universe,
    UniverseMismatchError,
    canonical_universe,
    dnf_of,
    truth_set,
)

__version__ = "0.1.0"

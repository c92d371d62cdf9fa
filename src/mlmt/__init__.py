"""Multilevel model transformation toolkit.

Graphs and typing chains, tree-shaped multilevel hierarchies, a textual DSL
for multilevel coupled transformation rules, META-pattern matching with
proliferation into two-level rules, and in-place co-span rewriting.
"""

from .chains import (
    ChainMorphism,
    GraphChain,
    MultilevelTyping,
    build_chain,
    chain_pullback_complement,
    chain_pushout,
    check_compatibility,
    lift,
    refactor_inclusion_chain,
    typing_to_chain,
    validate_chain_morphism,
)
from .engine import (
    ApplicationResult,
    ExecutionTrace,
    apply_mcmt,
    apply_two_level_rule,
    run,
    typed_matches,
)
from .errors import MlmtError
from .graphs import (
    Arrow,
    Graph,
    PartialMorphism,
    Subgraph,
    TotalMorphism,
    build_graph,
    compose_partial,
    pullback_complement,
    pushout,
)
from .hierarchy import (
    ElementInfo,
    ModelNode,
    MultilevelHierarchy,
    build_hierarchy,
    derive_typing_chain,
    flatten_inheritance,
    load_hierarchy,
    parse_hierarchy,
    save_hierarchy,
    validate_hierarchy,
)
from .matching import (
    MetaMatch,
    TwoLevelRule,
    find_meta_matches,
    graph_match,
    proliferate,
    proliferate_all,
    rule_set_to_json,
)
from .rules import (
    McmtModule,
    McmtRule,
    MetaElement,
    PatternElement,
    RulePattern,
    element_key,
    expand_cardinalities,
    parse_rule_module,
    print_rule_module,
    validate_rule,
)

__version__ = "1.0.0"

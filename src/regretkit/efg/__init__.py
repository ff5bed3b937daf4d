"""Extensive-form games: trees, counterfactual operators, CFR rounds."""

from .builders import build_bimatrix_tree, build_kuhn, build_liars_dice
from .rounds import (
    BehavioralAverager,
    clairvoyant_cfr_round,
    predictive_cfr_round,
)
from .tree import (
    ChanceNode,
    DecisionNode,
    GameTree,
    Infoset,
    LeafNode,
    TreeBuilder,
    load_tree,
    save_tree,
)
from .values import (
    best_response_value,
    behavioral_distance,
    check_behavioral,
    contraction_step_size,
    counterfactual_lipschitz,
    counterfactual_regret_operator,
    counterfactual_values,
    expected_values,
    exploitability,
    leaf_excl_weights,
    lifted_lipschitz,
    own_reach_per_infoset,
    uniform_behavioral,
)

__all__ = [
    "BehavioralAverager",
    "ChanceNode",
    "DecisionNode",
    "GameTree",
    "Infoset",
    "LeafNode",
    "TreeBuilder",
    "behavioral_distance",
    "best_response_value",
    "build_bimatrix_tree",
    "build_kuhn",
    "build_liars_dice",
    "check_behavioral",
    "clairvoyant_cfr_round",
    "contraction_step_size",
    "counterfactual_lipschitz",
    "counterfactual_regret_operator",
    "counterfactual_values",
    "expected_values",
    "exploitability",
    "leaf_excl_weights",
    "lifted_lipschitz",
    "load_tree",
    "own_reach_per_infoset",
    "predictive_cfr_round",
    "save_tree",
    "uniform_behavioral",
]

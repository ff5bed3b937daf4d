import ast
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretkit import efg
from regretkit.efg.tree import CompiledTree
from regretkit.efg.values import _group_regrets
from regretkit.core import (AggregateState, BlockLayout, BlockVector,
                            NonFiniteError, _normalize_nonneg, normalize,
                            prm_plus_step)
from regretkit.fixedpoint import conceptual_round, initial_lifted_point
from regretkit.games import NormalFormGame
from regretkit.core import regret_loss
from regretkit.harness import SolverConfig, run
from regretkit.stabilized import _in_chopped

from . import oracles
from .oracles import count_paths, counterfactual_values_by_paths
from .test_fixedpoint import MEMBERSHIP_KINDS, _membership_block


def clairvoyant_start(tree):
    """The uniform lifted blocks 1/width, as one flat vector."""
    return np.concatenate(initial_lifted_point(tree.compiled.layout.widths))


def constant_tree(value: float = 0.7, players: int = 2) -> efg.GameTree:
    b = efg.TreeBuilder(players)
    leaves = [b.leaf([value] * players) for _ in range(2)]
    inner = b.decision(1, "P2:only", leaves)
    other = b.decision(1, "P2:only", [b.leaf([value] * players),
                                      b.leaf([value] * players)])
    root = b.decision(0, "P1:only", [inner, other])
    return b.build(root)


def single_decision_tree() -> efg.GameTree:
    b = efg.TreeBuilder(1)
    root = b.decision(0, "P1:pick", [b.leaf([0.3]), b.leaf([0.9])])
    return b.build(root)


def chain_tree(depth: int) -> efg.GameTree:
    """A chance root over a ``depth``-long chain of decision nodes; the two
    players alternate, action 0 stops at a leaf and action 1 goes on."""
    b = efg.TreeBuilder(2)
    below = b.leaf([0.5, 0.5])
    for d in reversed(range(depth)):
        stop = b.leaf([(d % 7) / 6.0, 1.0 - (d % 5) / 4.0])
        below = b.decision(d % 2, f"P{d % 2}:d{d}", [stop, below])
    return b.build(b.chance([0.25, 0.75], [below, b.leaf([1.0, 0.0])]))


# payoffs inside [0, 1] keep the payoff map at identity
U1 = np.array([[1.0, 0.0, 0.25], [0.3, 0.8, 0.5], [0.0, 1.0, 0.6]])
U2 = np.array([[0.2, 0.9, 0.0], [1.0, 0.1, 0.7], [0.5, 0.4, 1.0]])


class TestTreeBuilder:
    def test_kuhn_structure(self):
        tree = efg.build_kuhn(2, 3)
        assert len(tree.nodes) == 55
        assert len(tree.infosets) == 12
        assert [len(tree.infosets_of(i)) for i in range(2)] == [6, 6]
        root = tree.nodes[0]
        assert isinstance(root, efg.ChanceNode)
        assert len(root.children) == 6  # ordered deals of 3 ranks
        assert tree.behavioral_dim == 24

    def test_kuhn_needs_three_ranks(self):
        with pytest.raises(ValueError):
            efg.build_kuhn(2, 2)
        with pytest.raises(ValueError):
            efg.build_kuhn(3, 3)

    def test_liars_dice_root(self):
        tree = efg.build_liars_dice(2, 2)
        root = tree.nodes[0]
        assert isinstance(root, efg.ChanceNode)
        assert len(root.children) == 4  # 2 faces ^ 2 players
        with pytest.raises(ValueError):
            efg.build_liars_dice(4, 2)
        with pytest.raises(ValueError):
            efg.build_liars_dice(2, 3)

    def test_payoffs_mapped_into_unit_interval(self):
        for tree in (efg.build_kuhn(2, 3), efg.build_liars_dice(2, 2),
                     efg.build_liars_dice(3, 2)):
            for node in tree.nodes:
                if isinstance(node, efg.LeafNode):
                    assert np.all(node.payoffs >= -1e-12)
                    assert np.all(node.payoffs <= 1.0 + 1e-12)

    def test_identity_map_when_already_valid(self):
        tree = efg.build_bimatrix_tree(U1, U2)
        np.testing.assert_array_equal(tree.payoff_scale, [1.0, 1.0])
        np.testing.assert_array_equal(tree.payoff_offset, [0.0, 0.0])

    def test_perfect_recall_violation_detected(self):
        b = efg.TreeBuilder(2)
        # the same P2 infoset hangs below two different P2 actions
        deep = b.decision(1, "P2:dup", [b.leaf([0, 1]), b.leaf([1, 0])])
        first = b.decision(1, "P2:dup", [deep, b.leaf([0.5, 0.5])])
        root = b.decision(0, "P1:root", [first])
        with pytest.raises(ValueError, match="perfect recall"):
            b.build(root)

    def test_chance_probabilities_validated(self):
        b = efg.TreeBuilder(1)
        kids = [b.leaf([0.0]), b.leaf([1.0])]
        with pytest.raises(ValueError):
            b.chance([0.7, 0.7], kids)

    def test_key_with_comment_marker_rejected(self):
        # saved, "A#1" and "A#2" would load back as one infoset "A"
        b = efg.TreeBuilder(1)
        with pytest.raises(ValueError, match="'#'"):
            b.decision(0, "A#1", [b.leaf([0.0]), b.leaf([1.0])])

    def test_constant_payoffs_off_the_unit_interval(self):
        b = efg.TreeBuilder(2)
        tree = b.build(b.decision(0, "P1:only", [b.leaf([3.0, 0.25]),
                                                 b.leaf([3.0, 0.75])]))
        np.testing.assert_array_equal(tree.payoff_scale, [0.0, 1.0])
        np.testing.assert_array_equal(tree.payoff_offset, [3.0, 0.0])
        for nid, expected in ((1, [3.0, 0.25]), (2, [3.0, 0.75])):
            np.testing.assert_array_equal(tree.nodes[nid].payoffs,
                                          [0.5, expected[1]])
            np.testing.assert_array_equal(tree.original_leaf_payoffs(nid),
                                          expected)

    @pytest.mark.parametrize("make,message", [
        (lambda b: efg.TreeBuilder(0), "need at least one player"),
        (lambda b: b.leaf([0.5]), "one payoff per player required"),
        (lambda b: b.leaf([0.5, np.inf]), "non-finite leaf payoff"),
        (lambda b: b.decision(2, "K", [0]), "bad player 2"),
        (lambda b: b.decision(0, "", [0]), "infoset keys must be nonempty"),
        (lambda b: b.decision(0, "K", []), "decision node needs at least one"),
        (lambda b: b.chance([1.0], [0, 0]), "one probability per child"),
        (lambda b: b.build(b.chance([0.5, 0.5], [b.leaf([0, 0])] * 2)),
         "node referenced twice: not a tree"),
        (lambda b: b.build(b.chance([0.5, 0.5], [
            b.decision(0, "K", [b.leaf([0, 0])]),
            b.decision(0, "K", [b.leaf([0, 0]), b.leaf([1, 1])])])),
         "infoset 'K': inconsistent action counts"),
        (lambda b: b.build(b.decision(0, "K", [b.leaf([0.0, 1e308]),
                                               b.leaf([1.0, -1e308])])),
         "player 1: leaf payoffs span more than the float range"),
    ], ids=["no-player", "leaf-arity", "leaf-inf", "bad-player", "empty-key",
            "no-action", "chance-arity", "shared-child", "action-counts",
            "payoff-span"])
    def test_argument_checks(self, make, message):
        with pytest.raises(ValueError, match=message):
            make(efg.TreeBuilder(2))


class TestArgumentErrors:
    @pytest.mark.parametrize("call,message", [
        (lambda tree, x: efg.counterfactual_values(tree, x[:-1]),
         "one block per infoset required"),
        (lambda tree, x: efg.counterfactual_values(
            tree, x[:-1] + [np.ones(3) / 3]), "block dimension mismatch"),
        (lambda tree, x: efg.counterfactual_values(tree, x[:-1] + [np.ones(2)]),
         "block not on the simplex"),
        (lambda tree, x: efg.counterfactual_values(tree, [np.ones(3)],
                                                     validate=False),
         "profile does not match the tree's infosets"),
        (lambda tree, x: efg.predictive_cfr_round(AggregateState.initial(3),
                                                  tree),
         "state does not match the tree's infosets"),
        (lambda tree, x: efg.clairvoyant_cfr_round(np.concatenate(x), tree, 0.0),
         "step size eta must be positive"),
        (lambda tree, x: efg.BehavioralAverager(tree, "median"),
         "unknown averaging scheme 'median'"),
        (lambda tree, x: efg.build_bimatrix_tree(np.ones((2, 2)),
                                                 np.ones((2, 3))),
         "need two payoff matrices of one shape"),
    ], ids=["block-count", "block-width", "off-simplex", "edge-probs",
            "state-size", "eta", "averaging", "bimatrix-shapes"])
    def test_raises(self, call, message):
        tree = efg.build_kuhn(2, 3)
        with pytest.raises(ValueError, match=message):
            call(tree, efg.uniform_behavioral(tree))

    def test_empty_average_is_uniform(self):
        tree = efg.build_kuhn(2, 3)
        average = efg.BehavioralAverager(tree).average()
        for a, b in zip(average, efg.uniform_behavioral(tree)):
            assert np.array_equal(a, b)


class TestCounterfactualValues:
    def test_depth_one_matches_matrix_expectation(self):
        tree = efg.build_bimatrix_tree(U1, U2)
        rng = np.random.default_rng(0)
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        blocks = [None, None]
        blocks[tree.infosets_of(0)[0]] = x
        blocks[tree.infosets_of(1)[0]] = y
        values = efg.counterfactual_values(tree, blocks)
        np.testing.assert_allclose(values[tree.infosets_of(0)[0]], U1 @ y,
                                   atol=1e-12)
        np.testing.assert_allclose(values[tree.infosets_of(1)[0]], x @ U2,
                                   atol=1e-12)

    def test_single_decision_values(self):
        tree = single_decision_tree()
        values = efg.counterfactual_values(tree, [np.array([0.5, 0.5])])
        np.testing.assert_allclose(values[0], [0.3, 0.9], atol=1e-15)

    @pytest.mark.parametrize("builder", [
        lambda: efg.build_kuhn(2, 3),
        lambda: efg.build_liars_dice(2, 2),
        lambda: efg.build_liars_dice(3, 2),
    ])
    def test_matches_path_enumeration(self, builder):
        tree = builder()
        assert count_paths(tree) <= 10**4
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = [rng.dirichlet(np.ones(j.num_actions)) for j in tree.infosets]
            fast = efg.counterfactual_values(tree, x)
            slow = counterfactual_values_by_paths(tree, x)
            for a, b in zip(fast, slow):
                np.testing.assert_allclose(a, b, atol=1e-10)

    def test_kuhn_uniform_against_oracle(self):
        tree = efg.build_kuhn(2, 3)
        x = efg.uniform_behavioral(tree)
        fast = efg.counterfactual_values(tree, x)
        slow = counterfactual_values_by_paths(tree, x)
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestCounterfactualRegretOperator:
    def test_orthogonality_everywhere(self):
        tree = efg.build_kuhn(2, 4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = [rng.dirichlet(np.ones(j.num_actions)) for j in tree.infosets]
            h = efg.counterfactual_regret_operator(tree, x)
            for hj, xj in zip(h, x):
                assert abs(np.dot(hj, xj)) < 1e-12

    def test_constant_tree_is_zero(self):
        tree = constant_tree()
        x = efg.uniform_behavioral(tree)
        for hj in efg.counterfactual_regret_operator(tree, x):
            np.testing.assert_allclose(hj, 0.0, atol=1e-12)

    def test_depth_one_matches_regret_loss(self):
        tree = efg.build_bimatrix_tree(U1, U2)
        rng = np.random.default_rng(2)
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        blocks = [None, None]
        i1, i2 = tree.infosets_of(0)[0], tree.infosets_of(1)[0]
        blocks[i1], blocks[i2] = x, y
        h = efg.counterfactual_regret_operator(tree, blocks)
        # H = -f(x, loss) for the loss convention of the games module
        game = NormalFormGame((U1, U2))
        losses = game.gradients([x, y])
        np.testing.assert_allclose(h[i1], -regret_loss(x, losses[0]),
                                   atol=1e-12)
        np.testing.assert_allclose(h[i2], -regret_loss(y, losses[1]),
                                   atol=1e-12)


def lifted_normalize(z) -> list[np.ndarray]:
    """Blockwise normalization of a lifted point: ``normalize`` per block."""
    return [normalize(block) for block in z]


class TestLiftedNormalize:
    def test_unit_blocks_become_uniform(self):
        tree = efg.build_kuhn(2, 3)
        z = [np.ones(j.num_actions) for j in tree.infosets]
        for block in lifted_normalize(z):
            np.testing.assert_allclose(block, np.full(block.size,
                                                      1.0 / block.size))

    def test_rejects_negative(self):
        # the clairvoyant round normalizes only lifted points in the
        # chopped orthant
        tree = efg.build_kuhn(2, 3)
        z = clairvoyant_start(tree)
        z[1] = -0.1
        with pytest.raises(ValueError, match="chopped orthant"):
            efg.clairvoyant_cfr_round(z, tree, 0.1)

    def test_rejects_a_nan_block(self):
        tree = efg.build_kuhn(2, 3)
        z = clairvoyant_start(tree)
        z[1] = np.nan
        with pytest.raises(ValueError, match="chopped orthant"):
            efg.clairvoyant_cfr_round(z, tree, 0.1)

    def test_floor_respecting_lipschitz(self):
        tree = efg.build_kuhn(2, 3)
        constant = max(np.sqrt(j.num_actions) for j in tree.infosets)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            z1 = [np.abs(rng.normal(size=j.num_actions)) + 1.0
                  for j in tree.infosets]
            z2 = [np.abs(rng.normal(size=j.num_actions)) + 1.0
                  for j in tree.infosets]
            lhs = efg.behavioral_distance(lifted_normalize(z1),
                                          lifted_normalize(z2))
            rhs = constant * efg.behavioral_distance(z1, z2)
            assert lhs <= rhs + 1e-9


class TestExploitability:
    def test_constant_tree(self):
        tree = constant_tree()
        x = efg.uniform_behavioral(tree)
        np.testing.assert_allclose(efg.exploitability(tree, x), 0.0,
                                   atol=1e-12)

    def test_single_decision(self):
        tree = single_decision_tree()
        gaps = efg.exploitability(tree, [np.array([0.5, 0.5])])
        assert gaps[0] == pytest.approx(0.3, abs=1e-12)

    def test_matching_pennies_equilibrium(self):
        pennies_u1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        tree = efg.build_bimatrix_tree(pennies_u1, 1.0 - pennies_u1)
        x = efg.uniform_behavioral(tree)
        np.testing.assert_allclose(efg.exploitability(tree, x), 0.0,
                                   atol=1e-9)

    def test_exploitability_in_original_units(self):
        # same game, payoffs shifted/scaled out of [0, 1]: identical values
        tree_a = efg.build_bimatrix_tree(U1, U2)
        tree_b = efg.build_bimatrix_tree(4.0 * U1 - 2.0, 4.0 * U2 - 2.0)
        rng = np.random.default_rng(5)
        blocks = [rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))]
        gaps_a = efg.exploitability(tree_a, blocks)
        gaps_b = efg.exploitability(tree_b, blocks)
        np.testing.assert_allclose(gaps_b, 4.0 * gaps_a, atol=1e-9)


class TestLipschitzCertificates:
    def test_counterfactual_operator_bound(self):
        for tree in (efg.build_kuhn(2, 3), efg.build_liars_dice(2, 2)):
            bound = efg.counterfactual_lipschitz(tree)
            assert bound == pytest.approx(np.sqrt(2 * tree.behavioral_dim))
            rng = np.random.default_rng(6)
            for _ in range(1000):
                x1 = [rng.dirichlet(np.ones(j.num_actions))
                      for j in tree.infosets]
                x2 = [rng.dirichlet(np.ones(j.num_actions))
                      for j in tree.infosets]
                h1 = efg.counterfactual_regret_operator(tree, x1)
                h2 = efg.counterfactual_regret_operator(tree, x2)
                lhs = efg.behavioral_distance(h1, h2)
                assert lhs <= bound * efg.behavioral_distance(x1, x2) + 1e-9

    def test_lifted_operator_bound(self):
        tree = efg.build_kuhn(2, 3)
        bound = efg.lifted_lipschitz(tree)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            z1 = [np.abs(rng.normal(size=j.num_actions)) + 1.0
                  for j in tree.infosets]
            z2 = [np.abs(rng.normal(size=j.num_actions)) + 1.0
                  for j in tree.infosets]
            h1 = efg.counterfactual_regret_operator(tree, lifted_normalize(z1))
            h2 = efg.counterfactual_regret_operator(tree, lifted_normalize(z2))
            lhs = efg.behavioral_distance(h1, h2)
            assert lhs <= bound * efg.behavioral_distance(z1, z2) + 1e-9

    def test_contraction_step_size(self):
        tree = efg.build_kuhn(2, 3)
        assert efg.contraction_step_size(tree) == pytest.approx(
            1.0 / (np.sqrt(2.0) * efg.lifted_lipschitz(tree)))

    @pytest.mark.parametrize("root", ["leaf", "chance"])
    @pytest.mark.parametrize("name", ["counterfactual_lipschitz",
                                      "lifted_lipschitz",
                                      "contraction_step_size"])
    def test_a_tree_without_decisions_is_rejected(self, root, name):
        b = efg.TreeBuilder(2)
        leaf = b.leaf([1.0, 0.0])
        tree = b.build(leaf if root == "leaf" else
                       b.chance([0.5, 0.5], [leaf, b.leaf([0.0, 1.0])]))
        with pytest.raises(ValueError) as info:
            getattr(efg, name)(tree)
        assert str(info.value) == ("the tree has no decision node: "
                                   "no decisions to solve")


class TestPredictiveCfr:
    def test_constant_tree_stays_uniform(self):
        tree = constant_tree()
        state = AggregateState.initial(tree.behavioral_dim)
        for _ in range(25):
            state, played = efg.predictive_cfr_round(state, tree)
            for block in played:
                np.testing.assert_allclose(
                    block, np.full(block.size, 1.0 / block.size), atol=1e-12)

    def test_depth_one_tracks_prm_plus(self):
        tree = efg.build_bimatrix_tree(U1, U2)
        game = NormalFormGame((U1, U2))
        state = AggregateState.initial(tree.behavioral_dim)
        simplex = [AggregateState.initial(3), AggregateState.initial(3)]
        i1, i2 = tree.infosets_of(0)[0], tree.infosets_of(1)[0]
        for _ in range(200):
            state, played = efg.predictive_cfr_round(state, tree)
            xs = [_normalize_nonneg(np.maximum(s.r + s.prediction, 0.0))
                  for s in simplex]
            losses = game.gradients(xs)
            for i in range(2):
                simplex[i], _ = prm_plus_step(simplex[i], losses[i])
            np.testing.assert_allclose(played[i1], xs[0], atol=1e-12)
            np.testing.assert_allclose(played[i2], xs[1], atol=1e-12)

    def test_kuhn_exploitability_decreases(self):
        tree = efg.build_kuhn(2, 3)
        state = AggregateState.initial(tree.behavioral_dim)
        averager = efg.BehavioralAverager(tree, "linear")
        checkpoints = []
        for t in range(1, 1001):
            state, played = efg.predictive_cfr_round(state, tree,
                                                     alternate=True)
            averager.observe(played)
            if t in (10, 100, 1000):
                checkpoints.append(
                    float(efg.exploitability(tree, averager.average()).sum()))
        assert checkpoints[1] < checkpoints[0]
        assert checkpoints[2] < checkpoints[1]
        assert checkpoints[-1] < 1e-3


class TestClairvoyantCfr:
    def test_constant_tree_is_fixed(self):
        tree = constant_tree()
        state = clairvoyant_start(tree)
        previous = state.copy()
        state, _ = efg.clairvoyant_cfr_round(state, tree, 5.0)
        np.testing.assert_array_equal(state, previous)

    def test_depth_one_tracks_exrm(self):
        tree = efg.build_bimatrix_tree(U1, U2)
        game = NormalFormGame((U1, U2))
        state = clairvoyant_start(tree)
        z = initial_lifted_point(game.dims)
        i1, i2 = tree.infosets_of(0)[0], tree.infosets_of(1)[0]
        for _ in range(200):
            state, played = efg.clairvoyant_cfr_round(state, tree, 0.3)
            z, w, _ = conceptual_round(z, game, 0.3, -1.0, 1)
            xs = [normalize(b) for b in w]
            np.testing.assert_allclose(played[i1], xs[0], atol=1e-12)
            np.testing.assert_allclose(played[i2], xs[1], atol=1e-12)

    def test_blocks_stay_in_chopped_orthant(self):
        tree = efg.build_kuhn(2, 3)
        state = clairvoyant_start(tree)
        for _ in range(100):
            state, played = efg.clairvoyant_cfr_round(state, tree, 10.0)
            for z in BlockVector(state, tree.compiled.layout):
                assert np.all(z >= 0) and z.sum() >= 1.0 - 1e-9

    def test_alternating_variant_runs(self):
        tree = efg.build_kuhn(2, 3)
        state = clairvoyant_start(tree)
        for _ in range(50):
            state, played = efg.clairvoyant_cfr_round(state, tree, 1.0,
                                                      alternate=True)
            for block in played:
                assert block.sum() == pytest.approx(1.0, abs=1e-9)


class TestClairvoyantMembership:
    """The clairvoyant round's membership test, fused with ghat(z), gives
    the verdict of the per-block ``_in_chopped`` and names the first
    infoset outside, wherever the bad block sits: first or last in a
    width bucket, read as a slice, a view or a gather."""

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("name", ["kuhn3", "liars3"])
    def test_verdict_and_key(self, name):
        tree = TREES[name]
        layout = tree.compiled.layout
        picks = sorted({int(j) for ids, _ in layout.buckets
                        for j in (ids[0], ids[-1])})
        for kind in MEMBERSHIP_KINDS:
            for j in picks:
                z = BlockVector(clairvoyant_start(tree), layout)
                for b in (j, picks[-1]):  # only the first bad one is named
                    z[b][:] = _membership_block(layout.widths[b], kind, 0)
                bad = [b for b in (j, picks[-1]) if not _in_chopped(z[b])]
                if not bad:
                    if kind == "inf":  # ghat(z) holds a NaN
                        with pytest.raises(NonFiniteError):
                            efg.clairvoyant_cfr_round(z.vector, tree, 0.1)
                    else:
                        efg.clairvoyant_cfr_round(z.vector, tree, 0.1)
                    continue
                with pytest.raises(ValueError) as info:
                    efg.clairvoyant_cfr_round(z.vector, tree, 0.1)
                assert str(info.value) == (
                    f"infoset {tree.infosets[bad[0]].key!r}: block outside "
                    "its chopped orthant"), (kind, j)


class TestCfrDecomposition:
    @pytest.mark.parametrize("builder,rounds", [
        (lambda: efg.build_kuhn(2, 3), 300),
        (lambda: efg.build_liars_dice(3, 2), 150),
    ])
    def test_sequence_regret_bounded_by_infoset_regrets(self, builder, rounds):
        tree = builder()
        n = tree.num_players
        state = AggregateState.initial(tree.behavioral_dim)
        cum_h = [np.zeros(j.num_actions) for j in tree.infosets]
        cum_weights = [np.zeros(len(tree.nodes)) for _ in range(n)]
        cum_value = np.zeros(n)
        for t in range(1, rounds + 1):
            state, played = efg.predictive_cfr_round(state, tree,
                                                     alternate=(n == 2))
            h = efg.counterfactual_regret_operator(tree, played)
            for j, hj in enumerate(h):
                cum_h[j] += hj
            for i in range(n):
                cum_weights[i] += efg.leaf_excl_weights(tree, played, i)
            cum_value += efg.expected_values(tree, played)
            if t % 50 == 0:
                for i in range(n):
                    seq_regret = (efg.best_response_value(tree, i,
                                                          cum_weights[i])
                                  - cum_value[i])
                    bound = sum(max(float(cum_h[j].max()), 0.0)
                                for j in tree.infosets_of(i))
                    assert seq_regret <= bound + 1e-9


# token streams: arbitrary tokens; valid tree files with a few tokens
# replaced, deleted or inserted; and valid tree files with a few numeric
# fields given other values, so that a fair share of them still load
TREE_TOKENS = ["efg", "infoset", "node", "player", "actions", "key", "chance",
               "leaf", "0", "1", "2", "3", "-1", "0.5", "1.5", "1e308", "x",
               "inf", "nan", "K", "#", "\n"]
TREE_NUMBERS = ["0", "2", "-1", "0.5", "1e308", "-0", "inf", "nan"]
FUZZ_BASES = (
    lambda: chance_tree([0.25, 0.75]),
    lambda: chain_tree(3),
    lambda: efg.build_bimatrix_tree(U1, 4.0 * U2 - 1.0),
)
TREE_EDITS = st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert"]),
                                st.integers(0, 80), st.sampled_from(TREE_TOKENS),
                                st.sampled_from(TREE_NUMBERS)),
                      min_size=1, max_size=3)


def chance_tree(probs) -> efg.GameTree:
    b = efg.TreeBuilder(1)
    return b.build(b.chance(probs, [b.leaf([v / len(probs)])
                                    for v in range(len(probs))]))


def _edited_tokens(tree, edits, numbers_only, path) -> list[str]:
    efg.save_tree(tree, path)
    tokens = [token for line in path.read_text().splitlines()
              for token in line.split() + ["\n"]]
    fields = [i for i, t in enumerate(tokens)
              if t.lstrip("-").replace(".", "", 1).isdigit()]
    for op, where, token, number in edits:
        at = where % len(tokens)
        if numbers_only:
            tokens[fields[where % len(fields)]] = number
        elif op == "insert":
            tokens.insert(at, token)
        elif op == "delete":
            del tokens[at]
        else:
            tokens[at] = token
    return tokens


class TestTreeFiles:
    def test_round_trip_kuhn(self, tmp_path):
        tree = efg.build_kuhn(2, 3)
        path = tmp_path / "kuhn.efg"
        efg.save_tree(tree, path)
        loaded = efg.load_tree(path)
        assert len(loaded.nodes) == len(tree.nodes)
        assert len(loaded.infosets) == len(tree.infosets)
        np.testing.assert_array_equal(loaded.payoff_scale, tree.payoff_scale)
        x = efg.uniform_behavioral(tree)
        for a, b in zip(efg.counterfactual_values(tree, x),
                        efg.counterfactual_values(loaded, x)):
            np.testing.assert_array_equal(a, b)

    def test_golden_grammar(self, tmp_path):
        text = (
            "efg 1\n"
            "infoset 0 player 0 actions 2 key P1:pick\n"
            "node 0 player 0 infoset 0 2 1 2\n"
            "node 1 leaf 0.3\n"
            "node 2 leaf 0.9\n"
        )
        path = tmp_path / "tiny.efg"
        path.write_text(text)
        tree = efg.load_tree(path)
        values = efg.counterfactual_values(tree, [np.array([0.5, 0.5])])
        np.testing.assert_allclose(values[0], [0.3, 0.9], atol=1e-15)

    def test_builder_emits_parseable_golden(self, tmp_path):
        tree = single_decision_tree()
        path = tmp_path / "single.efg"
        efg.save_tree(tree, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "efg 1"
        assert lines[1] == "infoset 0 player 0 actions 2 key P1:pick"
        assert lines[2] == "node 0 player 0 infoset 0 2 1 2"
        assert lines[3] == "node 1 leaf 0.29999999999999999"
        assert lines[4] == "node 2 leaf 0.90000000000000002"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.efg"
        path.write_text("efg 1\nnode 0 leaf 0.5 0.5\n")
        with pytest.raises(ValueError):
            efg.load_tree(path)

    @pytest.mark.parametrize("lines,lineno,message", [
        (["efg 1", "infoset 0 player 0 actions 2 key K",
          "node 0 player 0 infoset 0 2 1 7", "node 1 leaf 0.5"],
         3, "node 0 has unknown child 7"),
        (["efg 1", "node 0 chance 2 0.5 0.5 1 2", "node 1 chance 1 1 3",
          "node 2 chance 1 1 3", "node 3 leaf 0.5"],
         4, "node 3 referenced twice"),
        (["efg 1", "node 0 chance 1 1 1", "node 1 chance 1 1 0"],
         3, "node 0 referenced twice"),
        (["efg 1", "node 0 leaf 0.5", "node 1 chance 1 1 2",
          "node 2 leaf 0.5"], None, "unreachable nodes present"),
        (["efg 1", "node 0 player 0 infoset 3 2 1 2", "node 1 leaf 0",
          "node 2 leaf 1"], 2, "node 0 uses unknown infoset 3"),
        (["efg 1", "infoset 0 player 0 actions 3 key K",
          "node 0 player 0 infoset 0 2 1 2", "node 1 leaf 0", "node 2 leaf 1"],
         3, "node 0 disagrees with infoset table"),
        (["efg 1", "node 0 chance 1 1 1", "node 1 leaf 0.5 0.5"],
         3, "leaf 1 payoff arity"),
        (["efg 1", "node 0 leaf 0.5", "node 0 leaf 0.5"],
         3, "node 0 defined twice"),
        (["node 0 leaf 0.5"], None, "missing efg header"),
        (["efg 1", "node 1 leaf 0.5"], None, "missing root node 0"),
        (["efg 1", "infoset 0 player 0 actions 2 key a",
          "infoset 0 player 0 actions 3 key b",
          "node 0 player 0 infoset 0 3 1 2 3", "node 1 leaf 0", "node 2 leaf 1",
          "node 3 leaf 1"], 3, "infoset 0 defined twice"),
        (["efg 2", "node 0 chance 1 1 1", "efg 3", "node 1 leaf 0 1 0.5"],
         3, "second efg header"),
        (["efg 1", "infoset 0 player 0 actions 2 key K",
          "infoset 1 player 0 actions 2 key K",
          "node 0 chance 2 0.5 0.5 1 2", "node 1 player 0 infoset 0 2 3 4",
          "node 2 player 0 infoset 1 2 5 6", "node 3 leaf 0", "node 4 leaf 1",
          "node 5 leaf 0", "node 6 leaf 1"],
         3, "infoset 1 repeats the player and key of infoset 0"),
    ], ids=["unknown-child", "child-named-twice", "cycle-through-root",
            "unreachable", "unknown-infoset", "infoset-disagrees",
            "leaf-arity", "defined-twice", "no-header", "no-root",
            "infoset-defined-twice", "second-header", "shared-infoset-key"])
    def test_error_names_its_line(self, tmp_path, lines, lineno, message):
        path = tmp_path / "bad.efg"
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}" if lineno is None else f"{path}:{lineno}"
        with pytest.raises(ValueError) as exc_info:
            efg.load_tree(path)
        assert str(exc_info.value) == f"{where}: {message}"

    @given(mode=st.sampled_from(["raw", "structure", "numbers"]),
           raw=st.lists(st.sampled_from(TREE_TOKENS), max_size=30),
           base=st.sampled_from(range(len(FUZZ_BASES))), edits=TREE_EDITS)
    @settings(max_examples=600, deadline=None)
    def test_any_token_stream_parses_or_names_its_line(self, tmp_path_factory,
                                                       mode, raw, base, edits):
        path = tmp_path_factory.mktemp("fuzz") / "f.efg"
        tokens = raw if mode == "raw" else _edited_tokens(
            FUZZ_BASES[base](), edits, mode == "numbers", path)
        path.write_text(" ".join(tokens))
        try:
            tree = efg.load_tree(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        efg.save_tree(tree, path)
        again = efg.load_tree(path)
        assert again.num_players == tree.num_players
        assert again.infosets == tree.infosets
        assert len(again.nodes) == len(tree.nodes)
        for nid, (a, b) in enumerate(zip(again.nodes, tree.nodes)):
            assert type(a) is type(b)
            if isinstance(a, efg.LeafNode):
                assert np.array_equal(again.original_leaf_payoffs(nid),
                                      tree.original_leaf_payoffs(nid))
            elif isinstance(a, efg.ChanceNode):
                assert a.children == b.children
                assert np.array_equal(a.probs, b.probs)
            else:
                assert a == b


def mixed_depth_tree() -> efg.GameTree:
    """Player 0's infoset I has members at depths 1 and 2, and J, reached
    by action 0 at either member of I, at depths 2 and 3: perfect recall
    holds, yet an infoset is not one depth.  Payoffs are seeded draws."""
    rng = np.random.default_rng(3)
    b = efg.TreeBuilder(2)

    def leaf():
        return b.leaf(rng.random(2))

    j_shallow = b.decision(0, "P0:J", [b.decision(1, "P1:L", [leaf(), leaf()]),
                                       leaf()])
    j_deep = b.decision(0, "P0:J", [leaf(),
                                    b.decision(1, "P1:M", [leaf(), leaf()])])
    i_shallow = b.decision(0, "P0:I", [j_shallow, leaf(), leaf()])
    i_deep = b.decision(0, "P0:I", [j_deep, leaf(), leaf()])
    k = b.decision(1, "P1:K", [i_deep, b.chance([0.3, 0.7], [leaf(), leaf()])])
    return b.build(b.chance([0.4, 0.6], [i_shallow, k]))


TREES = {
    "kuhn3": efg.build_kuhn(2, 3),
    "kuhn4": efg.build_kuhn(2, 4),
    "liars2": efg.build_liars_dice(2, 2),
    "liars3": efg.build_liars_dice(3, 2),
    "bimatrix": efg.build_bimatrix_tree(4.0 * U1 - 1.0, U2),
    "mixed_depth": mixed_depth_tree(),
}


class TestArrayPassesMatchRecursive:
    """The array passes return the very floats of the recursive ones."""

    @pytest.mark.parametrize("name", sorted(TREES))
    @given(seed=st.integers(0, 2**32 - 1), sparsity=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=20, deadline=None)
    def test_bit_identical(self, name, seed, sparsity):
        tree = TREES[name]
        rng = np.random.default_rng(seed)
        x = []
        for iset in tree.infosets:
            block = rng.dirichlet(np.ones(iset.num_actions))
            block[rng.random(iset.num_actions) < sparsity] = 0.0
            if block.sum() == 0.0:
                block[rng.integers(iset.num_actions)] = 1.0
            x.append(block / block.sum())
        for a, b in zip(efg.counterfactual_values(tree, x),
                        oracles.counterfactual_values(tree, x)):
            assert np.array_equal(a, b)
        assert np.array_equal(efg.own_reach_per_infoset(tree, x),
                              oracles.own_reach_per_infoset(tree, x))
        assert np.array_equal(efg.expected_values(tree, x),
                              oracles.expected_values(tree, x))
        for i in range(tree.num_players):
            weights = efg.leaf_excl_weights(tree, x, i)
            assert np.array_equal(weights, oracles.leaf_excl_weights(tree, x, i))
            for w in (weights, rng.random(len(tree.nodes))):
                assert (efg.best_response_value(tree, i, w)
                        == oracles.best_response_value(tree, i, w))


class TestDeepTrees:
    def test_no_function_in_efg_recurses(self):
        for source in sorted(Path(efg.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(source.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    called = {node.func.id for node in ast.walk(fn)
                              if isinstance(node, ast.Call)
                              and isinstance(node.func, ast.Name)}
                    assert fn.name not in called, f"{source.name}: {fn.name}"

    def test_chain_deeper_than_recursion_limit(self, tmp_path):
        tree = chain_tree(1500)
        path = tmp_path / "chain.efg"
        efg.save_tree(tree, path)
        loaded = efg.load_tree(path)
        assert len(loaded.nodes) == len(tree.nodes) == 3003
        x = efg.uniform_behavioral(tree)
        for a, b in zip(efg.counterfactual_values(tree, x),
                        efg.counterfactual_values(loaded, x)):
            assert np.array_equal(a, b)
        for algo in ("predictive-cfr", "clairvoyant-cfr"):
            for alternate in (False, True):
                trace = run(SolverConfig(algorithm=algo, iters=3,
                                         alternation=alternate), loaded)
                assert np.all(np.isfinite(trace.gap))
                gaps = efg.exploitability(loaded, trace.averages)
                assert np.all(np.isfinite(gaps)) and np.all(gaps >= -1e-12)


def wide_tree() -> efg.GameTree:
    """A chance root over three bimatrix games of 9x17, 9x17 and 17x9
    actions: three infosets of width 9 and three of width 17, wide enough
    for numpy's pairwise sums and BLAS's SIMD dot kernels."""
    rng = np.random.default_rng(11)
    b = efg.TreeBuilder(2)
    games = []
    for g, (d1, d2) in enumerate(((9, 17), (9, 17), (17, 9))):
        u = rng.random((2, d1, d2))
        rows = [b.decision(1, f"P2:col{g}",
                           [b.leaf(u[:, a, c]) for c in range(d2)])
                for a in range(d1)]
        games.append(b.decision(0, f"P1:row{g}", rows))
    return b.build(b.chance([0.25, 0.5, 0.25], games))


def _pin_weights(tree, player, seed):
    """Seeded leaf weights of three kinds: a random profile's leaf reach,
    uniform draws and normal draws times 1e3 (signs mixed)."""
    rng = np.random.default_rng(seed)
    x = [rng.dirichlet(np.ones(j.num_actions)) for j in tree.infosets]
    if seed % 3 == 0:
        return efg.leaf_excl_weights(tree, x, player)
    if seed % 3 == 1:
        return rng.random(len(tree.nodes))
    return 1e3 * rng.normal(size=len(tree.nodes))


PIN_TREES = {"chain1500": lambda: chain_tree(1500), "wide": wide_tree,
             "liars3": lambda: TREES["liars3"]}

# ``float.hex`` of ``best_response_value`` per seed 0-2 and player,
# recorded with the height-wave scheduler that preceded the ordered pass;
# the recursive oracle cannot reach chain1500's depth
BEST_RESPONSE_PINS = {
    "chain1500": [["0x1.9c09c4c1041b7p-1", "0x1.b33584fda1aecp-3"],
                  ["0x1.737099b05a6b1p+7", "0x1.88a460a05fd50p+7"],
                  ["0x1.3995064e9dafep+14", "0x1.2a4c51aa9154ep+15"]],
    "wide": [["0x1.4267ec954ad8ap-1", "0x1.7493f1f14f066p-1"],
             ["0x1.a41de036b2199p+3", "0x1.743c94515e0edp+3"],
             ["0x1.880e688be2de1p+12", "0x1.a4eed9a46de1dp+12"]],
    "liars3": [["0x1.8654c96d8122dp-1", "0x1.8a4433531f501p-1",
                "0x1.549f5866f685dp-1"],
               ["0x1.a8f573bea5c2fp+5", "0x1.2a785296f9c26p+6",
                "0x1.71dcbd242929ep+6"],
               ["0x1.7eba9cbf6166ap+14", "0x1.4933815750e6ep+14",
                "0x1.167e9902560e7p+14"]],
}


class TestBestResponse:
    @pytest.mark.parametrize("name", sorted(PIN_TREES))
    def test_pinned_values(self, name):
        tree = PIN_TREES[name]()
        got = [[efg.best_response_value(tree, i, _pin_weights(tree, i, seed)).hex()
                for i in range(tree.num_players)] for seed in range(3)]
        assert got == BEST_RESPONSE_PINS[name]

    @pytest.mark.parametrize("weights, expected", [
        ([np.nan, 1.0], 0.9), ([1.0, np.nan], 0.3), ([np.nan, np.nan], np.nan)])
    def test_nan_total_never_wins(self, weights, expected):
        # an action whose total is NaN is never picked; when every total
        # is NaN the infoset keeps action 0
        tree = single_decision_tree()
        value = efg.best_response_value(tree, 0, [0.0, *weights])
        assert value.hex() == float(expected).hex()
        assert value.hex() == oracles.best_response_value(
            tree, 0, [0.0, *weights]).hex()


def idle_player_tree() -> efg.GameTree:
    """Three players, of whom player 2 never moves: a chance root over a
    player-0 decision above player 1's infoset, and a player-1 decision
    above player 0's."""
    rng = np.random.default_rng(5)
    b = efg.TreeBuilder(3)

    def leaves(k):
        return [b.leaf(rng.random(3)) for _ in range(k)]

    first = b.decision(0, "P1:a", [b.decision(1, "P2:a", leaves(3))
                                   for _ in range(2)])
    second = b.decision(1, "P2:b", [b.decision(0, "P1:b", leaves(2))
                                    for _ in range(3)])
    return b.build(b.chance([0.3, 0.7], [first, second]))


BUCKETED_TREES = {name: TREES[name] for name in ("kuhn3", "liars3")}
BUCKETED_TREES["wide"] = wide_tree()
BUCKETED_TREES["idle_player"] = idle_player_tree()


def _blocks(tree, vector):
    return list(BlockVector(vector, tree.compiled.layout))


def _random_predictive_state(tree, rng):
    """Per-infoset states with zero-mass rows (uniform play) mixed in."""
    states = []
    for iset in tree.infosets:
        r = rng.exponential(size=iset.num_actions)
        r[rng.random(iset.num_actions) < 0.3] = 0.0
        m = rng.normal(size=iset.num_actions)
        if rng.random() < 0.3:
            m = -r - rng.random(iset.num_actions)  # [r + m]+ = 0
        states.append(AggregateState(r, m))
    return states


def _random_lifted_state(tree, rng):
    """Blocks on the mass-1 boundary (tight) or well inside D> (slack)."""
    z = []
    for iset in tree.infosets:
        block = rng.dirichlet(np.ones(iset.num_actions))
        if rng.random() < 0.5:
            block = block * rng.uniform(1.0, 5.0)
        z.append(block)
    return z


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBucketedMatchesPerInfoset:
    """The width-bucketed rounds, regret operator, averager and recorder
    return the floats of the per-infoset code (``tests/oracles.py``)."""

    @pytest.mark.parametrize("name", sorted(BUCKETED_TREES))
    @pytest.mark.parametrize("alternate", [False, True], ids=["sim", "alt"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_predictive_rounds(self, name, alternate, seed):
        tree = BUCKETED_TREES[name]
        rng = np.random.default_rng(seed)
        states = _random_predictive_state(tree, rng)
        state = AggregateState(
            np.concatenate([s.r for s in states]),
            np.concatenate([s.prediction for s in states]))
        averager = efg.BehavioralAverager(tree, "linear")
        expected_averager = oracles.BehavioralAverager(tree, "linear")
        for _ in range(4):
            state, played = efg.predictive_cfr_round(state, tree, alternate)
            states, expected = oracles.predictive_cfr_round(states, tree,
                                                            alternate)
            assert played.vector.tobytes() == np.concatenate(expected).tobytes()
            assert state.r.tobytes() == np.concatenate(
                [s.r for s in states]).tobytes()
            assert state.prediction.tobytes() == np.concatenate(
                [s.prediction for s in states]).tobytes()
            h = efg.counterfactual_regret_operator(tree, played)
            assert h.vector.tobytes() == np.concatenate(
                oracles.regret_operator_per_infoset(tree, expected)).tobytes()
            averager.observe(played)
            expected_averager.observe(expected)
            assert averager._sums.tobytes() == np.concatenate(
                expected_averager.sums).tobytes()
        for a, b in zip(averager.average(), expected_averager.average()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", sorted(BUCKETED_TREES))
    @pytest.mark.parametrize("alternate", [False, True], ids=["sim", "alt"])
    @given(seed=st.integers(0, 2**32 - 1),
           eta=st.sampled_from([0.01, 0.3, 10.0]))
    @settings(max_examples=8, deadline=None)
    def test_clairvoyant_rounds(self, name, alternate, seed, eta):
        tree = BUCKETED_TREES[name]
        z = _random_lifted_state(tree, np.random.default_rng(seed))
        state = np.concatenate(z)
        for _ in range(4):
            state, played = efg.clairvoyant_cfr_round(state, tree, eta,
                                                      alternate)
            z, expected = oracles.clairvoyant_cfr_round(z, tree, eta, alternate)
            assert played.vector.tobytes() == np.concatenate(expected).tobytes()
            assert state.tobytes() == np.concatenate(z).tobytes()

    @pytest.mark.parametrize("name", sorted(BUCKETED_TREES))
    @pytest.mark.parametrize("algo", ["predictive-cfr", "clairvoyant-cfr"])
    @pytest.mark.parametrize("alternate", [False, True], ids=["sim", "alt"])
    @given(averaging=st.sampled_from(["linear", "uniform"]),
           eta=st.sampled_from([0.1, 2.0]))
    @settings(max_examples=3, deadline=None)
    def test_recorder_rows(self, name, algo, alternate, averaging, eta):
        tree = BUCKETED_TREES[name]
        iters = 5
        trace = run(SolverConfig(algorithm=algo, eta=eta, averaging=averaging,
                                 alternation=alternate, iters=iters), tree)
        if algo == "predictive-cfr":
            states = [AggregateState.initial(j.num_actions) for j in tree.infosets]
        else:
            z = [np.full(j.num_actions, 1.0 / j.num_actions)
                 for j in tree.infosets]
        averager = oracles.BehavioralAverager(tree, averaging)
        played_rounds, increment_rounds = [], []
        for _ in range(iters):
            if algo == "predictive-cfr":
                states, played = oracles.predictive_cfr_round(states, tree,
                                                              alternate)
            else:
                z, played = oracles.clairvoyant_cfr_round(z, tree, eta,
                                                          alternate)
            played_rounds.append(played)
            increment_rounds.append(
                oracles.regret_operator_per_infoset(tree, played))
            averager.observe(played)
        regrets, gaps, steps, ledgers = oracles.tree_recorder_rows(
            tree, played_rounds, increment_rounds)
        assert np.array_equal(trace.regret_max, regrets)
        assert np.array_equal(trace.gap, gaps)
        assert np.array_equal(trace.iter_var, steps)
        for a, b in zip(trace.ledgers, ledgers):
            assert np.array_equal(a, b)
        for a, b in zip(trace.averages, averager.average()):
            assert np.array_equal(a, b)


GROUP_PASS_TREES = {**TREES, "wide": BUCKETED_TREES["wide"],
                    "idle_player": BUCKETED_TREES["idle_player"]}


class TestGroupPass:
    """Every update group's pass returns the recursive reference's regrets
    (``tests/oracles.py``): the regret operator and the simultaneous
    group's pass on every infoset, an alternating group's on its player's
    infosets, with zeros elsewhere (all zeros for a player that never
    moves)."""

    @pytest.mark.parametrize("name", sorted(GROUP_PASS_TREES))
    @given(seed=st.integers(0, 2**32 - 1), sparsity=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_recursive_reference(self, name, seed, sparsity):
        tree = GROUP_PASS_TREES[name]
        rng = np.random.default_rng(seed)
        blocks = []
        for iset in tree.infosets:
            block = rng.dirichlet(np.ones(iset.num_actions))
            block[rng.random(iset.num_actions) < sparsity] = 0.0
            if block.sum() == 0.0:
                block[rng.integers(iset.num_actions)] = 1.0
            blocks.append(block / block.sum())
        profile = np.concatenate(blocks)
        want = np.concatenate(oracles.regret_operator_per_infoset(tree, blocks))
        operator = efg.counterfactual_regret_operator(tree, blocks)
        assert np.concatenate(operator).tobytes() == want.tobytes()
        assert _group_regrets(tree, profile, None).tobytes() == want.tobytes()
        owner = np.repeat([j.player for j in tree.infosets],
                          tree.compiled.layout.widths)
        for player in range(tree.num_players):
            expected = np.where(owner == player, want, 0.0)
            got = _group_regrets(tree, profile, player)
            assert got.tobytes() == expected.tobytes()


def _hash_into(digest, obj) -> None:
    """Feed ``obj`` to ``digest``: arrays by dtype, shape and bytes,
    containers item by item, scalars by ``repr`` (exact for floats)."""
    if isinstance(obj, np.ndarray):
        digest.update(f"a{obj.dtype.str}{obj.shape}".encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        digest.update(f"{type(obj).__name__}{len(obj)}(".encode())
        for item in obj:
            _hash_into(digest, item)
        digest.update(b")")
    elif isinstance(obj, BlockLayout):
        _hash_into(digest, (obj.widths, obj.offsets, obj.size, obj.bounds,
                            obj.buckets))
    elif dataclasses.is_dataclass(obj):
        digest.update(type(obj).__name__.encode())
        _hash_into(digest, [getattr(obj, f.name)
                            for f in dataclasses.fields(obj)])
    else:
        digest.update(repr(obj).encode())


def tree_digest(tree: efg.GameTree) -> str:
    """One hash of a tree and a fresh compile of it: every node payload,
    infoset, own sequence and the payoff map, every ``CompiledTree``
    attribute, and each update group's layout (buckets, ``ragged``,
    ``_views``) and edge tables."""
    digest = hashlib.sha256()
    _hash_into(digest, [tree.num_players, tree.nodes, tree.infosets,
                        tree.payoff_scale, tree.payoff_offset,
                        tree.own_sequences])
    compiled = CompiledTree(tree)
    _hash_into(digest, sorted(vars(compiled).items()))
    # the cached group tables, after the attributes that ``__init__`` sets
    _hash_into(digest, [(player, layout, layout.ragged, layout._views, tables)
                        for player, (layout, *tables) in compiled.groups.items()])
    return digest.hexdigest()[:16]


DIGEST_TREES = {
    **{f"kuhn{r}": lambda r=r: efg.build_kuhn(2, r) for r in range(3, 7)},
    "liars2": lambda: efg.build_liars_dice(2, 2),
    "liars3": lambda: efg.build_liars_dice(3, 2),
    "bimatrix": lambda: efg.build_bimatrix_tree(4.0 * U1 - 1.0, U2),
    "chain1500": lambda: chain_tree(1500),
    "wide": wide_tree,
}

# recorded before the tree builder, the loader and the compile were each
# rewritten as one pass, and again whenever attributes left the compile,
# every kept one then byte-identical, and once more when the group tables
# joined the digest, each table then hashing alike on both sides; a saved
# tree loads back to the very same digest
TREE_DIGESTS = {
    "kuhn3": "ee12c1207f9e3d0c", "kuhn4": "b326c718a9a231e4",
    "kuhn5": "7a67934a41e3bdcd", "kuhn6": "ba11e9d2e57060d7",
    "liars2": "b5d1af242707d5a2", "liars3": "31ee76cfa661f667",
    "bimatrix": "e7f875ca5a2cfacf", "chain1500": "82d07ddf905c7642",
    "wide": "aa47eedab3c915eb",
}


def assert_breadth_first(tree: efg.GameTree) -> None:
    """Node ids are the breadth-first order from the root, each node's
    children contiguous and in action order: the positions the compiled
    passes index by."""
    next_id = 1
    for node in tree.nodes:
        children = getattr(node, "children", ())
        assert children == tuple(range(next_id, next_id + len(children)))
        next_id += len(children)
    assert next_id == len(tree.nodes)


class TestNodeNumbering:
    @pytest.mark.parametrize("name", sorted({*TREES, *DIGEST_TREES}))
    def test_breadth_first(self, name, tmp_path):
        tree = TREES[name] if name in TREES else DIGEST_TREES[name]()
        assert_breadth_first(tree)
        path = tmp_path / "tree.efg"
        efg.save_tree(tree, path)
        assert_breadth_first(efg.load_tree(path))


class TestCompiledTreeDigests:
    @pytest.mark.parametrize("name", sorted(DIGEST_TREES))
    def test_built(self, name):
        assert tree_digest(DIGEST_TREES[name]()) == TREE_DIGESTS[name]

    @pytest.mark.parametrize("name", ["kuhn3", "liars3", "bimatrix",
                                      "chain1500", "wide"])
    def test_saved_and_loaded(self, name, tmp_path):
        path = tmp_path / "tree.efg"
        efg.save_tree(DIGEST_TREES[name](), path)
        assert tree_digest(efg.load_tree(path)) == TREE_DIGESTS[name]

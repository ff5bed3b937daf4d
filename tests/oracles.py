"""Independent oracles the tests check the library against.

Everything here is deliberately written as brute force or straight-line
re-derivation, sharing no code path with the implementations under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from regretkit import efg, harness
from regretkit.core import (
    BlockLayout,
    BlockVector,
    _normalize_nonneg,
    as_flat,
    joint_distance,
    prm_plus_step,
)
from regretkit.efg import ChanceNode, GameTree, LeafNode, check_behavioral
from regretkit.games import MatrixGame, duality_gap
from regretkit.stabilized import _in_chopped, project_chopped


def left_to_right_sum(values) -> float:
    """The floats added one by one, left to right, starting from 0.0: the
    order the library's bit-exact sums keep (Python 3.12's ``sum``
    compensates, so it is not that order)."""
    total = 0.0
    for value in values:
        total += value
    return total


def grid_project_simplex(y: np.ndarray, resolution: float = 1e-4) -> np.ndarray:
    """Dense grid search for the simplex projection (2-D only)."""
    assert y.size == 2
    ps = np.arange(0.0, 1.0 + resolution, resolution)
    points = np.stack([ps, 1.0 - ps], axis=1)
    dists = np.sum((points - y) ** 2, axis=1)
    return points[int(np.argmin(dists))]


def enumerate_project_chopped(y: np.ndarray) -> np.ndarray:
    """Projection onto {r >= 0, sum r >= 1} by KKT case enumeration.

    Either the mass constraint is slack (candidate [y]+ if feasible) or it
    is tight; in the tight case enumerate every support set, equal-shift
    the supported coordinates onto the sum-1 hyperplane, and keep feasible
    candidates.  The closest feasible candidate is the projection.
    """
    d = y.size
    candidates = []
    positive = np.maximum(y, 0.0)
    if positive.sum() >= 1.0 - 1e-15:
        candidates.append(positive)
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            support = list(support)
            shift = (1.0 - y[support].sum()) / len(support)
            x = np.zeros(d)
            x[support] = y[support] + shift
            if np.all(x >= -1e-12):
                candidates.append(np.maximum(x, 0.0))
    best = min(candidates, key=lambda c: float(np.sum((c - y) ** 2)))
    return best


def nfg_gradient_by_enumeration(payoff: np.ndarray, player: int,
                                strategies: list[np.ndarray]) -> np.ndarray:
    """Expected payoff of each pure action, by summing over all profiles."""
    dims = payoff.shape
    grad = np.zeros(dims[player])
    for profile in itertools.product(*(range(d) for d in dims)):
        prob = 1.0
        for j, a in enumerate(profile):
            if j != player:
                prob *= strategies[j][a]
        grad[profile[player]] += prob * payoff[profile]
    return grad


def nfg_loss_gradient_tensordot(payoffs, player: int,
                                strategies: list[np.ndarray]) -> np.ndarray:
    """Player i's loss -grad u_i by ``np.tensordot``, contracting every
    other player's axis, last player first: the contraction that the
    games' cached plans must reproduce bit for bit."""
    grad = payoffs[player]
    for j in range(len(payoffs) - 1, -1, -1):
        if j != player:
            grad = np.tensordot(grad, strategies[j], axes=([j], [0]))
    return -grad


def max_eigenvalue_3x3(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric 3x3 matrix via the roots of its
    characteristic polynomial."""
    assert m.shape == (3, 3)
    c2 = -float(np.trace(m))
    c1 = float(
        m[0, 0] * m[1, 1] + m[0, 0] * m[2, 2] + m[1, 1] * m[2, 2]
        - m[0, 1] ** 2 - m[0, 2] ** 2 - m[1, 2] ** 2
    )
    c0 = -float(np.linalg.det(m))
    roots = np.roots([1.0, c2, c1, c0])
    return float(np.max(roots.real))


def straight_line_stable_round(w, prediction, game, eta, r0):
    """Hand-rolled re-derivation of one restarting round (no shared code)."""
    z, plays = [], []
    for wi, mi in zip(w, prediction):
        zi = np.maximum(wi - eta * mi, 0.0)
        total = zi.sum()
        plays.append(zi / total if total > 0 else np.full(zi.size, 1.0 / zi.size))
        z.append(zi)
    losses = game.gradients(plays)
    new_w, new_m, restarted = [], [], []
    for wi, xi, li in zip(w, plays, losses):
        fi = li - float(np.dot(xi, li))
        wn = np.maximum(wi - eta * fi, 0.0)
        if np.all(wn <= r0):
            new_w.append(np.full(wn.size, float(r0)))
            new_m.append(np.zeros(wn.size))
            restarted.append(True)
        else:
            new_w.append(wn)
            new_m.append(fi)
            restarted.append(False)
    return new_w, new_m, plays, restarted


def simplex_kernel_before(y: np.ndarray) -> np.ndarray:
    """The simplex kernel as it was before it raised ``NonFiniteError``
    where its threshold search finds no k: there it raised IndexError."""
    if y.ndim == 1:
        u = np.sort(y)[::-1]
        cumulative = np.cumsum(u)
        ks = np.arange(1, y.size + 1)
        candidates = u + (1.0 - cumulative) / ks
        k = int(np.nonzero(candidates > 0.0)[0][-1]) + 1
        tau = (1.0 - cumulative[k - 1]) / k
        return np.maximum(y + tau, 0.0)
    u = np.sort(y, axis=1)[:, ::-1]
    cumulative = np.cumsum(u, axis=1)
    positive = u + (1.0 - cumulative) / np.arange(1, y.shape[1] + 1) > 0.0
    found = positive.any(axis=1)
    if not found.all():
        np.nonzero(positive[np.argmin(found)])[0][-1]
    k = y.shape[1] - np.argmax(positive[:, ::-1], axis=1)
    tau = (1.0 - cumulative[np.arange(y.shape[0]), k - 1]) / k
    return np.maximum(y + tau[:, None], 0.0)


def project_chopped_reference(v: np.ndarray) -> np.ndarray:
    """Simplex-or-positive-part split, with the simplex projection done by
    bisection on the shift (independent of sorting)."""
    positive = np.maximum(v, 0.0)
    if positive.sum() >= 1.0:
        return positive
    lo, hi = -float(np.max(v)) - 1.0, 1.0 - float(np.min(v))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v + mid, 0.0).sum() > 1.0:
            hi = mid
        else:
            lo = mid
    return np.maximum(v + 0.5 * (lo + hi), 0.0)


def straight_line_smooth_round(w, prediction, game, eta):
    """Hand-rolled re-derivation of one chopped round."""
    z, plays = [], []
    for wi, mi in zip(w, prediction):
        zi = project_chopped_reference(wi - eta * mi)
        plays.append(zi / zi.sum())
        z.append(zi)
    losses = game.gradients(plays)
    new_w, new_m = [], []
    for wi, xi, li in zip(w, plays, losses):
        fi = li - float(np.dot(xi, li))
        new_w.append(project_chopped_reference(wi - eta * fi))
        new_m.append(fi)
    return new_w, new_m, plays


def counterfactual_values_by_paths(tree, x) -> list[np.ndarray]:
    """Counterfactual values by exhaustive root-to-leaf path enumeration."""
    values = [np.zeros(j.num_actions) for j in tree.infosets]

    def paths(nid, trail):
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            yield trail, node.payoffs
        elif isinstance(node, ChanceNode):
            for prob, child in zip(node.probs, node.children):
                yield from paths(child, trail + [("chance", None, None, prob)])
        else:
            for action, child in enumerate(node.children):
                yield from paths(
                    child, trail + [("decision", node.player, node.infoset, action)])

    for trail, payoffs in paths(0, []):
        for position, step in enumerate(trail):
            if step[0] != "decision":
                continue
            _, player, infoset, action = step
            weight = 1.0
            for other_pos, other in enumerate(trail):
                if other_pos == position:
                    continue
                if other[0] == "chance":
                    weight *= other[3]
                else:
                    # the owner's probabilities above the infoset are excluded
                    if other[1] == player and other_pos < position:
                        continue
                    weight *= x[other[2]][other[3]]
            values[infoset][action] += weight * payoffs[player]
    return values


def count_paths(tree) -> int:
    total = 0
    stack = [0]
    while stack:
        node = tree.nodes[stack.pop()]
        if isinstance(node, LeafNode):
            total += 1
        else:
            stack.extend(node.children)
    return total


# The recursive tree passes the library used before its passes became
# array sweeps, kept unchanged as the reference the sweeps must match bit
# for bit.  They recurse once per tree level.


def counterfactual_values(tree: GameTree, x, validate: bool = True) -> list[np.ndarray]:
    """All counterfactual values in one bottom-up pass, O(tree size)."""
    if validate:
        x = check_behavioral(tree, x)
    n = tree.num_players
    values = [np.zeros(j.num_actions) for j in tree.infosets]

    def visit(nid: int, reach: list[float]) -> np.ndarray:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return node.payoffs
        if isinstance(node, ChanceNode):
            total = np.zeros(n)
            saved = reach[n]
            for prob, child in zip(node.probs, node.children):
                reach[n] = saved * prob
                total += prob * visit(child, reach)
            reach[n] = saved
            return total
        player = node.player
        block = x[node.infoset]
        excl = 1.0
        for k in range(n + 1):
            if k != player:
                excl *= reach[k]
        total = np.zeros(n)
        accumulator = values[node.infoset]
        for action, child in enumerate(node.children):
            prob = block[action]
            saved = reach[player]
            reach[player] = saved * prob
            child_value = visit(child, reach)
            reach[player] = saved
            accumulator[action] += excl * child_value[player]
            total += prob * child_value
        return total

    visit(0, [1.0] * (n + 1))
    return values


def expected_values(tree: GameTree, x, validate: bool = True) -> np.ndarray:
    """Per-player expected payoff of the joint profile, in [0, 1] units."""
    if validate:
        x = check_behavioral(tree, x)
    n = tree.num_players

    def visit(nid: int) -> np.ndarray:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return node.payoffs
        if isinstance(node, ChanceNode):
            return sum((p * visit(c) for p, c in zip(node.probs, node.children)),
                       np.zeros(n))
        block = x[node.infoset]
        return sum((block[a] * visit(c) for a, c in enumerate(node.children)),
                   np.zeros(n))

    return visit(0)


def leaf_excl_weights(tree: GameTree, x, player: int) -> np.ndarray:
    """Per-node array: at each leaf, the product of chance and opponent
    probabilities on its path (player's own probabilities excluded)."""
    weights = np.zeros(len(tree.nodes))

    def visit(nid: int, w: float) -> None:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            weights[nid] = w
            return
        if isinstance(node, ChanceNode):
            for prob, child in zip(node.probs, node.children):
                visit(child, w * prob)
            return
        block = x[node.infoset]
        for action, child in enumerate(node.children):
            factor = 1.0 if node.player == player else block[action]
            visit(child, w * factor)

    visit(0, 1.0)
    return weights


def own_reach_per_infoset(tree: GameTree, x) -> np.ndarray:
    """Owner's own reach mass of every infoset (sum over member nodes of the
    product of the owner's probabilities above the node)."""
    mass = np.zeros(len(tree.infosets))

    def visit(nid: int, own: list[float]) -> None:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return
        if isinstance(node, ChanceNode):
            for child in node.children:
                visit(child, own)
            return
        mass[node.infoset] += own[node.player]
        block = x[node.infoset]
        for action, child in enumerate(node.children):
            saved = own[node.player]
            own[node.player] = saved * block[action]
            visit(child, own)
            own[node.player] = saved

    visit(0, [1.0] * tree.num_players)
    return mass


def best_response_value(tree: GameTree, player: int, leaf_weights) -> float:
    """Value of the best response to fixed per-leaf environment weights.

    ``leaf_weights`` aggregates everything outside the player's control
    (one round's opponents/chance reach, or a cumulative sum over rounds);
    the optimum over the player's strategies is attained at a pure
    behavioral strategy, found by resolving the player's infosets in
    deepest-own-history-first order.
    """
    leaf_weights = np.asarray(leaf_weights, dtype=float)
    choice: dict[int, int] = {}

    def node_value(nid: int) -> float:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return float(leaf_weights[nid] * node.payoffs[player])
        if isinstance(node, ChanceNode) or node.player != player:
            return left_to_right_sum(node_value(c) for c in node.children)
        return node_value(node.children[choice[node.infoset]])

    own = sorted(tree.infosets_of(player),
                 key=lambda i: len(tree.own_sequences[i]), reverse=True)
    for iid in own:
        iset = tree.infosets[iid]
        best_action, best_value = 0, -np.inf
        for action in range(iset.num_actions):
            value = left_to_right_sum(
                node_value(tree.nodes[nid].children[action])
                for nid in iset.nodes)
            if value > best_value:
                best_action, best_value = action, value
        choice[iid] = best_action
    return node_value(0)


# The per-infoset CFR code the library ran before its rounds, regret
# operator, averager and recorder became width-bucketed: one step, one
# projection and one normalization per infoset, blocks held in lists.  The
# bucketed code must return these floats bit for bit.


def regret_operator_per_infoset(tree, x) -> list[np.ndarray]:
    """H_j = G_j - <G_j, x_j> 1, one ``np.dot`` per infoset."""
    g = counterfactual_values(tree, x, validate=False)
    return [gj - np.dot(gj, xj) for gj, xj in zip(g, x)]


def _update_groups(tree, alternate):
    if alternate:
        return [tree.infosets_of(player) for player in range(tree.num_players)]
    return [range(len(tree.infosets))]


def _play_block(state):
    return _normalize_nonneg(np.maximum(state.r + state.prediction, 0.0))


def predictive_cfr_round(states, tree, alternate=False):
    """One predictive RM+ step per infoset; ``states`` is a list of
    per-infoset ``AggregateState``s.  Returns (states, played, increments
    of the regret operator at the played profile)."""
    states = list(states)
    played = [_play_block(s) for s in states]
    profile = list(played)
    for group in _update_groups(tree, alternate):
        h = regret_operator_per_infoset(tree, profile)
        for j in group:
            states[j], _ = prm_plus_step(states[j], -h[j])
            if alternate:
                profile[j] = _play_block(states[j])
    return states, played


def clairvoyant_cfr_round(z, tree, eta, alternate=False):
    """One extragradient step per infoset on a list of chopped blocks."""
    for block in z:
        assert _in_chopped(block)
    profile = [_normalize_nonneg(block) for block in z]
    z_next = list(z)
    for group in _update_groups(tree, alternate):
        h0 = regret_operator_per_infoset(tree, profile)
        for j in group:
            profile[j] = _normalize_nonneg(project_chopped(z[j] + eta * h0[j]))
        h1 = regret_operator_per_infoset(tree, profile)
        for j in group:
            z_next[j] = project_chopped(z[j] + eta * h1[j])
    return z_next, profile


class BehavioralAverager:
    """Per-infoset accumulators: weight * own_reach(j) * x_j each."""

    def __init__(self, tree, scheme):
        self.tree, self.scheme, self.t = tree, scheme, 0
        self.sums = [np.zeros(j.num_actions) for j in tree.infosets]

    def observe(self, x):
        self.t += 1
        weight = float(self.t) if self.scheme == "linear" else 1.0
        reach = own_reach_per_infoset(self.tree, x)
        for j, block in enumerate(x):
            self.sums[j] += weight * reach[j] * block

    def average(self):
        return [_normalize_nonneg(s) for s in self.sums]


def tree_recorder_rows(tree, played_rounds, increment_rounds):
    """The recorder's rows for a tree run, kept per infoset: per player the
    sum of positive per-infoset maxima of the cumulative regrets, the CCE
    gap, and the summed squared steps of the player's blocks."""
    owned = [tree.infosets_of(i) for i in range(tree.num_players)]
    cum = [np.zeros(j.num_actions) for j in tree.infosets]
    regret_rows, gaps, step_rows = [], [], []
    prev = None
    for t, (played, increments) in enumerate(
            zip(played_rounds, increment_rounds), start=1):
        for acc, increment in zip(cum, increments):
            acc += increment
        regrets = [left_to_right_sum(max(float(cum[j].max()), 0.0)
                                     for j in own)
                   for own in owned]
        regret_rows.append(regrets)
        gaps.append(max(0.0, *regrets) / t)
        if prev is None:
            step_rows.append([0.0] * len(owned))
        else:
            steps = [float(np.sum((x - p) ** 2)) for x, p in zip(played, prev)]
            step_rows.append([left_to_right_sum(steps[j] for j in own)
                              for own in owned])
        prev = played
    ledgers = [np.concatenate([cum[j] for j in own]) if own else np.zeros(0)
               for own in owned]
    return np.array(regret_rows), np.array(gaps), np.array(step_rows), ledgers


# The per-block fixed-point solve the library ran before the solve moved
# onto one flat joint vector: one normalization, f and chopped projection
# per player block, the residual from ``joint_distance``, and the harness's
# plays and increments recomputed from g(w).  The flat solve must return
# these floats bit for bit.


def operator_F_per_block(z, game) -> list[np.ndarray]:
    strategies = [_normalize_nonneg(block) for block in z]
    losses = game.gradients(strategies)
    return [loss - np.dot(x, loss) for x, loss in zip(strategies, losses)]


def conceptual_round_per_block(z_prev, game, eta, eps_target, k_max):
    """Returns (z_next, w, iterations, residual, history, plays,
    increments <x, l> - l at the plays g(w))."""
    w = z_prev
    history = []
    for k in range(1, k_max + 2):
        steps = [eta * f for f in operator_F_per_block(w, game)]
        advanced = [project_chopped(z - s) for z, s in zip(z_prev, steps)]
        residual = joint_distance(w, advanced)
        history.append(residual)
        if residual <= eps_target or k > k_max:
            plays = [_normalize_nonneg(block) for block in w]
            losses = game.gradients(plays)
            increments = [np.dot(x, loss) - loss
                          for x, loss in zip(plays, losses)]
            return (advanced, w, min(k, k_max), residual, tuple(history),
                    plays, increments)
        w = advanced


# The harness's recorder as it was before it kept its books per chunk of
# rounds: every round accumulates the ledger and the average, and every
# stored round takes its per-block maxima, regrets, gap and squared steps
# on its own.  The chunked recorder must fill the same trace bit for bit.
# Stored rounds come from ``harness.stored_rounds``, looked up per call.


class StrategyAverager:
    """Running average of played strategies, round t weighted by t
    (linear) or 1 (uniform)."""

    def __init__(self, layout: BlockLayout, scheme: str):
        self._layout = layout
        self._linear = scheme == "linear"
        self._sums = np.zeros(layout.size)
        self._t = 0
        self._weight = 0.0

    def observe(self, x: BlockVector) -> None:
        self._t += 1
        weight = float(self._t) if self._linear else 1.0
        self._weight += weight
        self._sums += weight * x.vector

    def average(self) -> list[np.ndarray]:
        mean = self._sums / self._weight
        return [mean[lo:hi] for lo, hi in self._layout.bounds]


def squared_distances(layout, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per block, the squared Euclidean distance between the blocks of two
    flat vectors, each summed as ``np.sum`` sums the 1-D block (formerly
    ``BlockLayout.squared_distances``)."""
    squares = (a - b) ** 2
    out = np.empty(len(layout.bounds))
    for ids, index in layout.buckets:
        out[ids] = squares[index].sum(axis=-1)
    return out


class PerRoundRecorder:
    """Per-round bookkeeping for every family, one round at a time."""

    def __init__(self, config, game):
        if isinstance(game, efg.GameTree):
            layout = game.compiled.layout
            owned = [game.infosets_of(i) for i in range(game.num_players)]
            averager = efg.BehavioralAverager(game, config.averaging)
            self.regret_of = lambda maxima: left_to_right_sum(
                np.maximum(maxima, 0.0).tolist())
            store_full = False  # tree rounds hand over no losses
        else:
            layout = game.layout
            owned = [[i] for i in range(len(game.dims))]
            averager = StrategyAverager(layout, config.averaging)
            self.regret_of = lambda maxima: float(maxima[0])
            store_full = config.store_full
        self.layout = layout
        self.owned = [np.array(own, dtype=np.intp) for own in owned]
        self.averager = averager
        if isinstance(game, MatrixGame):
            self.gap_of = lambda t, regrets: duality_gap(
                game, *averager.average())
        else:
            self.gap_of = lambda t, regrets: max(0.0, *regrets) / t
        self.cum = np.zeros(layout.size)
        stored = harness.stored_rounds(config.iters, config.report_skip)
        rows, n = stored.size, len(self.owned)

        def full():
            return ([np.zeros((config.iters, d)) for d in layout.widths.tolist()]
                    if store_full else None)

        self.trace = harness.RunTrace(
            header={}, t=stored, regret_max=np.zeros((rows, n)),
            gap=np.zeros(rows), iter_var=np.zeros((rows, n)),
            restart=np.zeros((rows, n), dtype=np.int8),
            fp_k=np.full(rows, np.nan), fp_residual=np.full(rows, np.nan),
            ledgers=[], strategies=full(), losses=full(), lifted=full())
        self.restart_events: list[tuple[int, int]] = []
        self._cursor = 0
        self._prev = None

    def observe(self, t, blocks, increments, losses=None, lifted=None,
                restarts=(), fp=None) -> None:
        x = as_flat(blocks)
        if not np.isfinite(x).all():
            raise harness.NumericalDivergence(t)
        self.cum += as_flat(increments)
        self.averager.observe(BlockVector(x, self.layout))
        self.restart_events.extend(restarts)
        trace = self.trace
        if trace.strategies is not None:
            for i, (block, loss) in enumerate(zip(blocks, losses)):
                trace.strategies[i][t - 1] = block
                trace.losses[i][t - 1] = loss
                if lifted is not None:
                    trace.lifted[i][t - 1] = lifted[i]
        if self._cursor < trace.t.size and trace.t[self._cursor] == t:
            row = self._cursor
            maxima = np.maximum.reduceat(self.cum, self.layout.offsets[:-1])
            regrets = [self.regret_of(maxima[own]) for own in self.owned]
            trace.regret_max[row] = regrets
            trace.gap[row] = self.gap_of(t, regrets)
            if self._prev is not None:
                steps = squared_distances(self.layout, x, self._prev)
                trace.iter_var[row] = [left_to_right_sum(steps[own].tolist())
                                       for own in self.owned]
            for _, player in restarts:
                trace.restart[row, player] = 1
            if fp is not None:
                trace.fp_k[row], trace.fp_residual[row] = fp
            self._cursor += 1
        self._prev = x

    def finish(self, header):
        trace = self.trace
        trace.header = header
        blocks = BlockVector(self.cum, self.layout)
        trace.ledgers = [as_flat([blocks[j] for j in own.tolist()])
                         for own in self.owned]
        trace.averages = self.averager.average()
        trace.restart_events = tuple(self.restart_events)
        return trace


def write_csv_per_row(trace, stream) -> None:
    """``RunTrace.write_csv`` one row at a time, one ``write`` per line,
    as it was before it formatted whole chunks of rows."""
    for key, value in trace.header.items():
        stream.write(f"# {key}={value}\n")
    stream.write("t,player,regret_max,gap,iter_var,restart,fp_k,fp_residual\n")
    for row in range(trace.t.size):
        t = int(trace.t[row])
        gap = f"{trace.gap[row]:.17g}"
        fpk = "" if math.isnan(trace.fp_k[row]) else str(int(trace.fp_k[row]))
        fpr = ("" if math.isnan(trace.fp_residual[row])
               else f"{trace.fp_residual[row]:.17g}")
        for player in range(trace.num_players):
            stream.write(
                f"{t},{player},{trace.regret_max[row, player]:.17g},{gap},"
                f"{trace.iter_var[row, player]:.17g},"
                f"{int(trace.restart[row, player])},{fpk},{fpr}\n"
            )

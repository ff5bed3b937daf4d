"""Benchmark game-tree builders (desk scale).

All builders return perfect-recall ``GameTree`` instances; payoffs are
stated in their natural units and mapped into [0, 1] by the tree
constructor.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tree import GameTree, TreeBuilder

__all__ = ["build_kuhn", "build_liars_dice", "build_bimatrix_tree"]


def build_kuhn(players: int = 2, ranks: int = 3) -> GameTree:
    """Two-player Kuhn poker with ``ranks`` card ranks.

    Both players ante 1 and receive one card.  Player 1 checks or bets 1;
    after a check player 2 may check (showdown for the antes) or bet, in
    which case player 1 folds or calls; after a bet player 2 folds or
    calls.  Calls are settled by a showdown for the pot.
    """
    if players != 2:
        raise ValueError("Kuhn poker is built for exactly 2 players")
    if ranks < 3:
        raise ValueError("Kuhn poker needs at least 3 ranks")
    b = TreeBuilder(2)

    def showdown(c1: int, c2: int, stake: int):
        return (stake, -stake) if c1 > c2 else (-stake, stake)

    deals = []
    probs = []
    for c1, c2 in itertools.permutations(range(ranks), 2):
        # P1 bet -> P2 fold/call
        after_bet = b.decision(1, f"P2:{c2}:b", [
            b.leaf((1, -1)),
            b.leaf(showdown(c1, c2, 2)),
        ])
        # P1 check -> P2 bet -> P1 fold/call
        after_check_bet = b.decision(0, f"P1:{c1}:kb", [
            b.leaf((-1, 1)),
            b.leaf(showdown(c1, c2, 2)),
        ])
        after_check = b.decision(1, f"P2:{c2}:k", [
            b.leaf(showdown(c1, c2, 1)),
            after_check_bet,
        ])
        deals.append(b.decision(0, f"P1:{c1}:", [after_check, after_bet]))
        probs.append(1.0 / (ranks * (ranks - 1)))
    return b.build(b.chance(probs, deals))


def build_liars_dice(players: int = 2, faces: int = 2) -> GameTree:
    """Liar's dice with one ``faces``-sided die per player (no wilds).

    Players bid (quantity, face) in strictly increasing order or challenge
    the last bid ("liar").  On a challenge the dice are revealed: if at
    least ``quantity`` dice show ``face`` the challenger loses, otherwise
    the bidder loses; loser pays the winner 1, everyone else breaks even.
    """
    if players not in (2, 3):
        raise ValueError("Liar's dice is built for 2 or 3 players")
    if faces != 2:
        raise ValueError("Liar's dice is built for 2-faced dice")
    b = TreeBuilder(players)
    # bids ordered by (quantity, face); index in this list orders raises
    bids = [(q, f) for q in range(1, players + 1) for f in range(faces)]

    def settle(rolls, bid_index: int, bidder: int, challenger: int):
        quantity, face = bids[bid_index]
        count = sum(1 for r in rolls if r == face)
        payoffs = [0.0] * players
        loser, winner = ((challenger, bidder) if count >= quantity
                         else (bidder, challenger))
        payoffs[winner] = 1.0
        payoffs[loser] = -1.0
        return payoffs

    def subgame(rolls) -> int:
        # bid histories are strictly increasing index tuples; build every
        # history after all its one-bid extensions, longest first
        node_of: dict[tuple[int, ...], int] = {}
        for length in range(len(bids), -1, -1):
            for history in itertools.combinations(range(len(bids)), length):
                mover = len(history) % players
                key = "h" + ",".join(str(i) for i in history) if history else "h-"
                last = history[-1] if history else -1
                children = [node_of[history + (bid,)]
                            for bid in range(last + 1, len(bids))]
                if history:
                    bidder = (len(history) - 1) % players
                    children.append(b.leaf(settle(rolls, last, bidder, mover)))
                node_of[history] = b.decision(
                    mover, f"P{mover}:d{rolls[mover]}:{key}", children)
        return node_of[()]

    outcomes = list(itertools.product(range(faces), repeat=players))
    roots = [subgame(rolls) for rolls in outcomes]
    return b.build(b.chance([1.0 / len(outcomes)] * len(outcomes), roots))


def build_bimatrix_tree(u1, u2) -> GameTree:
    """Depth-1 simultaneous-move encoding of a two-player bimatrix game:
    player 1 picks a row, player 2 picks a column without observing it."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.shape != u2.shape or u1.ndim != 2:
        raise ValueError("need two payoff matrices of one shape")
    d1, d2 = u1.shape
    b = TreeBuilder(2)
    rows = []
    for a in range(d1):
        leaves = [b.leaf((u1[a, c], u2[a, c])) for c in range(d2)]
        rows.append(b.decision(1, "P2:col", leaves))
    return b.build(b.decision(0, "P1:row", rows))

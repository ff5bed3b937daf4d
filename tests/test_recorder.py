"""The chunked recorder against the per-round recorder it replaced
(``oracles.PerRoundRecorder``): the trace CSV and every ``RunTrace``
array must match bit for bit, whatever the horizon's position relative
to the chunk boundaries."""

import io

import numpy as np
import pytest

from regretkit import efg, harness
from regretkit.games import hard_instance, random_matrix_game, random_nfg
from regretkit.harness import SolverConfig

from .oracles import PerRoundRecorder
from .test_efg import wide_tree

GAMES = {"hard3x3": hard_instance,
         "nfg2x3x4": lambda: random_nfg((2, 3, 4), 0),
         # 200 floats per row: the chunk is bounded by bytes, not rows
         "matrix90x110": lambda: random_matrix_game(90, 110, 1)}
TREES = {"kuhn3": lambda: efg.build_kuhn(2, 3),
         "liars3": lambda: efg.build_liars_dice(3, 2),
         # buckets of several blocks 9 and 17 wide: there a row sum of a
         # strided gather departs from each block's own ``.sum()``
         "wide": wide_tree}
LIFTED = ("rm+", "prm+", "stable-prm+", "smooth-prm+")
FIXED_POINT = ("exrm+", "conceptual-rm+")


def chunk_rows(game) -> int:
    size = (game.compiled.layout.size if isinstance(game, efg.GameTree)
            else game.layout.size)
    return min(harness._CHUNK_ROWS, harness._CHUNK_FLOATS // size)


def horizons(rows):
    return {"K-1": rows - 1, "K": rows, "K+1": rows + 1, "3K+5": 3 * rows + 5}


def trace_bytes(trace) -> list:
    """The CSV and every array of a trace, as bytes."""
    buf = io.StringIO()
    trace.write_csv(buf)
    parts = [buf.getvalue(), trace.header, trace.restart_events]
    for name in ("t", "regret_max", "gap", "iter_var", "restart", "fp_k",
                 "fp_residual"):
        array = getattr(trace, name)
        parts.append((name, array.dtype.str, array.shape, array.tobytes()))
    for name in ("ledgers", "averages", "strategies", "losses", "lifted"):
        arrays = getattr(trace, name)
        parts.append((name, None if arrays is None else [
            (a.dtype.str, a.shape, a.tobytes()) for a in arrays]))
    return parts


def assert_matches_per_round(config, make_game, monkeypatch):
    chunked = harness.run(config, make_game())
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_Recorder", PerRoundRecorder)
        per_round = harness.run(config, make_game())
    assert trace_bytes(chunked) == trace_bytes(per_round)


def normal_form_cases():
    for name, make in GAMES.items():
        rows = chunk_rows(make())
        for label, iters in horizons(rows).items():
            for algo in LIFTED + FIXED_POINT:
                alternations = (False, True) if algo in LIFTED else (False,)
                for alternate in alternations:
                    yield pytest.param(name, algo, alternate, iters,
                                       id=f"{name}-{algo}-{alternate}-{label}")


def tree_cases():
    for name, make in TREES.items():
        rows = chunk_rows(make())
        for label, iters in horizons(rows).items():
            for algo in ("predictive-cfr", "clairvoyant-cfr"):
                for alternate in (False, True):
                    yield pytest.param(name, algo, alternate, iters,
                                       id=f"{name}-{algo}-{alternate}-{label}")


class TestChunkedRecorderMatchesPerRound:
    @pytest.mark.parametrize("name,algo,alternate,iters",
                             list(normal_form_cases()))
    def test_normal_form(self, name, algo, alternate, iters, monkeypatch):
        config = SolverConfig(algorithm=algo, iters=iters,
                              alternation=alternate)
        assert_matches_per_round(config, GAMES[name], monkeypatch)

    @pytest.mark.parametrize("name,algo,alternate,iters", list(tree_cases()))
    def test_tree(self, name, algo, alternate, iters, monkeypatch):
        config = SolverConfig(algorithm=algo, iters=iters,
                              alternation=alternate)
        assert_matches_per_round(config, TREES[name], monkeypatch)

    @pytest.mark.parametrize("shift", [-3, -1, 0, 1, 7])
    @pytest.mark.parametrize("name,algo", [
        ("hard3x3", "stable-prm+"), ("hard3x3", "conceptual-rm+"),
        ("nfg2x3x4", "prm+"), ("kuhn3", "predictive-cfr")])
    def test_report_skip_straddles_a_chunk_boundary(self, name, algo, shift,
                                                    monkeypatch):
        make = {**GAMES, **TREES}[name]
        rows = chunk_rows(make())
        config = SolverConfig(algorithm=algo, iters=3 * rows + 5,
                              report_skip=rows + shift)
        assert_matches_per_round(config, make, monkeypatch)

    @pytest.mark.parametrize("averaging", ["linear", "uniform"])
    @pytest.mark.parametrize("name", ["hard3x3", "nfg2x3x4"])
    @pytest.mark.parametrize("algo", LIFTED + FIXED_POINT)
    def test_store_full(self, algo, name, averaging, monkeypatch):
        rows = chunk_rows(GAMES[name]())
        config = SolverConfig(algorithm=algo, iters=rows + 1,
                              averaging=averaging, store_full=True,
                              alternation=algo in ("rm+", "smooth-prm+"))
        assert_matches_per_round(config, GAMES[name], monkeypatch)

    @pytest.mark.parametrize("name,algo", [
        ("hard3x3", "rm+"), ("hard3x3", "stable-prm+"),
        ("hard3x3", "conceptual-rm+"), ("nfg2x3x4", "smooth-prm+"),
        ("kuhn3", "clairvoyant-cfr")])
    def test_sparse_stored_rows(self, name, algo, monkeypatch):
        """A sparse set of stored rounds, as ``stored_rounds`` keeps for
        T > 10^6: every round up to 100, then 40 rounds spaced
        geometrically, so chunks hold several, one or no stored rounds,
        most of them a step after an unstored round."""
        def sparse(iters, report_skip=0):
            ts = np.union1d(np.arange(1, 101),
                            np.geomspace(1, iters, 40).astype(np.int64))
            return ts[ts > report_skip]

        monkeypatch.setattr(harness, "stored_rounds", sparse)
        game = {**GAMES, **TREES}[name]()
        config = SolverConfig(algorithm=algo, iters=4000, report_skip=50)
        eta, _ = harness.resolve_eta(config, game)
        advance = harness._FAMILY[algo](config, game, eta)
        chunked = harness._Recorder(config, game)
        per_round = PerRoundRecorder(config, game)
        assert 0 < chunked.trace.t.size < 4000
        for t in range(1, config.iters + 1):
            blocks, increments, extras = advance(t)
            chunked.observe(t, blocks, increments, **extras)
            per_round.observe(t, blocks, increments, **extras)
        assert (trace_bytes(chunked.finish({"run": 1}))
                == trace_bytes(per_round.finish({"run": 1})))

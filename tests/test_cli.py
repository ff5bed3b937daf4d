import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretkit.cli import main
from regretkit.games import (
    hard_instance,
    load_game,
    random_matrix_game,
    random_nfg,
    save_game,
)
from regretkit.harness import ALGORITHMS
from regretkit import cli, efg


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounterexample:
    def test_rm_plus_six_rounds(self, capsys):
        code, out, _ = run_cli(
            ["counterexample", "--variant", "rm+", "--iters", "6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        losses = [float(r[1]) for r in rows]
        assert losses == [2.0, -1.0, 2.0, -2.0, 4.0, -4.0]
        plays = [(float(r[3]), float(r[4])) for r in rows]
        assert plays == [(0.5, 0.5), (0.0, 1.0)] * 3

    def test_rational_mode(self, capsys):
        code, out, _ = run_cli(
            ["counterexample", "--variant", "prm+", "--iters", "4",
             "--rational"], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()
                if not l.startswith("#")][1:]
        assert rows[0][3:] == ["1/2", "1/2"]
        assert rows[1][3:] == ["0", "1"]


    @pytest.mark.parametrize("variant,largest", [("rm+", 2048), ("prm+", 2046)])
    def test_iters_past_float_range_exit_two(self, capsys, variant, largest):
        code, out, _ = run_cli(
            ["counterexample", "--variant", variant, "--iters", str(largest)],
            capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith(f"{largest},")
        code, out, err = run_cli(
            ["counterexample", "--variant", variant,
             "--iters", str(largest + 1)], capsys)
        assert code == 2 and out == ""
        assert f"at most T={largest}" in err


class TestRun:
    def test_auto_eta_recorded(self, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "exrm+", "--eta", "auto", "--game", "hard3x3",
             "--iters", "20"], capsys)
        assert code == 0
        header = dict(
            line[1:].strip().split("=", 1)
            for line in out.splitlines() if line.startswith("#"))
        lf = float(header["L_F"])
        assert float(header["eta"]) == pytest.approx(1.0 / (np.sqrt(2) * lf),
                                                     rel=1e-12)

    def test_missing_game_file_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["run", "--algo", "rm+", "--game", "/missing.game",
             "--iters", "5"], capsys)
        assert code == 2
        assert "not found" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--algo", "rm+", "--game", "hard3x3", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_no_alt_is_gone(self, tmp_path, capsys, command):
        """Simultaneous updates are the default: ``--alt`` is the one
        switch, and ``--no-alt`` is an unknown flag."""
        sweep = ["--etas", "0.1", "--outdir", str(tmp_path)]
        with pytest.raises(SystemExit) as info:
            main([command, "--algo", "rm+", "--game", "hard3x3", "--iters",
                  "2", "--no-alt", *(sweep if command == "sweep" else [])])
        assert info.value.code == 2
        assert "unrecognized arguments: --no-alt" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_exits_three(self, capsys):
        code, _, err = run_cli(
            ["run", "--algo", "exrm+", "--eta", "1e308", "--game", "hard3x3",
             "--iters", "10"], capsys)
        assert code == 3
        assert "round" in err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("scale", [1e305, 1e306, 3e307])
    def test_simplex_without_a_threshold_exits_three(self, tmp_path, capsys,
                                                     scale):
        rows = scale * hard_instance().payoff / 4
        path = tmp_path / "scaled.game"
        path.write_text("matrix\n3 3\n" + "".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in rows))
        code, out, err = run_cli(
            ["run", "--algo", "conceptual-rm+", "--eta", "0.1", "--game",
             str(path), "--iters", "5"], capsys)
        assert code == 3 and out == ""
        assert "round 1" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflowing_gap_exits_three(self, tmp_path, capsys):
        # every play is finite, but round 1's duality gap overflows
        path = tmp_path / "rps.game"
        path.write_text("matrix\n3 3\n0 1e308 -1e308\n-1e308 0 1e308\n"
                        "1e308 -1e308 0\n")
        code, out, err = run_cli(
            ["run", "--algo", "conceptual-rm+", "--eta", "0.1", "--game",
             str(path), "--iters", "5"], capsys)
        assert code == 3 and out == ""
        assert "non-finite iterate at round 1" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["predictive-cfr", "clairvoyant-cfr"])
    def test_payoff_span_past_float_range_exits_two(self, tmp_path, capsys,
                                                    algo):
        # finite payoffs whose [0, 1] map would divide by an infinite scale
        path = tmp_path / "span.efg"
        path.write_text("efg 2\ninfoset 0 player 0 actions 2 key P1:pick\n"
                        "node 0 player 0 infoset 0 2 1 2\n"
                        "node 1 leaf 1e308 0\nnode 2 leaf -1e308 1\n")
        code, out, err = run_cli(["run", "--algo", algo, "--game", str(path),
                                  "--iters", "3"], capsys)
        assert code == 2 and out == ""
        assert (f"{path}: player 0: leaf payoffs span more than the float "
                "range") in err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value",
                                "ignore:divide by zero", "ignore:underflow")
    @given(algo=st.sampled_from(ALGORITHMS), matrix=st.booleans(),
           scale=st.integers(-300, 308), alternate=st.booleans(),
           eta=st.sampled_from(["auto", "1e-300", "0.1", "10", "1e308"]))
    @settings(max_examples=40, deadline=None)
    def test_saved_game_exits_zero_two_or_three(self, tmp_path_factory, algo,
                                                matrix, scale, alternate, eta):
        """Scaled payoffs past the float range fail to load (exit 2)."""
        path = tmp_path_factory.mktemp("fuzz") / "game.txt"
        if algo.endswith("cfr"):
            efg.save_tree(efg.build_kuhn(2, 3), path)
        elif matrix:
            path.write_text("matrix\n3 3\n" + " ".join(
                repr(10.0**scale * v) for v in hard_instance().payoff.ravel()))
        else:
            path.write_text("nfg 3\n2 3 3\n" + " ".join(
                repr(10.0**scale * v)
                for u in random_nfg((2, 3, 3), 2).payoffs for v in u.ravel()))
        code = main(["run", "--algo", algo, "--game", str(path), "--eta", eta,
                     "--iters", "12", "--kmax", "5", "--out",
                     str(path.with_suffix(".csv"))]
                    + (["--alt"] if alternate else []))
        assert code in (0, 2, 3)

    def test_output_file_and_outdir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REGRETKIT_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            ["run", "--algo", "rm+", "--game", "hard3x3", "--iters", "5",
             "--out", "sub/trace.csv"], capsys)
        assert code == 0
        assert (tmp_path / "sub" / "trace.csv").exists()

    @pytest.mark.parametrize("opening", ["# Kuhn poker, 3 ranks\n", "\n"],
                             ids=["comment", "blank-line"])
    def test_tree_file_may_open_with_a_comment_or_blank_line(
            self, tmp_path, capsys, opening):
        plain, padded = tmp_path / "plain.efg", tmp_path / "padded.efg"
        efg.save_tree(efg.build_kuhn(2, 3), plain)
        padded.write_text(opening + plain.read_text())
        outputs = []
        for path in (plain, padded):
            code, out, err = run_cli(
                ["run", "--algo", "predictive-cfr", "--game", str(path),
                 "--iters", "2"], capsys)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_tree_game_by_name(self, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "predictive-cfr", "--game", "kuhn3",
             "--iters", "10", "--alt"], capsys)
        assert code == 0
        assert "t,player," in out


    @pytest.mark.parametrize("lines", [
        ["node 0 leaf 1 0"],
        ["node 0 chance 2 0.5 0.5 1 2", "node 1 leaf 1 0", "node 2 leaf 0 1"],
    ], ids=["leaf-root", "chance-over-leaves"])
    @pytest.mark.parametrize("algo", ["predictive-cfr", "clairvoyant-cfr"])
    def test_tree_without_decisions_exits_two(self, tmp_path, capsys, lines,
                                              algo):
        path = tmp_path / "idle.efg"
        path.write_text("\n".join(["efg 2"] + lines) + "\n")
        code, out, err = run_cli(
            ["run", "--algo", algo, "--game", str(path), "--iters", "2"],
            capsys)
        assert code == 2 and out == ""
        assert err == ("error: the tree has no decision node: no decisions "
                       "to solve\n")

    @pytest.mark.parametrize("lines,lineno,message", [
        (["infoset 0 player 0 actions 2 key P1:pick",
          "node 0 player 0 infoset 0 2 1 7", "node 1 leaf 0.5"],
         3, "node 0 has unknown child 7"),
        (["infoset 0 player 0", "node 0 leaf 0.5"],
         2, "expected 'infoset <id> player <i> actions <k> key <token>'"),
        (["node 0 chance 2 nan 1.0 1 2", "node 1 leaf 0.5", "node 2 leaf 0.5"],
         2, "chance probabilities must be finite"),
    ], ids=["dangling-child", "truncated-infoset", "nan-chance"])
    def test_malformed_tree_file_exits_two(self, tmp_path, capsys, lines,
                                           lineno, message):
        path = tmp_path / "bad.efg"
        path.write_text("\n".join(["efg 1"] + lines) + "\n")
        code, _, err = run_cli(
            ["run", "--algo", "predictive-cfr", "--game", str(path),
             "--iters", "2"], capsys)
        assert code == 2
        assert f"{path}:{lineno}: " in err and message in err

    @pytest.mark.parametrize("text,lineno,message", [
        ("matrix\n-1 2\n", 2, "row count must be a positive integer"),
        ("nfg 2\n2 -3\n", 2,
         "action count of player 2 must be a positive integer"),
        ("matrix\n2 2\n1 2 3 x\n", 3, "bad payoff 'x'"),
        ("matrix\n2 2\n1 2\n3\n# end\n", 4,
         "truncated game file: expected 4 payoffs"),
        ("matrix\n1 1\n5\n6\n", 4, "trailing token '6'"),
        ("nfg 2\n1 2\n1 nan\n", 3, "non-finite payoff 'nan'"),
        ("\nmatrx 2 2\n", 2, "unknown game kind 'matrx'"),
    ], ids=["negative-dim", "negative-nfg-dim", "bad-payoff", "truncated",
            "trailing", "non-finite", "unknown-kind"])
    def test_malformed_game_file_exits_two(self, tmp_path, capsys, text,
                                           lineno, message):
        path = tmp_path / "bad.game"
        path.write_text(text)
        code, _, err = run_cli(
            ["run", "--algo", "rm+", "--game", str(path), "--iters", "2"],
            capsys)
        assert code == 2
        assert f"{path}:{lineno}: {message}" in err

    @pytest.mark.parametrize("flags,message", [
        (["--algo", "stable-prm+", "--r0", "nan"], "r0 must be positive"),
        (["--algo", "stable-prm+", "--r0", "inf"], "r0 must be positive"),
        (["--algo", "conceptual-rm+", "--eps-schedule", "nan"],
         "eps schedule must be '1/t^2' or a nonnegative finite tolerance"),
    ], ids=["r0-nan", "r0-inf", "eps-nan"])
    def test_non_finite_flag_exits_two(self, capsys, flags, message):
        code, out, err = run_cli(
            ["run", "--game", "hard3x3", "--iters", "3"] + flags, capsys)
        assert code == 2
        assert message in err and out == ""

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("algo,text,source", [
        ("exrm+", "matrix\n2 2\n1e308 -1e308\n-1e308 1e308\n", "L_F=inf"),
        ("conceptual-rm+", "matrix\n2 2\n1e308 -1e308\n-1e308 1e308\n",
         "L_F=inf"),
        ("exrm+", "matrix\n2 2\n0 0\n0 0\n", "L_F=0.0"),
        ("smooth-prm+", "nfg 1\n2\n1 2\n", "1 player(s)"),
    ], ids=["exrm-overflowing-constants", "conceptual-overflowing-constants",
            "exrm-zero-game", "smooth-one-player"])
    def test_auto_eta_not_positive_and_finite_exits_two(self, tmp_path, capsys,
                                                        algo, text, source):
        path = tmp_path / "game.txt"
        path.write_text(text)
        code, out, err = run_cli(
            ["run", "--algo", algo, "--eta", "auto", "--game", str(path),
             "--iters", "3"], capsys)
        assert code == 2 and out == ""
        assert f"{algo}: the auto step size" in err and source in err

    @pytest.mark.parametrize("spec", ["random-matrix:3x", "random-nfg:3,x",
                                      "random-matrix:3x4x5"])
    def test_unreadable_game_spec_exits_two(self, capsys, spec):
        code, _, err = run_cli(
            ["run", "--algo", "rm+", "--game", spec, "--iters", "2"], capsys)
        assert code == 2
        assert f"spec {spec!r}" in err

    def test_unreadable_eta_exits_two(self, capsys):
        code, out, err = run_cli(
            ["run", "--algo", "rm+", "--game", "hard3x3", "--eta", "abc",
             "--iters", "2"], capsys)
        assert code == 2 and out == ""
        assert "bad eta 'abc'" in err

    def test_game_too_large_to_allocate_exits_two(self, capsys, monkeypatch):
        def refuse(dims, seed):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(cli, "random_nfg", refuse)
        code, out, err = run_cli(
            ["run", "--algo", "rm+", "--game", "random-nfg:100000,100000",
             "--iters", "1"], capsys)
        assert code == 2 and out == ""
        assert err == "error: Unable to allocate 149. GiB for an array\n"

    def test_random_nfg_spec(self, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "prm+", "--game", "random-nfg:2,3,2",
             "--iters", "4"], capsys)
        assert code == 0
        assert "# game=nfg2x3x2:" in out
        assert len([l for l in out.splitlines() if l[:1].isdigit()]) == 4 * 3


class TestGenAndSweep:
    def test_gen_random_matrix_round_trip(self, tmp_path, capsys):
        out = tmp_path / "m.game"
        code, _, _ = run_cli(
            ["gen", "--game", "random-matrix:4x3", "--seed", "9",
             "--out", str(out)], capsys)
        assert code == 0
        game = load_game(out)
        assert game.dims == (4, 3)

    @pytest.mark.parametrize("flags,players,dims", [
        (["--game", "random-nfg:2,3,2", "--seed", "4"], 3, (2, 3, 2)),
        (["--game", "liars3"], 3, None),
    ], ids=["random-nfg", "liars-dice"])
    def test_gen_loads_back(self, tmp_path, capsys, flags, players, dims):
        out = tmp_path / "gen.txt"
        code, _, _ = run_cli(["gen", *flags, "--out", str(out)], capsys)
        assert code == 0
        if dims is None:
            tree = efg.load_tree(out)
            assert tree.num_players == players
            assert len(tree.nodes) == len(efg.build_liars_dice(3, 2).nodes)
        else:
            game = load_game(out)
            assert game.dims == dims
            for a, b in zip(game.payoffs, random_nfg(dims, 4).payoffs):
                assert np.array_equal(a, b)

    def test_counterexample_to_file(self, tmp_path, capsys):
        out = tmp_path / "cx" / "rm.csv"
        code, stdout, _ = run_cli(
            ["counterexample", "--variant", "rm+", "--iters", "4", "--out",
             str(out)], capsys)
        assert code == 0 and stdout == ""
        lines = out.read_text().splitlines()
        assert lines[:3] == ["# variant=rm+", "# scaled=0",
                             "t,loss_0,loss_1,x_0,x_1"]
        assert len(lines) == 3 + 4

    def test_gen_makes_the_output_directory(self, tmp_path, capsys):
        out, expected = tmp_path / "new" / "dir" / "k.efg", tmp_path / "k.efg"
        code, _, err = run_cli(
            ["gen", "--game", "kuhn3", "--out", str(out)], capsys)
        assert code == 0, err
        efg.save_tree(efg.build_kuhn(2, 3), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_gen_kuhn_tree(self, tmp_path, capsys):
        out = tmp_path / "kuhn.efg"
        code, _, _ = run_cli(
            ["gen", "--game", "kuhn3", "--out", str(out)], capsys)
        assert code == 0
        tree = efg.load_tree(out)
        assert len(tree.infosets) == 12

    def test_sweep_writes_cells_and_summary(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sweep", "--algo", "rm+", "--game", "hard3x3", "--iters", "20",
             "--etas", "0.1,1", "--seeds", "0:2", "--outdir", str(tmp_path)],
            capsys)
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "summary.csv" in files
        assert len([f for f in files if f != "summary.csv"]) == 4
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[2] == "eta,seed,final_gap,final_regret_max"
        assert len(summary) == 3 + 4

    def test_sweep_seeded_game_specs_differ(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sweep", "--algo", "rm+", "--game", "random-matrix:4x5",
             "--iters", "10", "--etas", "0.1", "--seeds", "0:2",
             "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()[3:]
        gaps = [float(r.split(",")[2]) for r in rows]
        assert gaps[0] != gaps[1]  # seeds draw distinct instances

    def test_unreadable_gen_dims_exit_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gen", "--game", "random-nfg:3,x",
             "--out", str(tmp_path / "g.game")], capsys)
        assert code == 2
        assert "random-nfg spec 'random-nfg:3,x'" in err

    @pytest.mark.parametrize("spec,seed,make", [
        ("random-matrix:30x40", 7, lambda: random_matrix_game(30, 40, 7)),
        ("random-nfg:2,3,2", 4, lambda: random_nfg([2, 3, 2], 4)),
        ("kuhn3", 0, lambda: efg.build_kuhn(2, 3)),
        ("kuhn7", 0, lambda: efg.build_kuhn(2, 7)),
        ("liars2", 0, lambda: efg.build_liars_dice(2, 2)),
        ("liars3", 0, lambda: efg.build_liars_dice(3, 2)),
        ("hard3x3", 0, hard_instance),
    ], ids=["random-matrix", "random-nfg", "kuhn3", "kuhn7", "liars2",
            "liars3", "hard3x3"])
    def test_gen_writes_the_builders_file(self, tmp_path, capsys, spec, seed,
                                          make):
        out, expected = tmp_path / "gen.txt", tmp_path / "expected.txt"
        code, _, _ = run_cli(["gen", "--game", spec, "--seed", str(seed),
                              "--out", str(out)], capsys)
        assert code == 0
        game = make()
        save = efg.save_tree if isinstance(game, efg.GameTree) else save_game
        save(game, expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("flag,value", [
        ("--type", "kuhn"), ("--d1", "4"), ("--d2", "3"), ("--dims", "3,3"),
        ("--ranks", "3"), ("--players", "2"), ("--faces", "2"),
    ])
    def test_gen_type_flags_are_gone(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--game", "kuhn3", flag, value,
                  "--out", str(tmp_path / "g.efg")])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "g.efg").exists()

    @pytest.mark.parametrize("spec,message", [
        ("kuhn2", "Kuhn poker needs at least 3 ranks"),
        ("liars4", "Liar's dice is built for 2 or 3 players"),
    ])
    def test_unbuildable_tree_exits_two(self, tmp_path, capsys, spec, message):
        code, _, err = run_cli(
            ["gen", "--game", spec, "--out", str(tmp_path / "g.efg")], capsys)
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("seeds", ["1:", "0,x"])
    def test_unreadable_seeds_exit_two(self, tmp_path, capsys, seeds):
        code, _, err = run_cli(
            ["sweep", "--algo", "rm+", "--game", "hard3x3", "--iters", "2",
             "--etas", "0.1", "--seeds", seeds, "--outdir", str(tmp_path)],
            capsys)
        assert code == 2
        assert "--seeds" in err and repr(seeds) in err

    @pytest.mark.parametrize("flags,message", [
        (["--etas", "0.1", "--seeds", "3:1"], "--seeds '3:1' selects no seed"),
        (["--etas", ",", "--seeds", "0"], "--etas ',' lists no step size"),
    ], ids=["empty-seed-range", "empty-etas"])
    def test_empty_sweep_exits_two(self, tmp_path, capsys, flags, message):
        outdir = tmp_path / "out"
        code, _, err = run_cli(
            ["sweep", "--algo", "rm+", "--game", "hard3x3", "--iters", "2",
             "--outdir", str(outdir)] + flags, capsys)
        assert code == 2
        assert message in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--game", "nope.game"], "game file not found: nope.game"),
        (["--etas", "0.1,bad"], "bad eta 'bad'"),
        (["--etas", "0.1,-1"], "eta must be 'auto' or a positive real"),
        (["--kmax", "0"], "k_max must be >= 1"),
        (["--game", "kuhn3"], "rm+ is incompatible with GameTree"),
    ], ids=["missing-game", "bad-eta", "negative-eta", "zero-kmax",
            "tree-game"])
    def test_bad_sweep_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                      flags, message):
        """Every cell's game and settings are checked before the first
        write: a bad one leaves no directory and no file behind."""
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            ["sweep", "--algo", "rm+", "--game", "hard3x3", "--iters", "2",
             "--etas", "0.1", "--seeds", "0:2",
             "--outdir", str(tmp_path / "made" / "here")] + flags, capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("owner,reader,spec,algo,loads", [
        (cli, "load_game", "m.game", "rm+", 1),
        (cli, "hard_instance", "hard3x3", "rm+", 1),
        (efg, "build_kuhn", "kuhn3", "predictive-cfr", 1),
        (cli, "random_nfg", "random-nfg:2,2,2", "rm+", 2),
    ], ids=["file", "hard3x3", "kuhn3", "random-nfg"])
    def test_sweep_reads_each_seeds_game_once(self, tmp_path, capsys,
                                              monkeypatch, owner, reader, spec,
                                              algo, loads):
        """A game that does not depend on the seed is read or built once
        for the whole sweep; a random spec is drawn once per seed."""
        save_game(hard_instance(), tmp_path / "m.game")
        monkeypatch.chdir(tmp_path)
        calls = []
        original = getattr(owner, reader)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, reader, counted)
        code, _, err = run_cli(
            ["sweep", "--algo", algo, "--game", spec, "--iters", "5",
             "--etas", "0.1,1,10", "--seeds", "0:2",
             "--outdir", str(tmp_path / "out")], capsys)
        assert code == 0, err
        assert len(calls) == loads
        assert len(list((tmp_path / "out").iterdir())) == 3 * 2 + 1

    @pytest.mark.parametrize("outdir", ["made/here", "."])
    def test_diverging_sweep_leaves_nothing(self, tmp_path, capsys,
                                            monkeypatch, outdir):
        """A cell that diverges after others were written: the sweep
        removes its CSVs and the directories it made, keeps what was there
        before, and names the failing cell."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mine.csv").write_text("kept\n")
        code, _, err = run_cli(
            ["sweep", "--algo", "smooth-prm+", "--game", "hard3x3", "--iters",
             "5", "--etas", "0.1,1e308", "--seeds", "0:2",
             "--outdir", outdir], capsys)
        assert code == 3
        assert err == ("numerical failure: non-finite iterate at round 1 "
                       "(eta=1e308, seed=0)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mine.csv"]
        assert (tmp_path / "mine.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("command,flags,message", [
        ("run", ["--eta", "1e308"], "non-finite iterate at round 1"),
        ("sweep", ["--etas", "0.1,1e308", "--outdir", "out"],
         "non-finite iterate at round 1 (eta=1e308, seed=0)"),
    ], ids=["run", "sweep"])
    def test_divergence_prints_one_stderr_line(self, tmp_path, command, flags,
                                               message):
        """With Python's default warning filters, a divergence prints the
        exit-3 message and nothing else: no numpy overflow warning."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "regretkit.cli", command, "--algo",
             "smooth-prm+", "--game", "hard3x3", "--iters", "5", *flags],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 3
        assert done.stderr == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("command,flags,csv", [
        ("run", [], None),
        ("sweep", ["--etas", "0.1", "--outdir", "out"],
         "out/exrmp_eta0.1_seed0.csv"),
    ], ids=["run", "sweep"])
    def test_overflowing_constants_print_nothing(self, tmp_path, command,
                                                 flags, csv):
        """Finite payoffs whose norms overflow: with Python's default
        warning filters, the run exits 0 with an empty stderr and records
        ``L_u=inf``."""
        (tmp_path / "big.game").write_text(
            "matrix\n2 2\n1e308 -1e308\n-1e308 1e308\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "regretkit.cli", command, "--algo", "exrm+",
             "--eta", "0.1", "--game", "big.game", "--iters", "3", *flags],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0 and done.stderr == ""
        trace = done.stdout if csv is None else (tmp_path / csv).read_text()
        assert "# L_u=inf\n" in trace

    def test_sweep_cells_are_runs(self, tmp_path, capsys):
        """Each sweep CSV is, byte for byte, ``run`` with the cell's eta
        and seed."""
        flags = ["--algo", "smooth-prm+", "--alt", "--game",
                 "random-nfg:3,3,3", "--iters", "200"]
        code, _, err = run_cli(
            ["sweep", *flags, "--etas", "0.1,auto", "--seeds", "0:2",
             "--outdir", str(tmp_path / "sweep")], capsys)
        assert code == 0, err
        for eta in ("0.1", "auto"):
            for seed in ("0", "1"):
                out = tmp_path / f"run_eta{eta}_seed{seed}.csv"
                code, _, err = run_cli(["run", *flags, "--eta", eta, "--seed",
                                        seed, "--out", str(out)], capsys)
                assert code == 0, err
                cell = tmp_path / "sweep" / f"smooth-prmp_eta{eta}_seed{seed}.csv"
                assert cell.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("row,message", [
        ("garbage", "malformed trace row 'garbage'"),
        ("1,0,1,abc", "malformed trace row '1,0,1,abc'"),
    ], ids=["one-field", "bad-gap"])
    def test_malformed_trace_exits_two(self, tmp_path, capsys, row, message):
        path = tmp_path / "t.csv"
        path.write_text("# algorithm=rm+\n"
                        "t,player,regret_max,gap,iter_var,restart,fp_k,fp_residual\n"
                        "1,0,1,0.5,0,0,,\n" + row + "\n")
        code, _, err = run_cli(
            ["rate", "--trace", str(path), "--from", "1", "--to", "2"], capsys)
        assert code == 2
        assert f"{path}:4: {message}" in err

    def test_rate_subcommand(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["run", "--algo", "exrm+", "--eta", "0.1", "--game", "hard3x3",
             "--iters", "2000", "--out", str(trace_path)], capsys)
        assert code == 0
        code, out, _ = run_cli(
            ["rate", "--trace", str(trace_path), "--from", "200",
             "--to", "2000"], capsys)
        assert code == 0
        assert float(out.strip()) < -1.0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The commands of the README's CLI block, continuation lines joined."""
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every README CLI command exits 0, the game files written first, with
    every round count and regression bound of 1000 or more cut 100-fold."""
    commands = readme_cli_commands()
    assert len(commands) == 7 and all(c[0] == "regretkit" for c in commands)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REGRETKIT_OUTDIR", raising=False)
    for command in sorted(commands, key=lambda c: c[1] != "gen"):
        args = command[1:]
        for i in range(1, len(args)):
            if args[i - 1] in ("--iters", "--from", "--to") and int(args[i]) >= 1000:
                args[i] = str(int(args[i]) // 100)
        assert main(args) == 0, command
    for written in ("smooth.csv", "out", "m.game", "kuhn3.efg"):
        assert (tmp_path / written).exists()

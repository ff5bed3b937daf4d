import numpy as np
import pytest

from regretkit.cli import main
from regretkit.games import load_game
from regretkit import efg


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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_exits_three(self, capsys):
        code, _, err = run_cli(
            ["run", "--algo", "exrm+", "--eta", "1e308", "--game", "hard3x3",
             "--iters", "10"], capsys)
        assert code == 3
        assert "round" in err

    def test_output_file_and_outdir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REGRETKIT_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            ["run", "--algo", "rm+", "--game", "hard3x3", "--iters", "5",
             "--out", "sub/trace.csv"], capsys)
        assert code == 0
        assert (tmp_path / "sub" / "trace.csv").exists()

    def test_tree_game_by_name(self, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "predictive-cfr", "--game", "kuhn3",
             "--iters", "10", "--alt"], capsys)
        assert code == 0
        assert "t,player," in out


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


class TestGenAndSweep:
    def test_gen_random_matrix_round_trip(self, tmp_path, capsys):
        out = tmp_path / "m.game"
        code, _, _ = run_cli(
            ["gen", "--type", "random-matrix", "--d1", "4", "--d2", "3",
             "--seed", "9", "--out", str(out)], capsys)
        assert code == 0
        game = load_game(out)
        assert game.dims == (4, 3)

    def test_gen_kuhn_tree(self, tmp_path, capsys):
        out = tmp_path / "kuhn.efg"
        code, _, _ = run_cli(
            ["gen", "--type", "kuhn", "--ranks", "3", "--out", str(out)],
            capsys)
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

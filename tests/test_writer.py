"""The chunked trace writer against the per-row writer it replaced
(``oracles.write_csv_per_row``): the CSV must match byte for byte for
every family, game, row count around the chunk size and special float,
and no single ``write`` may carry more than one chunk of rows."""

import io

import numpy as np
import pytest

from regretkit import efg, harness
from regretkit.games import hard_instance, random_nfg
from regretkit.harness import RunTrace, SolverConfig

from .oracles import write_csv_per_row

GAMES = {"hard3x3": hard_instance,
         "nfg2x3x4": lambda: random_nfg((2, 3, 4), 0),
         "nfg2x2x2x2": lambda: random_nfg((2, 2, 2, 2), 6)}
TREES = {"kuhn3": lambda: efg.build_kuhn(2, 3),
         "liars3": lambda: efg.build_liars_dice(3, 2)}
LIFTED = ("rm+", "prm+", "stable-prm+", "smooth-prm+")
FIXED_POINT = ("exrm+", "conceptual-rm+")
K = harness._CHUNK_ROWS
ROW_COUNTS = {"K-1": K - 1, "K": K, "K+1": K + 1, "3K+5": 3 * K + 5}
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0,
           -2.5e-300, 1e16, 123456789.0, 1.0)


def chunked(trace) -> str:
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


def per_row(trace) -> str:
    buf = io.StringIO()
    write_csv_per_row(trace, buf)
    return buf.getvalue()


def assert_same_bytes(trace) -> None:
    assert chunked(trace).encode() == per_row(trace).encode()


def run_cases():
    for name in GAMES:
        for algo in LIFTED + FIXED_POINT:
            for alternate in ((False, True) if algo in LIFTED else (False,)):
                for label, rows in ROW_COUNTS.items():
                    yield pytest.param(name, algo, alternate, rows,
                                       id=f"{name}-{algo}-{alternate}-{label}")
    for name in TREES:
        for algo in ("predictive-cfr", "clairvoyant-cfr"):
            for alternate in (False, True):
                for label, rows in ROW_COUNTS.items():
                    yield pytest.param(name, algo, alternate, rows,
                                       id=f"{name}-{algo}-{alternate}-{label}")


@pytest.mark.parametrize("name,algo,alternate,rows", list(run_cases()))
def test_run_traces_match_per_row(name, algo, alternate, rows):
    game = {**GAMES, **TREES}[name]()
    config = SolverConfig(algorithm=algo, alternation=alternate, iters=rows,
                          eps_schedule="1/t^2" if algo == "conceptual-rm+"
                          else None)
    trace = harness.run(config, game)
    assert trace.t.size == rows
    assert_same_bytes(trace)


@pytest.mark.parametrize("algo", ["rm+", "conceptual-rm+"])
def test_report_skip(algo):
    trace = harness.run(SolverConfig(algorithm=algo, iters=600,
                                     report_skip=77), hard_instance())
    assert trace.t[0] == 78 and trace.t.size == 523
    assert_same_bytes(trace)


def synthetic(rows: int, players: int, seed: int, special: bool = True,
              header=None) -> RunTrace:
    """A hand-built trace: with ``special``, every float column draws half
    of its values from ``SPECIAL``; ``fp_k`` mixes NaN and integral
    values."""
    rng = np.random.default_rng(seed)

    def floats(*shape):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        if special:
            picks = rng.random(shape) < 0.5
            values[picks] = rng.choice(SPECIAL, size=int(picks.sum()))
        return values

    fp_k = rng.integers(0, 101, rows).astype(float)
    fp_k[rng.random(rows) < 0.3] = np.nan
    return RunTrace(
        header=header if header is not None else {"algorithm": "synthetic"},
        t=np.sort(rng.choice(10**7, rows, replace=False)) + 1,
        regret_max=floats(rows, players), gap=floats(rows),
        iter_var=floats(rows, players),
        restart=(rng.random((rows, players)) < 0.2).astype(np.int8),
        fp_k=fp_k, fp_residual=floats(rows), ledgers=[])


@pytest.mark.parametrize("rows", [1, K - 1, K, K + 1, 2 * K + 17])
@pytest.mark.parametrize("players", [1, 2, 3, 4])
def test_special_values_match_per_row(rows, players):
    trace = synthetic(rows, players, seed=rows * 10 + players)
    text = chunked(trace)
    if rows >= K:  # the special values do occur in the output
        for token in (",nan,", ",inf,", ",-inf,", ",-0,", ",4.9406564584124654e-324,",
                      ",1.7976931348623157e+308,"):
            assert token in text
    assert text.encode() == per_row(trace).encode()


def test_fp_columns_empty_and_filled():
    trace = synthetic(2 * K + 3, 2, seed=5)
    trace.fp_residual[::2] = np.nan
    lines = chunked(trace).splitlines()[2:]
    fp_k = [line.split(",")[6] for line in lines]
    fp_residual = [line.split(",")[7] for line in lines]
    assert "" in fp_k and any(v.isdigit() for v in fp_k)
    assert "" in fp_residual and any(v not in ("", "nan") for v in fp_residual)
    assert_same_bytes(trace)


def test_zero_rows():
    trace = synthetic(0, 2, seed=1)
    assert chunked(trace) == per_row(trace) == (
        "# algorithm=synthetic\n"
        "t,player,regret_max,gap,iter_var,restart,fp_k,fp_residual\n")


def test_header_values_written_verbatim():
    header = {"eps_schedule": "1/t^2", "percent": "100%", "format": "%d %s %%",
              "braces": "{x}", "reversed": "}{", "mixed": "%(a)s{0}",
              "eta": harness._fmt(0.1)}
    trace = synthetic(K + 1, 2, seed=2, header=header)
    text = chunked(trace)
    assert text.startswith("".join(f"# {key}={value}\n"
                                   for key, value in header.items()))
    assert text.encode() == per_row(trace).encode()


class RecordingStream:
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


def test_each_write_is_at_most_one_chunk():
    rows, players = 100_000, 3
    trace = synthetic(rows, players, seed=3, special=False)
    stream = RecordingStream()
    trace.write_csv(stream)
    data = [text for text in stream.writes
            if not text.startswith(("#", "t,player"))]
    assert max(text.count("\n") for text in data) <= K * players
    assert sum(text.count("\n") for text in data) == rows * players
    assert "".join(stream.writes) == per_row(trace)


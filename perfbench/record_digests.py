"""Write ``digests.json``: the SHA-256 of every cell's trace CSV.

Run from the repository root, on a commit whose traces are known good:

    python3 perfbench/record_digests.py

Each workload runs one pass at the default seed.  The ROADMAP contract
keeps traces byte-identical, so this file changes only with a deliberate
change of a trace.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    run.import_library()
    import workloads

    table = {}
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        outdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.SCRATCH))
        try:
            result = workloads.run_pass(workload, run.DEFAULT_SEED, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        for cell in result.cells:
            if cell.error is not None or not cell.gaps_ok:
                raise SystemExit(f"{name}/{cell.name}: {cell.error or 'bad gap'}")
        table[name] = {cell.name: cell.digest for cell in result.cells}
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in table.values())} digests to {path}")


if __name__ == "__main__":
    main()

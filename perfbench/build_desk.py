"""Write the desk_1000 input dataset (1000 securities x 253 days, CSV).

    python3 perfbench/build_desk.py OUT_DIR SEED

The desk workload runs this in a child process, so that the simulation's
memory does not count in the peak resident memory of the timed passes.
The build, imports included, runs in a block of ``speed.Sampler`` in this
process, and the last line of output is that block as JSON.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
N_SECURITIES = 1000
N_DAYS = 253


def main(argv: list[str]) -> int:
    out_dir, seed = Path(argv[1]), int(argv[2])
    sampler = speed.Sampler()
    with sampler.timed(since=_PROCESS_START) as block:
        # Imported here, so that the block counts the import.
        sys.path.insert(0, str(SRC))
        from shortbasket.config import RunConfig
        from shortbasket.datastore import export_csv
        from shortbasket.simulate import simulate_universe

        dataset = simulate_universe(RunConfig().seed_ranges, N_SECURITIES, N_DAYS, seed)
        export_csv(dataset, out_dir)
    print(json.dumps({"wall_s": block.wall_s, "samples": block.samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

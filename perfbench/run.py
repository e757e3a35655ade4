"""Benchmark of shortbasket: three workloads, end-to-end and per-layer metrics.

Run from the root of a shortbasket checkout:

    python3 perfbench/run.py --workload desk_1000 --seed 1 --seconds 20 --trace 0

Workloads (workloads.py says why each exists): ``simulate_1000``,
``desk_1000`` and ``rescore_sweep_100``. A run imports ``shortbasket`` from
this checkout's ``src/`` and refuses any other copy, builds the workload's
inputs from ``--seed``, runs one untimed warm-up pass, then timed passes
until the next one would end after ``--seconds`` (at least three). Each
pass runs in this single process and thread and its outputs are checked.
The run prints a readable report, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with no tracing:

* ``setup_s``: import time, plus the median of the input builds, plus the
  warm-up pass: the time a run waits before its first timed pass.
* ``pass_s_p50``: median time of one timed pass.
* ``peak_rss_mb``: peak resident memory of this process up to the end of
  the timed passes (desk_1000 builds its inputs in a child process).

Every reported time is scaled to a fixed machine speed: while the import,
each input build and each pass run, speed.py samples a reference task
and scales that block's wall time by how fast the machine ran the task
during it. The record keeps the unscaled wall times, and the report
prints both.

``--trace 1`` reports the per-layer metrics of tracing.py. Timed passes
alternate between untraced and traced (at least two of each), and
``trace.overhead_frac`` is the traced median over the untraced one, minus 1.
Traced passes are not sampled, so that no span holds a sample; their times
are scaled by the run's reference time over all sampled blocks.
The run fails if a span the workload should fire never fires.

``attempted`` counts stage operations: CLI commands, or library calls in
the sweep. ``failed`` counts those whose outcome the benchmark could not
account for: any failure other than the documented ``first_day``
refusal, which is counted in the printed ``failed_frac`` with every
other failed operation. A failed output check makes ``correct`` false.
Each run also writes a record with provenance, pass times and output
sha256 to ``perfbench/out/results/``, and a traced run writes its spans
to ``perfbench/out/spans/``.
"""

from __future__ import annotations

import time

# Taken before every other import, so that setup_s counts them.
_PROCESS_START = time.perf_counter()

import argparse
import functools
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
P90_TAIL = 10  # pass_s_p90 is reported only with this many passes above it


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate_1000", "desk_1000", "rescore_sweep_100"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import shortbasket from this checkout's src/, or refuse to run."""
    init = SRC / "shortbasket" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a shortbasket checkout")
    sys.path.insert(0, str(SRC))
    import shortbasket

    where = Path(shortbasket.__file__).resolve()
    if where != init.resolve():
        sys.exit(f"perfbench: shortbasket resolved to {where}, not to {init}")
    return shortbasket


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not the root of a git work tree."""
    # The ceiling keeps git from searching the directories above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(shortbasket) -> dict:
    import numpy

    return {
        "shortbasket_file": shortbasket.__file__,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def p90(times: list[float]) -> float | None:
    """Nearest-rank 90th percentile, if at least P90_TAIL passes lie above it."""
    rank = math.ceil(0.9 * len(times))
    if len(times) - rank < P90_TAIL:
        return None
    return sorted(times)[rank - 1]


def measure(workload, tracer, sampler: speed.Sampler, seconds: float) -> dict:
    """Set up, warm up and run the timed passes; returns their ``speed.Block``s."""
    builds = [workload.build_inputs(sampler.timed) for _ in range(workload.setup_repeats)]
    gc.collect()
    warmup = workload.run_pass(0, sampler.timed)

    plain: list[speed.Block] = []
    traced: list[speed.Block] = []
    begin = time.perf_counter()
    index = 1
    while True:
        use_tracer = tracer is not None and index % 2 == 0
        gc.collect()
        if use_tracer:
            tracer.install(index)
            try:
                block = workload.run_pass(index, functools.partial(sampler.timed, sample=False))
            finally:
                tracer.uninstall()
            traced.append(block)
        else:
            block = workload.run_pass(index, sampler.timed)
            plain.append(block)
        index += 1
        if tracer is None:
            enough = len(plain) >= MIN_PASSES
        else:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        if enough and time.perf_counter() - begin + block.wall_s > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.final_checks()
    return {"builds": builds, "warmup": warmup, "plain": plain, "traced": traced, "peak_rss_mb": peak_rss_mb}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sampler = speed.Sampler()
    with sampler.timed(since=_PROCESS_START) as importing:
        shortbasket = import_package()
        import tracing
        import workloads

    info = provenance(shortbasket)
    work_dir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = tracing.Tracer(tracing.package_modules()) if args.trace else None
    try:
        timing = measure(workload, tracer, sampler, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reference_s = sampler.reference_s()
    scale = speed.NOMINAL_S / reference_s

    def scaled(blocks: list[speed.Block]) -> list[float]:
        return [block.scaled_s(reference_s) for block in blocks]

    def wall(blocks: list[speed.Block]) -> list[float]:
        return [block.wall_s for block in blocks]

    setup_s = (importing.scaled_s(reference_s) + statistics.median(scaled(timing["builds"]))
               + timing["warmup"].scaled_s(reference_s))
    setup_wall_s = importing.wall_s + statistics.median(wall(timing["builds"])) + timing["warmup"].wall_s
    pass_s = scaled(timing["plain"])
    pass_wall_s = wall(timing["plain"])
    name = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        tracer.write(OUT / "spans" / f"{name}.jsonl.gz")
        missing = [span for span in workload.expected_spans if span not in tracer.fired()]
        if missing:
            sys.exit(f"perfbench: traced run of {args.workload}: expected spans never fired: {missing}")
        metrics = tracing.layer_metrics(tracer, scale)
        overhead = statistics.median(wall(timing["traced"])) / statistics.median(pass_wall_s) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s_p50": (statistics.median(pass_s), "s"),
            "peak_rss_mb": (timing["peak_rss_mb"], "MiB"),
        }

    ledger = workload.ledger
    correct = not ledger.unexpected and not ledger.check_failures
    failed_frac = ledger.failed / ledger.attempted
    pass_p90 = p90(pass_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **info,
        "import_wall_s": importing.wall_s, "setup_wall_s": setup_wall_s,
        "build_wall_s": wall(timing["builds"]), "warmup_wall_s": timing["warmup"].wall_s,
        "pass_wall_s": pass_wall_s, "pass_s": pass_s, "traced_pass_wall_s": wall(timing["traced"]),
        "peak_rss_mb": timing["peak_rss_mb"],
        "reference_s": reference_s, "reference_samples": len(sampler.samples), "scale": scale,
        "pass_s_p90": pass_p90,
        "failed_frac": failed_frac, "attempted": ledger.attempted, "refused": ledger.refused,
        "unexpected": ledger.unexpected, "check_failures": ledger.check_failures,
        "output_sha256": ledger.hashes, "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    n = len(pass_s)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} commit={info['commit']} "
          f"python={info['python']} numpy={info['numpy']} nproc={info['nproc']}")
    print(f"  shortbasket: {info['shortbasket_file']}")
    print(f"  reference task {reference_s * 1000:.3f} ms over the run (n={len(sampler.samples)}), "
          f"{speed.NOMINAL_S * 1000:.3f} ms nominal; each timed block is scaled by its own samples")
    print(f"  setup_s      {setup_s:.4f} s (wall {setup_wall_s:.4f} s)")
    print(f"  pass_s_p50   {statistics.median(pass_s):.4f} s (wall {statistics.median(pass_wall_s):.4f} s, n={n})")
    if pass_p90 is None:
        print(f"  pass_s_p90   not reported: needs {P90_TAIL} passes above it, n={n}")
    else:
        print(f"  pass_s_p90   {pass_p90:.4f} s (wall {p90(pass_wall_s):.4f} s, n={n})")
    print(f"  peak_rss_mb  {timing['peak_rss_mb']:.1f} MiB")
    print(f"  failed_frac  {failed_frac:.4f} ({ledger.failed} of {ledger.attempted} stage operations: "
          f"{ledger.refused} first_day refusals, {len(ledger.unexpected)} unexpected)")
    for message in (ledger.unexpected + ledger.check_failures)[:20]:
        print(f"  FAILED: {message}")
    if args.trace:
        for key, (value, unit) in metrics.items():
            print(f"  {key:<36} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.unexpected),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

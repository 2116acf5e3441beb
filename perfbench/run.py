"""vgmine benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pipeline_vg --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run it from the root of a vgmine source tree. Each run

1. byte-compiles ``src``, ``tests`` and ``perfbench`` (the only build step);
2. writes the workload's inputs for the seed (``gen.py``, in its own process);
3. with ``--trace 0``, times set-up (importing vgmine plus its load calls)
   in ``SETUP_PROBES`` fresh processes and keeps the median;
4. runs the workload in one process (``worker.py``) for ``--seconds``:
   untraced with ``--trace 0`` for the end-to-end metrics, half untraced and
   half traced with ``--trace 1`` for the per-layer metrics and the tracing
   overhead;
5. checks the outputs, prints each metric by name and unit, and prints
   ``{"correct", "attempted", "failed", "metrics"}`` as the last line.

An operation is a set-up probe, a CLI command of a pass or a correctness
check; ``failed / attempted`` is the fail ratio. Details of every run
(passes, sha256 fingerprints, checks, environment) are written to
``.perfbench_out/`` and the traced spans next to them. BLAS and OpenMP are
pinned to one thread in every child process, and each child's hash seed is
drawn from the run seed and its role.

This file imports only the standard library, so that the peak resident
memory of the workload process is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline_vg", "pipeline_bigvocab", "maps_eval", "train_toy")
SETUP_PROBES = 10
TIME_LIMIT_S = 170.0
REQUIRED = ("src/vgmine/cli.py", "tests/corpusgen.py", "tests/oracles.py")


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of vgmine)."""


def child_env(hash_key: str | None = None) -> dict:
    """One BLAS/OpenMP thread. The hash seed is drawn from ``hash_key`` (the
    run seed and the process's role), so every process of a run gets its
    own set and dict order, reproducibly: traced and untraced runs of one
    seed differ in it, and equal fingerprints show that the outputs do not
    depend on it."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    if hash_key is not None:
        env["PYTHONHASHSEED"] = str(zlib.crc32(hash_key.encode()))
    return env


def _run(argv: list, deadline: float, capture: bool = False,
         hash_key: str | None = None) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit reached before: {' '.join(map(str, argv))}")
    try:
        proc = subprocess.run([sys.executable] + [str(a) for a in argv], cwd=ROOT,
                              env=child_env(hash_key), timeout=remaining, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(map(str, argv))}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(map(str, argv))}")
    return proc.stdout or ""


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float, inputs: Path | None = None) -> dict:
    """Generate inputs (unless ``inputs`` holds them already), run the
    workload and return the worker's result; untraced runs add set-up."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work_dir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    try:
        if inputs is None:
            inputs = work_dir / "inputs"
            _run([HERE / "gen.py", "--workload", workload, "--seed", seed, "--out", inputs],
                 deadline, hash_key=f"{tag}-gen")

        def probe(index: int) -> dict:
            return json.loads(_run([HERE / "worker.py", "setup", "--workload", workload,
                                    "--inputs", inputs], deadline, capture=True,
                                   hash_key=f"{tag}-setup{index}"))

        # half of the set-up probes run before the workload and half after,
        # so that their median spans the run rather than one moment of it
        probes = [] if trace else [probe(i) for i in range(SETUP_PROBES // 2)]
        result_path = work_dir / "result.json"
        work_dir.mkdir(parents=True, exist_ok=True)
        argv = [HERE / "worker.py", "run", "--workload", workload, "--inputs", inputs,
                "--seed", seed, "--seconds", seconds, "--trace", int(trace),
                "--result", result_path]
        if trace:
            argv += ["--spans", out_dir / f"spans-{tag}.ndjson.gz"]
        _run(argv, deadline, hash_key=f"{tag}-run")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        probes += [] if trace else [probe(i) for i in range(len(probes), SETUP_PROBES)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(workload=workload, seed=seed, trace=trace, setup_probes=probes)
    if probes:
        result["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def operations(result: dict) -> tuple[int, int]:
    """(attempted, failed) over set-up probes, CLI commands and checks."""
    attempted = failed = 0
    for probe in result["setup_probes"]:
        attempted += 1
        failed += probe["error"] is not None
    for record in result["passes"]:
        attempted += len(record["exits"])
        failed += sum(code != 0 for code in record["exits"].values())
    attempted += len(result["checks"])
    failed += sum(not check["ok"] for check in result["checks"])
    return attempted, failed


def end_to_end(result: dict) -> dict:
    measured = [p for p in result["passes"] if not p.get("warmup")]
    return {
        "throughput_per_ref_s": (statistics.median(result["work"] / p["ref_s"] for p in measured),
                                 "1/ref_s"),
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_corr")):
        return "ratio"
    return "count"


def per_layer(result: dict) -> dict:
    return {name: (value, layer_unit(name)) for name, value in result["layers"].items()}


def summary(result: dict, metrics: dict) -> list[str]:
    attempted, failed = operations(result)
    env = result["environment"]
    lines = [f"{result['workload']} seed={result['seed']} trace={int(result['trace'])} "
             f"passes={len(result['passes'])} work/pass={result['work']} {result['unit']}",
             f"  nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
             f"numpy={env['numpy']} threads={env['threads']}"]
    for name, (value, unit) in metrics.items():
        alias = result["unit"] + "_per_ref_s" if name == "throughput_per_ref_s" else name
        lines.append(f"  {alias:40s} {value:.6g} {unit}")
    untraced = [p for p in result["passes"] if not p["traced"]]
    wall = statistics.median(result["work"] / p["wall_s"] for p in untraced)
    lines.append(f"  {result['unit'] + '_per_s (wall clock)':40s} {wall:.6g} 1/s")
    lines.append(f"  {'fail_ratio':40s} {failed}/{attempted} = {failed / attempted:.6g}")
    if result["final_rank_corr"] is not None:
        lines.append(f"  {'final_rank_corr':40s} {result['final_rank_corr']:.9g}")
    for name, digest in result["passes"][-1]["fingerprints"].items():
        lines.append(f"  sha256 {name:33s} {digest}")
    for check in result["checks"]:
        lines.append(f"  check {check['name']:34s} {'ok' if check['ok'] else check['detail']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark vgmine on seeded workloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: not a vgmine source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        _run(["-m", "compileall", "-q", "src", "tests", "perfbench"], deadline)
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), deadline)
            named = per_layer(result) if args.trace else end_to_end(result)
            print("\n".join(summary(result, named)), flush=True)
            ops = operations(result)
            attempted += ops[0]
            failed += ops[1]
            correct = correct and all(c["ok"] for c in result["checks"]) and not any(
                p["error"] for p in result["setup_probes"])
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + name: {"value": value, "unit": unit}
                            for name, (value, unit) in named.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

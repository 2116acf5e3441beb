"""Runs one workload inside this process, through vgmine's public entry points.

    python3 perfbench/worker.py setup --workload W --inputs DIR
    python3 perfbench/worker.py run --workload W --inputs DIR --seed N \
        --seconds S --trace 0|1 --result FILE [--spans FILE]

``setup`` times importing vgmine plus the program's own load calls and
prints one JSON line. ``run`` repeats the workload's command chain (a pass)
for about S seconds, then checks the outputs outside the timed region and
writes a JSON result. With ``--trace 1`` the first half of the time runs
untraced and the second half with the timing wrappers of ``tracing.py``, so
the two halves give the tracing overhead and must give identical outputs.

Only stdlib modules are imported at the top: the setup probe must time the
first import of numpy and vgmine.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

GRID = 14
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TOY_SAMPLES, TOY_STEPS = 8, 2000   # train-toy CLI defaults


# --- workloads -------------------------------------------------------------

class Workload:
    """A command chain over generated inputs. ``commands`` are vgmine CLI
    argument lists; each one is an operation that can fail."""

    unit = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, inputs: Path, out: Path) -> None:
        self.inputs = inputs
        self.out = out
        self.labels_path = out / "labels.ndjson"

    def setup(self) -> None:
        """The program's own load calls (after importing vgmine)."""

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def work(self) -> int:
        raise NotImplementedError


class Pipeline(Workload):
    unit = "triplets"
    outputs = ("labels.ndjson", "maps.ndjson", "rank.csv")

    def setup(self) -> None:
        from vgmine.dataset import load_dataset
        from vgmine.lexicon import load_aliases, load_wordnet
        lexicon = load_wordnet(self.inputs / "wordnet")
        load_aliases(lexicon, self.inputs / "wordnet" / "aliases.txt")
        load_dataset(self.inputs / "regions.json", self.inputs / "objects.json",
                     self.inputs / "qa.json")

    def commands(self):
        i, o = self.inputs, self.out
        return [
            ("mine", ["mine", "--regions", i / "regions.json", "--objects", i / "objects.json",
                      "--qa", i / "qa.json", "--wordnet-dir", i / "wordnet",
                      "--aliases", i / "wordnet" / "aliases.txt", "--out", o / "labels.ndjson"]),
            ("rasterize", ["rasterize", "--labels", o / "labels.ndjson", "--qa", i / "qa.json",
                           "--grid", GRID, GRID, "--out", o / "maps.ndjson"]),
            ("eval_rank", ["eval-rank", "--maps-a", o / "maps.ndjson",
                           "--maps-b", i / "reference_maps.ndjson", "--out", o / "rank.csv"]),
        ]

    def work(self) -> int:
        return len(json.loads((self.inputs / "qa.json").read_text(encoding="utf-8")))


class MapsEval(Pipeline):
    unit = "maps"
    outputs = ("maps.ndjson", "rank.csv")

    def __init__(self, inputs: Path, out: Path) -> None:
        super().__init__(inputs, out)
        self.labels_path = inputs / "labels.ndjson"

    def setup(self) -> None:
        pass  # no lexicon or corpus: set-up is the import alone

    def commands(self):
        rasterize, eval_rank = super().commands()[1:]
        rasterize[1][2] = self.labels_path
        return [rasterize, eval_rank]

    def work(self) -> int:
        with open(self.inputs / "labels.ndjson", encoding="utf-8") as fp:
            return sum(1 for line in fp if line.strip())


class TrainToy(Workload):
    unit = "sample_steps"
    outputs = ("metrics.csv",)

    def _seeds(self) -> dict:
        return json.loads((self.inputs / "train_args.json").read_text(encoding="utf-8"))

    def setup(self) -> None:
        from vgmine.toymodel import ToyConfig, make_synthetic
        seeds = self._seeds()
        make_synthetic(ToyConfig(seed=seeds["seed"]), TOY_SAMPLES, seed=seeds["data_seed"])

    def commands(self):
        seeds = self._seeds()
        return [("train_toy", ["train-toy", "--seed", seeds["seed"],
                               "--data-seed", seeds["data_seed"],
                               "--metrics-out", self.out / "metrics.csv"])]

    def work(self) -> int:
        return TOY_SAMPLES * TOY_STEPS


WORKLOADS = {"pipeline_vg": Pipeline, "pipeline_bigvocab": Pipeline,
             "maps_eval": MapsEval, "train_toy": TrainToy}


# --- machine-speed calibration ---------------------------------------------
#
# On a shared host the CPU speed seen by one process drifts by up to 2x
# within seconds, which swamps differences between commits. While an
# untraced pass runs, a timer interrupts it every SAMPLE_INTERVAL_S and times
# a fixed pure-Python kernel (dict lookups with tuple keys, regex tokenizing,
# string methods: the operations vgmine spends its time on). Each stretch of
# the pass between two samples is converted into reference seconds with the
# kernel speed measured at its ends; one reference second is the time in
# which the kernel runs KERNEL_RUNS_PER_REF_S times (about one second of an
# idle 2-core Xeon machine). The kernel's own time is excluded from the pass.

SAMPLE_INTERVAL_S = 0.05
KERNEL_RUNS_PER_REF_S = 400
_KERNEL_WORDS = [c + v + e for c in "bcdfghjklmnprst" for v in "aeiou"
                 for e in ("", "s", "ing", "ed")]
_KERNEL_RE = re.compile(r"[a-z]+")


def _kernel() -> int:
    cache: dict = {}
    total = 0
    for r in range(20):
        for w in _KERNEL_WORDS:
            key = (w, r & 7)
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = _KERNEL_RE.findall(w.upper().lower() + " " + w)
            total += len(hit)
    return total


class SpeedSampler:
    """Times the kernel at the start and at the end of the ``with`` block and,
    when ``interval`` is set, every ``interval`` seconds in between;
    ``wall_s`` and ``ref_s`` exclude the kernel."""

    def __init__(self, interval: float | None) -> None:
        self.interval = interval

    def __enter__(self) -> "SpeedSampler":
        self.samples: list[tuple[float, float]] = []   # (kernel start, kernel end)
        self._sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        stretches = [(b[0] - a[1], (a[1] - a[0] + b[1] - b[0]) / 2)
                     for a, b in zip(self.samples, self.samples[1:])]
        self.wall_s = sum(length for length, _ in stretches)
        self.ref_s = sum(length / (kernel * KERNEL_RUNS_PER_REF_S)
                         for length, kernel in stretches)
        self.kernel_s = statistics.median(end - start for start, end in self.samples)

    def _sample(self, *_signal) -> None:
        # the collector stays off so that the program's heap cannot slow
        # the kernel
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter()))
        if enabled:
            gc.enable()


# --- passes ----------------------------------------------------------------

def run_command(argv: list) -> tuple[int, str]:
    from vgmine.cli import main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_pass(workload: Workload, tracer=None) -> dict:
    """One pass of the command chain. Traced passes sample the kernel speed
    only before and after, so that no kernel time lands inside a span."""
    for name in workload.outputs:
        (workload.out / name).unlink(missing_ok=True)
    commands = workload.commands()
    results = []
    with SpeedSampler(None if tracer else SAMPLE_INTERVAL_S) as sampler:
        for name, argv in commands:
            if tracer is None:
                results.append(run_command(argv))
            else:
                with tracer.span(f"cli.{name}"):
                    results.append(run_command(argv))
    timing = {"wall_s": sampler.wall_s, "ref_s": sampler.ref_s,
              "kernel_s": sampler.kernel_s, "samples": len(sampler.samples)}
    return {
        "traced": tracer is not None,
        **timing,
        "exits": {name: code for (name, _), (code, _) in zip(commands, results)},
        "errors": {name: err.strip()[-500:] for (name, _), (code, err)
                   in zip(commands, results) if code != 0},
        "fingerprints": {name: sha256(workload.out / name) for name in workload.outputs},
    }


def run_passes(workload: Workload, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    """Passes until the next one would end after ``seconds``."""
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        record = run_pass(workload, tracer)
        if tracer is not None:
            record["trace"] = tracer.end_pass(record["wall_s"])
        passes.append(record)
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - begin + typical > seconds:
            return passes


# --- correctness checks (outside the timed region) -------------------------

def _round9(value: float) -> float:
    return float(f"{value:.9g}")


def _read_ndjson(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _is_constant(values: list[float]) -> bool:
    return min(values) == max(values)


def check_exits(workload: Workload, passes: list[dict]) -> str | None:
    """Every command exits 0. The one accepted failure is eval-rank's exit 2
    on a constant map (pinned by the CLI tests), and only when the maps
    really hold one; it still counts as a failed operation."""
    for index, record in enumerate(passes):
        for name, code in record["exits"].items():
            if code == 0:
                continue
            if name == "eval_rank" and code == 2 and "constant map" in record["errors"][name]:
                maps = _read_ndjson(workload.out / "maps.ndjson")
                if any(row["mask"] and _is_constant(row["values"]) for row in maps):
                    continue
            return f"pass {index}: {name} exited {code}: {record['errors'].get(name, '')}"
    return None


def check_stable(passes: list[dict]) -> str | None:
    first = passes[0]["fingerprints"]
    for index, record in enumerate(passes[1:], start=1):
        if record["fingerprints"] != first:
            return f"pass {index} fingerprints {record['fingerprints']} != pass 0 {first}"
    return None


def check_oracle_mine(workload: Workload, rng) -> str | None:
    """Mined labels of a seeded sample of images equal tests/oracles.reference_mine."""
    from oracles import reference_mine
    from vgmine.dataset import Dataset, load_dataset
    from vgmine.lexicon import load_aliases, load_wordnet
    from vgmine.miner import MinerConfig

    lexicon = load_wordnet(workload.inputs / "wordnet")
    load_aliases(lexicon, workload.inputs / "wordnet" / "aliases.txt")
    dataset, _ = load_dataset(workload.inputs / "regions.json",
                              workload.inputs / "objects.json", workload.inputs / "qa.json")
    images = sorted({t.image_id for t in dataset.triplets})
    # about 40 triplets, whatever the QA density
    per_image = len(dataset.triplets) / len(images)
    count = min(len(images), max(1, round(40 / per_image)))
    sample = set(rng.choice(images, count, replace=False).tolist())
    subset = Dataset(
        triplets=[t for t in dataset.triplets if t.image_id in sample],
        regions_by_image={i: dataset.regions_by_image[i] for i in sample},
        objects_by_image={i: dataset.objects_by_image[i] for i in sample})
    expected = reference_mine(subset, lexicon, MinerConfig())
    qa_ids = {t.qa_id for t in subset.triplets}
    got = [rec for rec in _read_ndjson(workload.out / "labels.ndjson") if rec["qa_id"] in qa_ids]
    if got != expected:
        return f"labels of images {sorted(sample)} differ from the reference miner"
    return None


def check_glimpse_sums(workload: Workload, labels_path: Path) -> str | None:
    """Every unmasked glimpse of every label sums to 1 within 1e-9, as
    ``build_supervision`` computes it, before the values are rounded for
    the maps file."""
    from vgmine.attention import build_supervision
    from vgmine.dataset import QaTriplet
    from vgmine.miner import read_labels

    qa = {rec["qa_id"]: rec for rec in
          json.loads((workload.inputs / "qa.json").read_text(encoding="utf-8"))}
    for label in read_labels(labels_path):
        rec = qa[label.qa_id]
        triplet = QaTriplet(rec["qa_id"], rec["image_id"], rec["question"], rec["answer"],
                            rec["image_width"], rec["image_height"])
        stack = build_supervision(label, triplet, GRID, GRID)
        for glimpse, (amap, mask) in enumerate(zip(stack.glimpses, stack.supervision_mask)):
            total = math.fsum(amap.values.ravel().tolist())
            if mask and abs(total - 1.0) > 1e-9:
                return f"qa_id {label.qa_id} glimpse {glimpse} sums to {total!r}"
    return None


def check_maps(workload: Workload, labels_path: Path, rng) -> str | None:
    """Sampled maps equal tests/oracles.brute_force_rasterize; every
    unmasked glimpse in the maps file sums to 1 within its rounding."""
    from oracles import brute_force_rasterize
    from vgmine.dataset import BoundingBox

    maps = _read_ndjson(workload.out / "maps.ndjson")
    for row in maps:
        if row["mask"]:
            total = math.fsum(row["values"])
            # each stored value is rounded to 9 significant digits, which
            # moves the sum by at most 5e-9 relative on top of 1e-9;
            # check_glimpse_sums holds the unrounded sums to 1e-9
            if abs(total - 1.0) > 1e-9 + 5e-9 * total:
                return f"qa_id {row['qa_id']} glimpse {row['glimpse']} sums to {total!r}"
    labels = _read_ndjson(labels_path)
    qa = {rec["qa_id"]: rec for rec in
          json.loads((workload.inputs / "qa.json").read_text(encoding="utf-8"))}
    rows = {(row["qa_id"], row["glimpse"]): row for row in maps}
    if len(rows) != 2 * len(labels):
        return f"{len(rows)} map rows for {len(labels)} labels"
    for index in rng.choice(len(labels), min(40, len(labels)), replace=False).tolist():
        label = labels[index]
        rec = qa[label["qa_id"]]
        for glimpse, key in ((0, "object_boxes"), (1, "region_boxes")):
            boxes = [BoundingBox(*b) for b in label[key]]
            counts = brute_force_rasterize(boxes, rec["image_width"], rec["image_height"],
                                           GRID, GRID).ravel().tolist()
            total = sum(counts)
            mask = bool(boxes) and total > 0 and not (glimpse == 1 and label["is_counting"])
            want = [_round9(c / total) for c in counts] if mask else counts
            row = rows[(label["qa_id"], glimpse)]
            if row["mask"] != mask or row["values"] != want:
                return f"qa_id {label['qa_id']} glimpse {glimpse} differs from the oracle"
    return None


def check_rank_csv(workload: Workload) -> str | None:
    """One row per common unmasked (qa_id, glimpse) pair, values in [-1, 1],
    and a mean row."""
    path = workload.out / "rank.csv"
    if not path.is_file():
        return None  # eval-rank refused a constant map; check_exits vouches
    ours = {(r["qa_id"], r["glimpse"]) for r in _read_ndjson(workload.out / "maps.ndjson")
            if r["mask"]}
    ref = {(r["qa_id"], r["glimpse"])
           for r in _read_ndjson(workload.inputs / "reference_maps.ndjson") if r["mask"]}
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    if rows[0] != ["qa_id", "glimpse", "rank_corr"] or rows[-1][:2] != ["mean", ""]:
        return "rank CSV lacks its header or mean row"
    if len(rows) - 2 != len(ours & ref):
        return f"{len(rows) - 2} rank rows for {len(ours & ref)} common pairs"
    for row in rows[1:]:
        if not -1.0 <= float(row[2]) <= 1.0:
            return f"rank correlation {row} outside [-1, 1]"
    return None


def check_metrics_csv(workload: Workload) -> str | None:
    """metrics.csv has one finite row per step, rank_corr within [-1, 1]."""
    rows = _metrics_rows(workload)
    if len(rows) != TOY_STEPS + 1:
        return f"{len(rows)} metric rows, expected {TOY_STEPS + 1}"
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.values()):
            return f"non-finite metrics at step {row['step']}"
        if not -1.0 <= float(row["rank_corr"]) <= 1.0:
            return f"rank_corr {row['rank_corr']} outside [-1, 1] at step {row['step']}"
    return None


def _metrics_rows(workload: Workload) -> list[dict]:
    with open(workload.out / "metrics.csv", newline="", encoding="utf-8") as fp:
        return list(csv.DictReader(fp))


def final_rank_corr(workload: Workload) -> float | None:
    """The last rank_corr of metrics.csv: a quality guard for training."""
    if not isinstance(workload, TrainToy) or not (workload.out / "metrics.csv").is_file():
        return None
    return float(_metrics_rows(workload)[-1]["rank_corr"])


def run_checks(workload: Workload, passes: list[dict], seed: int) -> list[dict]:
    import numpy as np
    rng = np.random.default_rng([seed, 7])
    checks = [("exit_codes", lambda: check_exits(workload, passes)),
              ("fingerprints_stable", lambda: check_stable(passes))]
    if isinstance(workload, TrainToy):
        checks.append(("metrics_csv", lambda: check_metrics_csv(workload)))
    else:
        if not isinstance(workload, MapsEval):
            checks.append(("oracle_mine", lambda: check_oracle_mine(workload, rng)))
        checks.append(("glimpse_sums", lambda: check_glimpse_sums(workload,
                                                                  workload.labels_path)))
        checks.append(("oracle_maps", lambda: check_maps(workload, workload.labels_path, rng)))
        checks.append(("rank_csv", lambda: check_rank_csv(workload)))
    outcomes = []
    for name, fn in checks:
        try:
            error = fn()
        except Exception as exc:  # a missing or malformed output fails the check
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append({"name": name, "ok": error is None, "detail": error})
    return outcomes


# --- per-layer metrics from the traced passes -------------------------------

def layer_metrics(traced: list[dict], workload: Workload) -> dict:
    def per_pass(fn) -> float:
        return statistics.median(fn(p["trace"]) for p in traced)

    def total(*names):
        return lambda t: sum(t["agg"].get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(name):
        return lambda t: t["agg"].get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return lambda t: t["agg"].get(name, (0, 0.0, 0.0))[0]

    def counter(name):
        return lambda t: t["counts"].get(name, 0)

    def distinct_ratio(name):
        return lambda t: (t["distinct"].get(name, 0) / t["agg"][name][0]
                          if name in t["agg"] else 0.0)

    def size(path):
        return lambda t: path.stat().st_size if path.is_file() else 0

    wm = "lexicon.words_match"
    metrics = {
        "cli.mine_s": total("cli.mine"),
        "cli.rasterize_s": total("cli.rasterize"),
        "cli.eval_rank_s": total("cli.eval_rank"),
        "cli.train_toy_s": total("cli.train_toy"),
        "dataset.load_s": total("dataset.load_dataset"),
        "dataset.boxes_clamped": counter("dataset.boxes_clamped"),
        "lexicon.load_s": total("lexicon.load_wordnet", "lexicon.load_aliases"),
        "lexicon.words_match_calls": calls(wm),
        "lexicon.words_match_self_s": self_s(wm),
        "lexicon.words_match_hit_ratio": lambda t: (t["counts"].get("lexicon.words_match_hits", 0)
                                                    / t["agg"][wm][0] if wm in t["agg"] else 0.0),
        "lexicon.words_match_distinct_ratio": distinct_ratio(wm),
        "lexicon.morphy_calls": calls("lexicon.morphy"),
        "lexicon.morphy_self_s": self_s("lexicon.morphy"),
        "lexicon.morphy_distinct_ratio": distinct_ratio("lexicon.morphy"),
        "lexicon.synsets_calls": calls("lexicon.synsets"),
        "lexicon.synsets_self_s": self_s("lexicon.synsets"),
        "lexicon.has_entry_calls": calls("lexicon.has_entry"),
        "lexicon.normalize_token_calls": calls("lexicon.normalize_token"),
        "lexicon.normalize_token_self_s": self_s("lexicon.normalize_token"),
        "lexicon.tokenize_calls": calls("lexicon.tokenize"),
        "miner.mine_s": total("miner.mine"),
        "miner.self_s": self_s("miner.mine"),
        "miner.triplets": counter("miner.triplets"),
        "miner.labels": counter("miner.labels"),
        "miner.informative_words_calls": calls("miner.informative_words"),
        "miner.informative_words_distinct_ratio": distinct_ratio("miner.informative_words"),
        "miner.write_labels_s": total("miner.write_labels"),
        "miner.read_labels_s": total("miner.read_labels"),
        "miner.labels_bytes": size(workload.labels_path),
        "attention.build_supervision_calls": calls("attention.build_supervision"),
        "attention.build_supervision_s": total("attention.build_supervision"),
        "attention.stack_to_rows_s": total("attention.stack_to_rows"),
        "attention.read_maps_s": total("attention.read_maps"),
        "attention.rank_correlation_calls": calls("attention.rank_correlation"),
        "attention.rank_correlation_s": total("attention.rank_correlation"),
        "attention.kl_divergence_s": total("attention.kl_divergence"),
        "attention.maps_bytes": size(workload.out / "maps.ndjson"),
        "schedule.total_loss_s": total("schedule.total_loss"),
        "toymodel.forward_s": total("toymodel.forward"),
        "toymodel.loss_and_grads_self_s": self_s("toymodel.loss_and_grads"),
        "toymodel.metric_s": total("toymodel.sample_metrics"),
        "toymodel.train_self_s": self_s("toymodel.train"),
        "toymodel.sample_steps": counter("toymodel.sample_steps"),
        "toymodel.write_metrics_s": total("toymodel.write_metrics"),
        "trace.self_share": lambda t: sum(a[2] for a in t["agg"].values()) / t["wall_s"],
    }
    return {name: per_pass(fn) for name, fn in metrics.items()}


def check_self_times(traced: list[dict]) -> str | None:
    """Within one pass the self times of all spans add up to no more than
    the pass's wall time."""
    for index, record in enumerate(traced):
        self_total = sum(a[2] for a in record["trace"]["agg"].values())
        if self_total > record["wall_s"] + 1e-6:
            return f"traced pass {index}: self times {self_total} s > wall {record['wall_s']} s"
    return None


# --- entry points ----------------------------------------------------------

def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def cmd_setup(args) -> int:
    inputs = Path(args.inputs)
    start = time.perf_counter()
    error = None
    try:
        import vgmine.cli  # noqa: F401  the import is part of set-up
        WORKLOADS[args.workload](inputs, inputs).setup()
    except Exception as exc:  # a failed load is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"setup_s": time.perf_counter() - start, "error": error}))
    return 0


def cmd_run(args) -> int:
    inputs, out = Path(args.inputs), Path(args.inputs) / "out"
    out.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](inputs, out)
    # counted from the generated inputs before any pass; an unreadable
    # input is a failed check, not a crash
    checks = []
    try:
        work = workload.work()
    except Exception as exc:
        work = 0
        checks.append({"name": "work_count", "ok": False,
                       "detail": f"{type(exc).__name__}: {exc}"})
    tracer = None
    if args.trace:
        from tracing import Tracer
        passes = run_passes(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            passes += run_passes(workload, args.seconds / 2, 1, tracer)
        finally:
            tracer.unpatch()
    else:
        # the first pass pays one-time costs (lazy imports, regex compiles,
        # cold caches) and is excluded from the throughput as a warm-up
        passes = run_passes(workload, args.seconds, 3)
        passes[0]["warmup"] = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks += run_checks(workload, passes, args.seed)
    final = final_rank_corr(workload)
    result = {
        "unit": workload.unit,
        "work": work,
        "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "final_rank_corr": final,
        "environment": environment(),
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        error = check_self_times(traced)
        checks.append({"name": "self_times", "ok": error is None, "detail": error})
        # a name that could not be wrapped would read as a zero-cost layer
        checks.append({"name": "trace_names", "ok": not tracer.missing,
                       "detail": ("not found to trace: " + ", ".join(tracer.missing)
                                  if tracer.missing else None)})
        layers = layer_metrics(traced, workload)
        # in reference seconds, so that a change of machine speed between the
        # untraced and the traced half does not pass for tracing overhead
        layers["trace.overhead_ratio"] = (statistics.median(p["ref_s"] for p in traced)
                                          / statistics.median(p["ref_s"] for p in untraced) - 1.0)
        layers["run.throughput_wall_per_s"] = statistics.median(
            result["work"] / p["wall_s"] for p in untraced)
        layers["toymodel.final_rank_corr"] = final if final is not None else 0.0
        result["layers"] = layers
        if args.spans:
            tracer.write(Path(args.spans))
    result["checks"] = checks
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload in-process.")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--inputs", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())

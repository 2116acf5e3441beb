"""Command-line surface: mine labels, rasterize maps, evaluate rank
correlation and answer accuracy, train the toy model, render heatmaps.

Exit codes: 0 success, 1 internal error, 2 usage or input error. ``main``
runs each command in one ``records.commit`` block, in which it adds the run
manifest (<output>.manifest.json: command name, configuration snapshot, input
digests, tool version), and prints the command's summary line only once the
block has completed; equal inputs and flags give byte-identical outputs.
``eval-rank`` reads its two maps files concurrently (``records.read_pair``),
with the same outputs and errors as reading them in turn; each file arrives
as the doubled midranks of its unmasked maps (``read_maps(..., ranked=True)``),
which each block of common pairs correlates (``ranked_correlations``).

While a command runs in the main thread, SIGTERM and SIGHUP raise
``SystemExit(128 + signal)`` (``records.exit_on_signal``), so the ``commit``
block unwinds and removes what it staged and ``main`` returns 143 or 129; a
signal during the block's final renames takes effect once they are done. The
caller's handlers are restored on every exit.

``main`` runs the whole command (parse, run, commit) with Python's cyclic
garbage collector switched off and leaves it on or off as it found it, on
every exit. The records a command keeps (named tuples, slot objects, dicts,
lists and arrays) hold no reference cycle, so reference counting frees them,
and the collector would only walk them again and again while they grow. The
one cyclic garbage a command makes is its argparse parser, the same few
hundred objects for any input; the caller's collector takes it later.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import threading
import traceback
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .attention import (
    BLOCK_SIZE,
    DEFAULT_GRID,
    REFERENCE_ANSWERS,
    AttentionError,
    pgm_bytes,
    ranked_correlations,
    read_maps,
    stack_to_rows,
    supervision_block,
    vqa_accuracy,
)
# The per-label and per-pair forms of the block calls below, importable from
# here because perfbench/tracing.py wraps them by this module's name.
from .attention import build_supervision, rank_correlation  # noqa: F401
from .dataset import load_dataset, read_qa
from .lexicon import WNDB_FILES, load_aliases, load_wordnet
from .miner import MinerConfig, mine, read_labels, write_labels
from .records import (INTERRUPTS, PREDICTION_RECORD, REFERENCE_RECORD, InputError, commit,
                      exit_on_signal, fields, fmt9, make_dir, read_json, read_keyed, read_pair,
                      write_bytes, write_csv, write_lines, write_manifest)
from .schedule import MODE_COSINE, MODE_FIXED, Schedule
from .toymodel import (
    ToyConfig,
    ToyModelError,
    make_synthetic,
    train,
    write_metrics,
    write_params,
)


# the names in the library's invalid-value messages -> the flags that set them
_FLAGS = {"iou_threshold": "--iou-threshold", "min_region_matches": "--min-region-matches",
          "n": "--samples", "steps": "--steps", "learning_rate": "--learning-rate",
          "question_dim": "--question-dim", "image_channels": "--channels", "grid_h": "--grid",
          "grid_w": "--grid", "glimpses": "--glimpses", "num_answers": "--answers",
          "alpha": "--alpha-value", "t_max": "--t-max"}


def _flag_error(exc: ValueError) -> InputError:
    """``exc``'s message prefixed with the flags it names."""
    flags = ", ".join(dict.fromkeys(_FLAGS[word] for word in str(exc).split() if word in _FLAGS))
    return InputError(f"{flags}: {exc}" if flags else str(exc))


def _require_file(path: str, kind: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{kind} not found: {p}")
    return p


# --- mine ----------------------------------------------------------------

def _word_list(text: str) -> tuple[str, ...]:
    return tuple(w.strip().lower() for w in text.split(",") if w.strip())


def _miner_config(args: argparse.Namespace) -> MinerConfig:
    """The mine flags as a ``MinerConfig``; a list flag not given keeps its default."""
    lists = {}
    if args.stopwords is not None:
        lists["stopwords"] = frozenset(_word_list(args.stopwords))
    if args.counting_prefixes is not None:
        lists["counting_prefixes"] = _word_list(args.counting_prefixes)
    try:
        return MinerConfig(
            iou_threshold=args.iou_threshold,
            min_region_matches=args.min_region_matches,
            center_containment=not args.full_containment,
            **lists,
        )
    except ValueError as exc:
        raise _flag_error(exc) from exc


def cmd_mine(args: argparse.Namespace) -> tuple:
    wordnet_dir = Path(args.wordnet_dir)
    if not wordnet_dir.is_dir():
        raise InputError(f"wordnet directory not found: {wordnet_dir}")
    lexicon = load_wordnet(wordnet_dir)
    inputs = [wordnet_dir / name for name in WNDB_FILES]
    if args.aliases:
        alias_path = _require_file(args.aliases, "alias file")
        load_aliases(lexicon, alias_path)
        inputs.append(alias_path)

    regions = _require_file(args.regions, "regions file")
    objects = _require_file(args.objects, "objects file")
    qa = _require_file(args.qa, "qa file")
    inputs += [regions, objects, qa]
    dataset, report = load_dataset(regions, objects, qa)
    cfg = _miner_config(args)

    labels = mine(dataset, lexicon, cfg)
    write_labels(labels, args.out)
    summary = (f"mined {len(labels)} labels from {len(dataset.triplets)} triplets "
               f"({report.clamped_boxes} boxes clamped, "
               f"{report.dropped_triplets} triplets dropped)")
    return args.out, dict(asdict(cfg), stopwords=sorted(cfg.stopwords)), inputs, summary


# --- rasterize -----------------------------------------------------------

def cmd_rasterize(args: argparse.Namespace) -> tuple:
    labels_path = _require_file(args.labels, "labels file")
    qa_path = _require_file(args.qa, "qa file")
    labels = read_labels(labels_path)
    triplets = read_qa(qa_path)
    grid_h, grid_w = args.grid
    if grid_h < 1 or grid_w < 1:
        raise InputError("--grid dimensions must be >= 1")

    def checked(label):
        triplet = triplets.get(label.qa_id)
        if triplet is None:
            raise InputError(f"{labels_path}: label qa_id {label.qa_id} missing from qa file "
                             f"{qa_path}")
        if not label.object_boxes and not label.region_boxes:
            raise InputError(f"{labels_path}: label {label.qa_id} has no boxes to rasterize")
        return triplet

    def rows():
        for start in range(0, len(labels), BLOCK_SIZE):
            block = labels[start:start + BLOCK_SIZE]
            glimpses, masks = supervision_block(block, [checked(label) for label in block],
                                                grid_h, grid_w)
            yield from stack_to_rows([label.qa_id for label in block], glimpses, masks)

    write_lines(args.out, rows())
    return args.out, {"grid": [grid_h, grid_w]}, [labels_path, qa_path], None


# --- eval ----------------------------------------------------------------

def _printed(key: tuple) -> tuple:
    """A (qa_id, glimpse) key as its CSV row shows it. The ids 1 and "1" show
    alike, so an input holding both is refused, and rows sort by this."""
    return str(key[0]), key[1]


def cmd_eval_rank(args: argparse.Namespace) -> tuple:
    path_a = _require_file(args.maps_a, "maps file")
    path_b = _require_file(args.maps_b, "maps file")
    ranked_a, ranked_b = read_pair(lambda path: read_maps(path, _printed, ranked=True),
                                   path_a, path_b)
    common = sorted(ranked_a[0].keys() & ranked_b[0].keys(), key=_printed)
    if not common:
        raise InputError("no common (qa_id, glimpse) pairs between map files")

    lines = [["qa_id", "glimpse", "rank_corr"]]
    total = 0.0
    for start in range(0, len(common), BLOCK_SIZE):
        keys = common[start:start + BLOCK_SIZE]
        corrs, fault = ranked_correlations(ranked_a, ranked_b, keys)
        if fault is not None:
            qa_id, glimpse = keys[fault[0]]
            raise InputError(f"{path_a} and {path_b}: qa_id {qa_id} glimpse {glimpse}: "
                             f"{fault[1]}")
        for key, corr in zip(keys, corrs):
            total += corr
            lines.append([str(key[0]), str(key[1]), fmt9(corr)])
    lines.append(["mean", "", fmt9(total / len(common))])
    write_csv(args.out, lines)
    return args.out, {}, [path_a, path_b], None


def _reference(record: dict) -> tuple:
    qa_id, answers = fields(record, REFERENCE_RECORD)
    if len(answers) != REFERENCE_ANSWERS:
        raise ValueError(f"qa_id {qa_id}: expected {REFERENCE_ANSWERS} reference answers, "
                         f"got {len(answers)}")
    return qa_id, answers


def cmd_eval_acc(args: argparse.Namespace) -> tuple:
    preds_path = _require_file(args.preds, "predictions file")
    refs_path = _require_file(args.refs, "references file")
    preds = read_keyed(preds_path, lambda rec: fields(rec, PREDICTION_RECORD), str)
    refs = read_keyed(refs_path, _reference, str)
    common = sorted(set(preds) & set(refs), key=str)
    if not common:
        raise InputError("no common qa_ids between predictions and references")

    lines = [["qa_id", "accuracy"]]
    total = 0.0
    for qa_id in common:
        acc = vqa_accuracy(preds[qa_id], refs[qa_id])
        total += acc
        lines.append([str(qa_id), fmt9(acc)])
    lines.append(["mean", fmt9(total / len(common))])
    write_csv(args.out, lines)
    return args.out, {}, [preds_path, refs_path], None


# --- train-toy -----------------------------------------------------------

def cmd_train_toy(args: argparse.Namespace) -> tuple:
    try:
        cfg = ToyConfig(
            question_dim=args.question_dim,
            image_channels=args.channels,
            grid_h=args.grid[0],
            grid_w=args.grid[1],
            glimpses=args.glimpses,
            num_answers=args.answers,
            seed=args.seed,
            steps=args.steps,
            learning_rate=args.learning_rate,
        )
        t_max = args.t_max if args.t_max is not None else max(args.steps, 1)
        schedule = Schedule(t_max=t_max, mode=args.alpha_mode,
                            fixed_value=args.alpha_value)
        data = make_synthetic(cfg, args.samples, seed=args.data_seed)
    except ValueError as exc:
        raise _flag_error(exc) from exc

    params, metrics = train(data, cfg, schedule)
    write_metrics(metrics, args.metrics_out)
    if args.params_out:
        write_params(params, args.params_out)
    config_snapshot = {key: value for key, value in vars(args).items()
                       if key not in ("command", "func", "metrics_out", "params_out")}
    config_snapshot["t_max"] = t_max
    final = metrics[-1]
    summary = (f"final: ce={fmt9(final.ce)} kl={fmt9(final.kl)} "
               f"accuracy={fmt9(final.accuracy)} rank_corr={fmt9(final.rank_corr)}")
    return args.metrics_out, config_snapshot, [], summary


# --- render --------------------------------------------------------------

def cmd_render(args: argparse.Namespace) -> tuple:
    maps_path = _require_file(args.maps, "maps file")
    out_dir = Path(args.out_dir)
    make_dir(out_dir)
    names = {}  # PGM file name -> key of its map
    for key, row in read_maps(maps_path).items():
        name = f"{key[0]}_g{key[1]}.pgm"
        where = f"{maps_path}: qa_id {key[0]} glimpse {key[1]}"
        if "/" in name or "\0" in name:
            raise InputError(f"{where}: file name {name!r} contains '/' or NUL")
        if name in names:
            raise InputError(f"{where}: file name {name!r} is that of the earlier map "
                             f"{names[name]!r}")
        names[name] = key
        try:
            write_bytes(out_dir / name, pgm_bytes(row["values"]))
        except InputError as exc:  # a name the OS refuses
            raise InputError(f"{where}: {exc}") from exc
    return out_dir / "render", {}, [maps_path], f"rendered {len(names)} maps to {out_dir}"


# --- parser --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vgmine",
        description="Mine visual-grounding attention labels, build grid "
                    "attention maps, evaluate them, and train the toy "
                    "attention model.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine grounding labels from a corpus")
    p.add_argument("--regions", required=True)
    p.add_argument("--objects", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--wordnet-dir", required=True)
    p.add_argument("--aliases", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--iou-threshold", type=float, default=MinerConfig.iou_threshold)
    p.add_argument("--min-region-matches", type=int, default=MinerConfig.min_region_matches)
    p.add_argument("--stopwords", default=None,
                   help="comma-separated stopword list replacing the default")
    p.add_argument("--counting-prefixes", default=None,
                   help="comma-separated question prefixes marking counting questions")
    p.add_argument("--full-containment", action="store_true",
                   help="require whole object boxes inside selected regions "
                        "(default: box centers)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rasterize", help="labels -> attention-map NDJSON")
    p.add_argument("--labels", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, nargs=2, default=[DEFAULT_GRID, DEFAULT_GRID],
                   metavar=("H", "W"))
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("eval-rank", help="Spearman correlation between map files")
    p.add_argument("--maps-a", required=True)
    p.add_argument("--maps-b", required=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_eval_rank)

    p = sub.add_parser("eval-acc", help="answer accuracy against 10 references")
    p.add_argument("--preds", required=True,
                   help="NDJSON rows {qa_id, answer}")
    p.add_argument("--refs", required=True,
                   help="NDJSON rows {qa_id, answers: [10 strings]}")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_eval_acc)

    p = sub.add_parser("train-toy", help="train the desk-scale attention model")
    p.add_argument("--seed", type=int, default=ToyConfig.seed)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--steps", type=int, default=ToyConfig.steps)
    p.add_argument("--learning-rate", type=float, default=ToyConfig.learning_rate)
    p.add_argument("--question-dim", type=int, default=ToyConfig.question_dim)
    p.add_argument("--channels", type=int, default=ToyConfig.image_channels)
    p.add_argument("--grid", type=int, nargs=2, default=[ToyConfig.grid_h, ToyConfig.grid_w],
                   metavar=("H", "W"))
    p.add_argument("--glimpses", type=int, default=ToyConfig.glimpses)
    p.add_argument("--answers", type=int, default=ToyConfig.num_answers)
    p.add_argument("--alpha-mode", choices=[MODE_COSINE, MODE_FIXED], default=Schedule.mode)
    p.add_argument("--alpha-value", type=float, default=Schedule.fixed_value,
                   help="alpha for fixed mode")
    p.add_argument("--t-max", type=int, default=None,
                   help="decay horizon (default: --steps)")
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--params-out", default=None)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("render", help="maps NDJSON -> one PGM per glimpse")
    p.add_argument("--maps", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def _with_config_flags(argv: list[str]) -> list[str]:
    """``argv`` with ``--config PATH`` (or ``--config=PATH``) replaced by the
    JSON object in PATH as flags right after the command name, checked as
    typed flags and beaten by a later explicit one. Keys are flag names
    (dashes or underscores); true gives a bare flag, false none, and a list
    one argument per entry."""
    idx = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, joined, path = argv[idx].partition("=")
    end = idx + (1 if joined else 2)
    if end > len(argv):
        raise InputError("--config requires a path")
    config_path = _require_file(path if joined else argv[idx + 1], "config file")
    config = read_json(config_path)
    if not isinstance(config, dict):
        raise InputError(f"{config_path}: expected a JSON object")
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif type(value) in (str, int, float):
            flags.append(f"{flag}={value}")
        elif type(value) is list and all(type(v) in (str, int, float) for v in value):
            flags += [flag, *map(str, value)]
        elif value is not False:
            raise InputError(f"{config_path}: {key}: a config value must be a string, "
                             f"number, boolean or list, not {value!r}")
    argv = argv[:idx] + argv[end:]  # the top-level options exit: argv[0] is the command
    return argv[:1] + flags + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    enabled = gc.isenabled()
    gc.disable()
    previous = {}  # signal -> the caller's handler; only the main thread may set one
    if threading.current_thread() is threading.main_thread():
        previous = {signum: signal.signal(signum, exit_on_signal) for signum in INTERRUPTS}
    try:
        args = build_parser().parse_args(_with_config_flags(argv))
        with commit():
            out, config, inputs, summary = args.func(args)
            if out:  # eval-rank and eval-acc print to stdout without --out
                write_manifest(Path(out), args.command, config, inputs)
        if summary:
            print(summary)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AttentionError, ToyModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception:  # pragma: no cover - internal errors
        traceback.print_exc()
        return 1
    finally:
        for signum, handler in previous.items():  # None: a handler not set from Python
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: mine labels, rasterize maps, evaluate rank
correlation and answer accuracy, train the toy model, render heatmaps.

Exit codes: 0 success, 1 internal error, 2 usage or input error. Every
command writes a run manifest (<output>.manifest.json) capturing the
command name, configuration snapshot, input content digests, and tool
version; equal inputs and flags give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .attention import (
    BLOCK_SIZE,
    AttentionError,
    AttentionMap,
    rank_correlations,
    read_maps,
    stack_to_rows,
    supervision_block,
    vqa_accuracy,
    write_pgm,
)
# The per-label and per-pair forms of the block calls below, importable from
# here because perfbench/tracing.py wraps them by this module's name.
from .attention import build_supervision, rank_correlation  # noqa: F401
from .dataset import load_dataset, read_qa
from .lexicon import load_aliases, load_wordnet
from .miner import (
    DEFAULT_COUNTING_PREFIXES,
    DEFAULT_STOPWORDS,
    MinerConfig,
    mine,
    read_labels,
    write_labels,
)
from .records import (InputError, fmt9, qa_id_of, read_json, read_ndjson, write_csv,
                      write_manifest, write_ndjson)
from .schedule import Schedule
from .toymodel import (
    ToyConfig,
    ToyModelError,
    make_synthetic,
    train,
    write_metrics,
    write_params,
)


def _require_file(path: str, kind: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{kind} not found: {p}")
    return p


# --- mine ----------------------------------------------------------------

def _miner_config(args: argparse.Namespace) -> MinerConfig:
    stopwords = DEFAULT_STOPWORDS
    if args.stopwords is not None:
        stopwords = frozenset(w.strip().lower() for w in args.stopwords.split(",")
                              if w.strip())
    prefixes = DEFAULT_COUNTING_PREFIXES
    if args.counting_prefixes is not None:
        prefixes = tuple(p.strip().lower() for p in args.counting_prefixes.split(",")
                         if p.strip())
    try:
        return MinerConfig(
            iou_threshold=args.iou_threshold,
            min_region_matches=args.min_region_matches,
            stopwords=stopwords,
            counting_prefixes=prefixes,
            center_containment=not args.full_containment,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_mine(args: argparse.Namespace) -> int:
    wordnet_dir = Path(args.wordnet_dir)
    if not wordnet_dir.is_dir():
        raise InputError(f"wordnet directory not found: {wordnet_dir}")
    lexicon = load_wordnet(wordnet_dir)
    inputs = [wordnet_dir / name for name in
              ("index.noun", "index.verb", "noun.exc", "verb.exc")]
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
    out = Path(args.out)
    write_labels(labels, out)
    write_manifest(out, "mine", {
        "iou_threshold": cfg.iou_threshold,
        "min_region_matches": cfg.min_region_matches,
        "stopwords": sorted(cfg.stopwords),
        "counting_prefixes": list(cfg.counting_prefixes),
        "center_containment": cfg.center_containment,
    }, inputs)
    print(f"mined {len(labels)} labels from {len(dataset.triplets)} triplets "
          f"({report.clamped_boxes} boxes clamped, "
          f"{report.dropped_triplets} triplets dropped)")
    return 0


# --- rasterize -----------------------------------------------------------

def cmd_rasterize(args: argparse.Namespace) -> int:
    labels_path = _require_file(args.labels, "labels file")
    qa_path = _require_file(args.qa, "qa file")
    labels = read_labels(labels_path)
    triplets = {t.qa_id: t for t in read_qa(qa_path)}
    grid_h, grid_w = args.grid
    if grid_h < 1 or grid_w < 1:
        raise InputError("--grid dimensions must be >= 1")

    def checked(label):
        triplet = triplets.get(label.qa_id)
        if triplet is None:
            raise InputError(f"label qa_id {label.qa_id} missing from qa file")
        if triplet.image_width < 1 or triplet.image_height < 1:
            raise InputError(f"{qa_path}: qa_id {label.qa_id}: "
                             "image dimensions must be >= 1")
        if not label.object_boxes and not label.region_boxes:
            raise InputError(f"{labels_path}: label {label.qa_id} has no boxes to rasterize")
        return triplet

    def rows():
        for start in range(0, len(labels), BLOCK_SIZE):
            block = labels[start:start + BLOCK_SIZE]
            glimpses, masks = supervision_block(block, [checked(label) for label in block],
                                                grid_h, grid_w)
            yield from stack_to_rows([label.qa_id for label in block], glimpses, masks)

    out = Path(args.out)
    write_ndjson(out, rows())
    write_manifest(out, "rasterize", {"grid": [grid_h, grid_w]},
                   [labels_path, qa_path])
    return 0


# --- eval ----------------------------------------------------------------

def _keyed_maps(rows: list[dict]) -> dict[tuple, np.ndarray]:
    """Masked glimpses carry no supervision signal and are not evaluated."""
    return {(row["qa_id"], row["glimpse"]): row["values"]
            for row in rows if row["mask"]}


def _block_correlations(keys: list[tuple], maps_a: dict, maps_b: dict) -> list[float]:
    """Spearman coefficients of a block of (qa_id, glimpse) pairs: one
    ``rank_correlations`` call per pair of map shapes (usually one). The
    first faulty pair in order is reported."""
    corr = np.full(len(keys), np.nan)
    negative = np.zeros(len(keys), dtype=bool)
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault((maps_a[key].shape, maps_b[key].shape), []).append(i)
    for (shape_a, shape_b), index in groups.items():
        a = np.stack([maps_a[keys[i]] for i in index]).reshape(len(index), -1)
        b = np.stack([maps_b[keys[i]] for i in index]).reshape(len(index), -1)
        negative[index] = (a < 0).any(axis=1) | (b < 0).any(axis=1)
        if shape_a == shape_b:
            corr[index] = rank_correlations(a, b)
    for i, key in enumerate(keys):
        if negative[i]:
            fault = "attention map entries must be non-negative"
        elif maps_a[key].shape != maps_b[key].shape:
            fault = "map shape mismatch"
        elif math.isnan(corr[i]):
            fault = "undefined correlation: constant map"
        else:
            continue
        raise InputError(f"qa_id {key[0]} glimpse {key[1]}: {fault}")
    return corr.tolist()


def cmd_eval_rank(args: argparse.Namespace) -> int:
    path_a = _require_file(args.maps_a, "maps file")
    path_b = _require_file(args.maps_b, "maps file")
    maps_a = _keyed_maps(read_maps(path_a))
    maps_b = _keyed_maps(read_maps(path_b))
    common = sorted(set(maps_a) & set(maps_b), key=lambda k: (str(k[0]), k[1]))
    if not common:
        raise InputError("no common (qa_id, glimpse) pairs between map files")

    lines = [["qa_id", "glimpse", "rank_corr"]]
    total = 0.0
    for start in range(0, len(common), BLOCK_SIZE):
        keys = common[start:start + BLOCK_SIZE]
        for key, corr in zip(keys, _block_correlations(keys, maps_a, maps_b)):
            total += corr
            lines.append([str(key[0]), str(key[1]), fmt9(corr)])
    lines.append(["mean", "", fmt9(total / len(common))])
    write_csv(args.out, lines)
    if args.out:
        write_manifest(Path(args.out), "eval-rank", {}, [path_a, path_b])
    return 0


def cmd_eval_acc(args: argparse.Namespace) -> int:
    preds_path = _require_file(args.preds, "predictions file")
    refs_path = _require_file(args.refs, "references file")
    preds = dict(read_ndjson(preds_path, lambda rec: (qa_id_of(rec), rec["answer"])))
    refs = dict(read_ndjson(refs_path, lambda rec: (qa_id_of(rec), rec["answers"])))
    common = sorted(set(preds) & set(refs), key=str)
    if not common:
        raise InputError("no common qa_ids between predictions and references")

    lines = [["qa_id", "accuracy"]]
    total = 0.0
    for qa_id in common:
        try:
            acc = vqa_accuracy(preds[qa_id], refs[qa_id])
        except AttentionError as exc:
            raise InputError(f"qa_id {qa_id}: {exc}") from exc
        total += acc
        lines.append([str(qa_id), fmt9(acc)])
    lines.append(["mean", fmt9(total / len(common))])
    write_csv(args.out, lines)
    if args.out:
        write_manifest(Path(args.out), "eval-acc", {}, [preds_path, refs_path])
    return 0


# --- train-toy -----------------------------------------------------------

def cmd_train_toy(args: argparse.Namespace) -> int:
    try:
        cfg = ToyConfig(
            question_dim=args.question_dim,
            image_channels=args.channels,
            grid_h=args.grid[0],
            grid_w=args.grid[1],
            glimpses=args.glimpses,
            num_answers=args.answers,
            fusion_dim=args.channels,
            seed=args.seed,
            steps=args.steps,
            learning_rate=args.learning_rate,
        )
        t_max = args.t_max if args.t_max is not None else max(args.steps, 1)
        schedule = Schedule(t_max=t_max, mode=args.alpha_mode,
                            fixed_value=args.alpha_value)
        data = make_synthetic(cfg, args.samples, seed=args.data_seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    params, metrics = train(data, cfg, schedule)
    metrics_out = Path(args.metrics_out)
    write_metrics(metrics, metrics_out)
    config_snapshot = {
        "question_dim": cfg.question_dim, "channels": cfg.image_channels,
        "grid": [cfg.grid_h, cfg.grid_w], "glimpses": cfg.glimpses,
        "answers": cfg.num_answers, "seed": cfg.seed,
        "steps": cfg.steps, "learning_rate": cfg.learning_rate,
        "alpha_mode": schedule.mode, "alpha_value": schedule.fixed_value,
        "t_max": schedule.t_max, "samples": args.samples,
        "data_seed": args.data_seed,
    }
    write_manifest(metrics_out, "train-toy", config_snapshot, [])
    if args.params_out:
        write_params(params, args.params_out)
    final = metrics[-1]
    print(f"final: ce={fmt9(final.ce)} kl={fmt9(final.kl)} "
          f"accuracy={fmt9(final.accuracy)} rank_corr={fmt9(final.rank_corr)}")
    return 0


# --- render --------------------------------------------------------------

def cmd_render(args: argparse.Namespace) -> int:
    maps_path = _require_file(args.maps, "maps file")
    rows = read_maps(maps_path)
    maps = []
    for row in rows:  # every map is checked before the first file is written
        try:
            maps.append(AttentionMap(row["values"]))
        except AttentionError as exc:
            raise InputError(f"{maps_path}: qa_id {row['qa_id']} glimpse {row['glimpse']}: "
                             f"{exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for row, amap in zip(rows, maps):
        write_pgm(amap, out_dir / f"{row['qa_id']}_g{row['glimpse']}.pgm")
    write_manifest(out_dir / "render", "render", {}, [maps_path])
    print(f"rendered {len(rows)} maps to {out_dir}")
    return 0


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
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.add_argument("--min-region-matches", type=int, default=2)
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
    p.add_argument("--grid", type=int, nargs=2, default=[14, 14],
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--question-dim", type=int, default=8)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--grid", type=int, nargs=2, default=[7, 7],
                   metavar=("H", "W"))
    p.add_argument("--glimpses", type=int, default=2)
    p.add_argument("--answers", type=int, default=5)
    p.add_argument("--alpha-mode", choices=["cosine", "fixed"], default="cosine")
    p.add_argument("--alpha-value", type=float, default=1.0,
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


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """A JSON file named by --config supplies defaults, keyed by flag name
    (dashes or underscores); explicit flags still win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise InputError("--config requires a path")
    config_path = _require_file(argv[idx + 1], "config file")
    config = read_json(config_path)
    if not isinstance(config, dict):
        raise InputError(f"{config_path}: expected a JSON object")
    defaults = {key.replace("-", "_"): value for key, value in config.items()}
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for sub_parser in action.choices.values():
            sub_parser.set_defaults(**{k: v for k, v in defaults.items()
                                       if any(k == a.dest for a in sub_parser._actions)})
    return argv[:idx] + argv[idx + 2:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())

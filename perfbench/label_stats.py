"""Measures the labels that ``vgmine mine`` emits on ``pipeline_vg`` corpora.

The ``maps_eval`` workload samples its labels from these figures instead of
guessing them: the joint distribution of (is_counting, object boxes, region
boxes, region_match_count, matched words) per label, and the matched-word
triples with their frequencies. Re-run it when the miner or the
``pipeline_vg`` generator changes what a mined label looks like:

    python3 perfbench/label_stats.py --seeds 1-10 --out perfbench/label_stats.json

It writes its scratch corpora under ``.perfbench_work/`` and removes them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(seeds: list[int]) -> dict:
    from gen import generate
    from vgmine.dataset import load_dataset
    from vgmine.lexicon import load_aliases, load_wordnet
    from vgmine.miner import mine

    shapes: Counter = Counter()
    words: Counter = Counter()
    triplets = 0
    work = ROOT / ".perfbench_work" / f"label-stats-{os.getpid()}"
    try:
        for seed in seeds:
            generate("pipeline_vg", seed, work)
            lexicon = load_wordnet(work / "wordnet")
            load_aliases(lexicon, work / "wordnet" / "aliases.txt")
            dataset, _ = load_dataset(work / "regions.json", work / "objects.json",
                                      work / "qa.json")
            triplets += len(dataset.triplets)
            for label in mine(dataset, lexicon):
                shapes[(label.is_counting, len(label.object_boxes), len(label.region_boxes),
                        label.region_match_count, len(label.matched_words))] += 1
                words.update(tuple(m) for m in label.matched_words)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    labels = sum(shapes.values())

    def mean(field: int, counting: bool | None = None) -> float:
        rows = [(key, n) for key, n in shapes.items() if counting in (None, key[0])]
        return sum(key[field] * n for key, n in rows) / sum(n for _, n in rows)

    return {
        "source": f"vgmine mine on pipeline_vg corpora, seeds {seeds[0]}-{seeds[-1]}",
        "triplets": triplets,
        "labels": labels,
        "counting_share": sum(n for key, n in shapes.items() if key[0]) / labels,
        "mean_object_boxes": mean(1),
        "mean_region_boxes_not_counting": mean(2, False),
        "mean_matched_words": mean(4),
        "shape_fields": ["is_counting", "object_boxes", "region_boxes",
                         "region_match_count", "matched_words", "labels"],
        "shapes": [[*key, n] for key, n in sorted(shapes.items())],
        "matched_word_fields": ["query", "annotation", "condition", "labels"],
        "matched_words": [[*key, n] for key, n in sorted(words.items())],
    }


def dumps(stats: dict) -> str:
    """JSON with one table row per line, which keeps the file reviewable."""
    items = []
    for key, value in stats.items():
        if key in ("shapes", "matched_words"):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            items.append(f' "{key}": [\n  {rows}\n ]')
        else:
            items.append(f' "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(items) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    parser.add_argument("--out", default=str(HERE / "label_stats.json"))
    args = parser.parse_args(argv)
    stats = measure(_seeds(args.seeds))
    Path(args.out).write_text(dumps(stats), encoding="utf-8")
    print(f"{stats['labels']} labels from {stats['triplets']} triplets, "
          f"counting share {stats['counting_share']:.3f}, "
          f"{stats['mean_object_boxes']:.2f} object boxes, "
          f"{stats['mean_region_boxes_not_counting']:.2f} region boxes (not counting), "
          f"{stats['mean_matched_words']:.2f} matched words per label, "
          f"{len(stats['shapes'])} shapes, "
          f"{len(stats['matched_words'])} matched-word triples -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

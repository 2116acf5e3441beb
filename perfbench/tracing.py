"""Timing wrappers for the traced benchmark run.

The wrappers live here, in the benchmark, around the calls into each vgmine
module; the program itself carries no tracing code. Each name is patched
where its caller looks it up (``vgmine.cli`` and ``vgmine.miner`` import
functions by name), and the ``Lexicon`` methods are patched on the class.

Every wrapped call is a span with a name, start, end, parent span and the id
of the pass it belongs to. A span's self time is its duration minus the
durations of its child spans. Spans are kept in memory and written out once,
at the end of the run. The per-word lexicon calls (millions per pass) are
aggregated per pass and name instead of being stored one by one; their
self times still enter their parents' arithmetic.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.pass_id = -1
        self.spans: list[list] = []        # [pass, name, start, end, parent]
        self._stack: list[list] = []       # [child seconds, recorded ancestor id]
        self.passes: list[dict] = []       # per-pass aggregates, see begin_pass
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_id += 1
        self.agg: dict[str, list[float]] = {}      # name -> [calls, total, self]
        self.keys: dict[str, set] = {}             # name -> distinct arguments
        self.counts: dict[str, float] = {}         # named counters
        self.passes.append({"agg": self.agg, "keys": self.keys, "counts": self.counts})

    def end_pass(self, wall_s: float) -> dict:
        """Close the pass; returns its aggregates with distinct-argument
        counts in place of the argument sets."""
        record = self.passes[-1]
        record["wall_s"] = wall_s
        record["distinct"] = {name: len(keys) for name, keys in record.pop("keys").items()}
        return record

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        parent_id = parent[1] if parent is not None else None
        if record:
            span_id = len(self.spans)
            self.spans.append([self.pass_id, name, 0.0, 0.0, parent_id])
        else:
            span_id = parent_id
        frame = [0.0, span_id, parent, record]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if frame[2] is not None:
            frame[2][0] += duration
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[0]
        if frame[3]:
            span = self.spans[frame[1]]
            span[2], span[3] = start, end

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, perf_counter())

    def wrap(self, fn, name: str, record: bool = True, key=None, on_result=None):
        """A function that runs ``fn`` inside a span. ``key(args, kwargs)``
        gives the argument identity for the distinct ratio; ``on_result(args,
        result)`` updates counters."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name, record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, start, perf_counter())
            if key is not None:
                keys = tracer.keys.get(name)
                if keys is None:
                    keys = tracer.keys[name] = set()
                keys.add(key(args, kwargs))
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr``. A name the program no longer has is listed in
        ``missing`` instead of stopping the run; the worker reports it as a
        failed check, since its metrics would read 0."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the public functions of every vgmine module at the place
        where their callers look them up."""
        from vgmine import cli, miner, toymodel
        from vgmine.lexicon import Lexicon

        def arg(args, kwargs, index, kw, default=None):
            return args[index] if len(args) > index else kwargs.get(kw, default)

        self.patch(cli, "load_wordnet", "lexicon.load_wordnet")
        self.patch(cli, "load_aliases", "lexicon.load_aliases")
        self.patch(cli, "load_dataset", "dataset.load_dataset",
                   on_result=lambda a, r: self.count("dataset.boxes_clamped",
                                                     r[1].clamped_boxes))
        self.patch(cli, "mine", "miner.mine",
                   on_result=lambda a, r: (self.count("miner.triplets", len(a[0].triplets)),
                                           self.count("miner.labels", len(r))))
        self.patch(cli, "write_labels", "miner.write_labels")
        self.patch(cli, "read_labels", "miner.read_labels")
        self.patch(miner, "informative_words", "miner.informative_words", record=False,
                   key=lambda a, k: (a[0], arg(a, k, 2, "stopwords"), arg(a, k, 3, "pos")))
        self.patch(miner, "normalize_token", "lexicon.normalize_token", record=False)
        self.patch(miner, "tokenize", "lexicon.tokenize", record=False)

        def match_hit(args, result):
            if result.matched:
                self.count("lexicon.words_match_hits", 1)

        self.patch(Lexicon, "words_match", "lexicon.words_match", record=False,
                   key=lambda a, k: (a[1], a[2]), on_result=match_hit)
        self.patch(Lexicon, "morphy", "lexicon.morphy", record=False,
                   key=lambda a, k: (a[1], arg(a, k, 2, "pos")))
        self.patch(Lexicon, "synsets", "lexicon.synsets", record=False)
        self.patch(Lexicon, "has_entry", "lexicon.has_entry", record=False)

        self.patch(cli, "build_supervision", "attention.build_supervision")
        self.patch(cli, "stack_to_rows", "attention.stack_to_rows")
        self.patch(cli, "read_maps", "attention.read_maps")
        self.patch(cli, "rank_correlation", "attention.rank_correlation")
        self.patch(toymodel, "rank_correlation", "attention.rank_correlation")
        self.patch(toymodel, "kl_divergence", "attention.kl_divergence")
        self.patch(toymodel, "total_loss", "schedule.total_loss")
        self.patch(toymodel, "forward", "toymodel.forward")
        self.patch(toymodel, "loss_and_grads", "toymodel.loss_and_grads")
        self.patch(toymodel, "_sample_metrics", "toymodel.sample_metrics")
        self.patch(cli, "make_synthetic", "toymodel.make_synthetic")
        self.patch(cli, "train", "toymodel.train",
                   on_result=lambda a, r: self.count("toymodel.sample_steps",
                                                     len(a[0]) * a[1].steps))
        self.patch(cli, "write_metrics", "toymodel.write_metrics")

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Gzipped NDJSON: one line per recorded span, then one line per
        pass and name with the call count, total and self time."""
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            for span_id, (pass_id, name, start, end, parent) in enumerate(self.spans):
                fp.write(json.dumps({"id": span_id, "pass": pass_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
            for pass_id, record in enumerate(self.passes):
                for name, (calls, total, self_s) in sorted(record["agg"].items()):
                    fp.write(json.dumps({"pass": pass_id, "name": name, "calls": calls,
                                         "total_s": total, "self_s": self_s}) + "\n")

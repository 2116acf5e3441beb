"""Annotation-corpus ingestion: images, region descriptions, object
instances, and QA triplets loaded from JSON files into an immutable
in-memory dataset.

Each file is a JSON array. Its records are read through ``records.fields``
against ``QA_RECORD``, ``REGION_ENTRY`` and ``REGION_RECORD``, or
``OBJECT_ENTRY`` and ``OBJECT_RECORD``, which give each field's kind (id, int, ...).

Boxes arrive as integer corner+size, with sizes of at least 1, and are
stored as inclusive pixel corners (x_max = x + width - 1). Out-of-range
boxes are clamped to image bounds and counted in the load report rather
than dropped.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .records import (OBJECT_ENTRY, OBJECT_RECORD, QA_RECORD, REGION_ENTRY, REGION_RECORD,
                      InputError, fields, read_array, read_keyed_array)


class BoundingBox(NamedTuple):
    """Axis-aligned pixel box with inclusive integer corners."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def area(self) -> int:
        return (self.x_max - self.x_min + 1) * (self.y_max - self.y_min + 1)

    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    def contains_point(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def contains_box(self, other: "BoundingBox") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and other.x_max <= self.x_max
            and other.y_max <= self.y_max
        )

    def iou(self, other: "BoundingBox") -> float:
        ix = min(self.x_max, other.x_max) - max(self.x_min, other.x_min) + 1
        iy = min(self.y_max, other.y_max) - max(self.y_min, other.y_min) + 1
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        return inter / (self.area() + other.area() - inter)

    def as_list(self) -> list[int]:
        return list(self)


class RegionAnnotation(NamedTuple):
    region_id: int | str
    phrase: str
    box: BoundingBox


class ObjectAnnotation(NamedTuple):
    object_id: int | str
    names: tuple[str, ...]
    box: BoundingBox


class QaTriplet(NamedTuple):
    qa_id: int | str
    image_id: int | str
    question: str
    answer: str
    image_width: int
    image_height: int


@dataclass
class Dataset:
    triplets: list[QaTriplet] = field(default_factory=list)
    regions_by_image: dict[int | str, list[RegionAnnotation]] = field(default_factory=dict)
    objects_by_image: dict[int | str, list[ObjectAnnotation]] = field(default_factory=dict)


@dataclass
class LoadReport:
    clamped_boxes: int = 0
    dropped_triplets: int = 0


def read_qa(path: str | Path) -> dict[int | str, QaTriplet]:
    """The QA records of one file by qa_id, in file order; a repeated qa_id
    is an error naming both records."""
    return read_keyed_array(path, lambda rec: ((qa := QaTriplet(*fields(rec, QA_RECORD))).qa_id,
                                               qa))


def _annotations(path: str | Path, kind: str, tables: tuple[tuple, tuple], sizes: dict,
                 report: LoadReport, make: Callable) -> dict[int | str, list]:
    """The ``kind`` records of one annotation file by image id, in file order, read with
    ``tables`` (the entry's and the record's). ``make(id, text, box)`` builds each, its box
    clamped into the image's (width, height) when known, and counted when that changes it."""
    by_image: dict[int | str, list] = {}
    entry_table, table = tables
    for e, entry in enumerate(read_array(path)):
        r = None
        try:
            image_id, records = fields(entry, entry_table)
            size = sizes.get(image_id)
            items = by_image.setdefault(image_id, [])
            for r, rec in enumerate(records):
                ident, text, x, y, width, height = fields(rec, table)
                x_max, y_max = x + width - 1, y + height - 1
                if size is not None and (x < 0 or y < 0 or x_max >= size[0]
                                         or y_max >= size[1]):
                    w, h = size[0] - 1, size[1] - 1
                    x, y = min(max(x, 0), w), min(max(y, 0), h)
                    x_max, y_max = max(min(x_max, w), x), max(min(y_max, h), y)
                    report.clamped_boxes += 1
                items.append(make(ident, text, BoundingBox(x, y, x_max, y_max)))
        except ValueError as exc:
            where = f"entry {e}" if r is None else f"entry {e}: {kind} {r}"
            raise InputError(f"{path}: {where}: {exc}") from None
    return by_image


def load_dataset(regions_file: str | Path, objects_file: str | Path,
                 qa_file: str | Path) -> tuple[Dataset, LoadReport]:
    """Load the three corpus files; returns the dataset and a load report.

    Triplets referencing an image absent from both annotation files are
    dropped and counted. Image dimensions come from the first QA row per
    image, and each box is clamped to them as it is read; annotation boxes
    for images never referenced by any QA row are kept unclamped (no
    bounds are known for them).
    """
    qa_triplets = read_qa(qa_file).values()
    sizes = {t.image_id: (t.image_width, t.image_height) for t in reversed(qa_triplets)}
    report = LoadReport()
    dataset = Dataset(
        regions_by_image=_annotations(regions_file, "region", (REGION_ENTRY, REGION_RECORD),
                                      sizes, report, RegionAnnotation),
        objects_by_image=_annotations(
            objects_file, "object", (OBJECT_ENTRY, OBJECT_RECORD), sizes, report,
            lambda ident, names, box: ObjectAnnotation(ident, tuple(names), box)))
    for triplet in qa_triplets:
        image_id = triplet.image_id
        if image_id in dataset.regions_by_image or image_id in dataset.objects_by_image:
            dataset.triplets.append(triplet)
            dataset.regions_by_image.setdefault(image_id, [])
            dataset.objects_by_image.setdefault(image_id, [])
        else:
            report.dropped_triplets += 1
    return dataset, report

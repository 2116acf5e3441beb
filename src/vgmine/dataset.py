"""Annotation-corpus ingestion: images, region descriptions, object
instances, and QA triplets loaded from JSON files into an immutable
in-memory dataset.

File schemas (arrays of objects):
  regions: {image_id, regions: [{region_id, phrase, x, y, width, height}]}
  objects: {image_id, objects: [{object_id, names: [...], x, y, w, h}]}
  qa:      {image_id, qa_id, question, answer, image_width, image_height}

Boxes arrive as integer corner+size and are stored as inclusive pixel
corners (x_max = x + width - 1). Out-of-range boxes are clamped to image
bounds and counted in the load report rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .records import InputError, qa_id_of, read_json


class DatasetError(InputError):
    """Fatal problem reading or decoding an annotation file."""


@dataclass(frozen=True)
class BoundingBox:
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
        return [self.x_min, self.y_min, self.x_max, self.y_max]


@dataclass(frozen=True)
class RegionAnnotation:
    region_id: int | str
    phrase: str
    box: BoundingBox


@dataclass(frozen=True)
class ObjectAnnotation:
    object_id: int | str
    names: tuple[str, ...]
    box: BoundingBox


@dataclass(frozen=True)
class QaTriplet:
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


def _read_array(path: Path) -> list:
    try:
        data = read_json(path)
    except InputError as exc:
        raise DatasetError(str(exc)) from exc
    if not isinstance(data, list):
        raise DatasetError(f"{path}: expected a top-level JSON array")
    return data


def _size(rec: dict, key: str) -> int:
    value = rec[key]
    if type(value) is not int:  # bools and numeric strings are rejected too
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


def _corner_box(rec: dict, width_key: str, height_key: str) -> BoundingBox:
    x, y = _size(rec, "x"), _size(rec, "y")
    return BoundingBox(x, y, x + _size(rec, width_key) - 1, y + _size(rec, height_key) - 1)


def read_qa(path: str | Path) -> list[QaTriplet]:
    """The QA records of one file, in file order."""
    triplets = []
    for index, rec in enumerate(_read_array(Path(path))):
        try:
            triplets.append(QaTriplet(qa_id_of(rec), rec["image_id"], rec["question"],
                                      rec["answer"], _size(rec, "image_width"),
                                      _size(rec, "image_height")))
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"{path}: record {index}: bad QA record: {exc!r}") from exc
    return triplets


def _annotation_error(path: str | Path, entry: int, kind: str, index: int | None,
                      exc: Exception) -> DatasetError:
    where = f"entry {entry}" if index is None else f"entry {entry}: {kind} {index}"
    what = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return DatasetError(f"{path}: {where}: bad {kind} record: {what}")


def _clamp_box(box: BoundingBox, width: int | None, height: int | None,
               report: LoadReport) -> BoundingBox:
    x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
    x_min = max(x_min, 0)
    y_min = max(y_min, 0)
    x_max = max(x_max, x_min)
    y_max = max(y_max, y_min)
    if width is not None:
        x_min = min(x_min, width - 1)
        x_max = min(x_max, width - 1)
    if height is not None:
        y_min = min(y_min, height - 1)
        y_max = min(y_max, height - 1)
    clamped = BoundingBox(x_min, y_min, x_max, y_max)
    if clamped != box:
        report.clamped_boxes += 1
    return clamped


def load_dataset(regions_file: str | Path, objects_file: str | Path,
                 qa_file: str | Path) -> tuple[Dataset, LoadReport]:
    """Load the three corpus files; returns the dataset and a load report.

    Triplets referencing an image absent from both annotation files are
    dropped and counted. Image dimensions come from the first QA row per
    image; annotation boxes for images never referenced by any QA row are
    kept unclamped (no bounds are known for them).
    """
    regions_raw = _read_array(Path(regions_file))
    objects_raw = _read_array(Path(objects_file))
    qa_triplets = read_qa(qa_file)
    report = LoadReport()
    dataset = Dataset()

    for e, entry in enumerate(regions_raw):
        r = None
        try:
            image_id = entry["image_id"]
            regions = dataset.regions_by_image.setdefault(image_id, [])
            for r, rec in enumerate(entry.get("regions", [])):
                box = _corner_box(rec, "width", "height")
                regions.append(RegionAnnotation(rec["region_id"], rec["phrase"], box))
        except (KeyError, TypeError) as exc:
            raise _annotation_error(regions_file, e, "region", r, exc) from exc

    for e, entry in enumerate(objects_raw):
        r = None
        try:
            image_id = entry["image_id"]
            objects = dataset.objects_by_image.setdefault(image_id, [])
            for r, rec in enumerate(entry.get("objects", [])):
                box = _corner_box(rec, "w", "h")
                objects.append(ObjectAnnotation(rec["object_id"], tuple(rec["names"]), box))
        except (KeyError, TypeError) as exc:
            raise _annotation_error(objects_file, e, "object", r, exc) from exc

    known_images = set(dataset.regions_by_image) | set(dataset.objects_by_image)
    dims: dict[int | str, tuple[int, int]] = {}
    for triplet in qa_triplets:
        image_id = triplet.image_id
        if image_id not in known_images:
            report.dropped_triplets += 1
            continue
        dataset.triplets.append(triplet)
        dims.setdefault(image_id, (triplet.image_width, triplet.image_height))
        dataset.regions_by_image.setdefault(image_id, [])
        dataset.objects_by_image.setdefault(image_id, [])

    for image_id, (width, height) in dims.items():
        dataset.regions_by_image[image_id] = [
            replace(r, box=_clamp_box(r.box, width, height, report))
            for r in dataset.regions_by_image[image_id]
        ]
        dataset.objects_by_image[image_id] = [
            replace(o, box=_clamp_box(o.box, width, height, report))
            for o in dataset.objects_by_image[image_id]
        ]
    return dataset, report

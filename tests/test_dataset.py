import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vgmine.dataset import BoundingBox, load_dataset
from vgmine.records import InputError

from conftest import FIG3
from oracles import reference_box


def _write_corpus(tmp_path, regions, objects, qa):
    paths = []
    for name, payload in (("regions.json", regions), ("objects.json", objects),
                          ("qa.json", qa)):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths.append(p)
    return paths


BASIC_REGIONS = [{"image_id": 1, "regions": [
    {"region_id": 11, "phrase": "a dog", "x": 0, "y": 0, "width": 50, "height": 40},
    {"region_id": 12, "phrase": "a tree", "x": 30, "y": 5, "width": 60, "height": 70},
]}]
BASIC_OBJECTS = [{"image_id": 1, "objects": [
    {"object_id": 21, "names": ["dog"], "x": 5, "y": 5, "w": 30, "h": 30},
]}]
BASIC_QA = [{"image_id": 1, "qa_id": 31, "question": "what is this?",
             "answer": "dog", "image_width": 100, "image_height": 100}]


class TestLoadDataset:
    def test_direct_load(self, tmp_path):
        dataset, report = load_dataset(*_write_corpus(
            tmp_path, BASIC_REGIONS, BASIC_OBJECTS, BASIC_QA))
        assert len(dataset.triplets) == 1
        assert len(dataset.regions_by_image[1]) == 2
        assert len(dataset.objects_by_image[1]) == 1
        assert report.clamped_boxes == 0 and report.dropped_triplets == 0

    def test_box_at_image_edge_is_clamped(self, tmp_path):
        regions = [{"image_id": 1, "regions": [
            {"region_id": 11, "phrase": "sky", "x": 60, "y": 0,
             "width": 41, "height": 40},  # x_max = 100 == width
        ]}]
        dataset, report = load_dataset(*_write_corpus(
            tmp_path, regions, BASIC_OBJECTS, BASIC_QA))
        assert dataset.regions_by_image[1][0].box.x_max == 99
        assert report.clamped_boxes == 1

    def test_boxes_clamped_to_first_qa_size_and_unreferenced_images_kept(self, tmp_path):
        regions = BASIC_REGIONS + [{"image_id": 2, "regions": [
            {"region_id": 13, "phrase": "a cat", "x": -5, "y": 90,
             "width": 500, "height": 500},
        ]}]
        objects = [{"image_id": 1, "objects": [
            {"object_id": 21, "names": ["dog"], "x": -3, "y": 60, "w": 30, "h": 80},
        ]}]
        qa = BASIC_QA + [{"image_id": 1, "qa_id": 32, "question": "?", "answer": "x",
                          "image_width": 10, "image_height": 10}]
        dataset, report = load_dataset(*_write_corpus(tmp_path, regions, objects, qa))
        # image 1 takes 100 x 100 from its first QA row, not 10 x 10 from the second
        assert [r.box for r in dataset.regions_by_image[1]] == [
            BoundingBox(0, 0, 49, 39), BoundingBox(30, 5, 89, 74)]
        assert dataset.objects_by_image[1][0].box == BoundingBox(0, 60, 26, 99)
        # no QA row names image 2: its box keeps its corners and is not counted
        assert dataset.regions_by_image[2][0].box == BoundingBox(-5, 90, 494, 589)
        assert report.clamped_boxes == 1

    def test_qa_for_missing_image_is_dropped(self, tmp_path):
        qa = BASIC_QA + [{"image_id": 404, "qa_id": 32, "question": "?",
                          "answer": "x", "image_width": 10, "image_height": 10}]
        dataset, report = load_dataset(*_write_corpus(
            tmp_path, BASIC_REGIONS, BASIC_OBJECTS, qa))
        assert [t.qa_id for t in dataset.triplets] == [31]
        assert report.dropped_triplets == 1

    def test_malformed_json_names_file_and_offset(self, tmp_path):
        paths = _write_corpus(tmp_path, BASIC_REGIONS, BASIC_OBJECTS, BASIC_QA)
        paths[0].write_text('[{"image_id": 1, ]')
        with pytest.raises(InputError, match=r"regions\.json.*offset"):
            load_dataset(*paths)

    def test_deterministic(self):
        paths = (FIG3 / "regions.json", FIG3 / "objects.json", FIG3 / "qa.json")
        first, report = load_dataset(*paths)
        second, _ = load_dataset(*paths)
        assert first == second
        assert report.clamped_boxes == 0


# Annotation entries name images 1-4 and QA rows images 1-5, so some
# annotated images have no size, some have several sizes (the first counts)
# and some QA rows name an image without annotations. Corners reach past
# both sides of the image.
_IMAGES = [1, 2, 3, 4]
_CORNER = st.one_of(st.integers(0, 20), st.integers(-120, 140))
_EXTENT = st.one_of(st.integers(1, 10), st.integers(1, 200))


@st.composite
def _annotated_corpus(draw):
    def entries(kind, width_key, height_key):
        return [{"image_id": image, f"{kind}s": [
            {f"{kind}_id": i, width_key: draw(_EXTENT), height_key: draw(_EXTENT),
             "x": draw(_CORNER), "y": draw(_CORNER),
             **({"phrase": "a dog"} if kind == "region" else {"names": ["dog"]})}
            for i in range(draw(st.integers(0, 3)))]}
            for image in draw(st.lists(st.sampled_from(_IMAGES), unique=True))]

    qa = [{"image_id": image, "qa_id": i, "question": "?", "answer": "dog",
           "image_width": width, "image_height": height}
          for i, (image, width, height) in enumerate(draw(st.lists(st.tuples(
              st.sampled_from(_IMAGES + [5]), st.integers(1, 100), st.integers(1, 100)),
              max_size=5)))]
    return entries("region", "width", "height"), entries("object", "w", "h"), qa


class TestBoxesEqualReference:
    @given(corpus=_annotated_corpus())
    def test_boxes_and_clamped_count(self, corpus):
        regions, objects, qa = corpus
        with tempfile.TemporaryDirectory() as tmp:
            dataset, report = load_dataset(*_write_corpus(Path(tmp), regions, objects, qa))
        sizes = {}
        for rec in qa:
            sizes.setdefault(rec["image_id"], (rec["image_width"], rec["image_height"]))
        clamped = 0
        for entries, by_image, kind, keys in (
                (regions, dataset.regions_by_image, "regions", ("width", "height")),
                (objects, dataset.objects_by_image, "objects", ("w", "h"))):
            for entry in entries:
                expected = [reference_box(rec, *keys, sizes.get(entry["image_id"]))
                            for rec in entry[kind]]
                assert [a.box for a in by_image[entry["image_id"]]] == [b for b, _ in expected]
                clamped += sum(changed for _, changed in expected)
        assert report.clamped_boxes == clamped


class TestBoundingBox:
    def test_identical_boxes_iou_one(self):
        box = BoundingBox(2, 3, 10, 12)
        assert box.iou(box) == 1.0

    def test_disjoint_boxes_iou_zero(self):
        assert BoundingBox(0, 0, 4, 4).iou(BoundingBox(10, 10, 12, 12)) == 0.0

    def test_half_overlap(self):
        # 2x1 boxes sharing one column: inter 1, union 3
        a = BoundingBox(0, 0, 1, 0)
        b = BoundingBox(1, 0, 2, 0)
        assert a.iou(b) == pytest.approx(1 / 3)

    def test_center_and_containment(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 4, 4)
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert outer.contains_point(*inner.center())

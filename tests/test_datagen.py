import json

import numpy as np
import pytest

from pixtext.datagen import TaskSpec, default_task, generate, load_dataset, save_dataset, split
from pixtext.tensor import read_dct1, write_dct1


def pixel_in_box(box, r, c, h, w):
    cx, cy = (c + 0.5) / w, (r + 0.5) / h
    return box.x_min <= cx < box.x_max and box.y_min <= cy < box.y_max


class TestGenerate:
    def test_bitwise_deterministic(self, toy_spec):
        a = generate(toy_spec, 4, seed=9)
        b = generate(toy_spec, 4, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image.data, sb.image.data)
            assert np.array_equal(sa.mask, sb.mask)
            assert sa.boxes == sb.boxes

    def test_different_seeds_differ(self, toy_spec):
        a = generate(toy_spec, 1, seed=1)[0]
        b = generate(toy_spec, 1, seed=2)[0]
        assert not np.array_equal(a.image.data, b.image.data)

    def test_full_image_rectangle_degenerate_layout(self):
        spec = TaskSpec(
            k=4, height=16, width=16, min_shapes=1, max_shapes=1,
            shape_min_px=16, shape_max_px=16, shape_kinds=["rect"], seed=0,
        )
        sample = generate(spec, 1, seed=0)[0]
        cls = sample.mask[0]
        assert cls != 0
        assert np.all(sample.mask == cls)
        assert len(sample.boxes) == 1
        box = sample.boxes[0]
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (0.0, 0.0, 1.0, 1.0)
        assert box.class_id == cls

    def test_mask_box_consistency_on_many_samples(self):
        spec = default_task()
        samples = generate(spec, 200, seed=31)
        h, w = spec.height, spec.width
        for sample in samples:
            mask = sample.mask.reshape(h, w)
            by_class: dict[int, list] = {}
            for box in sample.boxes:
                by_class.setdefault(box.class_id, []).append(box)
            for r in range(h):
                for c in range(w):
                    cls = mask[r, c]
                    if cls == 0:
                        continue
                    assert any(
                        pixel_in_box(box, r, c, h, w) for box in by_class.get(cls, [])
                    ), f"pixel ({r},{c}) of class {cls} outside every class box"

    def test_box_tightness(self):
        spec = default_task()
        for sample in generate(spec, 50, seed=17):
            h, w = spec.height, spec.width
            mask = sample.mask.reshape(h, w)
            for box in sample.boxes:
                r0 = round(box.y_min * h)
                r1 = round(box.y_max * h) - 1
                c0 = round(box.x_min * w)
                c1 = round(box.x_max * w) - 1
                region = mask[r0 : r1 + 1, c0 : c1 + 1]
                assert np.any(region[0, :] == box.class_id)
                assert np.any(region[-1, :] == box.class_id)
                assert np.any(region[:, 0] == box.class_id)
                assert np.any(region[:, -1] == box.class_id)

    def test_impossible_spec_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(k=4, height=16, width=16, shape_min_px=4, shape_max_px=40)
        with pytest.raises(ValueError):
            TaskSpec(k=1)
        with pytest.raises(ValueError):
            TaskSpec(min_shapes=3, max_shapes=2)

    def test_class_signatures_table(self):
        spec = default_task()
        assert len(spec.signatures) == spec.k
        assert len(spec.class_names) == spec.k
        means = np.array([s.mean for s in spec.signatures])
        # signatures are pairwise distinct in channel space
        for i in range(spec.k):
            for j in range(i + 1, spec.k):
                assert np.linalg.norm(means[i] - means[j]) > 0.2


class TestSplit:
    def test_half_split(self):
        samples = list(range(10))
        train, eval_ = split(samples, 0.5)
        assert len(train) == 5 and len(eval_) == 5

    def test_union_and_disjointness(self, toy_spec):
        samples = generate(toy_spec, 7, seed=2)
        train, eval_ = split(samples, 0.6)
        assert len(train) + len(eval_) == 7
        ids = {id(s) for s in samples}
        assert {id(s) for s in train} | {id(s) for s in eval_} == ids
        assert not ({id(s) for s in train} & {id(s) for s in eval_})

    def test_stable_across_calls(self, toy_spec):
        samples = generate(toy_spec, 6, seed=2)
        a = split(samples, 0.5)
        b = split(samples, 0.5)
        assert [id(s) for s in a[0]] == [id(s) for s in b[0]]

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split([1, 2], 0.0)
        with pytest.raises(ValueError):
            split([1, 2], 1.0)


class TestDatasetIO:
    def test_roundtrip_bitwise(self, tmp_path, toy_spec):
        samples = generate(toy_spec, 5, seed=4)
        save_dataset(toy_spec, samples, tmp_path / "ds")
        spec_back, back = load_dataset(tmp_path / "ds")
        assert spec_back.to_dict() == toy_spec.to_dict()
        for sa, sb in zip(samples, back):
            assert np.array_equal(sa.image.data, sb.image.data)
            assert np.array_equal(sa.mask, sb.mask)
            assert sa.boxes == sb.boxes

    @pytest.mark.parametrize("name, edit, cause", [
        ("images", lambda a: a[:, :16],
         r"images\.dct1 has shape \(4, 16, 32, 3\); spec\.json needs \(n, 32, 32, 3\)"),
        ("masks", lambda a: a[:3], r"masks\.dct1 has shape \(3, 1024\); 4 images of 32x32"),
        ("masks", lambda a: a + 0.5, r"masks\.dct1 holds labels that are not integers in \[0, 8\)"),
        ("masks", lambda a: a + 8.0, r"masks\.dct1 holds labels"),
        ("masks", lambda a: a - 8.0, r"masks\.dct1 holds labels"),
        ("masks", lambda a: a * np.nan, r"masks\.dct1 holds labels"),
        ("boxes", lambda b: b[:3], r"boxes\.json has 3 entries for 4 images"),
        ("boxes", lambda b: b[:1] + [[{"class_id": 99, "box": [0, 0, 0.5, 0.5]}]] + b[2:],
         r"boxes\.json image 1 has class_id 99; classes are integers in \[0, 8\)"),
        ("boxes", lambda b: b[:3] + [b[3] + [{"class_id": -1, "box": [0, 0, 0.5, 0.5]}]],
         r"boxes\.json image 3 has class_id -1"),
        ("boxes", lambda b: [[{"class_id": 2.5, "box": [0, 0, 0.5, 0.5]}]] + b[1:],
         r"boxes\.json image 0 has class_id 2\.5"),
    ], ids=["image_size", "mask_count", "fractional_label", "label_at_k", "negative_label",
            "nan_label", "box_count", "box_class_at_99", "negative_box_class",
            "fractional_box_class"])
    def test_inconsistent_files_named(self, tmp_path, toy_spec, name, edit, cause):
        save_dataset(toy_spec, generate(toy_spec, 4, seed=4), tmp_path)
        if name == "boxes":
            path = tmp_path / "boxes.json"
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            path = tmp_path / f"{name}.dct1"
            write_dct1(path, edit(read_dct1(path)))
        with pytest.raises(ValueError, match=cause):
            load_dataset(tmp_path)

    def test_unreadable_file_named(self, tmp_path, toy_spec):
        save_dataset(toy_spec, generate(toy_spec, 2, seed=4), tmp_path)
        (tmp_path / "masks.dct1").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match=r"masks\.dct1: bad magic b'NOPE'"):
            load_dataset(tmp_path)

    def test_directory_layout(self, tmp_path, toy_spec):
        samples = generate(toy_spec, 2, seed=4)
        save_dataset(toy_spec, samples, tmp_path / "ds")
        for name in ("spec.json", "images.dct1", "masks.dct1", "boxes.json"):
            assert (tmp_path / "ds" / name).exists()

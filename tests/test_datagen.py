import hashlib
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Hashes of (images, masks, boxes) and of every file save_dataset writes,
# taken from the generator that recomputed each class pattern per shape.
GOLDEN = {
    "default": (
        lambda: (default_task(), generate(default_task(), 6, seed=1)),
        ("568f1cb2d0549a19926266490163a44c687fcf8aff7b55b8ee74ab8422abdfc1",
         "23282012575595e68be9a024c1719454de66305e5a1da93667e2c533dd24adcd",
         "bf6431355a12a9db97b8ab4587d020b40ed0231a003fe419f9482744aa97a9a8"),
        {"boxes.json": "2a4e8c98c2f526884f52a48f0a25bbd6844b74746274b44a9541193094cb8c3f",
         "images.dct1": "2418b9e828a02631aba67f7a4b964a80a0d63cab5ea73d740c7e568903b81a07",
         "masks.dct1": "8a7144d57b39b3c57fe8f3efa5a0db01f961372b8b1fc9a92bfc8ac6cbdc6f55",
         "spec.json": "123fa74e3051aa1d70b16791882d56f0bf322e4a8071b1b950a652d1dfb25a52"},
    ),
    "64x64": (  # draws rects and discs
        lambda: (spec := TaskSpec(height=64, width=64, shape_min_px=12, shape_max_px=32),
                 generate(spec, 6, seed=2)),
        ("83126dcfa76141ba0af9bd4bb6023459b0d732eff69ac73835a33bf4acdbf1f4",
         "14f4dad6bb5c01797336125c0447e8d008ceb0bdbde0cc47a8da3beb4deb05be",
         "f8ba22785009ac4c03aea97d00fc9e5e96ec29cf3f18227963fc914d697e030c"),
        {"boxes.json": "a646fa5985dc706c0b390e2bd98d28e668c1bce4a0b8bdf011cf2c07d3f7436a",
         "images.dct1": "0eb6126aad0474dbc7266f89eab2e6b8944f7e3f22c5c8d97f8a7f610696e73c",
         "masks.dct1": "43c6d527297eb6ce2b3c890a4e380b35ebdc2c1fc964e12b8c34fbedd392c3c4",
         "spec.json": "4d3a0ff348006ad80f2f886ba603f8012eb8ee0e3010e967608431b7907501ea"},
    ),
}


class TestGolden:
    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_samples_pinned(self, case):
        make, expected, _ = GOLDEN[case]
        _, samples = make()
        images = sha256(b"".join(s.image.data.tobytes() for s in samples))
        masks = sha256(b"".join(s.mask.astype("<i8").tobytes() for s in samples))
        boxes = sha256(b"".join(
            repr([(b.class_id, float(b.x_min), float(b.y_min), float(b.x_max), float(b.y_max))
                  for b in s.boxes]).encode()
            for s in samples))
        assert (images, masks, boxes) == expected

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_dataset_files_pinned(self, tmp_path, case):
        make, _, expected = GOLDEN[case]
        save_dataset(*make(), tmp_path)
        assert {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()} == expected


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

    @pytest.mark.parametrize("fraction", ["0.5", True, float("nan"), None])
    def test_fraction_checked_not_cast(self, fraction):
        with pytest.raises(ValueError, match=r"^train_fraction must be a finite number in "
                                             rf"\(0, 1\), got {fraction!r}$"):
            split([1, 2, 3, 4], fraction)

    @pytest.mark.parametrize("n, fraction", [(2, 0.4), (1, 0.5), (0, 0.5), (9, 0.1)])
    def test_empty_train_side_named(self, n, fraction):
        with pytest.raises(ValueError, match=rf"train fraction {fraction} of n={n} samples "
                                             "leaves the train side empty"):
            split(list(range(n)), fraction)

    def test_smallest_split(self):
        assert split([1, 2], 0.5) == ([1], [2])


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
        ("images", lambda a: np.where(a == a[2].max(), np.nan, a),
         r"^images\.dct1 image 2 has non-finite pixel values$"),
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
        ("boxes", lambda b: [[{"class_id": True, "box": [0, 0, 0.5, 0.5]}]] + b[1:],
         r"boxes\.json image 0 has class_id True; classes are integers"),
        ("boxes", lambda b: [[{"class_id": 1}]] + b[1:],
         r"boxes\.json image 0 has entry \{'class_id': 1\}; an entry has exactly the keys "
         r"'class_id' and 'box'"),
        ("boxes", lambda b: [[{"class_id": 1, "box": [0, 0, 0.5]}]] + b[1:],
         r"boxes\.json image 0 box must be a list of 4 entries, got \[0, 0, 0\.5\]"),
        ("boxes", lambda b: b[:2] + [[{"class_id": 1, "box": [0, 0, "a", 0.5]}]] + b[3:],
         r"boxes\.json image 2 box\[2\] must be a finite number .*, got 'a'"),
        ("boxes", lambda b: b[:1] + [{"class_id": 1, "box": [0, 0, 0.5, 0.5]}] + b[2:],
         r"boxes\.json image 1 is \{'class_id': 1, .*\}, not a list of boxes"),
        ("boxes", lambda b: b[:2] + [b[2] + [{"class_id": 1, "box": [0.5, 0, 0.5, 1]}]] + b[3:],
         r"^boxes\.json image 2 has box \[0\.5, 0, 0\.5, 1\]: "
         r"degenerate box \(0\.5, 0, 0\.5, 1\)$"),
        ("boxes", lambda b: [[{"class_id": 1, "box": [0, 0, 1.5, 0.5]}]] + b[1:],
         r"^boxes\.json image 0 has box \[0, 0, 1\.5, 0\.5\]: box coordinates must be "
         r"normalized to \[0, 1\]$"),
    ], ids=["image_size", "nan_pixel", "mask_count", "fractional_label", "label_at_k", "negative_label",
            "nan_label", "box_count", "box_class_at_99", "negative_box_class",
            "fractional_box_class", "bool_box_class", "entry_without_box", "box_of_three",
            "box_coordinate_str", "box_list_is_an_object", "degenerate_box", "box_outside_image"])
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

    def test_empty_sample_list_writes_nothing(self, tmp_path, toy_spec):
        out = tmp_path / "ds"
        with pytest.raises(ValueError, match="no samples to save"):
            save_dataset(toy_spec, generate(toy_spec, 0), out)
        assert not out.exists()

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

import numpy as np
import pytest

from pixtext import datagen


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def micro_spec():
    return datagen.TaskSpec(
        k=2, height=8, width=8, min_shapes=1, max_shapes=1,
        shape_min_px=3, shape_max_px=5, seed=3,
    )


@pytest.fixture(scope="session")
def micro_sample(micro_spec):
    return datagen.generate(micro_spec, 1, seed=3)[0]


@pytest.fixture(scope="session")
def toy_spec():
    return datagen.default_task()


@pytest.fixture(scope="session")
def toy_samples(toy_spec):
    return datagen.generate(toy_spec, 12, seed=5)

"""One config -> model geometry mapping for training, serving and packaging.

A config may leave ``num_classes`` or ``image_size`` unset (``None``), in
which case the dataset's own class count or resolution applies.  Training,
checkpoint serving, ``repro export`` and package loading must all resolve
the same geometry from such a config, or a trained checkpoint cannot be
served or packed.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, build_loaders, run_experiment
from repro.experiments.runner import build_experiment_model, spec_from_config
from repro.serve import ModelRegistry
from repro.sparse.packaging import write_package
from repro.train.checkpoint import restore_manager

TINY = dict(
    model="convnet", method="ndsnn", epochs=1, timesteps=2,
    update_frequency=1, initial_sparsity=0.5,
)

CASES = {
    # num_classes=None: cifar100's 100 classes.
    "cifar100-default-classes": ExperimentConfig(
        dataset="cifar100", num_classes=None, image_size=8,
        train_samples=100, test_samples=100, batch_size=50, **TINY,
    ),
    # image_size=None: tiny_imagenet's 64 px.
    "tiny_imagenet-default-size": ExperimentConfig(
        dataset="tiny_imagenet", num_classes=10, image_size=None,
        train_samples=16, test_samples=16, batch_size=16, **TINY,
    ),
}


def _shapes(model):
    return {name: p.data.shape for name, p in model.named_parameters()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_serving_and_package_share_geometry(case, tmp_path):
    config = CASES[case]
    checkpoint = tmp_path / "checkpoint"
    run_experiment(config, checkpoint_path=checkpoint)
    _, test_loader, train_set = build_loaders(config)

    registry = ModelRegistry().load_checkpoint("checkpoint", config, checkpoint)
    served = registry.session("checkpoint")

    model = build_experiment_model(config)
    manager = restore_manager(checkpoint, model, config.execution)
    model.eval()
    package = tmp_path / "model.reprom"
    write_package(package, model, manager, spec_from_config(config), precision="f32")
    registry.load_package("package", package)
    packed = registry.session("package")

    trained = _shapes(build_experiment_model(config, train_set))
    assert trained["classifier.weight"][0] == train_set.num_classes
    assert _shapes(served.model) == trained
    assert _shapes(model) == trained
    assert _shapes(packed.model) == trained

    images = np.concatenate([batch.data for batch, _ in test_loader])
    assert images.shape[-1] == train_set.spec.image_size
    np.testing.assert_array_equal(
        served.predict(images).argmax(axis=1), packed.predict(images).argmax(axis=1)
    )

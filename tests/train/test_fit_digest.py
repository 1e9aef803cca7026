"""Fit digest: the bytes a micro NDSNN fit leaves behind, pinned by sha256.

One epoch of NDSNN on 64 samples (T=3, width 0.125, 16x16 synthetic
CIFAR-10, a drop/grow round every step) through every conv route the
training step has: VGG-16 under dense, CSR and auto execution and
ResNet-19 under dense and CSR, each with LIF and with PLIF neurons.  The
digest covers every parameter, buffer (batch-norm running statistics)
and mask, plus the eval-mode logits of a fixed batch, so a change to the
lowering, the conv/pool backwards, batch norm or the neuron step that
moves a single bit anywhere in the fit fails here.

``auto`` runs without calibration, on the static density cutoff, so its
routes (and so its bits) do not depend on a timing.  The digests were
recorded before the training hot path was rewritten as fused nodes and
a row-layout scatter; they depend on the float32 kernels of the NumPy,
SciPy and BLAS build, like ``tests/sparse/golden_masks.json``.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import build_loaders, build_method, iterations_per_epoch, scaled_config
from repro.experiments.runner import spec_from_config
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse.packaging import build_spec_model
from repro.tensor import Tensor, no_grad
from repro.train import Trainer

DIGESTS = {
    ("vgg16", "dense", "lif"):
        "cb7bc9b5ab82d171e50e3d299c44d64a4d701dd355c83c6702acbc0631a7c694",
    ("vgg16", "dense", "plif"):
        "bcee2970c74ba8b96857467b67dc3af57abfd9fe855c7418f7cb3db243636ed0",
    ("vgg16", "csr", "lif"):
        "bb2cc462667946ae4e2165287bcf15070375a2ee68e4e3dd93c33df6ebabea42",
    ("vgg16", "csr", "plif"):
        "97176cbcb78fc1c1aa4daa8764a7ca11d016aff28c0362fe91bd2a294b377282",
    ("vgg16", "auto", "lif"):
        "72fef0ee39d77af0b408f73108a295ba7c52a3d7eee5eb3c9ed88c82c9392985",
    ("vgg16", "auto", "plif"):
        "4b6a571a45678304fed57f59d7f562b9a002af89038112fddfd71bf95f7881e6",
    ("resnet19", "dense", "lif"):
        "7ca1d3fe95aefb478ced8b9534c411af842393f2e3ee99a248b9e3d687f24fb2",
    ("resnet19", "dense", "plif"):
        "a770379618ba81f9687d85df98d4a3139cc24daffc7758a3e30a0377cae23118",
    ("resnet19", "csr", "lif"):
        "41a853b9bbc0b3dfea7e17411d57c76d3b239b8695a97fa0585dc50012af4650",
    ("resnet19", "csr", "plif"):
        "ba320a5a3d7a798dc8b8ae825a59a797cc7622cb3f9e9a88fae596409036217e",
}


def fit_digest(model_name: str, execution: str, neuron: str) -> str:
    config = scaled_config(
        "cifar10", model_name, "ndsnn", 0.95,
        initial_sparsity=0.5, epochs=1, train_samples=64, test_samples=16,
        timesteps=3, batch_size=16, width_mult=0.125, image_size=16,
        update_frequency=1, execution=execution, seed=3,
    )
    train_loader, test_loader, _ = build_loaders(config)
    spec = spec_from_config(config)
    spec["kwargs"]["neuron_kind"] = neuron
    model = build_spec_model(spec)
    optimizer = SGD(model.parameters(), lr=config.learning_rate,
                    momentum=config.momentum, weight_decay=config.weight_decay)
    method = build_method(config, iterations_per_epoch(config) * config.epochs)
    trainer = Trainer(model, method, optimizer, train_loader, test_loader=test_loader,
                      scheduler=CosineAnnealingLR(optimizer, t_max=1))
    method.set_execution(execution)
    history = trainer.fit(config.epochs).history
    assert method.history, "the fit ran no drop/grow round"

    digest = hashlib.sha256()
    for name, parameter in model.named_parameters():
        digest.update(name.encode() + parameter.data.tobytes())
    for name, buffer in model.named_buffers():
        digest.update(name.encode() + np.asarray(buffer).tobytes())
    for name, state in method.masks.states.items():
        digest.update(name.encode() + state.mask.tobytes())
    images = np.random.default_rng(0).standard_normal((4, 3, 16, 16)).astype(np.float32)
    model.eval()
    with no_grad():
        digest.update(model(Tensor(images)).data.tobytes())
    digest.update(repr([stats.as_dict() for stats in history]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("model_name,execution,neuron", sorted(DIGESTS))
def test_fit_digest(model_name, execution, neuron):
    assert fit_digest(model_name, execution, neuron) == DIGESTS[(model_name, execution, neuron)]


if __name__ == "__main__":
    for key in DIGESTS:
        print(f"    {key!r}: {fit_digest(*key)!r},")

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
first recorded before the training hot path was rewritten as fused nodes
and a row-layout scatter, and held through it; they were re-recorded
once, on purpose, when batch norm became the closed-form node (its
sums add in another order).  They depend on the float32 kernels of the
NumPy, SciPy and BLAS build, like ``tests/sparse/golden_masks.json``.
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
        "c47e5d5519dd3307803c836889e222ce6e0ac6068c959f9396c4f9c8fb120eec",
    ("vgg16", "dense", "plif"):
        "43c926c4e2ecf0ae142e7a5524182f9ccdf542892ef286b28a391f352da29bc9",
    ("vgg16", "csr", "lif"):
        "71dbf6b1ac205e91a398aba0cc448ec28bbe0ecf11eca1fc95ffce1a16bf2069",
    ("vgg16", "csr", "plif"):
        "571ca582763c9b73bd0d183ff6ca88088023c5581cd036a100cf7eda3e96e25f",
    ("vgg16", "auto", "lif"):
        "5cfee3d95b8665ab1623ee751908bbff493f533e08a18e82dd073a1f1b388aa1",
    ("vgg16", "auto", "plif"):
        "5d468118b4d94ef815ea79f36ba4c37ffd0622d769d14aacf740d62f0c655281",
    ("resnet19", "dense", "lif"):
        "f3646cb422bd73e0f537d7d70a33db6a83ccde3c29fb625772e8af8457578dba",
    ("resnet19", "dense", "plif"):
        "ff7f9365ac1d69c1afc5d03a5188bb09f79966c0bf7a86cbf635646f50a57513",
    ("resnet19", "csr", "lif"):
        "0750a18c84e3e23ca5c34eb0472504ba8c72dae1d453314d67c2c53a9a027834",
    ("resnet19", "csr", "plif"):
        "0c37eddb1c22c51ce988d604771a88dd517c4d634004fc71caf3167eae3d31ef",
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


@pytest.mark.smoke
@pytest.mark.parametrize("model_name,execution,neuron", sorted(DIGESTS))
def test_fit_digest(model_name, execution, neuron):
    assert fit_digest(model_name, execution, neuron) == DIGESTS[(model_name, execution, neuron)]


if __name__ == "__main__":
    for key in DIGESTS:
        print(f"    {key!r}: {fit_digest(*key)!r},")

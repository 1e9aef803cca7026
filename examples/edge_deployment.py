"""Edge-deployment study: serve a sparse checkpoint through the real
inference stack.

This walks the deployment path the paper motivates (SNNs on edge /
neuromorphic devices), using the same code `repro serve` runs:

1. train a spiking convnet sparse with NDSNN and checkpoint it,
2. load the checkpoint through the model registry into an
   **inference-frozen** session — masks applied, CSR values gathered
   into read-only buffers, every mutation path raising,
3. verify frozen-CSR serving predicts bit-identically to the masked
   dense model, and report the per-layer dispatch and §III-D storage
   accounting,
4. drive a request burst through the supervised batched server and
   report latency percentiles,
5. show the freeze guard catching an out-of-band weight update (an
   OTA update must thaw, patch, re-freeze).

Run:  python examples/edge_deployment.py [--fast]
"""

import argparse
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.data import DataLoader, make_dataset
from repro.experiments.tables import format_table
from repro.optim import SGD, CosineAnnealingLR
from repro.serve import InferenceServer, InferenceSession, ModelRegistry
from repro.snn.models import SpikingConvNet
from repro.sparse import NDSNN
from repro.train import Trainer
from repro.train.checkpoint import restore_manager, save_checkpoint


def train_checkpoint(path, seed, epochs, train_samples, test_samples):
    train_set = make_dataset("cifar10", train=True, num_samples=train_samples,
                             image_size=16, seed=seed)
    test_set = make_dataset("cifar10", train=False, num_samples=test_samples,
                            image_size=16, seed=seed)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True,
                              rng=np.random.default_rng(seed))
    test_loader = DataLoader(test_set, batch_size=32, shuffle=False)

    model = SpikingConvNet(num_classes=10, image_size=16, channels=(16, 32),
                           timesteps=4, rng=np.random.default_rng(seed))
    method = NDSNN(initial_sparsity=0.4, final_sparsity=0.9,
                   total_iterations=len(train_loader) * epochs,
                   update_frequency=8, rng=np.random.default_rng(seed + 1))
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    trainer = Trainer(model, method, optimizer, train_loader,
                      test_loader=test_loader,
                      scheduler=CosineAnnealingLR(optimizer, t_max=epochs))
    print("training sparse model ...")
    trainer.fit(epochs, verbose=True)
    save_checkpoint(path, model, method)
    return test_loader


def frozen_session(path, execution, seed):
    """What ``ModelRegistry.load_checkpoint`` does, for a hand-built model."""
    model = SpikingConvNet(num_classes=10, image_size=16, channels=(16, 32),
                           timesteps=4, rng=np.random.default_rng(seed))
    return model, restore_manager(path, model, execution)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="tiny workload (the smoke-test profile)")
    args = parser.parse_args(argv)
    seed = 0
    epochs, train_samples, test_samples = (1, 64, 32) if args.fast else (8, 256, 128)

    checkpoint = Path(tempfile.mkdtemp(prefix="repro-edge-")) / "ckpt"
    test_loader = train_checkpoint(
        checkpoint, seed, epochs, train_samples, test_samples
    )

    # --- registry -> frozen serving sessions ---------------------------
    registry = ModelRegistry()
    registry.register("edge-csr",
                      lambda: frozen_session(checkpoint, "csr", seed))
    registry.register("edge-dense",
                      lambda: frozen_session(checkpoint, "dense", seed))
    csr = registry.session("edge-csr", max_batch=8)
    dense = registry.session("edge-dense", max_batch=8)
    assert csr.manager.frozen and dense.manager.frozen

    images = np.concatenate([batch.data for batch, _ in test_loader])
    labels = np.concatenate([y for _, y in test_loader])
    csr_pred = csr.predict(images)
    dense_pred = dense.predict(images)
    assert np.array_equal(csr_pred, dense_pred), "frozen CSR must be lossless"
    accuracy = float((csr_pred.argmax(axis=1) == labels).mean())

    print()
    print(format_table(
        ["layer", "density", "route", "csr_KB", "dense_KB"],
        [
            (entry["layer"], entry["density"], entry["route"],
             entry["csr_bits"] / 8 / 1024, entry["dense_bits"] / 8 / 1024)
            for entry in csr.storage_report()["layers"]
        ],
        title=f"Frozen serving package (test accuracy {accuracy:.3f})",
    ))

    # --- batched serving under concurrent clients ----------------------
    burst = images[: 24 if args.fast else 96]
    latencies = []
    lock = threading.Lock()

    def client(samples):
        for sample in samples:
            start = time.perf_counter()
            server.predict(sample, timeout=60.0)
            with lock:
                latencies.append(time.perf_counter() - start)

    with InferenceServer(lambda: registry.session("edge-csr"),
                         workers=2, max_batch=8) as server:
        threads = [threading.Thread(target=client, args=(chunk,))
                   for chunk in np.array_split(burst, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
    seconds = np.asarray(latencies)
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ("requests", len(seconds)),
            ("p50 latency (ms)", float(np.percentile(seconds, 50)) * 1e3),
            ("p99 latency (ms)", float(np.percentile(seconds, 99)) * 1e3),
            ("batches", stats["batches"]),
            ("largest batch", stats["largest_batch"]),
            ("worker restarts", stats["restarts"]),
        ],
        title="Batched server burst (2 workers, 4 clients)",
    ))

    # --- the freeze guard ----------------------------------------------
    snapshot = csr.model.state_dict()
    try:
        csr.model.load_state_dict(snapshot)
        raise AssertionError("frozen session accepted a weight update")
    except RuntimeError as error:
        print()
        print("OTA update against the live model correctly refused:")
        print(f"  {error}")
    print("thaw -> patch -> freeze is the supported update path.")
    csr.manager.thaw()
    csr.model.load_state_dict(snapshot)
    csr.manager.freeze()
    assert np.array_equal(csr.predict(images[:8]), csr_pred[:8])


if __name__ == "__main__":
    main()

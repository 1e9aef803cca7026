"""train_ndsnn: NDSNN sparse training of VGG-16 (closed loop, one batch job).

The paper's workload at the repository's bench-profile CPU scale
(``benchmarks/_profiles.py`` QUICK_PROFILE: width 0.125, 16x16
synthetic CIFAR-10, T=2, batch 16), with the density ramped from 40% to
1% under ``--execution auto``.  It is the only workload that runs
autograd backward, the optimizer's CSR write-through and drop/grow
rounds; as the ramp crosses the pinned dispatch cutoffs, layers move
from the dense to the CSR route mid-run.

A run sets up and trains the same job several times in this process.
The seed is the same each time, so every loss trace must match the
first bit for bit, and each epoch and step is timed as the fastest of
its repeats; set-up time is the median set-up.  Dispatch routes
are pinned: ``REPRO_CALIBRATION_DIR`` points at a per-run copy of the
committed cache in ``calibration/``, while set-up still times
``measure_crossover`` over the same shapes so the calibration cost a
first run pays stays counted.  ``make_reference.py`` regenerates that
cache and ``reference/train_ndsnn.json``; doing so changes what the
benchmark measures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import time

import numpy as np

from common import (
    Traced,
    Tracer,
    host_probe,
    pct,
    peak_rss_mb,
    rate_at_reference,
    time_at_reference,
)
from repro.experiments.config import scaled_config
from repro.experiments.runner import (
    build_experiment_model,
    build_loaders,
    build_method,
    iterations_per_epoch,
)
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse.dispatch import (
    CALIBRATION_ENV,
    clear_process_cache,
    matrix_shape,
    measure_crossover,
)
from repro.train import Trainer, TrainerCallback

HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATION_DIR = os.path.join(HERE, "calibration")
REFERENCE_PATH = os.path.join(HERE, "reference", "train_ndsnn.json")
#: Seconds of ``--seconds`` per fit; the job itself has a fixed size.
SECONDS_PER_FIT = 3.0
PROBES_PER_FIT = 3


def job_config(job: dict, seed: int):
    """The training job of ``workloads.json`` as an ExperimentConfig."""
    return scaled_config(
        job["dataset"], job["model"], "ndsnn", job["final_sparsity"],
        initial_sparsity=job["initial_sparsity"],
        epochs=job["epochs"],
        train_samples=job["train_samples"],
        test_samples=job["test_samples"],
        timesteps=job["timesteps"],
        batch_size=job["batch_size"],
        width_mult=job["width_mult"],
        image_size=job["image_size"],
        update_frequency=job["update_frequency"],
        learning_rate=job["learning_rate"],
        execution=job["execution"],
        seed=seed,
    )


def pin_calibration(source: str, run_dir: str) -> None:
    """Route ``auto`` dispatch through a per-run copy of a calibration cache."""
    target = os.path.join(run_dir, "calibration")
    shutil.copytree(source, target)
    os.environ[CALIBRATION_ENV] = target
    clear_process_cache()


class Job:
    """One set-up of the job: data, model, method bind and calibration.

    The construction order is ``run_experiment``'s; on top of it, set-up
    times ``measure_crossover`` over the masked-layer shapes.
    """

    def __init__(self, config) -> None:
        start = time.perf_counter()
        train_loader, test_loader, train_set = build_loaders(config)
        model = build_experiment_model(config, train_set)
        optimizer = SGD(
            model.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        scheduler = CosineAnnealingLR(optimizer, t_max=max(1, config.epochs))
        self.method = build_method(config, iterations_per_epoch(config) * config.epochs)
        self.trainer = Trainer(
            model, self.method, optimizer, train_loader,
            test_loader=test_loader, scheduler=scheduler,
        )
        self.method.set_execution(config.execution, calibrate=True)
        calibrate_start = time.perf_counter()
        for rows, cols in self.shapes():
            measure_crossover(rows, cols)
        end = time.perf_counter()
        self.calibrate_s = end - calibrate_start
        self.setup_s = end - start

    def shapes(self):
        states = self.method.masks.states.values()
        return sorted({matrix_shape(state.shape) for state in states})


class StepClock(TrainerCallback):
    """Wall time of every epoch and of every optimizer step.

    A step runs from the end of the previous step (or the start of its
    epoch) to the end of the method's mask re-application, so it
    includes its data fetch; an epoch includes its evaluation.
    """

    def __init__(self) -> None:
        self.steps = []
        self.epochs = []
        self._epoch_start = self._last = 0.0

    def on_epoch_start(self, trainer, epoch: int) -> None:
        self._epoch_start = self._last = time.perf_counter()

    def on_step_end(self, trainer, iteration: int) -> None:
        now = time.perf_counter()
        self.steps.append(now - self._last)
        self._last = now

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        self.epochs.append(time.perf_counter() - self._epoch_start)


def instrument(tracer: Tracer, job: Job) -> None:
    """Spans around every layer call the trainer makes on this job."""
    trainer, method = job.trainer, job.method
    model = trainer.model
    tracer.wrap(trainer, "fit", "train.fit")
    trainer.train_loader = Traced(tracer, trainer.train_loader, "data.fetch", per_item=True)
    # Evaluation forwards stay inside the train.eval span: only
    # training-mode forwards are recorded as snn.forward.
    trainer.test_loader = Traced(tracer, trainer.test_loader, "train.eval", per_item=False)
    tracer.wrap(model, "forward", "snn.forward", when=lambda: model.training)
    tracer.wrap(trainer.optimizer, "step", "optim.step")
    tracer.wrap(method, "update_topology", "sparse.round")
    tracer.wrap(method, "after_step", "sparse.mask")
    loss_fn, after_backward = trainer.loss_fn, method.after_backward
    backward = []

    def traced_loss(logits, labels):
        with tracer.span("snn.forward"):
            loss = loss_fn(logits, labels)
        # zero_grad and loss.backward() run from here until the trainer
        # reaches the method's after_backward hook.
        backward.append(tracer.begin("tensor.backward"))
        return loss

    def traced_after_backward(iteration):
        tracer.end(backward.pop())
        with tracer.span("sparse.mask"):
            after_backward(iteration)

    trainer.loss_fn = traced_loss
    method.after_backward = traced_after_backward


def check_fit(result, label, job, history, reference, first_losses) -> bool:
    """Losses, routes and final densities of one fit."""
    method = job.method
    masks = method.masks
    losses = [stats.train_loss for stats in history]
    ok = result.check(f"{label}: every loss finite",
                      all(math.isfinite(loss) for loss in losses), str(losses))
    band = reference["loss"]
    for epoch, loss in enumerate(losses):
        mean, tolerance = band["mean"][epoch], band["tolerance"][epoch]
        ok &= result.check(
            f"{label}: epoch {epoch} loss matches the reference",
            abs(loss - mean) <= tolerance,
            f"{loss:.4f} vs {mean:.4f} +- {tolerance:.4f}",
        )
    shares = [stats.csr_dispatch_share for stats in history]
    ok &= result.check(
        f"{label}: csr_dispatch_share follows the pinned route plan",
        np.allclose(shares, reference["csr_share"], rtol=0.0, atol=1e-9),
        f"{shares} vs {reference['csr_share']}",
    )
    cutoffs = masks.calibration.to_meta()
    ok &= result.check(f"{label}: dispatch cutoffs equal the pinned cache's",
                       cutoffs == reference["cutoffs"], f"{cutoffs} vs {reference['cutoffs']}")
    targets = method.ramp.sparsity_at(method.history[-1].iteration)
    for name in masks.states:
        target = max(1, int(round((1.0 - targets[name]) * masks.layer_size(name))))
        active = masks.nonzero_count(name)
        ok &= result.check(
            f"{label}: {name} final density equals the NDSNN target",
            active == target == reference["final_active"][name],
            f"{active} active, target {target}, "
            f"reference {reference['final_active'][name]}",
        )
    if first_losses is not None:
        ok &= result.check(f"{label}: loss trace bit-identical to fit 0",
                           losses == first_losses, f"{losses} vs {first_losses}")
    return ok


def run(spec: dict, seed: int, seconds: float, trace: bool, run_dir: str, result):
    pin_calibration(CALIBRATION_DIR, run_dir)
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)
    config = job_config(spec["job"], seed)
    steps_per_fit = iterations_per_epoch(config) * config.epochs
    fits = max(2, int(seconds // SECONDS_PER_FIT))
    tracer = Tracer() if trace else None
    setup_s, calibrate_s, epoch_s, step_s, probes = [], [], [], [], []
    first_losses = None
    for index in range(fits):
        job = None  # one job alive at a time, so peak_rss_mb is one researcher's
        gc.collect()
        # A fit is one long unit, so probe a few times per fit to catch
        # the host's fastest moments about as often as the fits do.
        probes.extend(host_probe() for _ in range(PROBES_PER_FIT))
        job = Job(config)
        setup_s.append(job.setup_s)
        calibrate_s.append(job.calibrate_s)
        clock = StepClock()
        job.trainer.add_callback(clock)
        traced = trace and index == fits - 1
        if traced:
            instrument(tracer, job)
        start = time.perf_counter()
        history = job.trainer.fit(config.epochs).history
        fit_s = time.perf_counter() - start
        ok = check_fit(result, f"fit {index}", job, history, reference, first_losses)
        result.ops(steps_per_fit, 0 if ok else steps_per_fit)
        if first_losses is None:
            first_losses = [stats.train_loss for stats in history]
        if traced:
            traced_fit_s = fit_s
            csr_share = float(np.mean([stats.csr_dispatch_share for stats in history]))
            rounds = len(job.method.history)
        else:
            epoch_s.append(clock.epochs)
            step_s.append(clock.steps)

    # Every fit repeats identical work, so each epoch and each step is
    # timed as the fastest of its repeats: a shared host's CPU speed swings
    # by up to 2x over seconds to minutes (see workloads.json).
    samples = config.epochs * config.train_samples
    best_fit_s = float(np.min(epoch_s, axis=0).sum())
    step_ms = np.min(step_s, axis=0) * 1e3
    print(f"fits {fits}, {steps_per_fit} steps each; samples/s per fit "
          + ", ".join(f"{samples / sum(epochs):.1f}" for epochs in epoch_s)
          + f"; best epochs {samples / best_fit_s:.1f}")
    print(f"best step latency: p50 {pct(step_ms, 50):.3f} ms  p90 {pct(step_ms, 90):.3f} ms  "
          f"p99 {pct(step_ms, 99):.3f} ms over {step_ms.size} steps")
    print(f"set-up median {np.median(setup_s):.4f} s; host probe fastest "
          f"{min(probes) * 1e3:.2f} ms, median {np.median(probes) * 1e3:.2f} ms")
    result.metric("setup_s", time_at_reference(setup_s, probes))
    result.metric("throughput_per_s", rate_at_reference(samples / best_fit_s, probes))
    result.metric("peak_rss_mb", peak_rss_mb())
    if not trace:
        return None
    result.metric("train.step_p50_ms", pct(step_ms, 50))
    result.metric("train.step_p90_ms", pct(step_ms, 90))

    totals = tracer.totals()

    def self_s(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    fit_self, fit_inclusive, _ = totals["train.fit"]
    attributed = sum(row[0] for row in totals.values())
    result.check("traced: self times add up to the fit's wall time",
                 abs(attributed - fit_inclusive) <= 1e-6 * max(1.0, fit_inclusive),
                 f"{attributed:.6f} s vs {fit_inclusive:.6f} s")
    print(f"traced fit: wall {fit_inclusive:.4f} s; self time by layer:")
    tracer.report()
    result.metric("data.fetch_ms", self_s("data.fetch") / steps_per_fit * 1e3)
    result.metric("snn.forward_ms", self_s("snn.forward") / steps_per_fit * 1e3)
    result.metric("tensor.backward_ms", self_s("tensor.backward") / steps_per_fit * 1e3)
    result.metric("optim.step_ms", self_s("optim.step") / steps_per_fit * 1e3)
    result.metric("sparse.mask_ms", self_s("sparse.mask") / steps_per_fit * 1e3)
    result.metric("sparse.round_ms", self_s("sparse.round") / max(1, rounds) * 1e3)
    result.metric("sparse.rounds", rounds)
    result.metric("sparse.csr_share", csr_share)
    result.metric("dispatch.calibrate_s", np.median(calibrate_s))
    result.metric("train.eval_s", self_s("train.eval") / config.epochs)
    result.metric("trace.wall_s", fit_inclusive)
    result.metric("trace.unattributed_s", fit_self)
    result.metric("trace.spans", len(tracer.spans))
    untraced_fit_s = float(np.median([sum(epochs) for epochs in epoch_s]))
    result.metric("trace.overhead_pct", (traced_fit_s - untraced_fit_s) / untraced_fit_s * 100.0)
    return tracer

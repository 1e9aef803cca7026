"""Training efficiency analysis: reproduce the paper's Fig. 5 + §III-D
story on one workload.

Trains Dense, LTH and NDSNN, tracks spike rates and per-epoch density,
then reports:

* the normalized training cost (spike-rate x density, §IV-C),
* the training memory footprint over time (§III-D),
* inference deployment sizes on the platforms the paper cites
  (Loihi 8-bit, HICANN 4-bit, FPGA 4-16 bit).

Run:  python examples/training_cost_analysis.py
"""

from repro.experiments import build_experiment_model, run_experiment, scaled_config
from repro.experiments.tables import ascii_plot, format_table
from repro.sparse import sparsifiable_parameters
from repro.train import (
    PLATFORM_WEIGHT_BITS,
    average_training_footprint_bits,
    inference_footprint_bits,
    relative_training_cost,
)


def main() -> None:
    sparsity = 0.95
    base = dict(
        epochs=6, train_samples=192, test_samples=96,
        timesteps=2, image_size=16, update_frequency=8, lth_rounds=2,
    )

    outcomes = {}
    for method in ("dense", "lth", "ndsnn"):
        print(f"training {method} ...")
        outcomes[method] = run_experiment(
            scaled_config("cifar10", "vgg16", method, sparsity, **base)
        )

    # --- Fig. 5: normalized training cost --------------------------------
    dense_rates = outcomes["dense"].spike_rates
    rows = []
    for method, outcome in outcomes.items():
        cost = relative_training_cost(
            outcome.spike_rates, outcome.densities, dense_rates, method=method
        )
        rows.append((method, cost.percent_of_dense, len(outcome.history)))
    print()
    print(format_table(
        ["method", "training_cost_%dense", "epochs_paid"],
        rows,
        title=f"Fig. 5 style: normalized training cost @ {sparsity:.0%} final sparsity",
    ))

    # --- Fig. 1: sparsity-over-training curves ---------------------------
    print()
    print(ascii_plot(
        {method: outcome.sparsities for method, outcome in outcomes.items()},
        title="Training sparsity per epoch (LTH concatenates its rounds)",
    ))

    # --- §III-D: memory footprint over the run ---------------------------
    config = scaled_config("cifar10", "vgg16", "dense", sparsity, **base)
    model = build_experiment_model(config)
    total_weights = sum(p.size for _, p in sparsifiable_parameters(model))
    print()
    memory_rows = []
    for method, outcome in outcomes.items():
        bits = average_training_footprint_bits(
            total_weights, outcome.sparsities, timesteps=config.timesteps
        )
        memory_rows.append((method, bits / 8 / 1024))
    print(format_table(
        ["method", "avg_train_footprint_KB"],
        memory_rows,
        title=f"SIII-D average training memory (N={total_weights:,} weights)",
    ))

    # --- Deployment sizes -------------------------------------------------
    print()
    deploy_rows = [
        (platform, inference_footprint_bits(total_weights, sparsity, platform=platform) / 8 / 1024)
        for platform in sorted(PLATFORM_WEIGHT_BITS)
    ]
    print(format_table(
        ["platform", "deploy_KB"],
        deploy_rows,
        title=f"Inference footprint at {sparsity:.0%} sparsity by platform",
    ))


if __name__ == "__main__":
    main()

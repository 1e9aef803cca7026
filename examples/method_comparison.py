"""Compare every sparse-training method on one workload (a mini Table I).

Trains Dense, LTH-SNN, SET-SNN, RigL-SNN, ADMM and NDSNN on the same
synthetic CIFAR-10 stand-in with a spiking VGG-16 (width-scaled for
CPU), then prints an accuracy / sparsity / training-cost summary.

Run:  python examples/method_comparison.py [--sparsity 0.95]
"""

import argparse

from repro.experiments import run_experiment, scaled_config
from repro.experiments.tables import format_table
from repro.train import relative_training_cost

METHODS = ("dense", "lth", "set", "rigl", "admm", "ndsnn")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sparsity", type=float, default=0.95)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--model", default="vgg16", choices=("vgg16", "resnet19", "convnet"))
    args = parser.parse_args()

    outcomes = {}
    for method in METHODS:
        config = scaled_config(
            "cifar10", args.model, method, args.sparsity,
            epochs=args.epochs, train_samples=256, test_samples=128,
            timesteps=2, image_size=16, update_frequency=8, lth_rounds=2,
        )
        print(f"training {method} ...")
        outcomes[method] = run_experiment(config)

    dense_rates = outcomes["dense"].spike_rates
    rows = []
    for method in METHODS:
        outcome = outcomes[method]
        cost = relative_training_cost(
            outcome.spike_rates, outcome.densities, dense_rates, method=method
        )
        rows.append((
            method,
            outcome.final_accuracy,
            outcome.final_sparsity,
            len(outcome.history),
            cost.percent_of_dense,
        ))

    print()
    print(
        format_table(
            ["method", "test_acc", "final_sparsity", "epochs_trained", "train_cost_%dense"],
            rows,
            title=f"Method comparison: {args.model} on synthetic CIFAR-10 "
            f"@ {args.sparsity:.0%} sparsity",
        )
    )
    print()
    print("Notes: LTH trains multiple rounds (epochs_trained shows the total),")
    print("which is exactly the inefficiency NDSNN is designed to avoid.")


if __name__ == "__main__":
    main()

"""Fig. 4 style study: how the timestep count T affects NDSNN vs LTH.

Smaller T means proportionally cheaper BPTT training; the paper shows
NDSNN keeps its advantage over LTH even at T=2.  This example sweeps
T in {1, 2, 4} at one sparsity and prints accuracy and wall-clock.

Run:  python examples/timestep_study.py
"""

import time

from repro.experiments import run_experiment, scaled_config
from repro.experiments.tables import format_table


def main() -> None:
    sparsity = 0.95
    rows = []
    for timesteps in (1, 2, 4):
        for method in ("ndsnn", "lth"):
            config = scaled_config(
                "cifar10", "vgg16", method, sparsity,
                epochs=6, train_samples=192, test_samples=96,
                timesteps=timesteps, image_size=16, update_frequency=8, lth_rounds=2,
            )
            start = time.perf_counter()
            outcome = run_experiment(config)
            elapsed = time.perf_counter() - start
            rows.append((f"T={timesteps}", method, outcome.final_accuracy, elapsed))
            print(f"T={timesteps} {method:6s} acc={outcome.final_accuracy:.3f} ({elapsed:.1f}s)")

    print()
    print(format_table(
        ["timesteps", "method", "test_acc", "wall_clock_s"],
        rows,
        title=f"Timestep study @ {sparsity:.0%} sparsity (VGG-16 / synthetic CIFAR-10)",
    ))
    print()
    print("Smaller T trains faster; the paper's Fig. 4 point is that NDSNN")
    print("still outperforms LTH in this cheap-training regime.")


if __name__ == "__main__":
    main()

"""Sparse-topology analysis utilities."""

from collections import deque

import numpy as np
import pytest

from repro.sparse import (
    analyze_masks,
    degree_statistics,
    input_output_connectivity,
    topology_change,
)


class TestDegreeStats:
    def test_dense_mask(self):
        stats = degree_statistics(np.ones((4, 6), dtype=np.float32))
        assert stats.mean_out == 6.0
        assert stats.mean_in == 4.0
        assert stats.dead_outputs == 0

    def test_dead_units_detected(self):
        mask = np.ones((3, 3), dtype=np.float32)
        mask[1, :] = 0  # dead output
        mask[:, 2] = 0  # dead input
        stats = degree_statistics(mask)
        assert stats.dead_outputs == 1
        assert stats.dead_inputs == 1

    def test_conv_mask_collapsed(self):
        mask = np.zeros((2, 3, 2, 2), dtype=np.float32)
        mask[0, 0, 0, 0] = 1
        stats = degree_statistics(mask)
        assert stats.dead_outputs == 1  # filter 1 fully dead
        assert stats.mean_out == 0.5

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            degree_statistics(np.ones(5))


class TestConnectivity:
    def test_fully_connected_chain(self):
        masks = [np.ones((4, 3)), np.ones((2, 4))]
        assert input_output_connectivity(masks) == 1.0

    def test_broken_chain(self):
        # Layer 2 only reads unit 0 of the hidden layer, but layer 1
        # never writes unit 0 -> outputs unreachable.
        layer1 = np.zeros((4, 3)); layer1[1:, :] = 1
        layer2 = np.zeros((2, 4)); layer2[:, 0] = 1
        assert input_output_connectivity([layer1, layer2]) == 0.0

    def test_partial(self):
        layer1 = np.zeros((2, 2)); layer1[0, 0] = 1
        layer2 = np.eye(2)
        assert input_output_connectivity([layer1, layer2]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            input_output_connectivity([])

    def test_column_past_previous_width_is_unreachable(self):
        layer1 = np.ones((2, 3))
        layer2 = np.zeros((2, 4)); layer2[0, 3] = 1; layer2[1, 1] = 1
        assert input_output_connectivity([layer1, layer2]) == 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_breadth_first_search(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            depth = int(rng.integers(1, 5))
            widths = rng.integers(1, 9, size=depth + 1)
            masks = []
            for k in range(depth):
                # Now and then a width that disagrees with the layer below.
                cols = int(widths[k]) if rng.random() < 0.8 else int(rng.integers(1, 10))
                shape = (int(widths[k + 1]), cols) + ((2, 2) if rng.random() < 0.3 else ())
                masks.append((rng.random(shape) < rng.random()).astype(np.float32))
            assert input_output_connectivity(masks) == bfs_connectivity(masks)


def bfs_connectivity(masks):
    """Oracle: breadth-first search over ``(interface, unit)`` nodes.

    Unit ``c`` at interface ``k`` feeds unit ``r`` at ``k + 1`` when any
    kernel element of ``masks[k][r, c]`` is active.
    """
    edges = {}
    for k, mask in enumerate(masks):
        for r, c in zip(*np.nonzero(mask.reshape(mask.shape[0], mask.shape[1], -1).any(axis=2))):
            edges.setdefault((k, int(c)), []).append((k + 1, int(r)))
    frontier = deque((0, j) for j in range(masks[0].shape[1]))
    seen = set(frontier)
    while frontier:
        for node in edges.get(frontier.popleft(), ()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    outputs = masks[-1].shape[0]
    return sum((len(masks), i) in seen for i in range(outputs)) / outputs


class TestChurn:
    def test_identical_masks(self):
        masks = {"a": np.ones((2, 2))}
        assert topology_change(masks, masks)["a"] == 0.0

    def test_disjoint_masks(self):
        before = {"a": np.array([[1, 0], [0, 0]], dtype=np.float32)}
        after = {"a": np.array([[0, 1], [0, 0]], dtype=np.float32)}
        assert topology_change(before, after)["a"] == 1.0

    def test_all_zero(self):
        masks = {"a": np.zeros((2, 2))}
        assert topology_change(masks, masks)["a"] == 0.0

    def test_ndsnn_training_keeps_connectivity(self):
        """After a full NDSNN ramp, outputs remain reachable from inputs."""
        from repro.optim import SGD
        from repro.snn.models import SpikingMLP
        from repro.sparse import NDSNN
        from repro.tensor import Tensor, cross_entropy

        model = SpikingMLP(in_features=16, num_classes=4, hidden=(24,),
                           timesteps=2, rng=np.random.default_rng(0))
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=40, update_frequency=10,
                       rng=np.random.default_rng(1))
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        method.bind(model, optimizer)
        rng = np.random.default_rng(2)
        for iteration in range(40):
            x = Tensor(rng.standard_normal((8, 16)).astype(np.float32))
            y = rng.integers(0, 4, 8)
            loss = cross_entropy(model(x), y)
            optimizer.zero_grad(); loss.backward()
            method.after_backward(iteration)
            optimizer.step(); method.after_step(iteration)
        masks = [method.masks.masks[name] for name in method.masks.masks]
        assert input_output_connectivity(masks) > 0.5
        stats = analyze_masks(method.masks.masks)
        assert all(s.mean_out > 0 for s in stats.values())

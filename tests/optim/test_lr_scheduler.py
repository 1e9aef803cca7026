"""The learning-rate scheduler."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD, CosineAnnealingLR


def optimizer(lr=1.0):
    return SGD([Parameter(np.zeros(1, dtype=np.float32))], lr=lr)


class TestCosine:
    def test_starts_at_base_lr(self):
        opt = optimizer(lr=0.3)
        scheduler = CosineAnnealingLR(opt, t_max=10)
        scheduler.step()
        assert np.isclose(opt.lr, 0.3)

    def test_reaches_eta_min(self):
        opt = optimizer(lr=0.3)
        scheduler = CosineAnnealingLR(opt, t_max=5, eta_min=0.01)
        for _ in range(6):
            scheduler.step()
        assert np.isclose(opt.lr, 0.01)

    def test_halfway_point(self):
        opt = optimizer(lr=1.0)
        scheduler = CosineAnnealingLR(opt, t_max=10)
        for _ in range(6):  # epochs 0..5
            lr = scheduler.step()
        assert np.isclose(lr, 0.5)

    def test_monotone_decreasing(self):
        opt = optimizer(lr=1.0)
        scheduler = CosineAnnealingLR(opt, t_max=20)
        values = [scheduler.step() for _ in range(20)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(optimizer(), t_max=0)


    def test_step_sets_and_returns_the_optimizer_lr(self):
        opt = optimizer(lr=0.8)
        scheduler = CosineAnnealingLR(opt, t_max=4, eta_min=0.1)
        for epoch in range(4):
            lr = scheduler.step()
            assert scheduler.last_epoch == epoch
            assert opt.lr == lr == scheduler.get_lr(epoch)

    def test_holds_eta_min_past_t_max(self):
        scheduler = CosineAnnealingLR(optimizer(lr=0.5), t_max=3, eta_min=0.05)
        values = [scheduler.step() for _ in range(8)]
        assert values[3:] == [values[3]] * 5
        assert np.isclose(values[3], 0.05)

    def test_base_lr_is_fixed_at_construction(self):
        opt = optimizer(lr=0.4)
        scheduler = CosineAnnealingLR(opt, t_max=10)
        opt.lr = 99.0  # e.g. a previous step's value
        assert scheduler.step() == 0.4

    def test_restored_last_epoch_continues_bit_exactly(self):
        # A checkpoint stores ``last_epoch`` alone; a fresh scheduler over
        # a fresh optimizer with that position resumes the same values.
        golden = CosineAnnealingLR(optimizer(lr=0.3), t_max=7, eta_min=0.01)
        values = [golden.step() for _ in range(7)]
        resumed = CosineAnnealingLR(optimizer(lr=0.3), t_max=7, eta_min=0.01)
        resumed.last_epoch = 2
        assert [resumed.step() for _ in range(4)] == values[3:]

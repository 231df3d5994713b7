import numpy as np

from cpi_sim.metrics import fit_gaussian_width


class TestFitGaussianWidth:
    def test_detached_spike_does_not_pull_the_fit(self):
        # one wing sample above the floor, cut off from the peak's lobe by
        # samples below it, is noise and must not widen the fitted width
        x = np.linspace(-5.0, 5.0, 201)
        y = np.exp(-(x / 1.2) ** 2)
        y[x.size - 10] = 0.3
        assert y[x.size - 11] < 0.05 and y[x.size - 9] < 0.05
        center, width = fit_gaussian_width(x, y, floor=5e-2)
        assert abs(center) < 1e-9
        assert abs(width - 1.2) < 1e-9

"""Reference tests for the plain numpy kernels in :mod:`repro.kernels`."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels


class TestNumpyKernels:
    def test_cpt_accumulate_matches_add_at(self):
        rng = np.random.default_rng(0)
        counts = np.full((4, 3), 0.5)
        expected = counts.copy()
        rows = rng.integers(0, 4, size=50).astype(np.intp)
        codes = rng.integers(0, 3, size=50).astype(np.intp)
        kernels.cpt_accumulate(counts, rows, codes)
        np.add.at(expected, (rows, codes), 1.0)
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("start", [0.0, 1.0, 0.5, 3.0])
    def test_cpt_accumulate_duplicate_cells_match_add_at(self, start):
        # Every record hits one of three cells, most of them many times.
        rows = np.asarray([1, 1, 1, 0, 1, 2, 0, 1, 2, 2, 1] * 7, dtype=np.intp)
        codes = np.asarray([0, 0, 0, 2, 0, 1, 2, 0, 1, 1, 0] * 7, dtype=np.intp)
        counts = np.full((3, 3), start)
        expected = counts.copy()
        kernels.cpt_accumulate(counts, rows, codes)
        np.add.at(expected, (rows, codes), 1.0)
        assert counts.tobytes() == expected.tobytes()

    def test_cpt_accumulate_weights_count_repeated_rows(self):
        rows = np.asarray([0, 1, 0], dtype=np.intp)
        codes = np.asarray([1, 0, 1], dtype=np.intp)
        weights = np.asarray([4, 2, 3])
        counts = np.zeros((2, 2))
        kernels.cpt_accumulate(counts, rows, codes, weights)
        expected = np.zeros((2, 2))
        np.add.at(expected, (np.repeat(rows, weights), np.repeat(codes, weights)), 1.0)
        assert counts.tobytes() == expected.tobytes()
        assert counts.tolist() == [[0.0, 7.0], [2.0, 0.0]]

    def test_bucket_accumulate_skips_negative_ids(self):
        sums = np.zeros(3)
        counts = np.zeros(3)
        ids = np.asarray([0, -1, 2, 2, -1, 0], dtype=np.intp)
        values = np.asarray([1.0, 99.0, 2.0, 3.0, 99.0, 4.0])
        kernels.bucket_accumulate(sums, counts, ids, values)
        assert np.array_equal(sums, [5.0, 0.0, 5.0])
        assert np.array_equal(counts, [2.0, 0.0, 2.0])

    def test_clip_weights_propagates_nan(self):
        weights = np.asarray([0.5, 3.0, np.nan])
        clipped = kernels.clip_weights(weights, 2.0)
        assert clipped[0] == 0.5 and clipped[1] == 2.0
        assert np.isnan(clipped[2])

    def test_ridge_solve_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(40, 5))
        targets = rng.normal(size=40)
        coefficients, intercept = kernels.ridge_solve(design, targets, 0.7)
        predictions = design @ coefficients + intercept
        # The closed form minimises the penalised loss; its gradient in
        # the coefficients must vanish on centred data.
        residuals = targets - predictions
        centred = design - design.mean(axis=0)
        gradient = centred.T @ residuals - 0.7 * coefficients
        assert np.allclose(gradient, 0.0, atol=1e-9)

    def test_topk_returns_k_smallest(self):
        distances = np.asarray([5.0, 1.0, 4.0, 2.0, 3.0])
        nearest = kernels.topk_indices(distances, 2)
        assert sorted(distances[nearest].tolist()) == [1.0, 2.0]

    def test_get_backend_reports_numpy(self):
        # Bench provenance records ``get_backend().name`` as kernels_backend.
        assert kernels.get_backend() is kernels
        assert kernels.get_backend().name == "numpy"

import json

import numpy as np
import pytest

from noisychaos import (
    InvalidDimensionError,
    Spectrum,
    sample_goe_spectrum,
    sample_gue_spectrum,
)

from oracles import DegenerateSpectrumError, level_statistics


class TestSpectrum:
    def test_sorted_and_readonly(self):
        s = Spectrum(np.array([2.0, -1.0, 0.5]))
        assert np.all(np.diff(s.energies) >= 0)
        with pytest.raises(ValueError):
            s.energies[0] = 7.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array([bad, 0.1, 0.5]))

    def test_dim(self):
        s = Spectrum(np.array([0.0, 1.0, 2.0]))
        assert s.dim == 3

    def test_gaps_antisymmetric(self, spec5):
        g = spec5.gaps()
        assert np.allclose(g, -g.T)
        assert np.allclose(np.diag(g), 0.0)

    def test_json_round_trip(self, spec5, tmp_path):
        path = tmp_path / "spec.json"
        spec5.save(path)
        assert set(json.loads(path.read_text())) == {"dim", "energies"}
        assert np.array_equal(Spectrum.load(path).energies, spec5.energies)


class TestSamplers:
    def test_dim2_reproducible(self):
        a = sample_gue_spectrum(2, np.random.default_rng(9))
        b = sample_gue_spectrum(2, np.random.default_rng(9))
        assert a.energies.shape == (2,)
        assert np.array_equal(a.energies, b.energies)

    @pytest.mark.parametrize("sampler", [sample_gue_spectrum, sample_goe_spectrum])
    def test_dim_too_small(self, sampler):
        with pytest.raises(InvalidDimensionError):
            sampler(1, np.random.default_rng(0))

    @pytest.mark.parametrize("sampler", [sample_gue_spectrum, sample_goe_spectrum])
    def test_semicircle_support(self, sampler):
        # Normalization puts the semicircle edge near |E| = 2; the largest
        # eigenvalue should stay below 2.5 for at least 99% of draws.
        rng = np.random.default_rng(31)
        edges = [np.abs(sampler(200, rng).energies).max() for _ in range(100)]
        assert np.mean(np.asarray(edges) <= 2.5) >= 0.99

    def test_gue_mean_folded_ratio(self):
        # Brute-force check of the standard GUE value <r~> ~ 0.5996.
        # Averaged over the middle 50% of levels to avoid edge effects.
        rng = np.random.default_rng(77)
        dim = 200
        lo, hi = dim // 4, 3 * dim // 4
        acc = []
        for _ in range(400):
            spec = sample_gue_spectrum(dim, rng)
            bulk = Spectrum(spec.energies[lo:hi])
            acc.append(level_statistics(bulk).mean_folded_ratio)
        assert abs(np.mean(acc) - 0.5996) < 0.01


class TestLevelStatistics:
    def test_equal_spacing(self):
        st = level_statistics(Spectrum(np.array([0.0, 1.0, 2.0])))
        assert np.array_equal(st.spacings, [1.0, 1.0])
        assert np.array_equal(st.ratios, [1.0])
        assert np.array_equal(st.folded_ratios, [1.0])

    def test_ratio_definition(self):
        st = level_statistics(Spectrum(np.array([0.0, 1.0, 3.0])))
        assert np.array_equal(st.ratios, [2.0])
        assert np.array_equal(st.folded_ratios, [0.5])

    def test_degenerate_raises_with_index(self):
        with pytest.raises(DegenerateSpectrumError) as info:
            level_statistics(Spectrum(np.array([0.0, 1.0, 1.0])))
        assert info.value.index == 1

    def test_dim_too_small(self):
        with pytest.raises(InvalidDimensionError):
            level_statistics(Spectrum(np.array([0.0, 1.0])))

    def test_scale_covariance_exact(self, spec5):
        # Ratios are invariant under E -> a E + b.  With a a power of two
        # and b = 0 the float arithmetic is exact, so equality is bitwise.
        st = level_statistics(spec5)
        scaled = Spectrum(4.0 * spec5.energies)
        st2 = level_statistics(scaled)
        assert np.array_equal(st.ratios, st2.ratios)
        assert np.array_equal(st.folded_ratios, st2.folded_ratios)
        assert np.array_equal(st2.spacings, 4.0 * st.spacings)

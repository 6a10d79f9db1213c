import json

import numpy as np
import pytest

from noisychaos import (
    ConstantOverD,
    DiagnosticSeries,
    Ensemble,
    GibbsProfile,
    MatrixProfile,
    NoiseModel,
    Spectrum,
    apply_channel,
    goe_constant,
    gue_constant,
    return_probability,
    sample_gue_spectrum,
    sff,
    sff_from_channel,
    sff_goe_const,
    sff_gue_const,
    transfer_probability,
    two_point,
    two_point_goe_const,
    two_point_gue_const,
    u1_goe_const,
    u1_goe_general,
    u1_gue_const,
    u1_gue_general,
)
from noisychaos.diagnostics import GOE_BLOCK, _grid_factors

import test_channel_one
from conftest import random_hermitian
from oracles import (
    build_L1,
    dense_generator,
    effective_hamiltonian,
    expm,
    level_statistics,
    partition_return_probability,
)

T_GRID = np.linspace(0.0, 3.0, 7)


class TestDiagnosticSeries:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            DiagnosticSeries("x", np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiagnosticSeries("x", np.array([0.0, 1.0]), np.zeros(3))

    def test_csv_schema_and_determinism(self, tmp_path):
        s = DiagnosticSeries(
            "x", np.array([0.0, 0.5]), np.array([1.0 + 0.25j, 0.5]),
            stderr=np.array([0.0, 0.01]),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        s.write_csv(p1)
        s.write_csv(p2)
        text = p1.read_text()
        assert text.splitlines()[0] == "t,re,im,stderr"
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_blank_stderr_for_analytic(self, tmp_path):
        s = DiagnosticSeries("x", np.array([0.0, 0.5]), np.array([1.0, 0.5]))
        p = tmp_path / "a.csv"
        s.write_csv(p)
        assert p.read_text().splitlines()[1].endswith(",")

    def test_json_metadata(self, tmp_path, spec5):
        t = np.array([0.0, 1.0])
        series = DiagnosticSeries(
            "sff_gue_const", t, sff_gue_const(spec5, 1.0, t),
            metadata={"dim": spec5.dim, "J": 1.0},
        )
        p = tmp_path / "s.json"
        series.write_json(p)
        doc = json.loads(p.read_text())
        assert doc["name"] == "sff_gue_const"
        assert doc["metadata"]["dim"] == 5


# name -> call on (spectrum, operator, t) at J = 0.7.
CLOSED_FORMS = {
    "sff_gue_const": lambda s, o, t: sff_gue_const(s, 0.7, t),
    "sff_goe_const": lambda s, o, t: sff_goe_const(s, 0.7, t),
    "two_point_gue_const": lambda s, o, t: two_point_gue_const(s, 0.7, o, t),
    "two_point_goe_const": lambda s, o, t: two_point_goe_const(s, 0.7, o, t),
    "transfer_probability": lambda s, o, t: transfer_probability(
        s, gue_constant(0.7, s.dim), 0, 1, t
    ),
    "return_probability": lambda s, o, t: return_probability(s, gue_constant(0.7, s.dim), t),
}


class TestArrayContract:
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_returns_array_shaped_like_t(self, spec5, rng, name):
        values = CLOSED_FORMS[name](spec5, random_hermitian(5, rng), T_GRID)
        assert type(values) is np.ndarray
        assert values.shape == T_GRID.shape

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_forms_take_scalar_t(self, spec5, rng, name):
        o = random_hermitian(5, rng)
        grid = CLOSED_FORMS[name](spec5, o, T_GRID)
        for k, t in enumerate(T_GRID):
            value = CLOSED_FORMS[name](spec5, o, t)
            assert np.ndim(value) == 0
            assert abs(value - grid[k]) < 1e-12


class TestSffClosedForms:
    def test_normalized_at_t0(self, spec5):
        assert sff_gue_const(spec5, 1.0, [0.0, 1.0])[0] == 1.0
        assert abs(sff_goe_const(spec5, 1.0, [0.0, 1.0])[0] - 1.0) < 1e-10

    def test_zero_noise_is_phase_sum(self, spec5):
        t = np.array([0.5, 1.5])
        k = sff_gue_const(spec5, 0.0, t)
        direct = np.abs(np.exp(-1j * np.outer(t, spec5.energies)).sum(axis=1)) ** 2
        assert np.allclose(k, direct / 25, atol=1e-14)

    @pytest.mark.parametrize("sff", [sff_gue_const, sff_goe_const])
    def test_plateau_at_late_times(self, spec5, sff):
        val = sff(spec5, 1.0, [0.0, 50.0])[1]
        assert abs(val - 1 / 25) / (1 / 25) < 1e-6

    def test_channel_contraction_agrees_all_cases(self, spec4):
        J, t = 0.8, 1.3
        # The constant profile as a matrix takes the general route for B.
        flat = NoiseModel(Ensemble.GUE, MatrixProfile(np.full((4, 4), J / 4)), 4)
        flat_goe = NoiseModel(Ensemble.GOE, flat.profile, 4)
        cases = [
            (u1_gue_const(spec4, J, t), sff_gue_const),
            (u1_gue_general(spec4, flat, t), sff_gue_const),
            (u1_goe_const(spec4, J, t), sff_goe_const),
            (u1_goe_general(spec4, flat_goe, t), sff_goe_const),
        ]
        for ch, closed in cases:
            assert abs(sff_from_channel(ch) - closed(spec4, J, [0.0, t])[1]) < 1e-10

    def test_goe_decays_slower_than_gue(self, spec5):
        t = np.array([1.0, 2.0, 4.0])
        kg = sff_goe_const(spec5, 2.0, t)
        ku = sff_gue_const(spec5, 2.0, t)
        assert np.all(kg >= ku - 1e-12)


class TestTwoPoint:
    def test_t0_value(self, spec5, rng):
        o = random_hermitian(5, rng)
        c = two_point_gue_const(spec5, 1.0, o, [0.0, 1.0])[0]
        assert abs(c - np.trace(o.conj().T @ o) / 5) < 1e-12

    def test_traceless_factorization(self, spec5, rng):
        o = random_hermitian(5, rng, traceless=True)
        t = np.array([0.4, 1.2])
        c = two_point_gue_const(spec5, 0.9, o, t)
        c0 = two_point_gue_const(spec5, 0.0, o, t)
        assert np.max(np.abs(c - np.exp(-0.9 * t) * c0)) < 1e-12

    @pytest.mark.parametrize(
        "two_point, build",
        [
            (two_point_gue_const, lambda s, J, t: u1_gue_const(s, J, t)),
            (two_point_goe_const, lambda s, J, t: u1_goe_const(s, J, t)),
        ],
    )
    def test_matches_channel_contraction(self, spec4, rng, two_point, build):
        # (1/D) Tr(O+ U1[O]) computed through the channel must equal the
        # closed form for both ensembles.
        o = random_hermitian(4, rng)
        J, t = 0.7, 1.1
        ch = build(spec4, J, t)
        direct = np.trace(o.conj().T @ apply_channel(ch, o)) / 4
        closed = two_point(spec4, J, o, [0.0, t])[1]
        assert abs(direct - closed) < 1e-12

    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_gue_non_hermitian_operator(self, beta):
        # Tr(O+ U1[O]) weighs A_ij by |O_ij|^2, which for a non-Hermitian O
        # is not |O_ji|^2: the closed form matches the channel under GUE
        # noise of the constant and a Gibbs profile, as an imaginary part
        # of about 0.5 at t = 1 shows.
        rng = np.random.default_rng(60)
        spec = sample_gue_spectrum(5, rng)
        o = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        profile = ConstantOverD(0.8) if beta is None else GibbsProfile(0.8, beta, spec)
        model = NoiseModel(Ensemble.GUE, profile, 5)
        t = np.array([0.0, 0.3, 1.0, 2.5])
        direct = [np.trace(o.conj().T @ apply_channel(u1_gue_general(spec, model, s), o)) / 5 for s in t]
        assert np.max(np.abs(two_point(spec, model, o, t) - direct)) <= 1e-12


class TestEffectiveHamiltonian:
    def test_t0_unchanged(self, spec5):
        assert np.array_equal(effective_hamiltonian(spec5, 1.0, 0.0).energies,
                              spec5.energies)

    def test_late_time_degenerate(self, spec5):
        eff = effective_hamiltonian(spec5, 1.0, 1e4)
        assert np.max(np.abs(eff.energies - spec5.energies.mean())) < 1e-12

    def test_affine_compression(self, spec5):
        J, t = 0.8, 1.5
        eff = effective_hamiltonian(spec5, J, t)
        decay = np.exp(-J * t)
        expected = decay * spec5.energies + spec5.energies.mean() * (1 - decay)
        assert np.max(np.abs(eff.energies - expected)) == 0.0

    def test_ratio_invariance_to_rounding(self, spec5):
        # Ratios survive the affine compression up to float rounding.
        eff = effective_hamiltonian(spec5, 0.5, 1.0)
        r1 = level_statistics(spec5).ratios
        r2 = level_statistics(eff).ratios
        assert np.max(np.abs(r1 - r2) / r1) < 1e-10


class TestTransferReturn:
    def test_transfer_endpoints(self, spec4):
        model = gue_constant(1.0, 4)
        diag_series = transfer_probability(spec4, model, 2, 2, T_GRID)
        off_series = transfer_probability(spec4, model, 0, 1, T_GRID)
        assert diag_series[0] == 1.0
        assert off_series[0] == 0.0
        late = transfer_probability(spec4, model, 0, 1, [0.0, 100.0])[1]
        assert abs(late - 0.25) < 1e-12

    def test_goe_is_gue_at_half_rate(self, spec4):
        goe = transfer_probability(spec4, goe_constant(2.0, 4), 0, 1, T_GRID)
        gue = transfer_probability(spec4, gue_constant(1.0, 4), 0, 1, T_GRID)
        assert np.array_equal(goe, gue)

    def test_probability_range(self, spec4):
        for model in (gue_constant(0.7, 4), goe_constant(0.7, 4)):
            for pair in ((0, 0), (0, 3)):
                v = transfer_probability(spec4, model, *pair, T_GRID)
                assert np.all(v >= -1e-12) and np.all(v <= 1 + 1e-12)

    def test_return_t0(self, spec5):
        assert return_probability(spec5, gue_constant(1.0, 5), T_GRID)[0] == 1.0

    def test_return_closed_form_scale(self):
        # At t = (1/J) log(D/2) with D=100: e^{-t} + (1 - e^{-t})/100.
        spec = sample_gue_spectrum(100, np.random.default_rng(0))
        t = np.log(50.0)
        val = return_probability(spec, gue_constant(1.0, 100), [0.0, t])[1]
        assert abs(val - (np.exp(-t) + (1 - np.exp(-t)) / 100)) < 1e-12
        assert abs(val - 0.0298) < 5e-4

    def test_return_dominates_sff(self, spec5):
        p = return_probability(spec5, gue_constant(0.8, 5), T_GRID)
        k = sff_gue_const(spec5, 0.8, T_GRID)
        assert np.all(p >= k - 1e-12)

    def test_rank1_partition_matches_closed_form(self, spec4):
        # Contracting the eigenbasis rank-1 partition against U1 must give
        # the same curve as the closed form.
        projs = [np.diag((np.arange(4) == k).astype(float)) for k in range(4)]
        a = partition_return_probability(spec4, 0.9, projs, T_GRID)
        b = return_probability(spec4, gue_constant(0.9, 4), T_GRID)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_partition_validated(self, spec4):
        bad = [np.eye(4), np.eye(4)]
        with pytest.raises(ValueError):
            partition_return_probability(spec4, 0.9, bad, T_GRID)

    def test_coarse_partition(self, spec4):
        # A 2-block partition is still a probability decaying from 1.
        p1 = np.diag([1.0, 1.0, 0.0, 0.0])
        p2 = np.diag([0.0, 0.0, 1.0, 1.0])
        v = partition_return_probability(spec4, 0.9, [p1, p2], T_GRID)
        assert abs(v[0] - 1.0) < 1e-12
        assert np.all(np.isreal(v)) and np.all(v >= -1e-12) and np.all(v <= 1 + 1e-12)


class TestGridContraction:
    # Every point of a grid from t = 0 to a late time against the channel
    # built and contracted at that point alone.
    # The mixed grid takes the GOE contraction's per-point step, the uniform
    # one its single step e^{z h}.
    GRIDS = {
        "mixed": np.array([0.0, 0.1, 0.7, 1.3, 2.9, 6.0, 15.0, 40.0]),
        "uniform": np.linspace(0.0, 40.0, 401),
    }

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("d", [4, 6])
    @pytest.mark.parametrize(
        "sff, build", [(sff_gue_const, u1_gue_const), (sff_goe_const, u1_goe_const)]
    )
    def test_sff_every_point(self, grid, d, sff, build):
        spec = sample_gue_spectrum(d, np.random.default_rng(d))
        t_grid = self.GRIDS[grid]
        values = sff(spec, 0.8, t_grid)
        per_point = [sff_from_channel(build(spec, 0.8, t)) for t in t_grid]
        assert np.max(np.abs(values - per_point)) < 1e-12

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("d", [4, 6])
    @pytest.mark.parametrize(
        "two_point, build",
        [(two_point_gue_const, u1_gue_const), (two_point_goe_const, u1_goe_const)],
    )
    def test_two_point_every_point(self, grid, d, two_point, build):
        rng = np.random.default_rng(10 + d)
        spec = sample_gue_spectrum(d, rng)
        o = random_hermitian(d, rng)
        t_grid = self.GRIDS[grid]
        values = two_point(spec, 0.8, o, t_grid)
        per_point = [
            np.trace(o.conj().T @ apply_channel(build(spec, 0.8, t), o)) / d
            for t in t_grid
        ]
        assert np.max(np.abs(values - per_point)) < 1e-12

    @pytest.mark.parametrize("grid", GRIDS)
    def test_goe_blocks_every_point(self, grid):
        # The D(D+1)/2 pairs' exponents run in at least three blocks of the
        # GOE contraction, on the mixed grid's exact exponentials and on
        # the uniform grid's factors.  O is scaled to Tr(O+ O)/D ~ 1, so
        # that 1e-12 is relative to C(0).
        d = 150
        t_grid = self.GRIDS[grid]
        rows, m = _grid_factors(t_grid) or (t_grid.size, 1)
        assert d * (d + 1) // 2 > 2 * (GOE_BLOCK // (rows + m))
        rng = np.random.default_rng(40)
        spec = sample_gue_spectrum(d, rng)
        o = random_hermitian(d, rng) / np.sqrt(d)
        sff_point, two_point_point = [], []
        for t in t_grid:
            ch = u1_goe_const(spec, 0.8, t)
            sff_point.append(sff_from_channel(ch))
            two_point_point.append(np.trace(o.conj().T @ apply_channel(ch, o)) / d)
        assert np.max(np.abs(sff_goe_const(spec, 0.8, t_grid) - sff_point)) < 1e-12
        assert np.max(np.abs(two_point_goe_const(spec, 0.8, o, t_grid) - two_point_point)) < 1e-12

    @pytest.mark.parametrize("n_points", [1, 2, 3, 196, 199])
    @pytest.mark.parametrize("t0", [0.0, 0.7])
    @pytest.mark.parametrize("case", ["const", "gibbs"])
    def test_goe_grid_factors_every_point(self, n_points, t0, case):
        # A uniform grid of T points is rows x m coarse and fine steps,
        # m = ceil(sqrt(T)): 196 points fill 14 x 14, and 199 leave the last
        # of 14 rows of 15 ragged.  At D = 70 the 196- and 199-point grids
        # run several blocks.  O is not Hermitian, so the two-point
        # function's imaginary weight row runs too; it is scaled to
        # Tr(O+ O)/D ~ 1.
        d = 70
        t_grid = np.linspace(t0, 30.0, n_points)
        rows, m = _grid_factors(t_grid)
        assert m == np.ceil(np.sqrt(n_points)) and (rows - 1) * m < n_points <= rows * m
        if n_points > 100:
            assert d * (d + 1) // 2 > GOE_BLOCK // (2 * rows + m)
        rng = np.random.default_rng(60)
        spec = sample_gue_spectrum(d, rng)
        o = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
        if case == "const":
            values = sff_goe_const(spec, 0.8, t_grid), two_point_goe_const(spec, 0.8, o, t_grid)
            channels = [u1_goe_const(spec, 0.8, t) for t in t_grid]
        else:
            model = NoiseModel(Ensemble.GOE, GibbsProfile(1.2, 0.7, spec), d)
            values = sff(spec, model, t_grid), two_point(spec, model, o, t_grid)
            channels = [u1_goe_general(spec, model, t) for t in t_grid]
        per_point = ([sff_from_channel(ch) for ch in channels],
                     [np.trace(o.conj().T @ apply_channel(ch, o)) / d for ch in channels])
        for got, expected in zip(values, per_point):
            assert got.shape == t_grid.shape
            assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("grid", ["linear", "log"])
    @pytest.mark.parametrize("case", ["const", "matrix"])
    def test_exceptional_pair_every_point(self, grid, case):
        # q = 0 at a nondegenerate pair: its beta t e^{-kappa t} term.
        pairs = test_channel_one.TestExceptionalGoePair
        spec, (model, _) = pairs.SPEC, pairs.CASES[case]
        o = random_hermitian(4, np.random.default_rng(50))
        t_grid = np.linspace(0.0, 8.0, 33) if grid == "linear" else np.geomspace(1e-3, 8.0, 25)
        if case == "const":
            values = sff_goe_const(spec, 1.0, t_grid), two_point_goe_const(spec, 1.0, o, t_grid)
            channels = [u1_goe_const(spec, 1.0, t) for t in t_grid]
        else:
            values = sff(spec, model, t_grid), two_point(spec, model, o, t_grid)
            channels = [u1_goe_general(spec, model, t) for t in t_grid]
        per_point = ([sff_from_channel(ch) for ch in channels],
                     [np.trace(o.conj().T @ apply_channel(ch, o)) / 4 for ch in channels])
        for got, expected in zip(values, per_point):
            assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("eps", [1e-14, 1e-9, 0.0])
    def test_near_exceptional_pair_matches_generator(self, eps):
        # E = (0, 1/8 - eps, 1/2, 1) under constant GOE noise, J = 1, D = 4:
        # the pair (0, 1) has 0 <= q^2 << lambda_01^2, where the weights
        # (alpha +- beta/q)/2 of its exponentials cancel.  O_01 = 1 gives
        # that pair a beta of order 1: the two-point function missed
        # e^{L1 t} by 7.5e-11 at eps = 1e-14 and 6.1e-13 at eps = 1e-9.
        spec = Spectrum(np.array([0.0, 0.125 - eps, 0.5, 1.0]))
        o = random_hermitian(4, np.random.default_rng(50))
        o[0, 1] = o[1, 0] = 1.0
        t_grid = np.linspace(0.0, 8.0, 33)
        dense = dense_generator(build_L1(spec, goe_constant(1.0, 4)))
        channels = [expm(dense * t) for t in t_grid]
        two_point_exact = [np.trace(o.conj().T @ (ch @ o.ravel()).reshape(4, 4)) / 4 for ch in channels]
        sff_exact = [np.trace(ch).real / 16 for ch in channels]
        assert np.max(np.abs(two_point_goe_const(spec, 1.0, o, t_grid) - two_point_exact)) <= 1e-13
        assert np.max(np.abs(sff_goe_const(spec, 1.0, t_grid) - sff_exact)) <= 1e-13

    @staticmethod
    def general_case(case, ensemble):
        """Spectrum, noise model and builder of one non-constant case."""
        if case == "degenerate":  # a degenerate level pair with lambda_12 = 0
            spec = Spectrum(np.array([-1.0, 0.3, 0.3, 1.2]))
            profile = MatrixProfile(test_channel_one.TestDegenerateGoePair.LAM)
        else:
            rng = np.random.default_rng(20)
            spec = sample_gue_spectrum(6, rng)
            lam = 0.5 * rng.random((6, 6))
            profile = (GibbsProfile(1.2, 0.7, spec) if case == "gibbs"
                       else MatrixProfile((lam + lam.T) / 2.0))
        build = u1_gue_general if ensemble is Ensemble.GUE else u1_goe_general
        return spec, NoiseModel(ensemble, profile, spec.dim), build

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("case", ["gibbs", "matrix", "degenerate"])
    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    def test_general_profiles_every_point(self, grid, case, ensemble):
        spec, model, build = self.general_case(case, ensemble)
        d = spec.dim
        o = random_hermitian(d, np.random.default_rng(30))
        t_grid = self.GRIDS[grid]
        channels = [build(spec, model, t) for t in t_grid]
        states = [np.diag(np.arange(d) == k).astype(complex) for k in range(d)]
        per_point = {
            "sff": [sff_from_channel(ch) for ch in channels],
            "two_point": [np.trace(o.conj().T @ apply_channel(ch, o)) / d for ch in channels],
            "transfer": [apply_channel(ch, states[0])[2, 2] for ch in channels],
            "survival": [apply_channel(ch, states[1])[1, 1] for ch in channels],
            "return": [np.mean([apply_channel(ch, r)[k, k] for k, r in enumerate(states)])
                       for ch in channels],
        }
        values = {
            "sff": sff(spec, model, t_grid),
            "two_point": two_point(spec, model, o, t_grid),
            "transfer": transfer_probability(spec, model, 0, 2, t_grid),
            "survival": transfer_probability(spec, model, 1, 1, t_grid),
            "return": return_probability(spec, model, t_grid),
        }
        for key, expected in per_point.items():
            assert np.max(np.abs(values[key] - expected)) < 1e-12, key


class TestModelForms:
    @pytest.mark.parametrize("model", [gue_constant(0.5, 8), goe_constant(0.5, 2)],
                             ids=["larger", "smaller"])
    @pytest.mark.parametrize("form", ["sff", "two_point", "transfer", "return"])
    def test_refuse_a_model_of_another_dimension(self, spec4, model, form):
        # D = 4 spectrum: an 8-level model, or a 2-level one where state 3
        # does not exist, used to give the D = 4 plateau 0.25.
        calls = {
            "sff": lambda: sff(spec4, model, T_GRID),
            "two_point": lambda: two_point(spec4, model, np.eye(4), T_GRID),
            "transfer": lambda: transfer_probability(spec4, model, 0, 3, T_GRID),
            "return": lambda: return_probability(spec4, model, T_GRID),
        }
        with pytest.raises(ValueError, match="spectrum dim 4 != noise model dim"):
            calls[form]()

    @pytest.mark.parametrize("t", [-2.0, np.array([0.0, 1.0, -1e-300]), np.nan,
                                   np.array([0.0, np.nan, 1.0]), np.inf,
                                   np.array([0.0, np.inf])])
    @pytest.mark.parametrize("model", [gue_constant(1.0, 4), goe_constant(1.0, 4)],
                             ids=["gue", "goe"])
    @pytest.mark.parametrize("form", ["sff", "two_point", "transfer", "return"])
    def test_refuse_negative_times(self, spec4, model, form, t):
        # Under GUE noise transfer_probability(spec, model, 0, 0, -2.0) gave 5.79,
        # and a NaN time gave NaN; t = inf gave NaN under GOE noise and the
        # plateau under GUE.
        calls = {
            "sff": lambda: sff(spec4, model, t),
            "two_point": lambda: two_point(spec4, model, np.eye(4), t),
            "transfer": lambda: transfer_probability(spec4, model, 0, 0, t),
            "return": lambda: return_probability(spec4, model, t),
        }
        with pytest.raises(ValueError, match="t must be nonnegative"):
            calls[form]()

    @pytest.mark.parametrize("ensemble", [Ensemble.GUE, Ensemble.GOE])
    @pytest.mark.parametrize("case", ["gibbs", "constant"])
    def test_eigh_calls(self, monkeypatch, spec4, ensemble, case):
        # Every grid form of one general model shares one eigh of its
        # Markov generator; the constant profile takes none.
        profile = GibbsProfile(1.2, 0.7, spec4) if case == "gibbs" else ConstantOverD(0.8)
        model = NoiseModel(ensemble, profile, 4)
        calls = test_channel_one.TestPopulationModes.count_eigh(monkeypatch)
        o = np.diag([1.0, 2.0, 3.0, 4.0])
        for _ in range(2):
            sff(spec4, model, T_GRID)
            two_point(spec4, model, o, T_GRID)
            transfer_probability(spec4, model, 0, 1, T_GRID)
            return_probability(spec4, model, T_GRID)
        assert calls == ([(4, 4)] if case == "gibbs" else [])

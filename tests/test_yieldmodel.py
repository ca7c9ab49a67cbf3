"""Transformed-Gaussian statistics: estimators, densities, yield integrals.

The synthetic checks sample the generating recipe directly (square of a
normal, exponential of a squared normal) so every comparison has a ground
truth that does not depend on the circuit code.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from sramyield import transients, yieldmodel
from sramyield.artifacts import write_json
from sramyield.errors import DegenerateStatisticsError, DomainError, ParseError
from sramyield.mc import characterize_access, wilson_ci
from sramyield.transients import delta_v_closed
from sramyield.yieldmodel import (
    DEFAULT_T0,
    FOUR_SIGMA_PF,
    AccessCharacterization,
    DeltaVDistribution,
    OffsetVoltageDist,
    WriteTimeDistribution,
    access_fail_prob_ber,
    access_fail_prob_fixed,
    auto_read_grid,
    delta_quantile,
    estimate_delta_params,
    estimate_write_params,
    invert_for_constraint,
    pdf_delta,
    pdf_write,
    qq_points,
    read_distribution_json,
    relative_error,
    write_fail_prob,
    write_quantile,
)

DELTA = DeltaVDistribution(mu_delta=0.3, sigma_delta=0.012)
WRITE = WriteTimeDistribution(mu_w=1.5, sigma_w=0.12, t0=DEFAULT_T0)
OFFSET = OffsetVoltageDist(mu_vos=0.07, sigma_vos=0.003)


class TestConstructors:
    def test_moment_validation(self):
        with pytest.raises(DomainError, match="sigma"):
            DeltaVDistribution(mu_delta=0.3, sigma_delta=0.0)
        with pytest.raises(DomainError, match="mu"):
            DeltaVDistribution(mu_delta=-0.1, sigma_delta=0.01)
        with pytest.raises(DomainError, match="t0"):
            WriteTimeDistribution(mu_w=1.5, sigma_w=0.1, t0=0.0)
        with pytest.raises(DomainError, match="sigma_vos"):
            OffsetVoltageDist(mu_vos=0.0, sigma_vos=0.0)

    def test_single_branch_warning(self):
        with pytest.warns(UserWarning, match="single-branch"):
            DeltaVDistribution(mu_delta=0.3, sigma_delta=0.1)
        with pytest.warns(UserWarning, match="single-branch"):
            WriteTimeDistribution(mu_w=1.0, sigma_w=0.3)

    def test_ratio_four_is_quiet(self, recwarn):
        DeltaVDistribution(mu_delta=0.4, sigma_delta=0.1)
        assert not recwarn.list

    def test_four_sigma_constant(self):
        assert FOUR_SIGMA_PF == 3.17e-5


class TestEstimators:
    def test_constant_delta_samples_are_degenerate(self):
        with pytest.raises(DegenerateStatisticsError, match="zero variance"):
            estimate_delta_params([0.04] * 60)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateStatisticsError, match="at least 30"):
            estimate_delta_params([0.04] * 29)

    def test_nonpositive_sample_names_index(self):
        samples = [0.04] * 40
        samples[17] = 0.0
        with pytest.raises(DomainError, match="sample 17"):
            estimate_delta_params(samples)
        samples[17] = math.nan
        with pytest.raises(DomainError, match="sample 17 = nan is not above zero"):
            estimate_delta_params(samples)

    @pytest.mark.parametrize("estimate", [estimate_delta_params, estimate_write_params])
    def test_infinite_sample_is_censored(self, estimate, recwarn):
        samples = [5e-12 * (1.0 + 0.01 * i) for i in range(40)]
        samples[17] = math.inf
        with pytest.raises(DegenerateStatisticsError, match="sample 17 is inf [(]censored[)]"):
            estimate(samples)
        assert not recwarn.list

    def test_delta_synthetic_round_trip(self):
        rng = np.random.default_rng(20240101)
        samples = rng.normal(0.3, 0.01, 1_000_000) ** 2
        dist = estimate_delta_params(samples)
        assert dist.mu_delta == pytest.approx(0.3, rel=5e-3, abs=0)
        assert dist.sigma_delta == pytest.approx(0.01, rel=5e-3, abs=0)

    def test_constant_write_samples_are_degenerate(self):
        with pytest.raises(DegenerateStatisticsError, match="zero variance"):
            estimate_write_params([DEFAULT_T0 * math.e] * 60)

    def test_write_sample_at_t0_advises_smaller_t0(self):
        samples = [5e-12] * 40
        samples[3] = 1e-12
        with pytest.raises(DomainError, match="smaller reference t0"):
            estimate_write_params(samples, t0=1e-12)

    def test_overflowing_write_sample_names_it(self, recwarn):
        rows = 5e-12 * (1.0 + 0.05 * np.random.default_rng(7).random((3, 40)))
        rows[1, 9] = 1e300  # t/t0 overflows
        rows[2, 4] = 0.0  # a later failing row
        with pytest.raises(DomainError, match=r"^write-time sample 9 = 1e\+300 overflows "
                                              r"sqrt\(ln\(t/t0\)\) at t0 = 1e-12$"):
            estimate_write_params(rows, t0=1e-12)
        assert not recwarn.list

    def test_write_t0_must_be_positive(self):
        with pytest.raises(DomainError, match="t0"):
            estimate_write_params([5e-12] * 40, t0=0.0)

    @pytest.mark.parametrize("estimate, scale", [(estimate_delta_params, 0.04),
                                                 (estimate_write_params, 5e-12)])
    def test_rows_match_rows_alone(self, estimate, scale):
        rng = np.random.default_rng(5)
        rows = scale * (1.0 + 0.05 * rng.random((7, 45)))
        assert estimate(rows) == [estimate(row) for row in rows]

    def test_first_failing_row_raises(self, recwarn):
        rows = 0.04 * (1.0 + 0.05 * np.random.default_rng(6).random((4, 40)))
        rows[2, 5] = math.inf  # censored
        rows[3, 7] = 0.0  # not above zero
        rows[1] = 0.04  # zero variance: the first failing row
        with pytest.raises(DegenerateStatisticsError, match="zero variance"):
            estimate_delta_params(rows)
        rows[1] = rows[0]
        with pytest.raises(DegenerateStatisticsError, match="sample 5 is inf"):
            estimate_delta_params(rows)
        # the rows before the failing one are built, warning as they would alone
        rows[0] = (0.2 + 0.08 * np.random.default_rng(7).standard_normal(40)) ** 2
        with pytest.raises(DegenerateStatisticsError, match="sample 5 is inf"):
            estimate_delta_params(rows)
        assert [str(w.message).split(" mu/sigma")[0] for w in recwarn.list] == [
            "DeltaVDistribution"]

    def test_write_synthetic_round_trip(self):
        rng = np.random.default_rng(20240102)
        samples = DEFAULT_T0 * np.exp(rng.normal(1.5, 0.05, 1_000_000) ** 2)
        dist = estimate_write_params(samples, t0=DEFAULT_T0)
        assert dist.mu_w == pytest.approx(1.5, rel=5e-3, abs=0)
        assert dist.sigma_w == pytest.approx(0.05, rel=5e-3, abs=0)
        assert dist.t0 == DEFAULT_T0


class TestPdfDelta:
    def test_peak_value_at_mu_squared(self):
        expect = 1.0 / (2.0 * DELTA.sigma_delta * DELTA.mu_delta * math.sqrt(2 * math.pi))
        assert pdf_delta(DELTA, DELTA.mu_delta**2) == pytest.approx(expect, rel=1e-14, abs=0)

    def test_support(self):
        assert pdf_delta(DELTA, 0.0) == 0.0
        assert pdf_delta(DELTA, -0.01) == 0.0
        out = pdf_delta(DELTA, np.array([-1.0, 0.0, 0.09]))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] > 0.0

    def test_normalization(self):
        hi = (DELTA.mu_delta + 10 * DELTA.sigma_delta) ** 2
        total, _ = quad(lambda v: pdf_delta(DELTA, v), 0.0, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_histogram_total_variation(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(DELTA.mu_delta, DELTA.sigma_delta, 1_000_000) ** 2
        edges = np.linspace(delta_quantile(DELTA, 1e-5), delta_quantile(DELTA, 1 - 1e-5), 101)
        counts, _ = np.histogram(samples, bins=edges)
        emp = counts / samples.size
        model = np.diff(access_fail_prob_fixed(DELTA, edges))
        tv = 0.5 * (np.sum(np.abs(emp - model)) + abs(emp.sum() - model.sum()))
        assert tv <= 0.01


class TestPdfWrite:
    def test_support(self):
        assert pdf_write(WRITE, WRITE.t0) == 0.0
        assert pdf_write(WRITE, 0.5 * WRITE.t0) == 0.0
        assert pdf_write(WRITE, 2.0 * WRITE.t0) > 0.0

    def test_normalization(self):
        hi = write_quantile(WRITE, 1.0 - 1e-10)
        total, _ = quad(
            lambda t: pdf_write(WRITE, t), WRITE.t0, 2.0 * hi,
            points=[1.0001 * WRITE.t0, write_quantile(WRITE, 0.5)], limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_mode_is_interior(self):
        t = np.geomspace(1.000001 * WRITE.t0, write_quantile(WRITE, 1 - 1e-9), 4001)
        dens = pdf_write(WRITE, t)
        k = int(np.argmax(dens))
        assert 0 < k < t.size - 1
        assert t[k] > WRITE.t0

    def test_histogram_total_variation(self):
        rng = np.random.default_rng(8)
        samples = WRITE.t0 * np.exp(rng.normal(WRITE.mu_w, WRITE.sigma_w, 1_000_000) ** 2)
        edges = np.geomspace(write_quantile(WRITE, 1e-5), write_quantile(WRITE, 1 - 1e-5), 101)
        counts, _ = np.histogram(samples, bins=edges)
        emp = counts / samples.size
        model = np.diff([1.0 - write_fail_prob(WRITE, e) for e in edges])
        tv = 0.5 * (np.sum(np.abs(emp - model)) + abs(emp.sum() - model.sum()))
        assert tv <= 0.01


class TestAccessFixed:
    def test_zero_branch(self):
        assert access_fail_prob_fixed(DELTA, -0.01) == 0.0
        assert access_fail_prob_fixed(DELTA, 0.0) == 0.0

    def test_median(self):
        assert access_fail_prob_fixed(DELTA, DELTA.mu_delta**2) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_matches_pdf_quadrature(self):
        for v_os in (0.06, 0.08, 0.095):
            total, _ = quad(lambda v: pdf_delta(DELTA, v), 0.0, v_os, limit=200)
            assert access_fail_prob_fixed(DELTA, v_os) == pytest.approx(total, abs=1e-8)

    def test_monotone_in_moments(self):
        v_os = 0.07  # below the median: the sub-median tail
        base = access_fail_prob_fixed(DELTA, v_os)
        stronger = DeltaVDistribution(mu_delta=0.32, sigma_delta=DELTA.sigma_delta)
        wider = DeltaVDistribution(mu_delta=DELTA.mu_delta, sigma_delta=0.02)
        assert access_fail_prob_fixed(stronger, v_os) < base
        assert access_fail_prob_fixed(wider, v_os) > base

    def test_cdf_grid_invariants(self):
        grid = np.linspace(-0.01, 0.25, 1000)
        cdf = access_fail_prob_fixed(DELTA, grid)
        assert np.all(cdf >= 0.0) and np.all(cdf <= 1.0)
        assert np.all(np.diff(cdf) >= 0.0)


class TestAccessBer:
    def test_delta_function_limit(self):
        narrow = OffsetVoltageDist(mu_vos=0.07, sigma_vos=1e-9)
        want = access_fail_prob_fixed(DELTA, 0.07)
        assert access_fail_prob_ber(DELTA, narrow) == pytest.approx(want, rel=1e-6, abs=0)

    def test_never_positive_offset(self):
        below = OffsetVoltageDist(mu_vos=-0.5, sigma_vos=0.01)
        assert access_fail_prob_ber(DELTA, below) == pytest.approx(0.0, abs=1e-12)

    def test_offset_straddling_zero(self):
        # the zero-branch kink sits inside the window; result is the
        # positive-side partial integral, strictly between the envelope ends
        straddle = OffsetVoltageDist(mu_vos=0.002, sigma_vos=0.01)
        pf = access_fail_prob_ber(DELTA, straddle)
        assert 0.0 < pf < access_fail_prob_fixed(DELTA, 0.002 + 0.08)

    def test_envelope(self):
        lo = access_fail_prob_fixed(DELTA, OFFSET.mu_vos - 8 * OFFSET.sigma_vos)
        hi = access_fail_prob_fixed(DELTA, OFFSET.mu_vos + 8 * OFFSET.sigma_vos)
        pf = access_fail_prob_ber(DELTA, OFFSET)
        assert lo <= pf <= hi

    def test_fixed_rule_matches_quad_on_sweep_pairs(self, default_cell, default_variation):
        # (mu, sigma) pairs along the read grids of a vwl sweep, as `sweep`
        # and `yield` evaluate them: the fixed rule stays within 1e-14 of quad
        # and never needs the fallback
        offset = default_variation.offset
        pairs = []
        for vwl in (0.65, 0.55, 0.45):
            cell = dataclasses.replace(default_cell, vwl=vwl)
            grid = auto_read_grid(cell, offset)
            table = characterize_access(cell, default_variation, grid, n=200)
            pairs += [table.distribution_at(t) for t in np.geomspace(grid[0], grid[-1], 15)]
        got = access_fail_prob_ber(pairs, offset)
        want = np.array([yieldmodel._ber_quad(d.mu_delta, d.sigma_delta, offset) for d in pairs])
        assert np.all(got > 0.0)
        assert np.max(np.abs(got - want) / want) < 1e-14

    @pytest.mark.parametrize("offset", [
        OffsetVoltageDist(mu_vos=0.0, sigma_vos=0.03),  # window straddles 0 V
        OffsetVoltageDist(mu_vos=0.002, sigma_vos=0.01),
        OffsetVoltageDist(mu_vos=0.07, sigma_vos=0.003),  # wholly above 0 V
        OffsetVoltageDist(mu_vos=0.3, sigma_vos=0.01),
    ])
    def test_fixed_rule_matches_quad_on_any_window(self, offset, monkeypatch):
        dists = [DeltaVDistribution(mu, sigma) for mu in (0.1, 0.25, 0.3, 0.4)
                 for sigma in (0.012, 0.02)]
        want = [yieldmodel._ber_quad(d.mu_delta, d.sigma_delta, offset) for d in dists]
        fallbacks = []
        monkeypatch.setattr(yieldmodel, "_ber_quad", lambda *a: fallbacks.append(a) or 0.0)
        got = access_fail_prob_ber(dists, offset)
        assert fallbacks == []
        # quad itself only promises 1e-10 relative
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_window_wholly_below_zero_is_exactly_zero(self):
        below = OffsetVoltageDist(mu_vos=-0.1, sigma_vos=0.01)
        assert access_fail_prob_ber(DELTA, below) == 0.0
        assert access_fail_prob_ber([DELTA, DELTA], below).tolist() == [0.0, 0.0]

    def test_steep_pair_falls_back_to_quad(self, monkeypatch):
        # a tiny sigma_delta puts the whole CDF step inside one panel, where
        # the 16- and 32-node rules disagree: that pair, and only that one,
        # goes to quad
        offset = OffsetVoltageDist(mu_vos=0.05, sigma_vos=0.005)
        steep = DeltaVDistribution(mu_delta=0.2, sigma_delta=1e-4)
        calls = []
        ber_quad = yieldmodel._ber_quad
        monkeypatch.setattr(yieldmodel, "_ber_quad",
                            lambda *a: calls.append(a) or ber_quad(*a))
        got = access_fail_prob_ber([DELTA, steep], offset)
        assert calls == [(0.2, 1e-4, offset)]
        assert got[1] == ber_quad(0.2, 1e-4, offset)

    def test_against_joint_monte_carlo(self):
        pf = access_fail_prob_ber(DELTA, OFFSET)
        rng = np.random.default_rng(424242)
        n = 10_000_000
        dv = rng.normal(DELTA.mu_delta, DELTA.sigma_delta, n) ** 2
        v_os = rng.normal(OFFSET.mu_vos, OFFSET.sigma_vos, n)
        fails = int(np.count_nonzero((v_os > 0.0) & (dv < v_os)))
        lo, hi = wilson_ci(fails, n, 0.95)
        assert lo <= pf <= hi


class TestWriteFail:
    def test_median(self):
        t_med = WRITE.t0 * math.exp(WRITE.mu_w**2)
        assert write_fail_prob(WRITE, t_med) == pytest.approx(0.5, rel=1e-14, abs=0)

    def test_floor(self):
        assert write_fail_prob(WRITE, WRITE.t0) == 1.0
        assert write_fail_prob(WRITE, 0.5 * WRITE.t0) == 1.0
        with pytest.raises(DomainError, match="t_write"):
            write_fail_prob(WRITE, 0.0)

    def test_matches_pdf_quadrature(self):
        hi = write_quantile(WRITE, 1.0 - 1e-13)
        for t in (5e-12, 1e-11, 3e-11):
            total, _ = quad(lambda u: pdf_write(WRITE, u), t, hi, limit=300)
            assert write_fail_prob(WRITE, t) == pytest.approx(total, abs=1e-8)

    def test_monotone_nonincreasing(self):
        grid = np.geomspace(1.01 * WRITE.t0, 1e-9, 1000)
        pf = np.array([write_fail_prob(WRITE, t) for t in grid])
        assert np.all(pf >= 0.0) and np.all(pf <= 1.0)
        assert np.all(np.diff(pf) <= 0.0)


class TestQuantiles:
    def test_delta_median_and_clamp(self):
        assert delta_quantile(DELTA, 0.5) == pytest.approx(DELTA.mu_delta**2, rel=1e-14, abs=0)
        assert delta_quantile(DELTA, 1e-300) == 0.0

    def test_write_median(self):
        assert write_quantile(WRITE, 0.5) == pytest.approx(
            WRITE.t0 * math.exp(WRITE.mu_w**2), rel=1e-14
        )

    @given(q=st.floats(1e-4, 1.0 - 1e-4))
    @settings(max_examples=80, deadline=None)
    def test_delta_round_trip(self, q):
        dv = delta_quantile(DELTA, q)
        assert access_fail_prob_fixed(DELTA, dv) == pytest.approx(q, rel=1e-10, abs=0)

    @given(q=st.floats(1e-4, 1.0 - 1e-4))
    @settings(max_examples=80, deadline=None)
    def test_write_round_trip(self, q):
        t = write_quantile(WRITE, q)
        assert 1.0 - write_fail_prob(WRITE, t) == pytest.approx(q, rel=1e-10, abs=0)


class TestRelativeError:
    def test_examples(self):
        assert relative_error(2e-5, 1e-5) == pytest.approx(0.5, rel=1e-15, abs=0)
        assert relative_error(3.4e-4, 3.4e-4) == 0.0

    def test_zero_reference(self):
        with pytest.raises(DomainError, match="reference"):
            relative_error(0.0, 1e-5)


class TestCharacterization:
    @staticmethod
    def synthetic_table(points=8):
        # mu grows and sigma shrinks slightly with the read window, like a
        # real discharge curve
        t = np.geomspace(5e-11, 2e-10, points)
        mu = 0.22 + 0.5 * np.sqrt(t / t[-1]) * 0.16
        sg = 0.012 - 0.002 * np.linspace(0.0, 1.0, points)
        return AccessCharacterization(
            t_read=tuple(t), mu_delta=tuple(mu), sigma_delta=tuple(sg)
        )

    def test_validation(self):
        with pytest.raises(DomainError, match="at least 1"):
            AccessCharacterization(t_read=(), mu_delta=(), sigma_delta=())
        with pytest.raises(DomainError, match="equal length"):
            AccessCharacterization(t_read=(1e-10, 2e-10), mu_delta=(0.3,), sigma_delta=(0.01, 0.01))
        with pytest.raises(DomainError, match="strictly increasing"):
            AccessCharacterization(
                t_read=(2e-10, 1e-10), mu_delta=(0.3, 0.3), sigma_delta=(0.01, 0.01)
            )
        with pytest.raises(DomainError, match="positive"):
            AccessCharacterization(
                t_read=(1e-10, 2e-10), mu_delta=(0.3, -0.3), sigma_delta=(0.01, 0.01)
            )

    def test_nodes_are_exact(self):
        table = self.synthetic_table()
        for i, t in enumerate(table.t_read):
            dist = table.distribution_at(t)
            assert dist.mu_delta == pytest.approx(table.mu_delta[i], rel=1e-14, abs=0)
            assert dist.sigma_delta == pytest.approx(table.sigma_delta[i], rel=1e-14, abs=0)

    def test_interpolation_is_monotone_between_nodes(self):
        table = self.synthetic_table()
        ts = np.linspace(table.t_read[0], table.t_read[-1], 400)
        mus = [table.distribution_at(t).mu_delta for t in ts]
        assert np.all(np.diff(mus) >= 0.0)

    def test_out_of_range_raises(self):
        table = self.synthetic_table()
        with pytest.raises(DomainError, match="outside the characterized grid"):
            table.distribution_at(table.t_read[0] * 0.5)

    def test_single_row_table(self):
        table = AccessCharacterization(
            t_read=(1e-10,), mu_delta=(0.3,), sigma_delta=(0.01,)
        )
        dist = table.distribution_at(1e-10)
        assert (dist.mu_delta, dist.sigma_delta) == (0.3, 0.01)
        assert table.ber_at([1e-10, 1e-10], OFFSET).tolist() == [
            access_fail_prob_ber(dist, OFFSET)] * 2
        with pytest.raises(DomainError, match="outside"):
            table.distribution_at(1.1e-10)
        with pytest.raises(DomainError, match="outside"):
            table.ber_at([1e-10, 1.1e-10], OFFSET)

    def test_ber_at_delegates(self):
        table = self.synthetic_table()
        t = table.t_read[3]
        assert table.ber_at(t, OFFSET) == access_fail_prob_ber(
            table.distribution_at(t), OFFSET
        )

    def test_scalar_ber_equals_array_element(self):
        # each value is summed node by node, so it is the same bits alone
        # or in a call of any length
        table = self.synthetic_table()
        times = np.geomspace(table.t_read[0], table.t_read[-1], 7)
        for offset in (OFFSET, OffsetVoltageDist(mu_vos=0.0, sigma_vos=0.03)):
            scalar = [table.ber_at(t, offset) for t in times]
            for k in (1, 2, 7):
                assert table.ber_at(times[:k], offset).tolist() == scalar[:k]
            assert table.ber_at(times[::-1], offset).tolist() == scalar[::-1]

    def test_one_pchip_equals_two(self):
        # the 2-column interpolant repeats the per-moment ones bit for bit
        t = np.geomspace(5e-11, 2e-10, 12)
        mu = 0.22 + 0.08 * np.sqrt(t / t[-1]) + 0.004 * np.sin(np.arange(12))
        sg = 0.012 - 0.002 * np.cos(np.arange(12))  # not monotone: flat PCHIP slopes
        table = AccessCharacterization(t_read=tuple(t), mu_delta=tuple(mu), sigma_delta=tuple(sg))
        mu_of = PchipInterpolator(t, mu, extrapolate=False)
        sg_of = PchipInterpolator(t, sg, extrapolate=False)
        times = np.concatenate([t, np.geomspace(t[0], t[-1], 50)])

        def separate(v):
            return DeltaVDistribution(mu_delta=float(mu_of(v)), sigma_delta=float(sg_of(v)))

        for v in times:
            assert table.distribution_at(v) == separate(v)
            assert table.ber_at(v, OFFSET) == access_fail_prob_ber(separate(v), OFFSET)
        assert table.ber_at(times, OFFSET).tolist() == access_fail_prob_ber(
            [separate(v) for v in times], OFFSET).tolist()

    def test_round_trip(self):
        table = self.synthetic_table()
        clone = AccessCharacterization.from_dict(table.to_dict())
        assert clone.t_read == table.t_read
        assert clone.mu_delta == table.mu_delta
        assert clone.sigma_delta == table.sigma_delta


class TestPchipPort:
    """The numpy PCHIP of AccessCharacterization against scipy's, bit for bit."""

    # repeated levels give flat segments and slope sign changes; no level is
    # so small that a secant slope overflows the harmonic mean
    LEVEL = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                      st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-6))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scipy_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 9), label="points")
        start = data.draw(st.floats(-1e3, 1e3, allow_subnormal=False), label="x0")
        gaps = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
        x = np.cumsum([start, *gaps])
        assume(np.all(np.diff(x) > 0.0))
        y = np.array(data.draw(st.lists(st.tuples(self.LEVEL, self.LEVEL),
                                        min_size=n, max_size=n), label="y"))
        inside = data.draw(st.lists(st.tuples(st.integers(0, n - 2), st.floats(0.0, 1.0)),
                                    max_size=8), label="interior")
        ts = [*x, *(x[i] + f * (x[i + 1] - x[i]) for i, f in inside)]
        port = yieldmodel._Pchip(x, y)
        ref = PchipInterpolator(x, y, extrapolate=False)
        for t in ts:  # every node, both grid ends included
            if x[0] <= t <= x[-1]:
                assert port(t).tolist() == ref(t).tolist()
        # a batch of tables: each row has the bits of its table alone
        flipped = y[:, ::-1] * 2.0
        batch = yieldmodel._Pchip(np.stack([x, x]), np.stack([y, flipped]))
        alone = yieldmodel._Pchip(x, flipped)
        for t in ts:
            if x[0] <= t <= x[-1]:
                assert batch([t, t]).tolist() == [port(t).tolist(), alone(t).tolist()]


def port_brentq(f, xa, xb, xtol, rtol):
    """The lockstep Brent port on one lane, for f of one float."""
    def lane(x, lanes):
        return np.array([f(v) for v in x.tolist()])

    return yieldmodel._brentq(lane, [xa], [xb], [f(xa)], [f(xb)], xtol=xtol, rtol=rtol).item()


class TestBrentPort:
    """The Brent root finder of invert_for_constraint against scipy's brentq."""

    @staticmethod
    def counted(f, calls):
        def wrapped(x):
            calls.append(x)
            return f(x)
        return wrapped

    @pytest.mark.parametrize("target", [FOUR_SIGMA_PF, 1e-2, 1e-3])
    def test_matches_scipy_on_bundled_characterization(self, default_cell,
                                                       default_variation, target):
        offset = default_variation.offset
        table = characterize_access(default_cell, default_variation,
                                    auto_read_grid(default_cell, offset), n=200)
        lo, hi = table.t_read[0], table.t_read[-1]

        def f(t):
            return table.ber_at(t, offset) - target

        port_calls, ref_calls = [], []
        port = port_brentq(self.counted(f, port_calls), lo, hi, xtol=1e-12 * lo, rtol=1e-12)
        ref = brentq(self.counted(f, ref_calls), lo, hi, xtol=1e-12 * lo, rtol=1e-12)
        assert port == ref
        assert port_calls == ref_calls
        assert invert_for_constraint(table, target, offset=offset) == ref

    @staticmethod
    def synthetic(x, root, cubic, damp):
        u = x - root
        return u * (1.0 + cubic * u * u) * np.exp(-damp * np.abs(u))

    @settings(max_examples=300, deadline=None)
    @given(root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 10.0),
           right=st.floats(1e-6, 10.0), cubic=st.floats(0.0, 10.0),
           damp=st.floats(0.0, 5.0))
    def test_matches_scipy_on_synthetic_brackets(self, root, left, right, cubic, damp):
        def f(x):
            u = x - root
            return u * (1.0 + cubic * u * u) * math.exp(-damp * abs(u))

        port_calls, ref_calls = [], []
        port = port_brentq(self.counted(f, port_calls), root - left, root + right,
                           xtol=1e-12, rtol=1e-12)
        ref = brentq(self.counted(f, ref_calls), root - left, root + right,
                     xtol=1e-12, rtol=1e-12)
        assert port == ref
        assert port_calls == ref_calls

    def test_lockstep_lanes_match_lanes_alone(self):
        # every lane takes its own steps and drops out of f once converged
        rng = np.random.default_rng(7)
        m = 40
        root, cubic, damp = rng.uniform(-5, 5, m), rng.uniform(0, 10, m), rng.uniform(0, 5, m)
        xa, xb = root - rng.uniform(1e-6, 10, m), root + rng.uniform(1e-6, 10, m)
        xtol = rng.uniform(1e-14, 1e-10, m)
        calls = []

        def f(x, lanes):
            calls.append(lanes)
            return self.synthetic(x, root[lanes], cubic[lanes], damp[lanes])

        lanes = np.arange(m)
        got = yieldmodel._brentq(f, xa, xb, f(xa, lanes), f(xb, lanes), xtol=xtol, rtol=1e-12)
        counts = np.bincount(np.concatenate(calls), minlength=m)
        for i in range(m):
            alone = []

            def one(x, _, i=i):
                alone.append(x)
                return self.synthetic(x, root[i], cubic[i], damp[i])

            ends = one(xa[i:i + 1], None), one(xb[i:i + 1], None)
            assert yieldmodel._brentq(one, xa[i:i + 1], xb[i:i + 1], *ends,
                                      xtol=xtol[i], rtol=1e-12)[0] == got[i]
            assert counts[i] == len(alone)

    def test_no_convergence_is_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(yieldmodel, "_BRENT_MAX_ITER", 3)
        with pytest.raises(RuntimeError):
            brentq(math.atan, -1.0, 2.0, xtol=1e-12, rtol=1e-12, maxiter=3)
        with pytest.raises(DomainError, match="did not converge in 3 iterations"):
            port_brentq(math.atan, -1.0, 2.0, xtol=1e-12, rtol=1e-12)

    def test_unbracketed_root_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no sign change"):
            port_brentq(math.atan, 1.0, 2.0, xtol=1e-12, rtol=1e-12)


class TestInversion:
    def test_write_round_trip(self):
        for pf in (1e-6, 1e-4, 1e-2, 0.5):
            t = invert_for_constraint(WRITE, pf)
            assert write_fail_prob(WRITE, t) == pytest.approx(pf, rel=1e-10, abs=0)

    def test_write_median_closed_form(self):
        t = invert_for_constraint(WRITE, 0.5)
        assert t == pytest.approx(WRITE.t0 * math.exp(WRITE.mu_w**2), rel=1e-12, abs=0)

    def test_write_ceiling(self):
        with pytest.warns(UserWarning):
            squat = WriteTimeDistribution(mu_w=0.42, sigma_w=0.11)
        with pytest.raises(DomainError, match="ceiling"):
            invert_for_constraint(squat, 1.0 - 1e-6)

    def test_target_range_validation(self):
        with pytest.raises(DomainError, match="target_pf"):
            invert_for_constraint(WRITE, 0.0)
        with pytest.raises(DomainError, match="target_pf"):
            invert_for_constraint(WRITE, 1.0)

    def test_access_round_trip(self):
        table = TestCharacterization.synthetic_table()
        pf_mid = math.sqrt(table.ber_at(table.t_read[0], OFFSET)
                           * table.ber_at(table.t_read[-1], OFFSET))
        t = invert_for_constraint(table, pf_mid, offset=OFFSET)
        assert table.t_read[0] < t < table.t_read[-1]
        assert table.ber_at(t, OFFSET) == pytest.approx(pf_mid, rel=1e-9, abs=0)

    @pytest.mark.parametrize("c_blb, vwl", [(1e-21, 0.55), (50e-15, 0.5)])
    def test_access_root_tolerance_is_relative(self, default_cell, default_variation,
                                               c_blb, vwl):
        # an absolute 1e-18 s tolerance returned the grid end of the sub-femtosecond
        # cell (BER 80 % off target) and a root good to 1.2e-8 on the default cell
        cell = dataclasses.replace(default_cell, c_blb=c_blb, vwl=vwl)
        offset = default_variation.offset
        grid = auto_read_grid(cell, offset, 12)
        table = characterize_access(cell, default_variation, grid, n=200)
        t = invert_for_constraint(table, FOUR_SIGMA_PF, offset=offset)
        assert grid[0] < t < grid[-1]
        assert table.ber_at(t, offset) == pytest.approx(FOUR_SIGMA_PF, rel=1e-12, abs=0)

    def test_access_requires_offset(self):
        table = TestCharacterization.synthetic_table()
        with pytest.raises(DomainError, match="offset"):
            invert_for_constraint(table, 1e-3)

    def test_access_out_of_grid_range(self):
        table = TestCharacterization.synthetic_table()
        easy = table.ber_at(table.t_read[-1], OFFSET)
        with pytest.raises(DomainError, match="achievable range"):
            invert_for_constraint(table, easy * 1e-6, offset=OFFSET)

    def test_access_single_point_grid(self):
        table = AccessCharacterization(
            t_read=(1e-10,), mu_delta=(0.3,), sigma_delta=(0.012,)
        )
        pf = table.ber_at(1e-10, OFFSET)
        assert invert_for_constraint(table, pf, offset=OFFSET) == 1e-10

    def test_unsupported_type(self):
        with pytest.raises(DomainError, match="cannot invert"):
            invert_for_constraint(OFFSET, 0.5)
        with pytest.raises(DomainError, match="cannot invert a OffsetVoltageDist"):
            invert_for_constraint([WRITE, OFFSET], 0.5)

    @pytest.mark.parametrize("target", [1e-17, 2.0**-54])
    def test_write_target_below_resolution(self, target):
        # 1 - target rounds to 1: the inversion used to return inf
        with pytest.raises(DomainError, match="below the resolution"):
            invert_for_constraint(WRITE, target)
        assert math.isfinite(invert_for_constraint(WRITE, 2.0**-53))

    def test_write_time_overflow(self):
        huge = WriteTimeDistribution(mu_w=30.0, sigma_w=1.0)
        with pytest.raises(DomainError, match="overflows"):
            invert_for_constraint(huge, 0.5)

    def test_sequence_matches_items_alone(self, default_cell, default_variation):
        offset = default_variation.offset
        cells = [dataclasses.replace(default_cell, vwl=v) for v in (0.6, 0.55, 0.5, 0.45)]
        tables = characterize_access(cells, default_variation,
                                     auto_read_grid(cells, offset, 12), n=200)
        tables.append(characterize_access(cells[0], default_variation,
                                          auto_read_grid(cells[0], offset, 7), n=200))
        for target in (FOUR_SIGMA_PF, 1e-3):
            batch = invert_for_constraint(tables, target, offset=offset)
            assert batch.tolist() == [invert_for_constraint(t, target, offset=offset)
                                      for t in tables]
        writes = [WRITE, dataclasses.replace(WRITE, mu_w=1.7), dataclasses.replace(WRITE, t0=1e-13)]
        batch = invert_for_constraint(tuple(writes), 1e-4)
        assert batch.tolist() == [invert_for_constraint(w, 1e-4) for w in writes]


def brentq_read_grid(cell, offset, points=12, z_lo=1.6, z_hi=5.2):
    """Reference grid: the nominal closed discharge root-found by doubling and brentq."""
    nominal = cell.nmos.vth_nominal

    def t_for(dv_target):
        lo, hi = 1e-15, 1e-15
        while delta_v_closed(cell, nominal, hi) < dv_target:
            hi *= 2.0
        return brentq(lambda t: delta_v_closed(cell, nominal, t) - dv_target,
                      lo, hi, xtol=1e-30, rtol=1e-15)

    return np.geomspace(t_for(offset.mu_vos + z_lo * offset.sigma_vos),
                        t_for(offset.mu_vos + z_hi * offset.sigma_vos), points)


class TestAutoReadGrid:
    def test_rows_match_cells_alone(self, default_cell):
        cells = [dataclasses.replace(default_cell, vwl=v) for v in (0.65, 0.5, 0.45)]
        cells.append(dataclasses.replace(default_cell, temperature_c=85.0))
        grids = auto_read_grid(cells, OFFSET, points=12)
        assert grids.shape == (4, 12)
        for grid, cell in zip(grids, cells):
            assert grid.tolist() == auto_read_grid(cell, OFFSET, points=12).tolist()

    def test_endpoints_hit_offset_quantiles(self, default_cell):
        grid = auto_read_grid(default_cell, OFFSET, points=12)
        assert grid.shape == (12,)
        nominal = default_cell.nmos.vth_nominal
        dv_lo = OFFSET.mu_vos + 1.6 * OFFSET.sigma_vos
        dv_hi = OFFSET.mu_vos + 5.2 * OFFSET.sigma_vos
        assert delta_v_closed(default_cell, nominal, grid[0]) == pytest.approx(dv_lo, rel=1e-13, abs=0)
        assert delta_v_closed(default_cell, nominal, grid[-1]) == pytest.approx(dv_hi, rel=1e-13, abs=0)

    def test_ends_match_root_finder_on_vwl_sweep(self, default_cell, default_variation):
        for vwl in np.linspace(0.65, 0.45, 81):
            cell = dataclasses.replace(default_cell, vwl=vwl)
            grid = auto_read_grid(cell, default_variation.offset, points=12)
            ref = brentq_read_grid(cell, default_variation.offset, points=12)
            assert np.all(np.abs(grid[[0, -1]] / ref[[0, -1]] - 1.0) <= 1e-14), vwl

    def test_no_forward_discharge_calls(self, default_cell, monkeypatch):
        calls = {"delta_v_closed": 0, "read_time_closed": 0}
        for module, name in ((transients, "delta_v_closed"), (yieldmodel, "read_time_closed")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        auto_read_grid(default_cell, OFFSET, points=12)
        assert calls == {"delta_v_closed": 0, "read_time_closed": 1}  # both ends at once
        assert not hasattr(yieldmodel, "delta_v_closed")

    def test_unreachable_end_is_domain_error(self, default_cell):
        slow = dataclasses.replace(default_cell, c_blb=1.0)  # ends far past 1 s
        strong = dataclasses.replace(default_cell.nmos, i0=1.0)
        instant = dataclasses.replace(default_cell, nmos=strong, c_blb=5e-324)  # t underflows
        for cell in (slow, instant):
            with pytest.raises(DomainError, match="cannot reach delta_v"):
                auto_read_grid(cell, OFFSET, points=4)

    def test_geometric_spacing(self, default_cell):
        grid = auto_read_grid(default_cell, OFFSET, points=9)
        ratios = grid[1:] / grid[:-1]
        assert np.ptp(ratios) < 1e-9 * ratios[0]

    def test_point_count_validation(self, default_cell):
        with pytest.raises(DomainError, match="at least 2"):
            auto_read_grid(default_cell, OFFSET, points=1)

    def test_window_must_fit_below_vdd(self, default_cell):
        wide = OffsetVoltageDist(mu_vos=0.45, sigma_vos=0.02)
        with pytest.raises(DomainError, match="does not fit"):
            auto_read_grid(default_cell, wide, points=4)
        negative = OffsetVoltageDist(mu_vos=-0.2, sigma_vos=0.001)
        with pytest.raises(DomainError, match="does not fit"):
            auto_read_grid(default_cell, negative, points=4)


class TestQqPoints:
    def test_self_sampling_correlation(self):
        rng = np.random.default_rng(11)
        dv = rng.normal(DELTA.mu_delta, DELTA.sigma_delta, 100_000) ** 2
        points, corr = qq_points(dv, DELTA)
        assert points.shape == (100_000, 2)
        assert corr >= 0.999
        t = WRITE.t0 * np.exp(rng.normal(WRITE.mu_w, WRITE.sigma_w, 100_000) ** 2)
        _, corr_w = qq_points(t, WRITE)
        assert corr_w >= 0.999

    def test_tail_restriction(self):
        rng = np.random.default_rng(12)
        dv = rng.normal(DELTA.mu_delta, DELTA.sigma_delta, 100_000) ** 2
        points, corr = qq_points(dv, DELTA, tail="low", tail_fraction=0.01)
        assert points.shape == (1000, 2)
        assert corr >= 0.995
        t = WRITE.t0 * np.exp(rng.normal(WRITE.mu_w, WRITE.sigma_w, 100_000) ** 2)
        points_h, corr_h = qq_points(t, WRITE, tail="high", tail_fraction=0.01)
        assert corr_h >= 0.995
        # highest percentile: empirical column must all sit above the median
        assert np.all(points_h[:, 1] > write_quantile(WRITE, 0.5))

    def test_tail_rows_match_full_output(self):
        rng = np.random.default_rng(13)
        dv = rng.normal(DELTA.mu_delta, DELTA.sigma_delta, 10_000) ** 2
        full, _ = qq_points(dv, DELTA)
        low, _ = qq_points(dv, DELTA, tail="low", tail_fraction=0.05)
        assert np.array_equal(low, full[: low.shape[0]])
        high, _ = qq_points(dv, DELTA, tail="high", tail_fraction=0.05)
        assert np.array_equal(high, full[-high.shape[0]:])

    def test_sample_count_floor(self):
        with pytest.raises(DegenerateStatisticsError, match="at least 100"):
            qq_points(np.full(99, 0.09), DELTA)

    def test_constant_samples(self):
        with pytest.raises(DegenerateStatisticsError, match="constant"):
            qq_points(np.full(500, 0.09), DELTA)

    def test_argument_validation(self):
        rng = np.random.default_rng(14)
        dv = rng.normal(0.3, 0.01, 200) ** 2
        with pytest.raises(DomainError, match="tail_fraction"):
            qq_points(dv, DELTA, tail="low", tail_fraction=0.0)
        with pytest.raises(DomainError, match="tail"):
            qq_points(dv, DELTA, tail="middle")
        with pytest.raises(DomainError, match="does not support"):
            qq_points(dv, OFFSET)


class TestSerialization:
    @pytest.mark.parametrize(
        "obj",
        [
            DELTA,
            WRITE,
            OFFSET,
            AccessCharacterization(
                t_read=(1e-10, 2e-10), mu_delta=(0.28, 0.33), sigma_delta=(0.012, 0.011)
            ),
        ],
        ids=["delta", "write", "offset", "characterization"],
    )
    def test_json_round_trip(self, obj, tmp_path):
        path = tmp_path / "dist.json"
        write_json(path, obj.to_dict())
        clone = read_distribution_json(path)
        assert type(clone) is type(obj)
        assert clone.to_dict() == obj.to_dict()

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"kind": "poisson", "schema": 1}\n')
        with pytest.raises(ParseError, match="unknown distribution kind"):
            read_distribution_json(path)

    def test_garbled_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ParseError):
            read_distribution_json(path)

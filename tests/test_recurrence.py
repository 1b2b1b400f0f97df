import dataclasses
import hashlib
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radnls import core, evolution, recurrence

from conftest import mass

LADDER = tuple(2.0**k for k in range(0, 12))


def power_sequence(exponent, ladder=LADDER, cap=math.inf):
    return recurrence.ASequence(ladder, tuple(min(cap, N**exponent) for N in ladder),
                                "synthetic")


def dyadic_ladder(n_max):
    """1, 2, 4, ..., n_max."""
    return tuple(2.0**k for k in range(round(math.log2(n_max)) + 1))


def make_params(**kw):
    base = dict(s=1.25, gamma=0.2, c1=1.0, m0=1.0, beta_prime=1e-15, a_bound=1.0)
    base.update(kw)
    return recurrence.RecurrenceParams(**base)


def loop_rhs_sum(scales, values, params, N):
    """The recurrence sum by hand: (M/N)^s A_M over M0 < M <= 2 beta' N (1 + 1e-12)."""
    top = 2.0 * params.beta_prime * N * (1.0 + 1e-12)
    return sum((M / N) ** params.s * a for M, a in zip(scales, values) if params.m0 < M <= top)


def loop_window_rungs(scales, params, N):
    """The rungs of loop_rhs_sum's window, counted by hand."""
    top = 2.0 * params.beta_prime * N * (1.0 + 1e-12)
    return sum(1 for M in scales if params.m0 < M <= top)


def sums_matching_loop(seq, params):
    """check_recurrence's sum_term per N, each checked against loop_rhs_sum at 1e-13,
    and its window_rungs against loop_window_rungs."""
    rep = recurrence.check_recurrence(seq, params)
    sums = {N: ssum for N, _, ssum, *_ in rep.rows}
    for N, ssum in sums.items():
        expected = loop_rhs_sum(seq.scales, seq.values, params, N)
        assert ssum == pytest.approx(expected, rel=1e-13, abs=0.0), N
    rungs = [loop_window_rungs(seq.scales, params, N) for N in sums]
    assert [r[6] for r in rep.rows] == rungs
    assert rep.nonempty_windows == sum(1 for r in rungs if r)
    return sums


def oracle_trial(seq, s, gamma, beta, a_bound):
    """Calibrate C1 on seq and verify: applicable, and agrees with A_N <= 2 C1 N^(-s+gamma)."""
    c1 = max(recurrence.check_recurrence(
        seq, recurrence.RecurrenceParams(s, gamma, 1.0, 1.0, beta, a_bound)).minimal_c1, 1e-6)
    report = recurrence.verify_recursive_control(
        seq, recurrence.RecurrenceParams(s, gamma, c1, 1.0, beta, a_bound))
    brute = all(a <= 2 * c1 * N ** (-s + gamma) * (1 + 1e-12) + 1e-12
                for N, a in zip(seq.scales, seq.values))
    return bool(report.applicable and report.overall_pass == brute)


def zero_trajectory(grid, n_snaps=51, dt=1e-3):
    cfg = evolution.SimulationConfig(dimension=grid.d, mu=0, r_max=grid.r_max,
                                     n=grid.n, dt=dt, t_final=(n_snaps - 1) * dt,
                                     cadence=1)
    return evolution.Trajectory(cfg, grid, [i * dt for i in range(n_snaps)],
                                np.zeros((n_snaps, grid.n)), [0.0] * n_snaps, [0.0] * n_snaps,
                                None, ())


class TestStrichartzNorm:
    def test_zero_trajectory(self, grid):
        traj = zero_trajectory(grid, n_snaps=101)
        assert recurrence.strichartz_norm(traj, (0.0, 0.1)) == 0.0

    def test_constant_in_time_field(self, grid, corpus):
        f = corpus[0]
        traj = dataclasses.replace(zero_trajectory(grid, n_snaps=1001), values=[f] * 1001)
        value = recurrence.strichartz_norm(traj, (0.0, 1.0))
        expected = max(math.sqrt(mass(grid, f)), float(core._power_sum(grid, f, 4.0)) ** 0.25)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_solitary_wave_value(self, sw_dense, ground):
        # |u(t)| = Q pointwise, so both components reduce to norms of Q
        value = recurrence.strichartz_norm(sw_dense, (0.0, 1.0))
        expected = max(math.sqrt(ground.mass),
                       float(core._power_sum(ground.grid, ground.profile.values, 4.0)) ** 0.25)
        assert value == pytest.approx(expected, rel=1e-6)

    def test_sparse_cadence_rejected(self, pc_traj):
        with pytest.raises(ValueError, match="dense"):
            recurrence.strichartz_norm(pc_traj, (0.0, 0.1))

    def test_coverage_enforced(self, sw_dense):
        with pytest.raises(ValueError):
            recurrence.strichartz_norm(sw_dense, (0.0, 2.0))


class TestExtractSequence:
    def test_zero_trajectory_gives_zeros(self, grid):
        traj = zero_trajectory(grid, n_snaps=600)
        seq = recurrence.extract_A_sequence(traj, (4.0, 8.0, 16.0))
        assert all(v == 0.0 for v in seq.values)
        assert seq.provenance == "extracted-from-trajectory"

    def test_solitary_wave_sequence(self, sw_dense, ground):
        seq = recurrence.extract_A_sequence(sw_dense, (4.0, 8.0, 16.0, 32.0))
        vals = list(seq.values)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # steeper than any fixed power across the ladder
        assert vals[-1] < vals[0] * (32.0 / 4.0) ** -3
        a_cap = recurrence.strichartz_norm(sw_dense, (0.0, 1.0)) + 1.0
        assert all(v <= a_cap for v in vals)

    def test_coverage_gap_rejected(self, sw_dense):
        with pytest.raises(ValueError):
            recurrence.extract_A_sequence(sw_dense, (0.5, 1.0, 2.0))

    def test_minimal_c1_grid_stable(self, sw_dense, grid_double, ground_double):
        # extract the window-norm sequence from matched solitary-wave runs on
        # the base and doubled grids; the smallest workable C1 agrees
        from radnls import evolution

        cfg = evolution.SimulationConfig(dimension=4, mu=-1,
                                         r_max=grid_double.r_max, n=grid_double.n,
                                         dt=1e-3, t_final=0.5, cadence=1)
        dense_double = evolution.evolve(cfg, grid_double, ground_double.profile.values)
        params = make_params(s=1.25, gamma=0.2, beta_prime=0.05, m0=4.0,
                             a_bound=1e3)
        c1s = []
        for traj in (sw_dense, dense_double):
            seq = recurrence.extract_A_sequence(traj, (4.0, 8.0, 16.0, 32.0))
            c1s.append(recurrence.check_recurrence(seq, params).minimal_c1)
        assert all(np.isfinite(c) and c > 0 for c in c1s)
        assert abs(c1s[1] / c1s[0] - 1.0) < 0.3


class TestCheckRecurrence:
    def test_zero_sequence_slack_is_base_term(self):
        params = make_params()
        seq = recurrence.ASequence(LADDER, tuple(0.0 for _ in LADDER), "synthetic")
        rep = recurrence.check_recurrence(seq, params)
        assert rep.holds_with_given_c1
        for (N, _, _, _, slack, *_) in rep.rows:
            assert slack == pytest.approx(params.c1 * N**-params.s, rel=1e-12)

    def test_power_sequence_first_term_dominates(self):
        params = make_params()
        rep = recurrence.check_recurrence(power_sequence(-1.25), params)
        assert rep.holds_with_given_c1
        assert rep.minimal_c1 <= 1.0 + 1e-9

    def test_minimal_c1_grows_when_beta_shrinks(self):
        vals = tuple(min(1.0, N**-0.6) for N in LADDER)
        seq = recurrence.ASequence(LADDER, vals, "synthetic")
        p_wide = make_params(s=1.5, gamma=0.3, beta_prime=0.25, a_bound=1.0)
        p_half = make_params(s=1.5, gamma=0.3, beta_prime=0.125, a_bound=1.0)
        c_wide = recurrence.check_recurrence(seq, p_wide).minimal_c1
        c_half = recurrence.check_recurrence(seq, p_half).minimal_c1
        assert c_half >= c_wide - 1e-12
        # the increase is bounded by the removed terms' total
        removed = max(
            sum((M / N) ** p_wide.s * a
                for M, a in zip(LADDER, vals)
                if 2 * p_half.beta_prime * N < M <= 2 * p_wide.beta_prime * N)
            / (p_wide.m0**p_wide.s * N**-p_wide.s)
            for N in LADDER)
        assert c_half <= c_wide + removed + 1e-9

    def test_sequence_gap_rejected(self):
        with pytest.raises(ValueError):
            recurrence.ASequence((1.0, 4.0, 8.0), (1.0, 1.0, 1.0), "synthetic")

    @pytest.mark.parametrize("scales", [(1.0, 2.0, math.inf), (1.0, math.nan, 4.0),
                                        (math.inf, math.inf), (0.0, 0.0), (-1.0, -2.0)])
    def test_non_finite_or_non_positive_scales_rejected(self, scales):
        with pytest.raises(ValueError, match="finite and positive"):
            recurrence.ASequence(scales, tuple(1.0 for _ in scales), "synthetic")

    @pytest.mark.parametrize("factor, included", [(1.0, True), (1.0 + 1e-13, True),
                                                  (1.0 + 1e-12, True), (1.0 + 1e-11, False)])
    def test_right_edge_inclusive_to_1e_12(self, factor, included):
        # beta' = 1/4 puts 2 beta' N at N/2; the rung near 4 sits at the edge for N = 8
        params = make_params(beta_prime=0.25, a_bound=10.0)
        seq = recurrence.ASequence((1.0, 2.0, 4.0 * factor, 8.0, 16.0),
                                   (1.0, 1.0, 1.0, 1.0, 1.0), "synthetic")
        sums = sums_matching_loop(seq, params)
        expected = 0.25**params.s + (factor / 2.0) ** params.s * included
        assert sums[8.0] == pytest.approx(expected, rel=1e-13)

    def test_rung_at_m0_excluded(self):
        params = make_params(m0=2.0, beta_prime=0.25, a_bound=10.0)
        seq = recurrence.ASequence((1.0, 2.0, 4.0, 8.0, 16.0),
                                   (3.0, 5.0, 7.0, 11.0, 13.0), "synthetic")
        sums = sums_matching_loop(seq, params)
        assert sums[8.0] == pytest.approx(0.5**params.s * 7.0, rel=1e-13)
        assert sums[2.0] == sums[4.0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(1.05, 3.0),
           beta=st.one_of(st.sampled_from([0.5, 0.25, 0.125, 2.0**-10]), st.floats(1e-4, 0.9)),
           m0=st.sampled_from([1.0, 2.0, 3.0, 1024.0]), rungs=st.integers(1, 60),
           seed=st.integers(0, 10_000))
    def test_sums_match_loop_on_near_dyadic_ladders(self, s, beta, m0, rungs, seed):
        rng = np.random.default_rng(seed)
        scales = [m0 * float(rng.choice([0.5, 1.0, 1.5, 2.0]))]
        for _ in range(rungs - 1):
            eps = float(rng.choice([0.0, 1e-13, 5e-13, 2e-12, 1e-11, 4e-10]))
            scales.append(2.0 * scales[-1] * (1.0 + eps * rng.choice([-1.0, 1.0])))
        values = tuple(float(v) for v in rng.uniform(0.0, 2.0, rungs))
        params = make_params(s=s, gamma=(s - 1.0) / 2.0, m0=m0, beta_prime=beta)
        assume(scales[-1] >= m0)
        sums_matching_loop(recurrence.ASequence(tuple(scales), values, "synthetic"), params)

    # up to 818 rungs, the longest ladder whose base term M0^s N^(-s) stays a normal float
    # at s = 1.25
    @pytest.mark.parametrize("rungs, beta, values", [
        (818, 0.25, "constant"), (818, 1e-16, "constant"), (818, 0.25, "uniform"),
        (818, 0.25, "growing"), (818, 0.25, "power_s"), (818, 1e-16, "power_s")])
    def test_sums_match_loop_on_long_dyadic_ladders(self, rungs, beta, values):
        ladder = dyadic_ladder(2.0 ** (rungs - 1))
        vals = {"constant": [1.0] * rungs,
                "uniform": np.random.default_rng(rungs).uniform(0.0, 2.0, rungs).tolist(),
                "growing": list(ladder),
                "power_s": [N**-1.25 for N in ladder]}[values]
        sums_matching_loop(recurrence.ASequence(ladder, tuple(vals), "synthetic"),
                           make_params(beta_prime=beta))

    def test_819_rung_ladder_rejected(self):
        # at N = 2^818 the base term N^(-1.25) is subnormal, and so would be the sums of
        # a = N^(-s), keeping only a few bits each
        ladder = dyadic_ladder(2.0**818)
        assert ladder[-1] ** -1.25 < sys.float_info.min <= ladder[-2] ** -1.25
        seq = recurrence.ASequence(ladder, tuple(N**-1.25 for N in ladder), "synthetic")
        with pytest.raises(ValueError, match=re.escape(
                f"below the smallest normal float at N = {2.0**818:g}")):
            recurrence.check_recurrence(seq, make_params(beta_prime=0.25))

    def test_underflowing_base_term_rejected(self):
        params = make_params()
        long_ladder = tuple(2.0**k for k in range(900))
        seq = recurrence.ASequence(long_ladder, tuple(0.0 for _ in long_ladder), "synthetic")
        with pytest.raises(ValueError, match=re.escape(
                f"underflows below the smallest normal float at N = {2.0**818:g}")):
            recurrence.check_recurrence(seq, params)
        rep = recurrence.check_recurrence(
            dataclasses.replace(seq, scales=long_ladder[:818], values=seq.values[:818]), params)
        assert rep.holds_with_given_c1 and rep.rows[-1][5] == 0.0


class TestRecursiveControl:
    def test_termwise_power_sequence_passes(self):
        params = make_params(beta_prime=1e-16)
        assert recurrence.admissibility(params)["admissible"]
        rep = recurrence.verify_recursive_control(power_sequence(-1.25), params)
        assert rep.applicable
        assert rep.overall_pass
        for (N, a, bound, ok) in rep.conclusion_rows:
            assert ok and a <= bound * (1 + 1e-12)

    def test_inadmissible_beta_reported_inapplicable(self):
        params = make_params(beta_prime=0.5, a_bound=10.0)
        seq = recurrence.ASequence(LADDER, tuple(10.0 for _ in LADDER), "synthetic")
        rep = recurrence.verify_recursive_control(seq, params)
        assert not rep.applicable
        assert rep.overall_pass is None
        assert any(v.startswith("admissibility") for v in rep.violated)

    def test_saturating_sequence_conclusion_confirmed(self):
        # fixed point of the recurrence map meets the hypothesis with
        # equality; the induction table's limiting bound dominates it
        params = recurrence.RecurrenceParams(s=1.25, gamma=0.2, c1=1.0, m0=1.0,
                                             beta_prime=1e-3, a_bound=10.0)
        ladder = tuple(2.0**k for k in range(0, 21))
        vals = [params.a_bound] * len(ladder)
        for _ in range(400):
            vals = [min(params.a_bound, params.c1 * N**-params.s
                        + loop_rhs_sum(ladder, vals, params, N)) for N in ladder]
        table = recurrence.iterate_induction(params, ladder)
        assert all(v <= table.limit_bound(N) * (1 + 1e-9)
                   for N, v in zip(ladder, vals))

    @pytest.mark.parametrize("m0", [1.0, 2.0])
    def test_induction_replays_the_sequences_own_scales(self, monkeypatch, m0):
        # on a 1.5 * 2^j ladder the table once sat on M0 2^k while the rows sat on 1.5 * 2^j
        tables = []
        replay = recurrence.iterate_induction
        monkeypatch.setattr(recurrence, "iterate_induction",
                            lambda *args: tables.append(replay(*args)) or tables[-1])
        seq = power_sequence(-1.25, tuple(1.5 * 2.0**j for j in range(12)))
        rep = recurrence.verify_recursive_control(seq, make_params(m0=m0, beta_prime=1e-16))
        assert rep.applicable and rep.overall_pass and rep.induction_verified
        rows = tuple(N for N, *_ in rep.conclusion_rows)
        assert tables[0].scales == rows == tuple(N for N in seq.scales if N >= m0)
        assert rep.induction_steps == len(tables[0].js)

    def test_600_rung_ladder_report_pinned(self):
        # the benchmark's lemma ladder: A_M = M^(-s), so each window term (M/N)^s A_M is
        # N^(-s) and sum_term is N^(-s) times the number of rungs 1 < M <= 2 beta' N (1 + 1e-12)
        params = make_params(beta_prime=1e-16)
        rep = recurrence.verify_recursive_control(
            power_sequence(-1.25, dyadic_ladder(2.0**599), cap=1.0), params)
        shift = math.floor(math.log2(2.0 * params.beta_prime * (1.0 + 1e-12)))
        for k, (N, _, ssum, *_, rungs) in enumerate(rep.recurrence.rows):
            assert ssum == pytest.approx(max(0, k + shift) * N**-params.s, rel=1e-12, abs=0.0)
            assert rungs == max(0, k + shift)
        assert rep.recurrence.nonempty_windows == 546
        assert rep.recurrence.minimal_c1 == 1.0 and rep.recurrence.holds_with_given_c1
        assert rep.overall_pass and rep.induction_steps == 13
        # the pinned hash is of the report without the window counts checked above
        recurrence_obj = rep.recurrence.to_json_obj()
        del recurrence_obj["nonempty_windows"]
        for row in recurrence_obj["rows"]:
            del row["window_rungs"]
        blob = json.dumps({"control": rep.to_json_obj(),
                           "recurrence": recurrence_obj}, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "97fcae180d35bcf2aca4cf2777372b3afd8eabf6622230d884c0acf19617980b")

    def test_verify_holds_no_ladder_square_matrix(self):
        # the sums once came from an (L, L) float matrix, 5.4 MB at L = 818
        ladder = dyadic_ladder(2.0**817)
        seq = power_sequence(-1.25, ladder, cap=1.0)
        tracemalloc.start()
        try:
            recurrence.verify_recursive_control(seq, make_params(beta_prime=1e-16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(ladder) ** 2 * 8 / 4

    def test_planted_conclusion_violation_never_passes(self):
        # a sequence that breaks the final bound must break a hypothesis;
        # the verifier reports it inapplicable rather than pass or fail
        params = make_params(s=1.5, gamma=0.4, beta_prime=1e-8, a_bound=1.0)
        assert recurrence.admissibility(params)["admissible"]
        vals = tuple(min(1.0, 5.0 * N ** (-params.s + params.gamma))
                     for N in LADDER)
        seq = recurrence.ASequence(LADDER, vals, "synthetic")
        rep = recurrence.verify_recursive_control(seq, params)
        assert not (rep.applicable and rep.overall_pass)
        assert "recurrence_with_given_c1" in rep.violated

    def test_trivial_bound_violation_detected(self):
        params = make_params(a_bound=0.5, beta_prime=1e-16)
        seq = recurrence.ASequence(LADDER, tuple(1.0 for _ in LADDER), "synthetic")
        rep = recurrence.verify_recursive_control(seq, params)
        assert not rep.applicable
        assert "trivial_bound" in rep.violated

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(1.1, 2.5), gfrac=st.floats(0.1, 0.9),
           a_bound=st.floats(1.0, 20.0), decay=st.floats(0.0, 2.0),
           seed=st.integers(0, 10_000))
    def test_randomized_admissible_agreement(self, s, gfrac, a_bound, decay, seed):
        gamma = gfrac * (s - 1.0) * 0.95
        assume(gamma > 0.02)   # caps underflow for extreme exponents
        probe = recurrence.RecurrenceParams(s, gamma, 1.0, 1.0, 0.5, a_bound)
        beta = recurrence.admissibility(probe)["threshold"] * 0.5
        assume(beta > 1e-290)
        rng = np.random.default_rng(seed)
        ladder = tuple(2.0**k for k in range(35))
        vals = tuple(min(a_bound, a_bound * N ** (-decay * float(rng.uniform(0, 1))))
                     for N in ladder)
        seq = recurrence.ASequence(ladder, vals, "synthetic")
        assert oracle_trial(seq, s, gamma, beta, a_bound)


class TestIterateInduction:
    def test_first_row_is_base_case_bound(self):
        params = make_params(beta_prime=1e-6)
        table = recurrence.iterate_induction(params, dyadic_ladder(1024.0))
        expected = [2 * params.c1 * N ** (-params.s + params.gamma) + params.beta_prime
                    for N in table.scales]
        assert np.allclose(table.bounds[0], expected, rtol=1e-14)

    def test_bounds_strictly_decrease_in_j(self):
        table = recurrence.iterate_induction(make_params(beta_prime=1e-4), dyadic_ladder(256.0))
        for i in range(len(table.js) - 1):
            assert all(b2 < b1 for b1, b2 in zip(table.bounds[i], table.bounds[i + 1]))

    def test_limit_is_geometric_vanishing(self):
        params = make_params(beta_prime=1e-4)
        table = recurrence.iterate_induction(params, dyadic_ladder(256.0))
        final = np.asarray(table.bounds[-1])
        limit = np.asarray([table.limit_bound(N) for N in table.scales])
        assert np.max(np.abs(final - limit) / limit) < 1e-10

    # all steps verify in the first and last case, one of 18 in the second, none in the third
    @pytest.mark.parametrize("s, gamma, beta", [(1.5, 0.3, 1e-3), (1.5, 0.3, 0.05),
                                                (1.25, 0.2, 0.02), (2.0, 0.5, 0.02)])
    def test_steps_match_loop_replay(self, s, gamma, beta):
        params = make_params(s=s, gamma=gamma, beta_prime=beta)
        table = recurrence.iterate_induction(params, dyadic_ladder(2.0**30))
        scales = np.asarray(table.scales)
        limit = 2.0 * params.c1 * params.m0**params.s * scales ** (-params.s + params.gamma)
        for j, ok in zip(table.js, table.steps_verified):
            capped = np.minimum(limit + beta**j, params.a_bound)
            nxt = limit + beta ** (j + 1)
            assert ok == all(
                params.c1 * params.m0**params.s * N**-params.s
                + loop_rhs_sum(scales, capped, params, N) <= b + 1e-12 * max(1.0, b)
                for N, b in zip(scales, nxt))

    def test_steps_verify_for_admissible_params(self):
        params = make_params(s=1.5, gamma=0.3, beta_prime=1e-8, a_bound=2.0)
        table = recurrence.iterate_induction(params, dyadic_ladder(2.0**30))
        assert table.all_steps_verified


class TestAdmissibility:
    def test_dyadic_sum_constant(self):
        s = 1.25
        explicit = sum(2.0 ** (-k * (s - 1)) for k in range(2000))
        assert recurrence.dyadic_sum_constant(s) == pytest.approx(explicit, rel=1e-9)

    def test_threshold_monotone_in_a(self):
        t1 = recurrence.admissibility(make_params(a_bound=1.0))["threshold"]
        t2 = recurrence.admissibility(make_params(a_bound=100.0))["threshold"]
        assert t2 <= t1

    def test_params_validation(self):
        with pytest.raises(ValueError):
            recurrence.RecurrenceParams(s=0.9, gamma=0.2, c1=1, m0=1,
                                        beta_prime=0.1, a_bound=1)
        with pytest.raises(ValueError):
            recurrence.RecurrenceParams(s=1.25, gamma=0.3, c1=1, m0=1,
                                        beta_prime=0.1, a_bound=1)
        with pytest.raises(ValueError):
            recurrence.RecurrenceParams(s=1.25, gamma=0.1, c1=1, m0=0.5,
                                        beta_prime=0.1, a_bound=1)

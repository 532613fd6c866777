import pytest

from glitchsim.dut import (BodModel, Effect, FaultResponseModel,
                           apply_random_delays, execute_trial, run_plan,
                           shift_by, stall_vector, trial_plan)
from glitchsim.scenarios import load_scenario, successive_shifts
from glitchsim.seeding import SLOT_ONE, mix64, slot, slot_offset
from glitchsim.timing import ClockDomains

DOM = ClockDomains(oversampling=20, dut_period_ns=100)
PERFECT = FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=0.0)


def shift_window(scenario, which, dom=DOM):
    """Absolute window fully covering one or both shift instructions."""
    s1 = min(min(t.cycles) for t in scenario.targets)
    K = dom.oversampling
    if which == "both":
        return [(s1 * K, (s1 + 2) * K)]
    if which == "first":
        return [(s1 * K, (s1 + 1) * K)]
    return [((s1 + 1) * K, (s1 + 2) * K)]


class TestExecuteTrial:
    def test_no_windows_nominal_response(self):
        scen = successive_shifts()
        raw = execute_trial(scen, [], DOM, PERFECT, seed=1)
        assert raw.skipped == frozenset()
        assert scen.hits(raw.skipped) == (False, False)
        assert not raw.locked_up

    def test_both_shifts_skipped(self):
        scen = successive_shifts()
        raw = execute_trial(scen, shift_window(scen, "both"), DOM, PERFECT, seed=1)
        assert raw.skipped == scen.target_indices["LSRS"] | scen.target_indices["LSLS"]
        assert scen.hits(raw.skipped) == (True, True)

    def test_only_first_shift_skipped(self):
        scen = successive_shifts()
        raw = execute_trial(scen, shift_window(scen, "first"), DOM, PERFECT, seed=1)
        assert raw.skipped == scen.target_indices["LSRS"]
        assert scen.hits(raw.skipped) == (True, False)

    def test_only_second_shift_skipped(self):
        scen = successive_shifts()
        raw = execute_trial(scen, shift_window(scen, "second"), DOM, PERFECT, seed=1)
        assert raw.skipped == scen.target_indices["LSLS"]
        assert scen.hits(raw.skipped) == (False, True)

    def test_deterministic_given_seed(self):
        scen = successive_shifts()
        model = FaultResponseModel(p_max_skip=0.5, p_lockup_per_fault=0.1)
        windows = shift_window(scen, "both")
        results = [execute_trial(scen, windows, DOM, model, seed=99) for _ in range(5)]
        assert all(r == results[0] for r in results)

    def test_seeds_vary_outcomes(self):
        scen = successive_shifts()
        model = FaultResponseModel(p_max_skip=0.5, p_lockup_per_fault=0.0)
        windows = shift_window(scen, "both")
        skipped_sets = {execute_trial(scen, windows, DOM, model, seed=s).skipped
                        for s in range(64)}
        assert len(skipped_sets) > 1

    def test_window_missing_everything_changes_nothing(self):
        scen = load_scenario("tzm_full_attack")
        far = [(10_000, 10_020)]
        raw = execute_trial(scen, far, DOM, PERFECT, seed=1)
        nominal = execute_trial(scen, [], DOM, PERFECT, seed=1)
        assert raw == nominal
        assert raw.skipped == frozenset()

    def test_window_ending_at_an_instruction_leaves_it_alone(self):
        # A window that ends on the first shift's start tick does not touch
        # it, even when every window bursts; one tick longer, it does.
        scen = successive_shifts()
        s1 = min(scen.targets[0].cycles) * DOM.oversampling
        model = FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=0.0,
                                   p_window_burst=1.0)
        raw = execute_trial(scen, [(s1 - 10, s1)], DOM, model, seed=1)
        assert raw.skipped == frozenset()
        raw = execute_trial(scen, [(s1 - 10, s1 + 1)], DOM, model, seed=1)
        assert raw.skipped == scen.target_indices["LSRS"]

    def test_lockup_freezes_state(self):
        scen = load_scenario("tzm_full_attack")
        model = FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=1.0)
        # A window over the whole stream locks up from tick 0: the device
        # freezes before the first instruction, so nothing is skipped.
        end = (scen.instructions[-1].cycle + 1) * DOM.oversampling
        raw = execute_trial(scen, [(0, end)], DOM, model, seed=1)
        assert raw.locked_up
        assert raw.skipped == frozenset()

    def test_partial_coverage_scales_probability(self):
        scen = successive_shifts()
        s1 = min(min(t.cycles) for t in scen.targets)
        half = [(s1 * 20, s1 * 20 + 10)]  # covers half of the first shift
        model = FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=0.0)
        hits = sum(
            scen.target_indices["LSRS"]
            <= execute_trial(scen, half, DOM, model, seed=s).skipped
            for s in range(4000)
        )
        # Expected skip probability = p_max_skip * coverage = 0.5.
        assert abs(hits / 4000 - 0.5) < 0.05

    def test_per_target_override_ignores_coverage(self):
        scen = successive_shifts()
        s1 = min(min(t.cycles) for t in scen.targets)
        model = FaultResponseModel(
            p_max_skip=0.0, p_lockup_per_fault=0.0,
            per_target_override={Effect.CLEAR_LSB_SHIFT1: 1.0})
        one_tick = [(s1 * 20, s1 * 20 + 1)]
        raw = execute_trial(scen, one_tick, DOM, model, seed=1)
        assert scen.target_indices["LSRS"] <= raw.skipped


class TestDrawSlots:
    """Each draw reads the slot of the trial seed that the module names."""

    def test_burst_lockup_and_skip_slots(self):
        # One window over half of each shift: it bursts from slot 0 and
        # locks up from slot 1, and the instruction with index i skips
        # from slot 2 + i, each with probability 0.5 * 1/2.
        scen = successive_shifts()
        s1 = min(scen.targets[0].cycles) * DOM.oversampling
        model = FaultResponseModel(p_max_skip=0.5, p_lockup_per_fault=0.25,
                                   p_window_burst=0.125)
        plan = trial_plan(scen, [(s1 + 10, s1 + 30)], DOM, model)
        (lsrs,), (lsls,) = scen.target_indices["LSRS"], scen.target_indices["LSLS"]
        assert plan.draws == ((slot_offset(0), 0.125 * SLOT_ONE),
                              (slot_offset(1), 0.25 * SLOT_ONE),
                              (slot_offset(2 + lsrs), 0.25 * SLOT_ONE),
                              (slot_offset(2 + lsls), 0.25 * SLOT_ONE))

    def test_stall_slots(self):
        # The stall before delay point d reads slot 2**32 + d.
        scen = load_scenario("dup_registers_7_43")
        for seed in (0, 1, 2**64 - 1):
            assert stall_vector(scen, 9, seed) == tuple(
                (slot(seed, 2**32 + d) * 10) >> 53 for d in range(len(scen.delay_points)))


class TestBodModel:
    def test_disabled_never_detects(self):
        bod = BodModel(enabled=False, sample_period=1)
        assert not bod.detects([(0, 1000)])

    def test_sample_inside_window(self):
        bod = BodModel(enabled=True, sample_period=100, sample_phase=50)
        assert bod.detects([(45, 55)])
        assert not bod.detects([(51, 60)])
        assert not bod.detects([(40, 50)])  # a window's end tick is not in it
        assert bod.detects([(140, 160)])  # sample at 150

    def test_pigeonhole_full_detection(self):
        # Period <= min window width: every phase detects.
        windows = [(37, 49)]  # width 12
        for period in (1, 5, 12):
            for phase in range(period):
                bod = BodModel(enabled=True, sample_period=period, sample_phase=phase)
                assert bod.detects(windows)

    def test_trial_ends_in_bod_reset(self):
        scen = successive_shifts()
        bod = BodModel(enabled=True, sample_period=1)
        raw = execute_trial(scen, shift_window(scen, "both"), DOM, PERFECT,
                            bod=bod, seed=1)
        assert raw.bod_tripped and not raw.locked_up
        assert raw.skipped == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError):
            BodModel(sample_period=0)
        with pytest.raises(ValueError):
            BodModel(sample_period=4, sample_phase=4)


class TestFaultResponseModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultResponseModel(p_max_skip=1.5)
        with pytest.raises(ValueError):
            FaultResponseModel(per_target_override={Effect.PLAIN: -0.1})

    def test_skip_probability(self):
        m = FaultResponseModel(p_max_skip=0.8, per_target_override={
            Effect.STORE_SAU_CTRL: 0.25})
        assert m.skip_probability(Effect.STORE_SAU_CTRL, 0.1) == 0.25
        assert m.skip_probability(Effect.STORE_AHB_ORIGINAL, 0.5) == 0.4
        assert m.skip_probability(Effect.STORE_AHB_ORIGINAL, 0.0) == 0.0


class TestApplyRandomDelays:
    def test_zero_is_identity(self):
        scen = load_scenario("dup_registers_7_43")
        assert apply_random_delays(scen, 0, seed=5) is scen

    def test_targets_shift_within_bounds(self):
        scen = load_scenario("dup_registers_7_43")
        base = [min(t.cycles) for t in scen.targets]
        for seed in range(50):
            moved = apply_random_delays(scen, 9, seed=seed)
            shifts = [min(t.cycles) - b for t, b in zip(moved.targets, base)]
            assert 0 <= shifts[0] <= 9
            # The second target accumulates both delays.
            assert shifts[0] <= shifts[1] <= shifts[0] + 9

    def test_independent_per_target_draws(self):
        scen = load_scenario("dup_registers_7_43")
        pairs = set()
        for seed in range(200):
            moved = apply_random_delays(scen, 9, seed=seed)
            pairs.add(tuple(min(t.cycles) for t in moved.targets))
        assert len(pairs) > 30  # both delays vary, not just one

    def test_stream_stays_valid(self):
        scen = load_scenario("tzm_full_attack")
        moved = apply_random_delays(scen, 9, seed=3)
        cycles = [i.cycle for i in moved.instructions]
        assert cycles == sorted(cycles)
        moved.target_indices  # does not raise

    def test_monte_carlo_hit_rate_one_in_ten(self):
        # Fixed fault at the nominal target cycle, p=1 skip, 0-9 delays:
        # the target is hit only when its delay draw is 0.  Trials run as
        # run_trials runs them, on one plan per stall vector; the first
        # 1 000 also on the scenario apply_random_delays rebuilds.
        scen = load_scenario("dup_registers_7_43")
        K = DOM.oversampling
        c1 = min(scen.targets[0].cycles)
        window = [(c1 * K, (c1 + 1) * K)]
        first = scen.target_indices["FIRST"]
        trials = 100_000
        plans = {}
        hits = 0
        for i in range(trials):
            cycles = tuple(map(shift_by(scen, stall_vector(scen, 9, i)),
                               scen.effectful_cycles))
            plan = plans.get(cycles)
            if plan is None:
                plan = plans[cycles] = trial_plan(scen, window, DOM, PERFECT,
                                                  cycles=cycles)
            raw = run_plan(plan, i)
            if i < 1000:
                moved = apply_random_delays(scen, 9, seed=i)
                assert execute_trial(moved, window, DOM, PERFECT, seed=i) == raw
            hits += first <= raw.skipped
        rate = hits / trials
        assert abs(rate - 0.1) < 3 * (0.1 * 0.9 / trials) ** 0.5 + 1e-9

    def test_rejects_negative(self):
        scen = load_scenario("dup_registers_7_43")
        with pytest.raises(ValueError):
            apply_random_delays(scen, -1, seed=0)

    def test_stall_draws_are_uniform(self):
        # 10^5 stalls on 0..9: both delay points of 5 * 10^4 trial seeds
        # derived as a campaign step derives them.
        scen = load_scenario("dup_registers_7_43")
        first, second = scen.delay_points
        counts = [0] * 10
        for i in range(50_000):
            shift = shift_by(scen, stall_vector(scen, 9, mix64(0xC0FFEE, i)))
            stall = shift(first) - first
            counts[stall] += 1
            counts[shift(second) - second - stall] += 1
        expected = 100_000 / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 44.81  # P(chi-square with 9 dof > 44.81) = 1e-6

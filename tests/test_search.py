import itertools
import json
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from glitchsim import dut, search
from glitchsim.calibration import (deterministic_model, dup_register_model,
                                   shift_model)
from glitchsim.campaign import (DISTRIBUTION_COLUMNS, MODEL_PRESETS, _distribution,
                                _shift_column, nominal_combo, read_results,
                                results_to_report, write_results)
from glitchsim.chain import chain_windows, simulate_chain
from glitchsim.dut import (BodModel, FaultResponseModel, RawTrialResult,
                           apply_random_delays, execute_trial, run_plan,
                           shift_by, stall_vector, trial_plan)
from glitchsim.errors import (ConfigError, IncompleteSweep, NoIntegratedSuccess,
                              NotFound, SearchFailed)
from glitchsim.scenarios import (SCENARIO_PRESETS, classify, dup_registers,
                                 load_scenario)
from glitchsim.search import (SearchConfig, SimContext, SweepResult,
                              evaluate_repeatability, exhaustive_search, fuzzyfy,
                              integrate, run_chain_trial, run_trials, sweep,
                              transfer_parameters, translate_to_relative)
from glitchsim.seeding import SLOT_ONE, mix64, slot_offset
from glitchsim.timing import ClockDomains

DOM1 = ClockDomains(oversampling=1)
DOM20 = ClockDomains(oversampling=20)


def perfect_ctx(dom=DOM1):
    return SimContext(domains=dom, model=deterministic_model())


def accumulate_relative(relative):
    """The inverse of translate_to_relative: fold relative (gap, width)
    pairs into a disjoint ordered absolute list."""
    out, cursor = [], 0
    for gap, width in relative:
        start = cursor + gap
        out.append((start, width))
        cursor = start + width
    return out


disjoint_absolute = st.lists(
    st.tuples(st.integers(0, 25), st.integers(1, 12)), min_size=1, max_size=6
).map(accumulate_relative)


class TestTranslate:
    def test_two_windows(self):
        assert translate_to_relative([(100, 5), (200, 7)]) == [(100, 5), (95, 7)]

    def test_single(self):
        assert translate_to_relative([(42, 9)]) == [(42, 9)]

    def test_adjacent_gives_zero(self):
        assert translate_to_relative([(10, 5), (15, 3)]) == [(10, 5), (0, 3)]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            translate_to_relative([(10, 5), (12, 3)])

    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            translate_to_relative([(100, 5), (20, 5)])

    @given(disjoint_absolute)
    def test_round_trip(self, absolute):
        assert accumulate_relative(translate_to_relative(absolute)) == absolute


class TestFuzzyfy:
    def test_degenerate(self):
        (f,) = fuzzyfy([(10, 3)], 0)
        assert (f.lo, f.hi, f.width) == (10, 10, 3)

    def test_interval(self):
        (f,) = fuzzyfy([(95, 4)], 2)
        assert (f.lo, f.hi) == (93, 97)

    def test_clipping(self):
        (f,) = fuzzyfy([(1, 4)], 3)
        assert (f.lo, f.hi) == (0, 4)

    def test_negative_psi(self):
        with pytest.raises(ValueError):
            fuzzyfy([(1, 1)], -1)


class TestSweep:
    def test_finds_exact_cycles(self):
        scen = dup_registers(7, 43)
        c1, c2 = (min(t.cycles) for t in scen.targets)
        config = SearchConfig(offset_min=0, offset_max=(c2 + 2) * 20, width_set=(20,),
                              stride=20)
        result = sweep(scen, config, perfect_ctx(DOM20), seed=1)
        assert result.entries == {
            "FIRST": ((c1 * 20, 20),),
            "SECOND": ((c2 * 20, 20),),
        }

    def test_early_stop_trial_count(self):
        scen = dup_registers(7, 43)
        c2 = min(scen.targets[1].cycles)
        config = SearchConfig(offset_min=0, offset_max=1000, width_set=(1,))
        result = sweep(scen, config, perfect_ctx(DOM1), seed=1)
        # One trial per offset, stopping right when the later target is found.
        assert result.trials_used == c2 + 1
        assert len(result.records) == result.trials_used

    def test_noncooperative_rejected(self):
        scen = load_scenario("dup_registers_noncoop")
        with pytest.raises(ConfigError):
            sweep(scen, SearchConfig(offset_min=0, offset_max=10, width_set=(1,)),
                  perfect_ctx())

    def test_one_pass_incomplete(self):
        scen = dup_registers(7, 43)
        with pytest.raises(IncompleteSweep) as exc:
            sweep(scen, SearchConfig(offset_min=0, offset_max=5, width_set=(1,),
                                     pass_budget=1), perfect_ctx(DOM1))
        assert set(exc.value.missing) == {"FIRST", "SECOND"}
        assert exc.value.trials_used == 5  # one pass over the grid

    def test_space_too_small_reports_missing(self):
        scen = dup_registers(7, 43)
        c1 = min(scen.targets[0].cycles)
        with pytest.raises(IncompleteSweep) as exc:
            sweep(scen, SearchConfig(offset_min=0, offset_max=c1 + 1, width_set=(1,),
                                     pass_budget=2), perfect_ctx(DOM1))
        assert exc.value.missing == ("SECOND",)

    def test_rerun_is_identical(self):
        scen = dup_registers(7, 43)
        config = SearchConfig(offset_min=0, offset_max=1200, width_set=(20,), stride=20)
        ctx = SimContext(DOM20, dup_register_model())
        r1 = sweep(scen, config, ctx, seed=9)
        r2 = sweep(scen, config, ctx, seed=9)
        assert r1.entries == r2.entries
        assert r1.records == r2.records

    def test_pick_narrowest_then_earliest(self):
        # A 40-tick window one cycle early hits FIRST too: its entries
        # hold a wider earlier point than the narrowest.
        scen = dup_registers(7, 43)
        c1, c2 = (min(t.cycles) for t in scen.targets)
        config = SearchConfig(offset_min=0, offset_max=(c2 + 2) * 20, width_set=(20, 40),
                              stride=20)
        result = sweep(scen, config, perfect_ctx(DOM20), seed=1)
        assert result.entries["FIRST"] == (((c1 - 1) * 20, 40), (c1 * 20, 20), (c1 * 20, 40))
        assert result.pick("FIRST") == (c1 * 20, 20)
        swept = SweepResult({"T": ((0, 40), (20, 20), (40, 20))}, [])
        assert swept.pick("T") == (20, 20)


class TestIntegrate:
    def test_center_combo_succeeds(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative(
            [(min(t.cycles), 1) for t in scen.targets])
        result = integrate(scen, fuzzyfy(rel, 2), SearchConfig(), perfect_ctx(DOM1), seed=1)
        assert any(c.combo == tuple(rel) for c in result.combos)
        assert result.trials_used == 25  # (2*2+1)^2 combos, 1 trial each

    def test_psi_zero_single_combo(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        result = integrate(scen, fuzzyfy(rel, 0), SearchConfig(), perfect_ctx(DOM1), seed=1)
        assert result.trials_used == 1
        assert result.combos[0].combo == tuple(rel)

    def test_no_success(self):
        scen = dup_registers(7, 43)
        with pytest.raises(NoIntegratedSuccess) as exc:
            integrate(scen, fuzzyfy([(500, 1), (1, 1)], 1), SearchConfig(),
                      perfect_ctx(DOM1), seed=1)
        assert exc.value.trials_used == 9

    def test_stride_thins_enumeration(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        result = integrate(scen, fuzzyfy(rel, 2), SearchConfig(fuzzy_stride=2),
                           perfect_ctx(DOM1), seed=1)
        assert result.trials_used == 9  # 3 offsets per axis


class TestExhaustive:
    def test_single_fault_within_grid(self):
        scen = dup_registers(7, 43)
        # Single-fault search can only satisfy a single-target view; use a
        # one-target scenario by searching for the first store alone.
        from dataclasses import replace
        solo = replace(scen, targets=(scen.targets[0],))
        config = SearchConfig(offset_min=0, offset_max=60, width_set=(1,),
                              exhaustive_budget=10_000)
        result = exhaustive_search(solo, config, perfect_ctx(DOM1))
        assert result.trials_used <= 60
        assert result.combo == ((min(scen.targets[0].cycles), 1),)

    def test_lexicographic_first_success_position(self):
        scen = dup_registers(33, 19)
        c1, c2 = (min(t.cycles) for t in scen.targets)
        config = SearchConfig(offset_min=0, offset_max=100, width_set=(1,),
                              exhaustive_budget=10_000)
        result = exhaustive_search(scen, config, perfect_ctx(DOM1))
        r2 = c2 - c1 - 1
        assert result.trials_used == c1 * 100 + r2 + 1
        assert result.combo == ((c1, 1), (r2, 1))

    def test_budget_exhaustion(self):
        scen = dup_registers(7, 43)
        # The grid cannot reach the targets.
        config = SearchConfig(offset_min=0, offset_max=5, width_set=(1,),
                              exhaustive_budget=10_000)
        with pytest.raises(NotFound) as exc:
            exhaustive_search(scen, config, perfect_ctx(DOM1))
        assert exc.value.trials_used == 25  # full grid product

    def test_partial_coverage_draws_per_trial_seeds(self):
        # Deterministic model at K = 20: a 10-tick window covers half of a
        # store cycle, so each store is skipped with probability 0.5 and
        # every trial needs its own seed.
        scen = dup_registers(7, 43)
        ctx = perfect_ctx(DOM20)
        s1, s2 = (min(t.cycles) * 20 for t in scen.targets)
        combo = ((s1, 10), (s2 - s1 - 10, 10))
        # Grid {combo[0], combo[1]}: combo is the second of four products.
        config = SearchConfig(offset_min=s1, offset_max=combo[1][0] + 1, width_set=(10,),
                              stride=combo[1][0] - s1, exhaustive_budget=4)
        wins = 0
        for seed in range(60):
            try:
                found = exhaustive_search(scen, config, ctx, seed=seed)
                won = (found.combo, found.trials_used) == (combo, 2)
            except NotFound:
                won = False
            _, outcome, _ = run_chain_trial(scen, combo, ctx, mix64(seed, 1))
            assert won == outcome.is_success, seed
            wins += won
        assert 0 < wins < 60

    @pytest.mark.parametrize("case, seed", [
        # Touching windows (offset 0) merge at the crowbar: one burst and
        # one lockup draw, not two.
        ("merged_windows", 9),
        # Random stalls draw from the trial seed under a deterministic model.
        ("random_delays", 0),
        ("random_delays", 2),
        # A 10-tick window covers half a store cycle at K = 20.
        ("partial_coverage", 0),
        ("partial_coverage", 6),
    ])
    def test_agrees_with_run_chain_trial(self, case, seed):
        """Exhaustive trial i judges combo i exactly as run_chain_trial
        does at seed mix64(seed, i), which shares the walk's trial step,
        and as trial i of run_trials at seed, which does not."""
        if case == "merged_windows":
            scen = load_scenario("successive_shifts")
            ctx = SimContext(DOM1, shift_model())
            config = SearchConfig(offset_min=0, offset_max=8, width_set=(1,))
        elif case == "random_delays":
            scen = replace(dup_registers(7, 43), random_delay_max=9)
            ctx = perfect_ctx(DOM1)
            config = SearchConfig(offset_min=0, offset_max=70, width_set=(1,))
        else:
            scen = dup_registers(7, 43)
            ctx = perfect_ctx(DOM20)
            s1, s2 = (min(t.cycles) * 20 for t in scen.targets)
            r2 = s2 - s1 - 10  # half-windows at s1 and s2: grid {s1, r2}
            config = SearchConfig(offset_min=s1, offset_max=r2 + 1, width_set=(10,),
                                  stride=r2 - s1)
        config = replace(config, n_faults=2, exhaustive_budget=len(config.grid) ** 2)
        want = _exhaustive_oracle(scen, config, ctx, seed)
        try:
            result = exhaustive_search(scen, config, ctx, seed=seed)
            got = (result.trials_used, result.combo)
        except NotFound as exc:
            got = (exc.trials_used, None)
        assert got == want == _exhaustive_oracle(scen, config, ctx, seed, in_blocks=True)


class TestEvaluateRepeatability:
    def test_single_combo_passthrough(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        combo = tuple(rel)
        result = evaluate_repeatability(scen, [combo], SearchConfig(n_rank=10, n_final=100),
                                        perfect_ctx(DOM1), seed=1)
        assert result.best.combo == combo
        assert result.best.successes == len(result.best) == 100
        assert result.best.prefix_successes == (100, 100)
        assert result.trials_used == 10 + 100

    def test_all_zero_combos(self):
        scen = dup_registers(7, 43)
        losers = [((0, 1), (0, 1)), ((1, 1), (0, 1))]
        result = evaluate_repeatability(scen, losers, SearchConfig(n_rank=5, n_final=10),
                                        perfect_ctx(DOM1), seed=1)
        assert result.best.successes == 0
        # Tie broken by enumeration order: first combo wins.
        assert result.best.combo == losers[0]

    def test_ranking_prefers_higher_rate(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        combos = [((0, 1), (0, 1)), tuple(rel)]
        result = evaluate_repeatability(scen, combos, SearchConfig(n_rank=5, n_final=20),
                                        perfect_ctx(DOM1), seed=1)
        assert result.best.combo == tuple(rel)

    def test_empty_combos_rejected(self):
        scen = dup_registers(7, 43)
        with pytest.raises(ValueError):
            evaluate_repeatability(scen, [], SearchConfig(), perfect_ctx(DOM1))


class TestSearchConfig:
    """The walk's bisect and the trial indices need the grid offset-major
    (tests/test_campaign.py checks each refused value)."""

    def test_grid_is_offset_major(self):
        config = SearchConfig(offset_min=2, offset_max=7, stride=2, width_set=(3, 1))
        assert config.grid == [(2, 3), (2, 1), (4, 3), (4, 1), (6, 3), (6, 1)]


class TestTransfer:
    def test_trigger_shift_rebases_first_offset(self):
        coop = load_scenario("dup_registers_coop")
        noncoop = load_scenario("dup_registers_noncoop")
        c1 = min(coop.targets[0].cycles)
        rel = translate_to_relative([(min(t.cycles) * 20, 20)
                                     for t in coop.targets])
        moved = transfer_parameters(coop, tuple(rel), noncoop, DOM20)
        delta = min(noncoop.targets[0].cycles) - c1
        assert moved[0] == (rel[0][0] + delta * 20, 20)
        assert moved[1:] == tuple(rel[1:])

    def test_transferred_combo_succeeds(self):
        coop = load_scenario("dup_registers_coop")
        noncoop = load_scenario("dup_registers_noncoop")
        rel = translate_to_relative([(min(t.cycles), 1) for t in coop.targets])
        moved = transfer_parameters(coop, tuple(rel), noncoop, DOM1)
        recs = run_trials(noncoop, moved, 5, perfect_ctx(DOM1), "t", 1)
        assert all(r.outcome.is_success for r in recs)

    def test_mismatched_distances(self):
        a = dup_registers(7, 43)
        b = dup_registers(7, 44, cooperative=False)
        rel = translate_to_relative([(min(t.cycles), 1) for t in a.targets])
        with pytest.raises(ConfigError):
            transfer_parameters(a, tuple(rel), b, DOM1)

    def test_mismatched_labels(self):
        a = dup_registers(7, 43)
        b = load_scenario("successive_shifts")
        with pytest.raises(ConfigError):
            transfer_parameters(a, ((1, 1), (1, 1)), b, DOM1)


    def test_rebase_onto_the_trigger_and_no_earlier(self):
        """The scenario's trigger sits 8 cycles later than the twin's, at
        its first target: a first fault 8 ticks after the twin's trigger
        moves onto the trigger, one 7 ticks after it cannot move."""
        coop = dup_registers(7, 43)
        late = replace(dup_registers(7, 43, cooperative=False), trigger_cycle=8)
        moved = transfer_parameters(coop, ((8, 1), (42, 1)), late, DOM1)
        assert moved == ((0, 1), (42, 1))
        with pytest.raises(SearchFailed, match="before the trigger") as failed:
            transfer_parameters(coop, ((7, 1), (42, 1)), late, DOM1)
        assert failed.value.summary == {"kind": "transfer_before_trigger", "trials_used": 0}


class TestRunTrials:
    def test_rerun_is_identical(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles) * 20, 20)
                                     for t in scen.targets])
        ctx = SimContext(DOM20, dup_register_model())
        r1 = run_trials(scen, rel, 5000, ctx, "x", 77)
        r2 = run_trials(scen, rel, 5000, ctx, "x", 77)
        assert list(r1) == list(r2)


_STALL_SLOT0 = 2**32  # first stall slot


def _reference_slot(seed, k):
    """Slot k of the trial at seed: the top 53 bits of the (k+1)-th
    output of a splitmix64 stream started at seed."""
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return (z ^ (z >> 31)) >> 11


def _reference_execute_trial(scenario, windows, domains, model,
                             bod=None, seed=None, cycles=None):
    """The slot rule stated plainly: with W windows, window w bursts when
    u(2w) < p_window_burst and locks up when u(2w+1) < p_lockup_per_fault;
    an effectful instruction at stream position i, if a window touches it
    and it starts before the first lock tick, is skipped when a touching
    window bursts or u(2W+i) < its skip probability.  u(k) = slot k / 2**53."""
    if bod is not None and bod.enabled and bod.detects(windows):
        return RawTrialResult(frozenset(), bod_tripped=True)

    def u(k):
        return _reference_slot(seed, k) / 2**53

    W = len(windows)
    bursts = [u(2 * w) < model.p_window_burst for w in range(W)]
    lock_ticks = [start for w, (start, _) in enumerate(windows)
                  if u(2 * w + 1) < model.p_lockup_per_fault]
    lock_tick = lock_ticks[0] if lock_ticks else None

    K = domains.oversampling
    if cycles is None:
        cycles = scenario.effectful_cycles
    skipped = set()
    for (i, ins), cycle in zip(scenario.effectful_instructions, cycles):
        ins_start, ins_end = cycle * K, (cycle + 1) * K
        if lock_tick is not None and ins_start >= lock_tick:
            continue  # device froze in an erroneous state
        touching = [w for w, (start, end) in enumerate(windows)
                    if min(end, ins_end) > max(start, ins_start)]
        if not touching:
            continue
        p_noskip = 1.0
        for w in touching:
            start, end = windows[w]
            overlap = min(end, ins_end) - max(start, ins_start)
            p_noskip *= 1.0 - model.skip_probability(ins.effect, overlap / K)
        if any(bursts[w] for w in touching) or u(2 * W + i) < 1.0 - p_noskip:
            skipped.add(i)

    return RawTrialResult(frozenset(skipped), locked_up=lock_tick is not None)


def _reference_delays(scenario, max_delay, seed):
    """The scenario rebuilt with the stall before delay point d,
    (slot(STALL_SLOT0 + d) * (max_delay + 1)) >> 53, added to every cycle
    at or after that point."""
    points = scenario.delay_points
    stalls = [(_reference_slot(seed, _STALL_SLOT0 + d) * (max_delay + 1)) >> 53
              for d in range(len(points))]

    def moved(cycle):
        return cycle + sum(s for point, s in zip(points, stalls) if point <= cycle)

    return replace(
        scenario,
        instructions=tuple(replace(i, cycle=moved(i.cycle)) for i in scenario.instructions),
        targets=tuple(replace(t, cycles=tuple(map(moved, t.cycles)))
                      for t in scenario.targets))


def _oracle_trial(scenario, combo, ctx, seed):
    """Reference delayed trial: rebuild the scenario with the stalls."""
    scen = _reference_delays(scenario, scenario.random_delay_max, seed)
    trigger = scen.trigger_cycle * ctx.domains.oversampling
    windows, _ = simulate_chain(combo, trigger)
    raw = _reference_execute_trial(scen, windows, ctx.domains, ctx.model,
                                   ctx.bod, seed)
    hits = tuple(scen.target_indices[t.label] <= raw.skipped for t in scen.targets)
    outcome, _ = classify(scen, raw)
    return raw, outcome, hits


bods = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 400), st.integers(0, 399)).map(
        lambda pp: BodModel(enabled=True, sample_period=pp[0],
                            sample_phase=pp[1] % pp[0])))


class TestShiftPath:
    """Delayed trials shift cycles instead of rebuilding the scenario;
    both must agree trial for trial."""

    @settings(max_examples=300, deadline=None)
    @given(preset=st.sampled_from(sorted(SCENARIO_PRESETS)),
           model=st.sampled_from(sorted(MODEL_PRESETS)),
           bod=bods,
           oversampling=st.sampled_from((1, 3, 20)),
           max_delay=st.integers(0, 12),
           raw_combo=st.lists(st.tuples(st.integers(0, 1200), st.integers(1, 60)),
                              min_size=1, max_size=4),
           seed=st.integers(0, 2**64 - 1))
    def test_matches_rebuilt_scenario(self, preset, model, bod, oversampling,
                                      max_delay, raw_combo, seed):
        scen = replace(SCENARIO_PRESETS[preset](), random_delay_max=max_delay)
        K = oversampling
        # Offsets and widths come in 1/20 cycle, so that every K spans
        # the whole stream.
        combo = [(o * K // 20, max(1, w * K // 20)) for o, w in raw_combo]
        ctx = SimContext(ClockDomains(oversampling=K), MODEL_PRESETS[model](), bod)

        raw, outcome, hits = run_chain_trial(scen, combo, ctx, seed)
        want_raw, *want_verdict = _oracle_trial(scen, combo, ctx, seed)
        assert (raw, outcome, hits) == (want_raw, *want_verdict)
        windows, _ = simulate_chain(combo, scen.trigger_cycle * K)
        assert execute_trial(scen, windows, ctx, seed) == want_raw
        moved = apply_random_delays(scen, max_delay, seed)
        want = _reference_delays(scen, max_delay, seed)
        assert (moved.instructions, moved.targets) == (want.instructions, want.targets)

        for index, rec in enumerate(run_trials(scen, combo, 3, ctx, "d", seed,
                                               first=5), 5):
            _, want_outcome, want_hits = _oracle_trial(scen, combo, ctx, rec.seed)
            assert rec.seed == mix64(seed, index)
            assert (rec.outcome, rec.hits) == (want_outcome, want_hits)


COOPERATIVE_PRESETS = sorted(name for name, factory in SCENARIO_PRESETS.items()
                             if factory().cooperative)
# The model presets, and one under which every trial locks up, so that a
# window starting inside a target can hit it in a trial that tags nothing.
SWEEP_MODELS = [MODEL_PRESETS[name]() for name in sorted(MODEL_PRESETS)] + [
    FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=1.0)]


class TestSweepOracle:
    """The sweep's trials, tags and stop, trial for trial against the
    rebuilt-scenario oracle and the tagging rule stated on outcomes: a
    partial hit tags its labels, a success tags every label."""

    @settings(max_examples=100, deadline=None)
    @given(preset=st.sampled_from(COOPERATIVE_PRESETS),
           model=st.sampled_from(SWEEP_MODELS),
           bod=st.one_of(bods, st.just(BodModel())),
           oversampling=st.sampled_from((1, 3, 20)),
           phase=st.integers(0, 19),
           widths=st.lists(st.integers(1, 100), min_size=1, max_size=2, unique=True),
           pass_budget=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1))
    # Each window starts one tick into an instruction and locks up there.
    @example(preset="dup_registers_7_43", model=SWEEP_MODELS[-1], bod=None,
             oversampling=20, phase=1, widths=[20], pass_budget=1, seed=0)
    # One two-cycle window covers the shift pair: a success tags both.
    @example(preset="successive_shifts", model=deterministic_model(), bod=None,
             oversampling=20, phase=0, widths=[40], pass_budget=1, seed=0)
    def test_matches_oracle(self, preset, model, bod, oversampling, phase, widths,
                            pass_budget, seed):
        scen = SCENARIO_PRESETS[preset]()
        K = oversampling
        last = max(c for t in scen.targets for c in t.cycles)
        # Phase and widths come in 1/20 cycle; one offset per cycle up to the
        # last target.
        config = SearchConfig(offset_min=phase * K // 20, offset_max=(last + 1) * K,
                              width_set=tuple(max(1, w * K // 20) for w in widths),
                              stride=K, pass_budget=pass_budget)
        ctx = SimContext(ClockDomains(oversampling=K), model, bod)

        labels = [t.label for t in scen.targets]
        entries = {label: set() for label in labels}
        want, stop = [], None
        for i, spec in enumerate(config.grid * pass_budget):
            trial_seed = mix64(seed, i)
            _, outcome, hits = _oracle_trial(scen, (spec,), ctx, trial_seed)
            want.append((trial_seed, (spec,), outcome, hits))
            for label in labels if outcome.is_success else outcome.labels:
                entries[label].add(spec)
            if all(entries.values()):
                stop = i
                break

        if stop is None:
            with pytest.raises(IncompleteSweep) as exc:
                sweep(scen, config, ctx, seed=seed)
            assert exc.value.trials_used == len(want)
            assert exc.value.missing == tuple(lb for lb in labels if not entries[lb])
            return
        result = sweep(scen, config, ctx, seed=seed)
        assert result.trials_used == stop + 1
        assert [(r.seed, r.combo, r.outcome, r.hits) for r in result.records] == want
        assert {r.step for r in result.records} == {"sweep"}
        assert result.entries == {lb: tuple(sorted(v)) for lb, v in entries.items()}


def _exhaustive_oracle(scen, config, ctx, seed, in_blocks=False):
    """The exhaustive search stated per combo: combo i of the product of
    ``n_faults`` grids runs as ``run_chain_trial`` at seed mix64(seed, i),
    or with ``in_blocks`` as trial i of a one-trial ``run_trials`` block at
    ``seed``, whose stalls and draw keys are derived in lanes.  Returns
    the trials used and the first successful combo, or None."""
    used = 0
    combos = itertools.product(config.grid, repeat=config.n_faults)
    for i, combo in enumerate(itertools.islice(combos, config.exhaustive_budget)):
        used = i + 1
        if (run_trials(scen, combo, 1, ctx, "exhaustive", seed, first=i).successes
                if in_blocks else
                run_chain_trial(scen, combo, ctx, mix64(seed, i))[1].is_success):
            return used, combo
    return used, None


EXHAUSTIVE_PRESETS = sorted(name for name in SCENARIO_PRESETS
                            if name.startswith("dup_registers")) + [
    "bod_scenario", "successive_shifts", "tzm_full_attack"]


@st.composite
def exhaustive_cases(draw):
    """(preset, model, bod, K, random_delay_max, config, seed) with a small
    grid, an explicit fault count and a budget, where the grid often holds
    what a chain needs to hit every target."""
    preset = draw(st.sampled_from(EXHAUSTIVE_PRESETS))
    K = draw(st.sampled_from((1, 2, 5)))
    scen = SCENARIO_PRESETS[preset]()
    widths = draw(st.lists(st.integers(1, 2 * K), min_size=1, max_size=2, unique=True))
    ticks = sorted(c * K for t in scen.targets for c in t.cycles)
    # A chain lands on the target instructions in time order when its first
    # offset is 0 or the first one's tick and each later offset is a gap
    # less a width, or 0 (a merge).  The grid runs from one such first
    # offset to one such later offset, give or take a few ticks.
    first = draw(st.sampled_from((ticks[0] - scen.trigger_cycle * K, 0)))
    later = draw(st.sampled_from([max(0, b - a - w) for a, b in zip(ticks, ticks[1:])
                                  for w in widths] + [0]))
    a, b = sorted((first, later))
    nudges = st.one_of(st.just(0), st.just(0), st.integers(-K, K))
    lo = max(0, a + draw(nudges))
    stride = max(1, b - a + draw(nudges))
    config = SearchConfig(offset_min=lo, offset_max=lo + stride * draw(st.integers(1, 2)) + 1,
                          width_set=tuple(widths), stride=stride)
    n_faults = draw(st.sampled_from((2, 3, 1)))
    combos = len(config.grid) ** n_faults
    budget = draw(st.one_of(st.just(combos), st.integers(1, combos + 1)))
    return (preset, draw(st.sampled_from(SWEEP_MODELS)), draw(bods), K,
            draw(st.sampled_from((0, 0, 0, 2))),
            replace(config, n_faults=n_faults, exhaustive_budget=budget),
            draw(st.integers(0, 2**64 - 1)))


class TestExhaustivePruning:
    """The pruned walk against the per-combo oracle: outcome, trials used
    and the first successful combo."""

    @settings(max_examples=400, deadline=None)
    @given(case=exhaustive_cases())
    # successive_shifts at K = 1: LSRS is cycle 5, LSLS cycle 6.  A prefix
    # window [6, 7) ends where LSLS ends (the last window always touches
    # what ends at the cursor) and leaves LSRS, ending at 6, untouched:
    # pruned.  [5, 7) covers both, so its completions all succeed.
    @example(case=("successive_shifts", deterministic_model(), None, 1, 0,
                   SearchConfig(offset_min=5, offset_max=7, width_set=(1, 2), n_faults=2,
                                exhaustive_budget=16), 0))
    # [5, 6) leaves LSLS, ending one tick after the cursor, untouched but
    # not pruned: an offset-0 window merges onto it and covers LSLS.
    @example(case=("successive_shifts", deterministic_model(), None, 1, 0,
                   SearchConfig(offset_min=0, offset_max=6, width_set=(1,), stride=5,
                                n_faults=2, exhaustive_budget=4), 0))
    # The offset-0 merge inside a three-fault prefix, and a budget that
    # ends inside the pruned subtree of ((5, 1), (5, 1)).
    @example(case=("successive_shifts", deterministic_model(), None, 1, 0,
                   SearchConfig(offset_min=0, offset_max=6, width_set=(1,), stride=5,
                                n_faults=3, exhaustive_budget=7), 0))
    # A model that bursts and locks up, over windows that cover the pair.
    @example(case=("successive_shifts", shift_model(), None, 2, 0,
                   SearchConfig(offset_min=0, offset_max=11, width_set=(2, 4), stride=10,
                                n_faults=2, exhaustive_budget=16), 3))
    # Random stalls move store 1 to cycle 8 + d: the first window at
    # cycle 9 lies past the unstalled store, yet combo 1 succeeds at this
    # seed, so the walk must not prune by the unstalled cycle.
    @example(case=("dup_registers_7_43", deterministic_model(), None, 1, 2,
                   SearchConfig(offset_min=9, offset_max=44, width_set=(1,), stride=34,
                                n_faults=2, exhaustive_budget=4), 4))
    # The same stalls over offsets 9..53: store 1's reach is [8, 11), so
    # the root prunes offsets 11..53, and every win hits store 1 stalled.
    # Combo 35, ((9, 1), (44, 1)), wins: both stalls are 1 at its seed.
    @example(case=("dup_registers_7_43", deterministic_model(), None, 1, 2,
                   SearchConfig(offset_min=9, offset_max=54, width_set=(1,), n_faults=2,
                                exhaustive_budget=45 ** 2), 3))
    def test_matches_per_combo_oracle(self, case):
        preset, model, bod, K, stalls, config, seed = case
        scen = replace(SCENARIO_PRESETS[preset](), random_delay_max=stalls)
        ctx = SimContext(ClockDomains(oversampling=K), model, bod)
        used, win = _exhaustive_oracle(scen, config, ctx, seed)
        try:
            result = exhaustive_search(scen, config, ctx, seed)
        except NotFound as exc:
            assert (exc.trials_used, None) == (used, win)
        else:
            assert (result.trials_used, result.combo) == (used, win)

    @settings(max_examples=300, deadline=None)
    @given(offset_min=st.integers(0, 12), n_offsets=st.integers(1, 6),
           stride=st.integers(1, 7),
           widths=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
           n_faults=st.integers(1, 3), trigger_tick=st.integers(0, 10),
           targets=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 4)),
                            max_size=4),
           budget_cut=st.integers(0, 400))
    # The root's bound: [5, 6) ends 6 ticks after the trigger, so offset 6
    # is the first doomed child and offset 5 the last live one.
    @example(offset_min=4, n_offsets=4, stride=1, widths=[1], n_faults=1,
             trigger_tick=0, targets=[(5, 1)], budget_cut=0)
    # An inner node's bound on an offset that three widths share: after
    # (0, 1) the node at tick 4 has [5, 6) untouched, so offset 2 is doomed
    # in every width and offset 1 is live in every width.
    @example(offset_min=0, n_offsets=4, stride=1, widths=[1, 2, 3], n_faults=2,
             trigger_tick=3, targets=[(5, 1), (12, 2)], budget_cut=0)
    # A target that ends at the trigger tick, and one that ends before it:
    # no child of the root is live, not even at offset 0.
    @example(offset_min=0, n_offsets=3, stride=1, widths=[1, 2], n_faults=2,
             trigger_tick=10, targets=[(8, 2)], budget_cut=0)
    @example(offset_min=0, n_offsets=3, stride=1, widths=[1, 2], n_faults=2,
             trigger_tick=10, targets=[(4, 2), (20, 1)], budget_cut=0)
    # The count bound: after (0, 3) the one fault left must touch [5, 6)
    # and [7, 8), which a 3-tick window at 5 does, so (0, 3) is live and
    # ((0, 3), (2, 3)) touches both.
    @example(offset_min=0, n_offsets=6, stride=1, widths=[3], n_faults=2,
             trigger_tick=0, targets=[(5, 1), (7, 1)], budget_cut=0)
    def test_walk_matches_full_walk(self, offset_min, n_offsets, stride, widths,
                                    n_faults, trigger_tick, targets, budget_cut):
        """The bounded walk yields exactly the combos below the budget
        whose windows touch every target, with their indices and windows,
        over grids of any width order."""
        grid = SearchConfig(offset_min=offset_min, offset_max=offset_min + stride * n_offsets,
                            width_set=tuple(widths), stride=stride).grid
        budget = max(1, len(grid) ** n_faults - budget_cut)
        target_ticks = [(s, s + n) for s, n in targets]

        def touches_all(windows):
            return all(any(lo < end and start < hi for lo, hi in windows)
                       for start, end in target_ticks)

        want = []
        combos = itertools.product(grid, repeat=n_faults)
        for index, combo in enumerate(itertools.islice(combos, budget)):
            windows, _ = chain_windows(combo, trigger_tick)
            if touches_all(windows):
                want.append((index, combo, windows))
        got = list(search._live_combos(grid, n_faults, budget, trigger_tick,
                                       target_ticks))
        assert got == want

    @pytest.mark.parametrize("case, nodes", [
        # exhaustive_tzm4's grid: the root's first child, (0, 1), leaves
        # the target instructions at cycles 6, 13, 16, 26 and 27 to three
        # faults, where 2-tick windows need four, and its subtree holds
        # the whole budget.
        ("tzm_full_attack", 1),
        # Two one-tick targets, [10, 11) and [13, 14), exactly the widest
        # width apart: one 3-tick window touches only one of them.  Each of
        # the root's 22 live children is a node; only the 4 that touch
        # [10, 11) and end by 13 leave one target to their one fault, and
        # have 6, 6, 4 and 2 live children.
        ("one_tick_pair", 22 + 18),
    ])
    def test_walk_visits_few_nodes(self, monkeypatch, case, nodes):
        """A node is a ``chain_windows`` call: the walk makes one per
        child that passes the offset bound, and descends only below
        children whose untouched targets need no more faults than remain."""
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return chain_windows(*args)

        monkeypatch.setattr(search, "chain_windows", counted)
        if case == "tzm_full_attack":
            with pytest.raises(NotFound):
                exhaustive_search(load_scenario(case),
                                  SearchConfig(offset_min=0, offset_max=100,
                                               width_set=(1, 2), exhaustive_budget=50_000),
                                  perfect_ctx(DOM1))
        else:
            grid = SearchConfig(offset_min=0, offset_max=12, width_set=(1, 3)).grid
            list(search._live_combos(grid, 2, len(grid) ** 2, 0, [(10, 11), (13, 14)]))
        assert calls == nodes

    def test_stalled_walk_compiles_few_plans(self, monkeypatch):
        """tzm_randomized's 4-fault grid: the walk charges its budget but
        compiles a plan only for the combos that touch every reach.  Its
        trial step, ``execute_trial``, compiles through ``dut``'s names."""
        plans = 0

        def counted(*args):
            nonlocal plans
            plans += 1
            return trial_plan(*args)

        monkeypatch.setattr(dut, "trial_plan", counted)
        with pytest.raises(NotFound) as exc:
            exhaustive_search(load_scenario("tzm_randomized"),
                              SearchConfig(offset_min=0, offset_max=100, width_set=(1, 2),
                                           exhaustive_budget=50_000),
                              perfect_ctx(DOM1))
        assert exc.value.trials_used == 50_000
        assert plans == 874

    def test_criterion_4_grid_runs_few_combos(self, monkeypatch):
        """Criterion 4's 4-fault grid charges its 1e7-trial cap but runs
        no combo: none of its first 1e7 touches every target."""
        runs = 0

        def counted(plan, seed):
            nonlocal runs
            runs += 1
            return run_plan(plan, seed)

        monkeypatch.setattr(dut, "run_plan", counted)
        with pytest.raises(NotFound) as exc:
            exhaustive_search(load_scenario("tzm_full_attack"),
                              SearchConfig(offset_min=0, offset_max=100, width_set=(1, 2),
                                           exhaustive_budget=10_000_000),
                              perfect_ctx(DOM1))
        assert exc.value.trials_used == 10_000_000
        assert runs == 0

    def test_criterion_4_grid_first_success(self, monkeypatch):
        """With its cap raised to 1e8, criterion 4's grid first succeeds at
        trial 88 440 619, and that combo is the only one compiled.  No plan
        of the grid draws under the deterministic model, so the index is
        the same at every seed."""
        plans = 0

        def counted(*args):
            nonlocal plans
            plans += 1
            return trial_plan(*args)

        monkeypatch.setattr(dut, "trial_plan", counted)
        result = exhaustive_search(load_scenario("tzm_full_attack"),
                                   SearchConfig(offset_min=0, offset_max=100,
                                                width_set=(1, 2), exhaustive_budget=10**8),
                                   perfect_ctx(DOM1), seed=1)
        assert result.trials_used == 88_440_620
        assert result.combo == ((5, 2), (5, 2), (1, 2), (9, 2))
        assert plans == 1


def _scaled_windows(raw_windows, K):
    """Disjoint ordered windows from (gap, width) pairs in 1/20 cycle; a
    gap of 0 makes touching windows."""
    windows, cursor = [], 0
    for gap, width in raw_windows:
        start = cursor + gap * K // 20
        cursor = start + max(1, width * K // 20)
        windows.append((start, cursor))
    return windows


raw_window_lists = st.lists(st.tuples(st.integers(0, 400), st.integers(1, 60)),
                            min_size=1, max_size=4)


class TestTrialPlan:
    """A plan compiled once and run per seed makes the same draws as the
    one-step reference kernel."""

    @settings(max_examples=400, deadline=None)
    @given(preset=st.sampled_from(sorted(SCENARIO_PRESETS)),
           model=st.sampled_from(sorted(MODEL_PRESETS)),
           bod=bods,
           oversampling=st.sampled_from((1, 3, 20)),
           max_delay=st.integers(0, 12),
           stall_seed=st.integers(0, 2**64 - 1),
           raw_windows=raw_window_lists,
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2))
    def test_matches_reference_kernel(self, preset, model, bod, oversampling,
                                      max_delay, stall_seed, raw_windows, seeds):
        scen = SCENARIO_PRESETS[preset]()
        K = oversampling
        windows = _scaled_windows(raw_windows, K)
        stalls = stall_vector(scen, max_delay, stall_seed)
        cycles = tuple(map(shift_by(scen, stalls), scen.effectful_cycles))
        dom = ClockDomains(oversampling=K)
        fault_model = MODEL_PRESETS[model]()

        plan = trial_plan(scen, windows, SimContext(dom, fault_model, bod), stalls)
        for seed in seeds:
            got = run_plan(plan, seed)
            want = _reference_execute_trial(scen, windows, dom, fault_model, bod,
                                            seed, cycles)
            assert (got.skipped, got.locked_up, got.bod_tripped) == (
                want.skipped, want.locked_up, want.bod_tripped)

    @pytest.mark.parametrize("preset", ["successive_shifts", "tzm_full_attack"])
    @pytest.mark.parametrize("p_max_skip, p_burst, p_lockup", [(0.0, 1.0, 0.0),
                                                              (0.5, 1.0, 1.0)])
    def test_certain_probabilities(self, preset, p_max_skip, p_burst, p_lockup):
        """A probability of 1 fires in every trial and draws nothing: only
        the probabilities strictly between 0 and 1 are listed as draws, and
        a plan with none holds its result."""
        scen = SCENARIO_PRESETS[preset]()
        model = FaultResponseModel(p_max_skip=p_max_skip, p_window_burst=p_burst,
                                   p_lockup_per_fault=p_lockup)
        windows = sorted((min(t.cycles) * 20 + 5, min(t.cycles) * 20 + 20)
                         for t in scen.targets)
        plan = trial_plan(scen, windows, SimContext(DOM20, model), ())
        # Each window covers 15/20 of one target instruction and no other,
        # so the only draws are skips with probability p_max_skip * 0.75.
        assert len(plan.entries) == len(windows)
        skips = tuple((slot_offset(2 * len(windows) + index), p_max_skip * 0.75 * SLOT_ONE)
                      for index, *_ in plan.entries)
        assert plan.draws == (skips if p_max_skip else ())
        assert (plan.fixed is not None) == (p_max_skip == 0.0)
        for i in range(64):
            got = run_plan(plan, mix64(i))
            assert got == _reference_execute_trial(scen, windows, DOM20, model,
                                                   seed=mix64(i))
            assert got.locked_up == (p_lockup == 1.0)
            if p_max_skip == 0.0:
                assert got.skipped == {index for index, *_ in plan.entries}

    def test_memoised_run_trials_match_per_trial_oracle(self):
        """Stalls under skip draws, under burst and lockup draws, and under
        the skip draws of the four-target stream."""
        for scen, model, max_delay in (
                (dup_registers(7, 43), dup_register_model(), 9),
                (SCENARIO_PRESETS["successive_shifts"](), shift_model(), 3),
                (SCENARIO_PRESETS["tzm_full_attack"](), MODEL_PRESETS["tzm"](), 2)):
            scen = replace(scen, random_delay_max=max_delay)
            combo = translate_to_relative(sorted((min(t.cycles) * 20 + 5, 15)
                                                 for t in scen.targets))
            ctx = SimContext(DOM20, model)
            records = run_trials(scen, combo, 1500, ctx, "delayed", 41)
            for index, rec in enumerate(records):
                _, outcome, hits = _oracle_trial(scen, combo, ctx, rec.seed)
                assert (rec.outcome, rec.hits) == (outcome, hits), (scen.name, index)
            assert len({rec.outcome for rec in records}) > 1, scen.name


class TestDrawSlots:
    """Every draw reads its own slot of the trial seed."""

    @settings(max_examples=200, deadline=None)
    @given(preset=st.sampled_from(sorted(SCENARIO_PRESETS)),
           oversampling=st.sampled_from((1, 3, 20)),
           raw_windows=raw_window_lists,
           p_max_skip=st.floats(0.05, 0.95),
           p_burst=st.sampled_from((0.0, 0.3)),
           p_lockup=st.sampled_from((0.0, 0.3)),
           seed=st.integers(0, 2**64 - 1))
    def test_burst_and_lockup_draws_move_no_skip_draw(
            self, preset, oversampling, raw_windows, p_max_skip, p_burst, p_lockup, seed):
        """Turning bursts or lockups on changes a covered instruction's skip
        decision only where a burst or the lock tick takes it: the trial
        is the no-burst, no-lockup trial, plus everything some set of
        windows touches, cut at some window start if it locked up."""
        scen = SCENARIO_PRESETS[preset]()
        K = oversampling
        windows = _scaled_windows(raw_windows, K)
        dom = ClockDomains(oversampling=K)
        quiet = FaultResponseModel(p_max_skip=p_max_skip, p_lockup_per_fault=0.0)
        noisy = replace(quiet, p_window_burst=p_burst, p_lockup_per_fault=p_lockup)
        plan = trial_plan(scen, windows, SimContext(dom, quiet), ())
        noisy_plan = trial_plan(scen, windows, SimContext(dom, noisy), ())
        start_of = {index: start for index, start, *_ in plan.entries}
        touched_by = [{index for index, _, mask, *_ in plan.entries if mask >> w & 1}
                      for w in range(len(windows))]
        burst_sets = [set().union(*(t for t, b in zip(touched_by, bursting) if b))
                      for bursting in itertools.product((False, True), repeat=len(windows))
                      if p_burst or not any(bursting)]
        for j in range(32):
            trial_seed = mix64(seed, j)
            base = run_plan(plan, trial_seed).skipped
            got = run_plan(noisy_plan, trial_seed)
            cuts = [start for start, _ in windows] if got.locked_up else [None]
            assert any({i for i in base | burst if cut is None or start_of[i] < cut}
                       == got.skipped for burst in burst_sets for cut in cuts), j

    @settings(max_examples=100, deadline=None)
    @given(step_seed=st.integers(-2**70, 2**70), first=st.integers(0, 2**66))
    def test_run_trials_seeds_are_mix64_of_the_index(self, step_seed, first):
        scen = dup_registers(7, 43)
        combo = ((min(scen.targets[0].cycles), 1),)
        records = run_trials(scen, combo, 3, perfect_ctx(), "s", step_seed, first=first)
        assert [r.seed for r in records] == [
            mix64(step_seed, i) for i in range(first, first + 3)]


@st.composite
def block_cases(draw):
    """(preset, model, bod, K, random_delay_max, combo, n, step_seed, first)
    for run_trials, with the scenario's nominal combo half the time, so
    that stalls move the targets out from under the windows."""
    preset = draw(st.sampled_from(sorted(SCENARIO_PRESETS)))
    K = draw(st.sampled_from((1, 3, 20)))
    nominal = draw(st.booleans())
    combo = (tuple(nominal_combo(SCENARIO_PRESETS[preset](), ClockDomains(oversampling=K)))
             if nominal else draw(st.lists(st.tuples(st.integers(0, 60 * K),
                                                     st.integers(1, 3 * K)),
                                           min_size=1, max_size=4).map(tuple)))
    return (preset, draw(st.sampled_from(SWEEP_MODELS)), draw(bods), K,
            draw(st.sampled_from((0, 0, 2, 9))), combo, draw(st.integers(0, 40)),
            draw(st.integers(0, 2**64 - 1)),
            draw(st.one_of(st.just(0), st.integers(1, 2**64))))


class TestTrialBlock:
    """run_trials' block against the per-trial oracle, trial for trial,
    and every count a campaign reads off the block against the same count
    over its records."""

    @settings(max_examples=150, deadline=None)
    @given(case=block_cases())
    # Criterion 8's baseline arm: a fixed plan without stalls is one
    # constant code, and no trial runs.
    @example(case=("dup_registers_7_43", deterministic_model(), None, 20, 0,
                   ((160, 20), (860, 20)), 30, 5, 0))
    # Criterion 8's delayed arm: the plan of every stall vector holds its
    # result, success or failure, so a trial is its seed, its stall draws
    # and one lookup.
    @example(case=("dup_registers_7_43", deterministic_model(), None, 20, 9,
                   ((160, 20), (860, 20)), 40, 5, 3))
    # Skip draws under stalls, and a first index past 2**64.
    @example(case=("tzm_full_attack", dup_register_model(), None, 3, 2,
                   ((0, 200),), 40, 7, 2**64 + 5))
    # A detector sampling tick 5 trips on the window at every stall vector.
    @example(case=("successive_shifts", shift_model(), BodModel(True, 7, 5), 1, 2,
                   ((5, 2),), 10, 1, 11))
    def test_matches_per_trial_oracle(self, case):
        preset, model, bod, K, stalls, combo, n, step_seed, first = case
        scen = replace(SCENARIO_PRESETS[preset](), random_delay_max=stalls)
        ctx = SimContext(ClockDomains(oversampling=K), model, bod)
        block = run_trials(scen, combo, n, ctx, "b", step_seed, first=first)
        records = list(block)
        assert len(block) == len(records) == n
        for index, rec in enumerate(records, first):
            seed = mix64(step_seed, index)
            _, outcome, hits = _oracle_trial(scen, combo, ctx, seed)
            assert (rec.step, rec.combo, rec.seed) == ("b", combo, seed), index
            assert (rec.outcome, rec.hits) == (outcome, hits), index

        # These tables hold at most 256 verdicts, so a byte a trial holds
        # their codes; the column is one repeated code when no trial can draw.
        assert len(block.table) <= 256 and block.codes.typecode == "B"
        windows, _ = simulate_chain(combo, scen.trigger_cycle * K)
        fixed = trial_plan(scen, windows, ctx, ()).fixed is not None
        if fixed and not stalls:
            assert len(block.table) == 1 and block.codes == array("B", bytes(n))
        assert len(set(block.table)) == len(block.table)

        verdicts = Counter((r.outcome, r.hits) for r in records)
        assert block.counts == verdicts
        assert block.successes == sum(r.outcome.is_success for r in records)
        prefixes = [sum(all(r.hits[:k + 1]) for r in records)
                    for k in range(len(scen.targets))] if records else []
        assert block.prefix_successes == tuple(prefixes)
        earlier = scen.targets[0].label
        columns = Counter(_shift_column(r.outcome, earlier) for r in records)
        assert _distribution(block, earlier) == {
            col: columns[col] for col in DISTRIBUTION_COLUMNS}

    @pytest.mark.parametrize("scen, model, max_delay", [
        (dup_registers(7, 43), dup_register_model(), 0),
        (dup_registers(7, 43), deterministic_model(), 9),
        (SCENARIO_PRESETS["successive_shifts"](), shift_model(), 0),
    ], ids=["skip_draws", "stalls", "burst_and_lockup_draws"])
    def test_block_across_passes_matches_per_trial_oracle(self, scen, model, max_delay):
        """A block of more than one pass of lanes, whose indices wrap at
        2**64 inside a pass."""
        scen = replace(scen, random_delay_max=max_delay)
        combo = tuple(nominal_combo(scen, DOM20))
        ctx = SimContext(DOM20, model)
        n, first = search.LANES + 5, 2**64 - 7
        block = run_trials(scen, combo, n, ctx, "p", 13, first=first)
        records = list(block)
        assert len(records) == n
        for index, rec in enumerate(records, first):
            _, outcome, hits = _oracle_trial(scen, combo, ctx, mix64(13, index))
            assert (rec.seed, rec.outcome, rec.hits) == (mix64(13, index), outcome, hits)
        assert len(block.counts) > 1

    @pytest.mark.parametrize("model, max_delay, table_size", [
        (deterministic_model(), 0, 1),
        (dup_register_model(), 0, 0),
        (deterministic_model(), 9, 0),
    ], ids=["fixed", "drawing", "stalls"])
    def test_empty_block(self, model, max_delay, table_size, tmp_path):
        """A block of no trial counts no verdict and writes no line, even
        where its plan holds a result and the table has its verdict."""
        scen = replace(dup_registers(7, 43), random_delay_max=max_delay)
        ctx = SimContext(DOM20, model)
        block = run_trials(scen, tuple(nominal_combo(scen, DOM20)), 0, ctx, "e", 5)
        assert len(block.table) == table_size
        assert len(block) == 0 and list(block) == []
        assert block.counts == {} and block.successes == 0
        assert block.prefix_successes == ()
        write_results([block], tmp_path / "results.jsonl")
        assert (tmp_path / "results.jsonl").read_bytes() == b""
        assert results_to_report([block], tmp_path / "report.csv") == 0
        assert (tmp_path / "report.csv").read_text().count("\n") == 1  # the header

    def test_many_verdicts_widen_the_code_column(self, tmp_path):
        """Nine one-cycle targets under p_max_skip = 0.5 give up to 2**9
        verdicts, more than a byte of code holds."""
        spec = {
            "schema_version": 1, "name": "nine_targets", "cooperative": True,
            "instructions": [{"cycle": c, "effect": "store_sau_ctrl" if c % 2 else "plain"}
                             for c in range(19)],
            "targets": [{"label": f"T{c}", "cycles": [c]} for c in range(1, 19, 2)],
        }
        path = tmp_path / "nine_targets.json"
        path.write_text(json.dumps(spec))
        scen = load_scenario(path)
        ctx = SimContext(DOM1, FaultResponseModel(p_max_skip=0.5, p_lockup_per_fault=0.0))
        combo = ((1, 17),)
        block = run_trials(scen, combo, 3000, ctx, "many", 3)
        assert len(block.table) > 256
        assert block.codes.typecode == "H"
        for index, rec in enumerate(block):
            _, outcome, hits = _oracle_trial(scen, combo, ctx, mix64(3, index))
            assert (rec.outcome, rec.hits) == (outcome, hits), index
        assert block.counts == Counter((r.outcome, r.hits) for r in block)
        # Read back, the column widens at its 257th verdict.
        write_results([block], tmp_path / "results.jsonl")
        (read,) = read_results(tmp_path / "results.jsonl")
        assert read.codes.typecode == "H" and list(read) == list(block)

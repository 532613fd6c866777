import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from glitchsim.calibration import (deterministic_model, dup_register_model,
                                   shift_model)
from glitchsim.campaign import MODEL_PRESETS
from glitchsim.chain import ChainConfig, simulate_chain
from glitchsim.dut import (BodModel, FaultResponseModel, RawTrialResult,
                           apply_random_delays, run_plan, stall_shift,
                           trial_plan)
from glitchsim.errors import (IncompleteSweep, NoIntegratedSuccess, NotFound,
                              OverlapError, TransferInvalid)
from glitchsim.scenarios import (SCENARIO_PRESETS, classify, dup_registers,
                                 load_scenario)
from glitchsim.search import (RankedCombo, SearchSpace, SimContext,
                              accumulate_relative, evaluate_repeatability,
                              exhaustive_search, fuzzyfy, integrate,
                              run_chain_trial, run_trials, sweep,
                              transfer_parameters, translate_to_relative)
from glitchsim.seeding import mix64
from glitchsim.timing import ClockDomains

DOM1 = ClockDomains(oversampling=1)
DOM20 = ClockDomains(oversampling=20)


def perfect_ctx(dom=DOM1):
    return SimContext(domains=dom, model=deterministic_model())


def _build(raw):
    """Fold (gap, width) pairs into a disjoint ordered absolute list."""
    out, cursor = [], 0
    for gap, width in raw:
        start = cursor + gap
        out.append((start, width))
        cursor = start + width
    return out


disjoint_absolute = st.lists(
    st.tuples(st.integers(0, 25), st.integers(1, 12)), min_size=1, max_size=6
).map(_build)


class TestTranslate:
    def test_two_windows(self):
        assert translate_to_relative([(100, 5), (200, 7)]) == [(100, 5), (95, 7)]

    def test_single(self):
        assert translate_to_relative([(42, 9)]) == [(42, 9)]

    def test_adjacent_gives_zero(self):
        assert translate_to_relative([(10, 5), (15, 3)]) == [(10, 5), (0, 3)]

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            translate_to_relative([(10, 5), (12, 3)])

    def test_unordered_rejected(self):
        with pytest.raises(OverlapError):
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
        space = SearchSpace(0, (c2 + 2) * 20, width_set=(20,), stride=20)
        result = sweep(scen, space, perfect_ctx(DOM20), seed=1)
        assert result.params.entries == {
            "FIRST": ((c1 * 20, 20),),
            "SECOND": ((c2 * 20, 20),),
        }

    def test_early_stop_trial_count(self):
        scen = dup_registers(7, 43)
        c2 = min(scen.targets[1].cycles)
        space = SearchSpace(0, 1000, width_set=(1,))
        result = sweep(scen, space, perfect_ctx(DOM1), seed=1)
        # One trial per offset, stopping right when the later target is found.
        assert result.trials_used == c2 + 1
        assert len(result.records) == result.trials_used

    def test_noncooperative_rejected(self):
        scen = load_scenario("dup_registers_noncoop")
        with pytest.raises(ValueError):
            sweep(scen, SearchSpace(0, 10, width_set=(1,)), perfect_ctx())

    def test_zero_budget_incomplete(self):
        scen = dup_registers(7, 43)
        with pytest.raises(IncompleteSweep) as exc:
            sweep(scen, SearchSpace(0, 10, width_set=(1,)), perfect_ctx(DOM1),
                  pass_budget=0)
        assert set(exc.value.missing) == {"FIRST", "SECOND"}
        assert exc.value.trials_used == 0

    def test_space_too_small_reports_missing(self):
        scen = dup_registers(7, 43)
        c1 = min(scen.targets[0].cycles)
        with pytest.raises(IncompleteSweep) as exc:
            sweep(scen, SearchSpace(0, c1 + 1, width_set=(1,)), perfect_ctx(DOM1),
                  pass_budget=2)
        assert exc.value.missing == ("SECOND",)

    def test_rerun_is_identical(self):
        scen = dup_registers(7, 43)
        space = SearchSpace(0, 1200, width_set=(20,), stride=20)
        ctx = SimContext(DOM20, dup_register_model())
        r1 = sweep(scen, space, ctx, seed=9)
        r2 = sweep(scen, space, ctx, seed=9)
        assert r1.params.entries == r2.params.entries
        assert [rec.to_dict() for rec in r1.records] == \
               [rec.to_dict() for rec in r2.records]


class TestIntegrate:
    def test_center_combo_succeeds(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative(
            [(min(t.cycles), 1) for t in scen.targets])
        result = integrate(scen, fuzzyfy(rel, 2), 1, perfect_ctx(DOM1), seed=1)
        assert any(c.specs == tuple(rel) for c in result.combos)
        assert result.trials_used == 25  # (2*2+1)^2 combos, 1 trial each

    def test_psi_zero_single_combo(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        result = integrate(scen, fuzzyfy(rel, 0), 1, perfect_ctx(DOM1), seed=1)
        assert result.trials_used == 1
        assert result.combos[0].specs == tuple(rel)

    def test_no_success(self):
        scen = dup_registers(7, 43)
        with pytest.raises(NoIntegratedSuccess) as exc:
            integrate(scen, fuzzyfy([(500, 1), (1, 1)], 1), 1,
                      perfect_ctx(DOM1), seed=1)
        assert exc.value.trials_used == 9

    def test_stride_thins_enumeration(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        result = integrate(scen, fuzzyfy(rel, 2), 1, perfect_ctx(DOM1),
                           seed=1, stride=2)
        assert result.trials_used == 9  # 3 offsets per axis


class TestExhaustive:
    def test_single_fault_within_grid(self):
        scen = dup_registers(7, 43)
        # Single-fault search can only satisfy a single-target view; use a
        # one-target scenario by searching for the first store alone.
        from dataclasses import replace
        solo = replace(scen, targets=(scen.targets[0],),
                       response_kind="state_bits")
        space = SearchSpace(0, 60, width_set=(1,))
        result = exhaustive_search(solo, space, 1, 10_000, perfect_ctx(DOM1))
        assert result.trials_used <= 60
        assert result.combos[0].specs == ((min(scen.targets[0].cycles), 1),)

    def test_lexicographic_first_success_position(self):
        scen = dup_registers(33, 19)
        c1, c2 = (min(t.cycles) for t in scen.targets)
        space = SearchSpace(0, 100, width_set=(1,))
        result = exhaustive_search(scen, space, 2, 10_000, perfect_ctx(DOM1),
                                   max_successes=1)
        r2 = c2 - c1 - 1
        assert result.trials_used == c1 * 100 + r2 + 1
        assert result.combos[0].specs == ((c1, 1), (r2, 1))

    def test_budget_exhaustion(self):
        scen = dup_registers(7, 43)
        space = SearchSpace(0, 5, width_set=(1,))  # cannot reach the targets
        with pytest.raises(NotFound) as exc:
            exhaustive_search(scen, space, 2, 10_000, perfect_ctx(DOM1))
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
        space = SearchSpace(s1, combo[1][0] + 1, width_set=(10,),
                            stride=combo[1][0] - s1)
        wins = 0
        for seed in range(60):
            try:
                found = exhaustive_search(scen, space, 2, 4, ctx, seed=seed)
                won = [c.specs for c in found.combos] == [combo]
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
        does at seed mix64(seed, i)."""
        if case == "merged_windows":
            scen = load_scenario("successive_shifts")
            ctx = SimContext(DOM1, shift_model())
            space = SearchSpace(0, 8, width_set=(1,))
        elif case == "random_delays":
            scen = replace(dup_registers(7, 43), random_delay_max=9)
            ctx = perfect_ctx(DOM1)
            space = SearchSpace(0, 70, width_set=(1,))
        else:
            scen = dup_registers(7, 43)
            ctx = perfect_ctx(DOM20)
            s1, s2 = (min(t.cycles) * 20 for t in scen.targets)
            r2 = s2 - s1 - 10  # half-windows at s1 and s2: grid {s1, r2}
            space = SearchSpace(s1, r2 + 1, width_set=(10,), stride=r2 - s1)
        combos = list(itertools.product(space.grid, repeat=2))
        want = [c for i, c in enumerate(combos)
                if run_chain_trial(scen, c, ctx, mix64(seed, i))[1].is_success]
        try:
            result = exhaustive_search(scen, space, 2, len(combos), ctx, seed=seed)
            got = [c.specs for c in result.combos]
        except NotFound:
            got = []
        assert got == want


class TestEvaluateRepeatability:
    def test_single_combo_passthrough(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        combo = RankedCombo(specs=tuple(rel))
        result = evaluate_repeatability(scen, [combo], 10, 100,
                                        perfect_ctx(DOM1), seed=1)
        assert result.best.specs == combo.specs
        assert result.best.success_rate == 1.0
        assert result.best.prefix_success_counts == (100, 100)
        assert result.trials_used == 10 + 100

    def test_all_zero_combos(self):
        scen = dup_registers(7, 43)
        losers = [RankedCombo(specs=((0, 1), (0, 1))),
                  RankedCombo(specs=((1, 1), (0, 1)))]
        result = evaluate_repeatability(scen, losers, 5, 10,
                                        perfect_ctx(DOM1), seed=1)
        assert result.best.success_rate == 0.0
        # Tie broken by enumeration order: first combo wins.
        assert result.best.specs == losers[0].specs

    def test_ranking_prefers_higher_rate(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles), 1) for t in scen.targets])
        combos = [RankedCombo(specs=((0, 1), (0, 1))),
                  RankedCombo(specs=tuple(rel))]
        result = evaluate_repeatability(scen, combos, 5, 20,
                                        perfect_ctx(DOM1), seed=1)
        assert result.best.specs == tuple(rel)

    def test_empty_combos_rejected(self):
        scen = dup_registers(7, 43)
        with pytest.raises(ValueError):
            evaluate_repeatability(scen, [], 1, 1, perfect_ctx(DOM1))


class TestTransfer:
    def test_trigger_shift_rebases_first_offset(self):
        coop = load_scenario("dup_registers_coop")
        noncoop = load_scenario("dup_registers_noncoop")
        c1 = min(coop.targets[0].cycles)
        rel = translate_to_relative([(min(t.cycles) * 20, 20)
                                     for t in coop.targets])
        combo = RankedCombo(specs=tuple(rel))
        moved = transfer_parameters(coop, combo, noncoop, DOM20)
        delta = min(noncoop.targets[0].cycles) - c1
        assert moved.specs[0] == (rel[0][0] + delta * 20, 20)
        assert moved.specs[1:] == tuple(rel[1:])

    def test_transferred_combo_succeeds(self):
        coop = load_scenario("dup_registers_coop")
        noncoop = load_scenario("dup_registers_noncoop")
        rel = translate_to_relative([(min(t.cycles), 1) for t in coop.targets])
        moved = transfer_parameters(coop, RankedCombo(specs=tuple(rel)),
                                    noncoop, DOM1)
        recs = run_trials(noncoop, moved.specs, 5, perfect_ctx(DOM1), "t", 1)
        assert all(r.outcome.is_success for r in recs)

    def test_mismatched_distances(self):
        a = dup_registers(7, 43)
        b = dup_registers(7, 44, cooperative=False)
        rel = translate_to_relative([(min(t.cycles), 1) for t in a.targets])
        with pytest.raises(TransferInvalid):
            transfer_parameters(a, RankedCombo(specs=tuple(rel)), b, DOM1)

    def test_mismatched_labels(self):
        a = dup_registers(7, 43)
        b = load_scenario("successive_shifts")
        with pytest.raises(TransferInvalid):
            transfer_parameters(a, RankedCombo(specs=((1, 1), (1, 1))), b, DOM1)


class TestRunTrials:
    def test_rerun_is_identical(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles) * 20, 20)
                                     for t in scen.targets])
        ctx = SimContext(DOM20, dup_register_model())
        r1 = run_trials(scen, rel, 5000, ctx, "x", 77)
        r2 = run_trials(scen, rel, 5000, ctx, "x", 77)
        assert [a.to_dict() for a in r1] == [b.to_dict() for b in r2]


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
    an effectful instruction with index i, if a window touches it and it
    starts before the first lock tick, is skipped when a touching window
    bursts or u(2W+i) < its skip probability.  u(k) = slot k / 2**53."""
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
    for ins, cycle in zip(scenario.effectful_instructions, cycles):
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
        if any(bursts[w] for w in touching) or u(2 * W + ins.index) < 1.0 - p_noskip:
            skipped.add(ins.index)

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
    windows, _ = simulate_chain(ChainConfig(tuple(combo)), trigger)
    raw = _reference_execute_trial(scen, windows, ctx.domains, ctx.model,
                                   ctx.bod, seed)
    hits = tuple(scen.target_indices[t.label] <= raw.skipped for t in scen.targets)
    return raw, classify(scen, raw), hits


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
        assert (raw, outcome, hits) == _oracle_trial(scen, combo, ctx, seed)
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
        space = SearchSpace(phase * K // 20, (last + 1) * K,
                            tuple(max(1, w * K // 20) for w in widths), stride=K)
        ctx = SimContext(ClockDomains(oversampling=K), model, bod)

        labels = [t.label for t in scen.targets]
        entries = {label: set() for label in labels}
        want, stop = [], None
        for i, spec in enumerate(space.grid * pass_budget):
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
                sweep(scen, space, ctx, seed=seed, pass_budget=pass_budget)
            assert exc.value.trials_used == len(want)
            assert exc.value.missing == tuple(lb for lb in labels if not entries[lb])
            return
        result = sweep(scen, space, ctx, seed=seed, pass_budget=pass_budget)
        assert result.trials_used == stop + 1
        assert [(r.seed, r.combo, r.outcome, r.hits) for r in result.records] == want
        assert {r.step for r in result.records} == {"sweep"}
        assert result.params.entries == {lb: tuple(sorted(v)) for lb, v in entries.items()}


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
        shift = stall_shift(scen, max_delay, stall_seed)
        cycles = tuple(map(shift, scen.effectful_cycles))
        dom = ClockDomains(oversampling=K)
        fault_model = MODEL_PRESETS[model]()

        plan = trial_plan(scen, windows, dom, fault_model, bod, cycles)
        for seed in seeds:
            got = run_plan(plan, seed)
            want = _reference_execute_trial(scen, windows, dom, fault_model, bod,
                                            seed, cycles)
            assert (got.skipped, got.locked_up, got.bod_tripped) == (
                want.skipped, want.locked_up, want.bod_tripped)

    def test_memoised_run_trials_match_per_trial_oracle(self):
        scen = replace(dup_registers(7, 43), random_delay_max=9)
        combo = translate_to_relative([(min(t.cycles) * 20 + 5, 15)
                                       for t in scen.targets])
        ctx = SimContext(DOM20, dup_register_model())
        records = run_trials(scen, combo, 1500, ctx, "delayed", 41)
        for index, rec in enumerate(records):
            _, outcome, hits = _oracle_trial(scen, combo, ctx, rec.seed)
            assert (rec.outcome, rec.hits) == (outcome, hits), index
        assert len({rec.outcome for rec in records}) > 1


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
        plan = trial_plan(scen, windows, dom, quiet)
        noisy_plan = trial_plan(scen, windows, dom, noisy)
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

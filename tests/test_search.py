from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from glitchsim.calibration import deterministic_model, dup_register_model
from glitchsim.campaign import MODEL_PRESETS
from glitchsim.chain import ChainConfig, simulate_chain
from glitchsim.dut import BodModel, apply_random_delays, execute_trial
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


def perfect_ctx(dom=DOM1, jobs=1):
    return SimContext(domains=dom, model=deterministic_model(), jobs=jobs)


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

    def test_parallel_matches_serial(self):
        scen = dup_registers(7, 43)
        space = SearchSpace(0, 1200, width_set=(20,), stride=20)
        r1 = sweep(scen, space, SimContext(DOM20, dup_register_model(), jobs=1), seed=9)
        r8 = sweep(scen, space, SimContext(DOM20, dup_register_model(), jobs=8), seed=9)
        assert r1.params.entries == r8.params.entries
        assert [rec.to_dict() for rec in r1.records] == \
               [rec.to_dict() for rec in r8.records]


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

    def test_count_only_growth(self):
        scen = dup_registers(7, 43)
        space = SearchSpace(0, 30, width_set=(1, 2))  # 60 grid points
        one = exhaustive_search(scen, space, 1, 10**9, perfect_ctx(DOM1),
                                count_only=True)
        two = exhaustive_search(scen, space, 2, 10**9, perfect_ctx(DOM1),
                                count_only=True)
        assert one.trials_used == 60
        assert two.trials_used == 60 ** 2


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
    def test_parallel_equals_serial(self):
        scen = dup_registers(7, 43)
        rel = translate_to_relative([(min(t.cycles) * 20, 20)
                                     for t in scen.targets])
        ctx1 = SimContext(DOM20, dup_register_model(), jobs=1)
        ctx8 = SimContext(DOM20, dup_register_model(), jobs=8)
        r1 = run_trials(scen, rel, 5000, ctx1, "x", 77)
        r8 = run_trials(scen, rel, 5000, ctx8, "x", 77)
        assert [a.to_dict() for a in r1] == [b.to_dict() for b in r8]


def _oracle_trial(scenario, combo, ctx, seed):
    """Reference delayed trial: rebuild the scenario with the stalls."""
    scen = apply_random_delays(scenario, scenario.random_delay_max,
                               mix64(seed, 0x5EED))
    trigger = scen.trigger_cycle * ctx.domains.oversampling
    windows, _ = simulate_chain(ChainConfig(tuple(combo)), trigger)
    raw = execute_trial(scen, windows, ctx.domains, ctx.model, ctx.bod, seed)
    hits = tuple(scen.target_hit(t.label, raw) for t in scen.targets)
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

        for rec in run_trials(scen, combo, 3, ctx, "d", seed, first=5):
            _, want_outcome, want_hits = _oracle_trial(scen, combo, ctx, rec.seed)
            assert rec.seed == mix64(seed, rec.index)
            assert (rec.outcome, rec.hits) == (want_outcome, want_hits)

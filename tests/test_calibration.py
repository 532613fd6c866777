import math

import numpy as np
import pytest
from scipy import optimize

from glitchsim import calibration as cal
from glitchsim.dut import Effect


def predict_shift_distributions(pr: float, pl: float, burst: float, lockup: float):
    """Closed-form outcome distributions of the shift-pair experiment.

    Wide = one window covering both shifts; narrow = one window per
    shift.  A bursting window skips everything it covers; otherwise the
    two skips are independent Bernoulli draws.
    """
    a = 1.0 - burst
    s1 = 1.0 - lockup
    wide = {
        "invalid": lockup,
        "both": s1 * (burst + a * pr * pl),
        "only_lsrs": s1 * a * pr * (1 - pl),
        "only_lsls": s1 * a * (1 - pr) * pl,
        "none": s1 * a * (1 - pr) * (1 - pl),
    }
    sr = burst + a * pr
    sl = burst + a * pl
    s2 = s1 * s1
    narrow = {
        "invalid": 1.0 - s2,
        "both": s2 * sr * sl,
        "only_lsrs": s2 * sr * (1 - sl),
        "only_lsls": s2 * (1 - sr) * sl,
        "none": s2 * (1 - sr) * (1 - sl),
    }
    return wide, narrow


def shift_fit_deviation(params) -> float:
    """Worst-cell absolute deviation of the model from the measured tables."""
    wide, narrow = predict_shift_distributions(*params)
    devs = [abs(wide[k] - v) for k, v in cal.WIDE_FAULT_DISTRIBUTION.items()]
    devs += [abs(narrow[k] - v) for k, v in cal.NARROW_FAULT_DISTRIBUTION.items()]
    return max(devs)


def fit_shift_model(n_restarts: int = 50, seed: int = 0):
    """Minimax fit of the shift-pair model (the fit behind the frozen
    SHIFT_* constants); returns (params, deviation)."""
    rng = np.random.default_rng(seed)
    best_x, best_v = None, math.inf
    for _ in range(n_restarts):
        x0 = rng.uniform([0.1, 0.1, 0.0, 0.1], [0.6, 0.5, 0.5, 0.3])
        res = optimize.minimize(
            shift_fit_deviation, x0, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        x = np.clip(res.x, 0.0, 1.0)
        v = shift_fit_deviation(x)
        if v < best_v:
            best_x, best_v = tuple(float(p) for p in x), v
    return best_x, best_v


class TestCascadeConstants:
    def test_dup_store_skip_is_sqrt_of_joint_rate(self):
        assert cal.DUP_REGISTER_STORE_SKIP == pytest.approx(
            math.sqrt(0.212), abs=1e-12)

    def test_cascade_products_reproduce_prefix_rates(self):
        p1 = cal.SAU_SKIP
        p2 = p1 * cal.AHB_ORIGINAL_SKIP
        p3 = p2 * cal.AHB_DUPLICATE_SKIP
        p4 = p3 * cal.PE_SHIFT_SKIP ** 2
        assert p1 == pytest.approx(0.451, rel=1e-9)
        assert p2 == pytest.approx(0.0251, rel=1e-9)
        assert p3 == pytest.approx(0.0023, rel=1e-9)
        assert p4 == pytest.approx(0.0000003, rel=1e-9)

    def test_tzm_model_overrides(self):
        model = cal.tzm_model()
        assert model.per_target_override[Effect.STORE_SAU_CTRL] == cal.SAU_SKIP
        assert model.p_max_skip == 0.0


class TestShiftFit:
    def test_frozen_constants_fit_tables(self):
        params = (cal.SHIFT_LSRS_SKIP, cal.SHIFT_LSLS_SKIP,
                  cal.SHIFT_WINDOW_BURST, cal.SHIFT_WINDOW_LOCKUP)
        assert shift_fit_deviation(params) <= 0.03

    def test_predicted_distributions_normalize(self):
        wide, narrow = predict_shift_distributions(0.3, 0.25, 0.2, 0.15)
        assert sum(wide.values()) == pytest.approx(1.0)
        assert sum(narrow.values()) == pytest.approx(1.0)

    def test_prediction_matches_table_direction(self):
        params = (cal.SHIFT_LSRS_SKIP, cal.SHIFT_LSLS_SKIP,
                  cal.SHIFT_WINDOW_BURST, cal.SHIFT_WINDOW_LOCKUP)
        wide, narrow = predict_shift_distributions(*params)
        assert wide["both"] > narrow["both"]
        assert narrow["invalid"] > wide["invalid"]

    def test_refit_oracle_confirms_frozen_constants(self):
        # Re-run the fit that produced the frozen constants and verify it
        # does not find anything meaningfully better.
        frozen = (cal.SHIFT_LSRS_SKIP, cal.SHIFT_LSLS_SKIP,
                  cal.SHIFT_WINDOW_BURST, cal.SHIFT_WINDOW_LOCKUP)
        frozen_dev = shift_fit_deviation(frozen)
        params, dev = fit_shift_model(n_restarts=10, seed=0)
        # A shorter fit must land in the same minimax basin (within half a
        # percentage point of the frozen optimum, in either direction).
        assert abs(dev - frozen_dev) <= 5e-3

    def test_zero_noise_model_prediction(self):
        wide, narrow = predict_shift_distributions(0, 0, 0, 0)
        assert wide["none"] == 1.0
        assert narrow["none"] == 1.0


class TestModelFactories:
    def test_deterministic_model(self):
        m = cal.deterministic_model()
        assert m.p_max_skip == 1.0
        assert m.p_lockup_per_fault == 0.0

    def test_dup_register_model_overrides_both_stores(self):
        m = cal.dup_register_model()
        assert set(m.per_target_override) == {Effect.STORE_AHB_ORIGINAL,
                                              Effect.STORE_AHB_DUPLICATE}

    def test_shift_model_uses_burst_and_lockup(self):
        m = cal.shift_model()
        assert m.p_window_burst == cal.SHIFT_WINDOW_BURST
        assert m.p_lockup_per_fault == cal.SHIFT_WINDOW_LOCKUP

"""Calibrated fault-response presets.

The response model has no physics in it; its knobs are fitted so the
simulated outcome statistics match measured rates.  The constants below
are frozen results of those fits.  The closed-form predictions the fits
minimise and the minimax refit of the shift-pair model, which needs
numpy and scipy, live in the test suite and guard the frozen constants
against drift.
"""

from __future__ import annotations

import math

from .dut import Effect, FaultResponseModel

# --- duplicate-register experiment -----------------------------------------
# Measured repeatability of the two-fault attack: 0.212 overall, so each
# independent store skip lands at sqrt(0.212).
DUP_REGISTER_SUCCESS_RATE = 0.212
DUP_REGISTER_STORE_SKIP = math.sqrt(DUP_REGISTER_SUCCESS_RATE)

# --- four-target cascade ----------------------------------------------------
# Measured cumulative rates for hitting target prefixes 1..4.
CASCADE_PREFIX_RATES = (0.451, 0.0251, 0.0023, 0.0000003)
SAU_SKIP = CASCADE_PREFIX_RATES[0]
AHB_ORIGINAL_SKIP = CASCADE_PREFIX_RATES[1] / CASCADE_PREFIX_RATES[0]
AHB_DUPLICATE_SKIP = CASCADE_PREFIX_RATES[2] / CASCADE_PREFIX_RATES[1]
# The privilege escalation needs both shift instructions skipped.
PE_SHIFT_SKIP = math.sqrt(CASCADE_PREFIX_RATES[3] / CASCADE_PREFIX_RATES[2])

# --- successive-shift experiment --------------------------------------------
# Measured outcome distributions for one wide fault vs two narrow ones,
# columns: none / only-LSLS-skipped / only-LSRS-skipped / both / invalid.
WIDE_FAULT_DISTRIBUTION = {"none": 0.31, "only_lsls": 0.09, "only_lsrs": 0.17,
                           "both": 0.24, "invalid": 0.19}
NARROW_FAULT_DISTRIBUTION = {"none": 0.17, "only_lsls": 0.19, "only_lsrs": 0.21,
                             "both": 0.15, "invalid": 0.28}

# Frozen minimax fit of (lsrs_skip, lsls_skip, window_burst, window_lockup)
# against the two distributions above; worst cell deviation ~0.027.
SHIFT_LSRS_SKIP = 0.3163263201
SHIFT_LSLS_SKIP = 0.2732682570
SHIFT_WINDOW_BURST = 0.2541734889
SHIFT_WINDOW_LOCKUP = 0.1634326964


def dup_register_model() -> FaultResponseModel:
    """Noise model reproducing the 0.212 two-fault repeatability."""
    return FaultResponseModel(
        p_max_skip=0.0,
        p_lockup_per_fault=0.0,
        per_target_override={
            Effect.STORE_AHB_ORIGINAL: DUP_REGISTER_STORE_SKIP,
            Effect.STORE_AHB_DUPLICATE: DUP_REGISTER_STORE_SKIP,
        },
    )


def tzm_model() -> FaultResponseModel:
    """Noise model reproducing the four-target cascade rates."""
    return FaultResponseModel(
        p_max_skip=0.0,
        p_lockup_per_fault=0.0,
        per_target_override={
            Effect.STORE_SAU_CTRL: SAU_SKIP,
            Effect.STORE_AHB_ORIGINAL: AHB_ORIGINAL_SKIP,
            Effect.STORE_AHB_DUPLICATE: AHB_DUPLICATE_SKIP,
            Effect.CLEAR_LSB_SHIFT1: PE_SHIFT_SKIP,
            Effect.CLEAR_LSB_SHIFT2: PE_SHIFT_SKIP,
        },
    )


def shift_model() -> FaultResponseModel:
    """Noise model fitted to the wide-vs-narrow shift-pair distributions."""
    return FaultResponseModel(
        p_max_skip=0.0,
        p_lockup_per_fault=SHIFT_WINDOW_LOCKUP,
        p_window_burst=SHIFT_WINDOW_BURST,
        per_target_override={
            Effect.CLEAR_LSB_SHIFT1: SHIFT_LSRS_SKIP,
            Effect.CLEAR_LSB_SHIFT2: SHIFT_LSLS_SKIP,
        },
    )


def deterministic_model() -> FaultResponseModel:
    """Every touched target instruction is skipped; no lockups."""
    return FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=0.0)

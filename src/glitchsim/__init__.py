"""glitchsim: simulator and search library for multi-voltage-fault
injection against a TrustZone-M-style protected target.

Layers, bottom up:

- :mod:`glitchsim.timing` — clock domains, ticks from nanoseconds.
- :mod:`glitchsim.chain` — the chained fault-unit glitcher: units to fault windows.
- :mod:`glitchsim.dut` — instruction stream, fault response, one trial.
- :mod:`glitchsim.scenarios` — firmware scenarios, success functions, outcomes.
- :mod:`glitchsim.calibration` — fitted noise-model presets.
- :mod:`glitchsim.search` — sweep / translate / fuzzyfy / integrate / evaluate.
- :mod:`glitchsim.campaign` — end-to-end experiments and persistence.
- :mod:`glitchsim.cli` — the ``glitchsim`` command.

Errors: :class:`ConfigError` (refused input) or :class:`SearchFailed` (no result).
"""

from .calibration import (deterministic_model, dup_register_model, shift_model,
                          tzm_model)
from .chain import simulate_chain
from .dut import (BodModel, Effect, FaultResponseModel, Instruction,
                  RawTrialResult, apply_random_delays, execute_trial)
from .errors import (ConfigError, GlitchSimError, IncompleteSweep,
                     NoIntegratedSuccess, NotFound, SearchFailed)
from .campaign import (CampaignConfig, load_config, nominal_combo,
                       run_attack_flow, run_bod_eval, run_comparison,
                       run_countermeasure_eval, run_exhaustive, run_sweep_only,
                       run_wide_vs_narrow)
from .scenarios import (Outcome, ScenarioSpec, Target, classify, load_scenario,
                        save_scenario)
from .search import (FuzzyInterval, SearchConfig, SimContext, TrialBlock,
                     evaluate_repeatability, exhaustive_search, fuzzyfy,
                     integrate, run_chain_trial, run_trials, sweep,
                     transfer_parameters, translate_to_relative)
from .seeding import mix64
from .timing import ClockDomains, ticks_from_ns

__version__ = "1.0.0"

__all__ = [
    "BodModel", "CampaignConfig", "ClockDomains", "ConfigError", "Effect",
    "FaultResponseModel", "FuzzyInterval", "GlitchSimError", "IncompleteSweep",
    "Instruction", "NoIntegratedSuccess", "NotFound", "Outcome",
    "RawTrialResult", "ScenarioSpec", "SearchConfig", "SearchFailed",
    "SimContext", "Target", "TrialBlock", "apply_random_delays",
    "classify", "deterministic_model", "dup_register_model",
    "evaluate_repeatability", "execute_trial", "exhaustive_search", "fuzzyfy",
    "integrate", "load_config", "load_scenario", "mix64", "nominal_combo",
    "run_attack_flow", "run_bod_eval", "run_chain_trial", "run_comparison",
    "run_countermeasure_eval", "run_exhaustive", "run_sweep_only",
    "run_trials", "run_wide_vs_narrow", "save_scenario", "shift_model",
    "simulate_chain", "sweep", "ticks_from_ns", "transfer_parameters",
    "translate_to_relative", "tzm_model",
]

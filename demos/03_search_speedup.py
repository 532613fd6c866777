"""Trial-count comparison: exhaustive grid search vs the sweeping flow.

The exhaustive baseline enumerates the full Cartesian product of
per-fault (offset, width) grids and only sees the overall success
function.  The flow locates each target with single faults first, so
its cost grows linearly with the number of faults instead of
exponentially.  The last row is the four-target TrustZone-M attack,
where the exhaustive side needs about 10^5 times the flow's trials.
"""

from glitchsim import CampaignConfig, SearchConfig, deterministic_model
from glitchsim.campaign import run_comparison

print(f"{'scenario':<22} {'faults':>6} {'exhaustive':>15} {'flow':>8} {'ratio':>8}")


def row(preset, width_set, offset_max, budget=10_000_000):
    cfg = CampaignConfig(
        scenario=preset,
        oversampling=1,  # 1 tick per cycle keeps the demo grid small
        model=deterministic_model(),
        search=SearchConfig(offset_min=0, offset_max=offset_max,
                            width_set=width_set, psi=2, exhaustive_budget=budget),
        master_seed=7,
    )
    s = run_comparison(cfg)
    ex = s["exhaustive"]
    exhaustive = ex["trials_used"] if ex["found"] else f"{ex['trials_used']} (cap)"
    ratio = f"{s['ratio']:.1f}" if s["ratio"] else "-"
    print(f"{preset:<22} {s['n_faults']:>6} {exhaustive:>15} "
          f"{s['flow']['trials_used']:>8} {ratio:>8}")


for preset in ("dup_registers_7_43", "dup_registers_33_19",
               "dup_registers_4_50", "dup_registers_22_1"):
    row(preset, (1,), 200)
# Four faults over a 200-point grid (offsets 0..99, widths 1 and 2):
# 1.6 * 10^9 combos.  The exhaustive side finds its first success only
# past 8.8 * 10^7 trials, so its cap is raised to 10^8 here, while the
# flow stays in the hundreds.
row("tzm_full_attack", (1, 2), 100, budget=100_000_000)

print("""
The exhaustive count is every combo the grid search charged, as if it
had run them all.  It runs only the combos whose windows touch every
target (branch and bound), so on the last row it compiles one plan.""")

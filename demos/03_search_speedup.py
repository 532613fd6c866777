"""Trial-count comparison: exhaustive grid search vs the sweeping flow.

The exhaustive baseline enumerates the full Cartesian product of
per-fault (offset, width) grids and only sees the overall success
function.  The flow locates each target with single faults first, so
its cost grows linearly with the number of faults instead of
exponentially.  The last row is the four-target TrustZone-M attack,
where the exhaustive side blows a 10^7-trial cap.
"""

from glitchsim import CampaignConfig, SearchConfig, deterministic_model
from glitchsim.campaign import run_comparison

print(f"{'scenario':<22} {'faults':>6} {'exhaustive':>15} {'flow':>8} {'ratio':>8}")


def row(preset, width_set, offset_max):
    cfg = CampaignConfig(
        scenario=preset,
        oversampling=1,  # 1 tick per cycle keeps the demo grid small
        model=deterministic_model(),
        search=SearchConfig(offset_min=0, offset_max=offset_max,
                            width_set=width_set, psi=2, exhaustive_budget=10_000_000),
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
# 1.6 * 10^9 combos, so the exhaustive side stops at its 10^7-trial cap
# without a success while the flow stays in the hundreds.
row("tzm_full_attack", (1, 2), 100)

print("""
The exhaustive count is every combo the grid search charged: without
random stalls it prunes a chain prefix that already passed a target
untouched, so the 10^7-trial cap costs about a second, but the count is
that of running every combo.""")

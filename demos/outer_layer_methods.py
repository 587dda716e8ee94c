"""Outer-layer filter comparison: CME vs PPS vs SPS over the multiplexing ratio.

Single-user links at 20 dB SNR, with the filter widths tied to the stream
count (the inner stage is then a square unitary factor and the measured
rate is that of the bare outer filters). Mirrors the full 'outer_*' presets
at a trial count that finishes in about a minute.
"""

from dataclasses import replace

from dsmimo import ExperimentConfig, SCENARIOS, run_point

N_TRIALS = 100
SEED = 1

for scenario in ("poor", "fair"):
    n_paths = SCENARIOS[scenario][1]
    print(f"=== {scenario} scattering (L={n_paths}), U=1, SNR=20 dB, "
          f"{N_TRIALS} trials, mean rate in bit/s/Hz ===")
    print("N_s/L    N_s      cme      pps      sps")
    base = ExperimentConfig(scenario=scenario, n_users=1, snr_db=20.0,
                            inner="met_mer", n_trials=N_TRIALS)
    for k in (1, 2, 4, 6, 8):
        n_s = n_paths * k // 8
        # The three methods read the same drops, so one group runs them.
        cfgs = [replace(base, m_t=n_s, m_r=n_s, n_s=n_s, outer=m) for m in ("cme", "pps", "sps")]
        rates = [record.mean_rate for record in run_point(*cfgs, seed=SEED)]
        print(f"{k / 8:5.3f} {n_s:6d} {rates[0]:8.2f} {rates[1]:8.2f} {rates[2]:8.2f}")
    print()

print("SPS tracks PPS at low multiplexing, pulls ahead as correlated paths")
print("start to matter, and collapses back onto PPS at N_s = L where both")
print("must select every path.")

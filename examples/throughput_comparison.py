#!/usr/bin/env python3
"""Figure 3 walkthrough: ZLB vs Polygraph, HotStuff and Red Belly throughput.

Prints the calibrated phase-level model series over the paper's committee
sizes (the reproduction of Figure 3's shape; Polygraph appears only there),
then a measured comparison of the message-level implementations at n = 7:
ZLB, Red Belly (the same ZLB deployment with confirmation off) and HotStuff.

Run with::

    python examples/throughput_comparison.py
"""

from repro.analysis.metrics import format_table
from repro.scenarios import expand, run_specs
from repro.scenarios.library import run_measured_comparison


def main() -> None:
    print("=== Figure 3 (phase-level model, tx/s) ===")
    rows = run_specs(expand("fig3", "full"))
    print(format_table(rows))
    print()
    largest = rows[-1]
    print(f"at n = 90: ZLB is {largest['zlb_vs_hotstuff']}x HotStuff "
          f"(the paper reports 5.6x), Red Belly stays ahead of ZLB, and "
          f"Polygraph has fallen behind ZLB (crossover around 40 replicas).")
    print()

    print("=== measured comparison of the message-level implementations (n = 7) ===")
    measured = run_measured_comparison(n=7, transactions=120)
    table = [
        {
            "protocol": name,
            "tx/s (simulated)": round(detail["tx_per_sec"], 1),
            "tx per consensus instance": round(detail["tx_per_instance"], 1),
        }
        for name, detail in measured.items()
    ]
    print(format_table(table))
    print()
    print("SBC-style protocols (ZLB, Red Belly) decide one proposal per replica "
          "per instance; HotStuff decides a single proposal per view — the "
          "structural reason its throughput does not grow with the committee.")


if __name__ == "__main__":
    main()

"""repro — a reference reproduction of ZLB (Zero-Loss Blockchain), DSN 2024.

The package implements the paper's contribution (accountable SMR with
membership change, block merge, zero-loss payments) and every substrate it
depends on (discrete-event network simulation, ECDSA, reliable broadcast,
binary and set Byzantine consensus, Polygraph accountability, HotStuff /
Red Belly / Polygraph baselines) in pure Python.

Quickstart::

    from repro.zlb import ZLBSystem
    from repro.common import FaultConfig

    system = ZLBSystem.create(FaultConfig(n=7), seed=1)
    result = system.run_instances(3)
    print(result.chain_summary())

See README.md and the examples/ directory for full walkthroughs.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

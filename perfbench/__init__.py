"""Seeded end-to-end and per-layer benchmark for the prchannels package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  The package is imported from
``src/`` of the same checkout and is never modified; the traced run wraps its
public functions from the outside.
"""

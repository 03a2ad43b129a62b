"""End-to-end and per-layer benchmark for dgratio; run ``python3 perfbench/run.py``."""

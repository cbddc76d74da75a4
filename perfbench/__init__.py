"""Host-speed-normalised benchmark of the co-simulation, co-synthesis and
job-service paths; run it with ``python3 perfbench/run.py``."""

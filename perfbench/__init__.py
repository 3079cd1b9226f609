"""Host-timed benchmark for the repository; entry point ``perfbench/run.py``."""

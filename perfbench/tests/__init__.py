"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``."""

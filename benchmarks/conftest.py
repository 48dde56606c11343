"""Benchmark-harness configuration.

Each benchmark regenerates one paper table or figure (see DESIGN.md's
per-experiment index), asserts its shape criteria, and prints the rows.
The files are named ``bench_*.py``, which pytest does not collect
from a directory, so name them on the command line::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py

Add ``--benchmark-disable`` for the quick mode CI runs (each benchmark
body once, no timing table) and ``-s`` to see the printed artifacts.
"""

from __future__ import annotations

import pytest

"""pytest setup for the paper-figure benchmarks.

Under pytest, every bench's reproduction block (``common.emit``) and
``BENCH_*.json`` record (``common.write_bench_json``) goes to one
temporary directory per session, so ``pytest benchmarks/`` checks the
paper's assertions without rewriting the committed
``benchmarks/out/*.txt`` and ``BENCH_*.json``. A bench run as a script
still writes the committed files.
"""

from __future__ import annotations

import pytest

import common


@pytest.fixture(scope="session", autouse=True)
def scratch_outputs(tmp_path_factory):
    saved = common.OUT_DIR, common.JSON_DIR
    common.OUT_DIR = common.JSON_DIR = tmp_path_factory.mktemp("bench-out")
    yield
    common.OUT_DIR, common.JSON_DIR = saved

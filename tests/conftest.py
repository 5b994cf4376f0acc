import time

import pytest

from splinerf.cli import main


@pytest.fixture(scope="session")
def fig2_run(tmp_path_factory):
    """fig2 at its default settings, written once by the CLI: (csv path, seconds taken).

    The acceptance suite takes its medians from this file and the determinism
    pin compares it with the reference, so fig2 runs once per session.
    """
    path = tmp_path_factory.mktemp("fig2") / "fig2.csv"
    start = time.perf_counter()
    assert main(["--experiment", "fig2", "--seed", "0", "--out", str(path)]) == 0
    return path, time.perf_counter() - start

"""Pipeline stages run with one BLAS thread and give the count back."""

import numpy as np
import pytest

from tvnet import blas, cli

from test_cli import load

USES_OPENBLAS = "openblas" in np.__config__.CONFIG[
    "Build Dependencies"]["blas"]["name"].lower()


def counts():
    return [get() for get, _ in blas._controls()]


def test_numpy_openblas_is_found():
    if not USES_OPENBLAS:
        pytest.skip("numpy is not built with OpenBLAS")
    assert len(blas._controls()) >= 1


def test_one_thread_inside_and_restored_after():
    before = counts()
    with blas.single_thread():
        assert counts() == [1] * len(before)
    assert counts() == before


def test_restored_when_the_block_raises():
    before = counts()
    with pytest.raises(ZeroDivisionError):
        with blas.single_thread():
            1 / 0
    assert counts() == before


def test_stage_runs_with_one_thread(tmp_path, monkeypatch):
    seen = []
    make_ground_truth = cli.make_ground_truth

    def spy(*args, **kwargs):
        seen.append(counts())
        return make_ground_truth(*args, **kwargs)

    monkeypatch.setattr(cli, "make_ground_truth", spy)
    before = counts()
    m = load(tmp_path)
    assert cli.generate_one(m, 0)
    assert seen == [[1] * len(before)]
    assert counts() == before

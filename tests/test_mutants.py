"""Checks that claim to measure learning go red when learning is broken.

Each mutant replaces one engine step by monkeypatch:

- ``frozen``: the round returns ``b`` unchanged;
- ``random``: the round returns the thin QR of a Gaussian seeded by the
  round index;
- ``wrong_sign``: the round steps with ``-eta``;
- ``slowest_n``: the selection keeps the slowest n slots, slowest first,
  and prices the round by the slowest chosen slot plus C.

A pair is tested here only where its check goes red.  Some pairs stay
green, and ROADMAP item 3 lists them: ``frozen`` passes criteria 1 and 4,
and ``slowest_n`` passes criterion 1, verify's contraction check and, by
construction (n = N), criterion 2.  Criterion 5a is left out: its fixture
takes seconds per mutant, and its analytic plans run to the round cap.
"""

import dataclasses
import statistics
from pathlib import Path

import numpy as np
import pytest

from srpfl import checks, engine, straggler
from srpfl.config import load_config
from srpfl.errors import NonConvergence
from srpfl.linalg import thin_qr

from criteria import CRITERION_1, CRITERION_2, CRITERION_4

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"

real_round = engine.fedrep_round


def frozen(b, gt, participants, m, eta, seed, round_index):
    return b


def random_basis(b, gt, participants, m, eta, seed, round_index):
    return thin_qr(np.random.default_rng(round_index).standard_normal(b.shape))[0]


def wrong_sign(b, gt, participants, m, eta, seed, round_index):
    return real_round(b, gt, participants, m, -eta, seed, round_index)


def slowest_n(model, round_index, n):
    times = straggler.draw_round_times(model, round_index)
    slots = np.argsort(times, kind="stable")[::-1][:n]
    return slots, float(times[slots[0]]) + model.comm_cost


ROUND_MUTANTS = {"frozen": frozen, "random": random_basis, "wrong_sign": wrong_sign}


@pytest.fixture
def round_mutant(request, monkeypatch):
    monkeypatch.setattr(engine, "fedrep_round", ROUND_MUTANTS[request.param])


@pytest.mark.parametrize("round_mutant", ["random", "wrong_sign"], indirect=True)
def test_criterion_1_catches(round_mutant):
    ok, detail = checks.contraction(CRITERION_1)
    assert not ok, detail


@pytest.mark.parametrize("round_mutant", ["frozen", "random", "wrong_sign"], indirect=True)
def test_criterion_2_catches(round_mutant):
    trace = engine.run(CRITERION_2)
    assert not trace.reached_target and trace.final_dist > 1e-6


def test_criterion_4_catches_slowest_n(monkeypatch):
    monkeypatch.setattr(engine, "select_fastest", slowest_n)
    monkeypatch.setenv("SRPFL_THREADS", "1")
    means = {}
    for n_total in (64, 256):
        # criterion 4's seeds
        results = engine.run_sweep(dataclasses.replace(CRITERION_4, n_total=n_total), range(20))
        means[n_total] = statistics.fmean(
            s.total_time() / f.total_time()
            for s, f in zip(results[engine.ALGO_SRPFL], results[engine.ALGO_FEDREP_FULL])
        )
    # every run of both algorithms ends after one round, so each ratio reads 1
    assert not means[256] < means[64] < 1.0, means


@pytest.mark.parametrize("round_mutant", ["frozen", "random", "wrong_sign"], indirect=True)
def test_verify_contraction_catches(round_mutant):
    cfg = dataclasses.replace(load_config(REFERENCE_CONFIG), max_rounds=300)
    with pytest.raises(NonConvergence, match="round cap 300"):
        checks.contraction(cfg)

"""Checks that claim to measure learning go red when learning is broken.

Each mutant replaces one engine step by monkeypatch:

- ``frozen``: the round returns its basis unchanged, with the distance of its
  representation;
- ``random``: the round returns the basis of a Gaussian seeded by the
  round index, with its distance;
- ``wrong_sign``: the round steps with ``-eta``;
- ``slowest_n``: the selection keeps the slowest n slots, slowest first,
  and prices the round by the slowest chosen slot plus C.

A pair whose check goes red is a plain test.  A pair whose check stays
green, so that the check misses the mutant, is marked :data:`GREEN`, a
strict xfail that ROADMAP item 3 lists: a change that makes the check
catch its mutant turns the suite red until that mark is dropped.
``slowest_n`` passes criterion 2 by construction (n = N), so that pair is
left out.  Criterion 5a is left out too: its fixture takes seconds per
mutant, and its analytic plans run to the round cap.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from srpfl import checks, engine, straggler
from srpfl.config import load_config
from srpfl.errors import NonConvergence
from srpfl.linalg import span_basis

from criteria import CRITERION_1, CRITERION_2, mean_speedup_ratio

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"

real_round = engine.fedrep_round


def frozen(q, gt, participants, m, eta, seed, round_index):
    return span_basis(q[:, :gt.k], gt.b_star)


def random_basis(q, gt, participants, m, eta, seed, round_index):
    return span_basis(np.random.default_rng(round_index).standard_normal((len(q), gt.k)), gt.b_star)


def wrong_sign(q, gt, participants, m, eta, seed, round_index):
    return real_round(q, gt, participants, m, -eta, seed, round_index)


def slowest_n(model, round_index, n):
    times = straggler.draw_round_times(model, round_index)
    slots = np.argsort(times, kind="stable")[::-1][:n]
    return slots, float(times[slots[0]]) + model.comm_cost


MUTANTS = {  # name -> (the engine step it replaces, the replacement)
    "frozen": ("fedrep_round", frozen),
    "random": ("fedrep_round", random_basis),
    "wrong_sign": ("fedrep_round", wrong_sign),
    "slowest_n": ("select_fastest", slowest_n),
}

GREEN = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: the check still passes this mutant")


def green(name):
    return pytest.param(name, marks=GREEN)


@pytest.fixture
def mutant(request, monkeypatch):
    monkeypatch.setattr(engine, *MUTANTS[request.param])


@pytest.mark.parametrize("mutant", [green("frozen"), "random", "wrong_sign", green("slowest_n")], indirect=True)
def test_criterion_1_catches(mutant):
    ok, detail = checks.contraction(CRITERION_1)
    assert not ok, detail


@pytest.mark.parametrize("mutant", ["frozen", "random", "wrong_sign"], indirect=True)
def test_criterion_2_catches(mutant):
    trace = engine.run(CRITERION_2)
    assert not trace.reached_target and trace.final_dist > 1e-6


def _criterion_4_goes_red(monkeypatch):
    monkeypatch.setenv("SRPFL_THREADS", "1")
    mean_64, mean_256 = (mean_speedup_ratio(n_total, range(20)) for n_total in (64, 256))  # criterion 4's seeds
    assert not mean_256 < mean_64 < 1.0, (mean_64, mean_256)


def test_criterion_4_catches_slowest_n(monkeypatch):
    # every run of both algorithms ends after one round, so each ratio reads 1
    monkeypatch.setattr(engine, "select_fastest", slowest_n)
    _criterion_4_goes_red(monkeypatch)


@GREEN
def test_criterion_4_catches_frozen(monkeypatch):
    monkeypatch.setattr(engine, "fedrep_round", frozen)
    _criterion_4_goes_red(monkeypatch)


@pytest.mark.parametrize("mutant", ["frozen", "random", "wrong_sign"], indirect=True)
def test_verify_contraction_catches(mutant):
    cfg = dataclasses.replace(load_config(REFERENCE_CONFIG), max_rounds=300)
    with pytest.raises(NonConvergence, match="round cap 300"):
        checks.contraction(cfg)


@GREEN
def test_verify_contraction_catches_slowest_n(monkeypatch):
    monkeypatch.setattr(engine, "select_fastest", slowest_n)
    ok, detail = checks.contraction(load_config(REFERENCE_CONFIG))
    assert not ok, detail

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gearevo.cma_es import (
    CmaEsConfig,
    EvaluatedCandidate,
    GenerationLogRow,
    cma_ask,
    cma_init,
    cma_tell,
    read_generation_log,
    write_generation_log,
)
from gearevo.design_space import DesignSpace, DesignVector, clamp_to_bounds
from gearevo.errors import ConfigError, ContractError, DimensionError


def small_config(**kw) -> CmaEsConfig:
    base = dict(
        dim=2,
        initial_mean=0.2,
        initial_sigma=0.3,
        population_size=8,
        parent_count=4,
        max_iterations=50,
        seed=0,
    )
    base.update(kw)
    return CmaEsConfig(**base)


def evaluate(cands, f):
    return [dataclasses.replace(c, fitness=float(f(c.design.factors))) for c in cands]


# --- init -----------------------------------------------------------------------


def test_init_defaults_match_run_setup():
    state = cma_init(CmaEsConfig())
    assert np.array_equal(state.mean, [0.2, 0.2])
    assert state.sigma == 0.3
    assert np.array_equal(state.cov, np.eye(2))
    assert state.generation == 0
    assert (state.lam, state.mu) == (50, 10)


def test_single_parent_weight_is_one():
    state = cma_init(small_config(parent_count=1))
    assert np.array_equal(state.weights, [1.0])


def test_two_parent_weights_frozen_value():
    # log-weight formula evaluated independently:
    # raw = [ln 2.5 - ln 1, ln 2.5 - ln 2], normalized to sum 1
    state = cma_init(small_config(parent_count=2))
    assert state.weights[0] == pytest.approx(0.8041628599327295, abs=1e-15)
    assert state.weights[1] == pytest.approx(0.19583714006727054, abs=1e-15)


def test_strategy_constants_frozen_for_default_config():
    # independently computed from the standard formulas at dim=2, mu=10
    state = cma_init(CmaEsConfig())
    assert state.mu_eff == pytest.approx(5.938804235601242, abs=1e-12)
    assert state.c_sigma == pytest.approx(0.6135655266935368, abs=1e-12)
    assert state.d_sigma == pytest.approx(2.1797051008661867, abs=1e-12)
    assert state.c_c == pytest.approx(0.5837604822280295, abs=1e-12)
    assert state.c_1 == pytest.approx(0.11884385675893783, abs=1e-12)
    assert state.c_mu == pytest.approx(0.3744222571803341, abs=1e-12)
    assert state.chi_n == pytest.approx(1.254272742818995, abs=1e-12)


def test_weights_properties():
    state = cma_init(small_config(parent_count=4))
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(state.weights) < 0)
    assert np.all(state.weights > 0)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        CmaEsConfig(dim=0)
    with pytest.raises(ConfigError):
        CmaEsConfig(initial_sigma=0.0)
    with pytest.raises(ConfigError):
        CmaEsConfig(parent_count=60, population_size=50)
    with pytest.raises(ConfigError):
        CmaEsConfig(population_size=1)


# --- ask ------------------------------------------------------------------------


def test_ask_is_deterministic_for_identical_state():
    state = cma_init(small_config())
    a = cma_ask(state)
    b = cma_ask(state)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.design.factors, cb.design.factors)
        assert np.array_equal(ca.raw_sample, cb.raw_sample)


def test_ask_population_size_and_fitness_unset():
    state = cma_init(small_config())
    cands = cma_ask(state)
    assert len(cands) == 8
    assert all(c.fitness is None for c in cands)


def test_ask_degenerate_sigma_collapses_to_mean():
    state = dataclasses.replace(cma_init(small_config()), sigma=1e-300)
    for c in cma_ask(state):
        assert np.allclose(c.design.factors, state.mean, atol=1e-290)


def test_ask_identity_cov_sampling_moments():
    state = dataclasses.replace(cma_init(small_config()), sigma=0.5)
    rng = np.random.default_rng(123)
    n = 100_000
    draws = np.empty((n, 2))
    idx = 0
    while idx < n:
        for c in cma_ask(state, rng=rng):
            if idx < n:
                draws[idx] = c.raw_sample
                idx += 1
    tol = 4 * 0.5 / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - state.mean) < tol)
    assert np.allclose(draws.std(axis=0), 0.5, rtol=0.02)


def test_ask_clamps_design_keeps_raw_sample():
    space = DesignSpace(dim=2, lower_bound=0.5, upper_bound=4.0)
    state = dataclasses.replace(cma_init(small_config()), sigma=5.0)
    cands = cma_ask(state, space)
    out_of_bounds = 0
    for c in cands:
        assert np.all(c.design.factors >= 0.5) and np.all(c.design.factors <= 4.0)
        if not np.array_equal(c.design.factors, c.raw_sample):
            out_of_bounds += 1
            clamped = np.clip(c.raw_sample, 0.5, 4.0)
            assert np.array_equal(c.design.factors, clamped)
    assert out_of_bounds > 0  # sigma=5 guarantees excursions


@pytest.mark.parametrize("space", [None, DesignSpace(dim=2, lower_bound=0.5, upper_bound=4.0)])
def test_ask_designs_match_per_candidate_construction(space):
    """The whole-population clip gives each candidate's own clamp, bit for bit."""
    state = dataclasses.replace(cma_init(small_config()), sigma=5.0)
    for c in cma_ask(state, space):
        want = DesignVector(c.raw_sample.copy())
        if space is not None:
            want = clamp_to_bounds(want, space)
        assert c.design.factors.tobytes() == want.factors.tobytes()
        assert not np.shares_memory(c.design.factors, c.raw_sample)


def test_ask_rejects_nonfinite_samples():
    state = dataclasses.replace(cma_init(small_config()), mean=np.array([0.2, np.nan]))
    with pytest.raises(ContractError, match="finite"):
        cma_ask(state, DesignSpace(dim=2))


def test_ask_rejects_space_of_other_dim():
    with pytest.raises(DimensionError, match="space dim"):
        cma_ask(cma_init(small_config()), DesignSpace(dim=3))


# --- tell ------------------------------------------------------------------------


def test_tell_wrong_count_rejected():
    state = cma_init(small_config())
    cands = evaluate(cma_ask(state), lambda x: np.sum(x**2))
    with pytest.raises(ContractError):
        cma_tell(state, cands[:-1])


def test_tell_unset_or_nan_fitness_rejected():
    state = cma_init(small_config())
    cands = cma_ask(state)
    with pytest.raises(ContractError):
        cma_tell(state, cands)
    cands = evaluate(cands, lambda x: np.sum(x**2))
    cands[3] = dataclasses.replace(cands[3], fitness=float("nan"))
    with pytest.raises(ContractError):
        cma_tell(state, cands)


def test_tell_accepts_inf_fitness_for_failed_candidates():
    state = cma_init(small_config())
    cands = evaluate(cma_ask(state), lambda x: np.sum(x**2))
    cands[0] = dataclasses.replace(cands[0], fitness=float("inf"))
    new = cma_tell(state, cands)
    assert np.all(np.isfinite(new.mean))
    assert np.isfinite(new.sigma)


def test_tell_without_a_scored_candidate_keeps_the_distribution():
    state = cma_init(small_config())
    cands = evaluate(cma_ask(state), lambda x: np.inf)
    new = cma_tell(state, cands)
    assert new.generation == state.generation + 1
    for name in ("mean", "sigma", "cov", "path_sigma", "path_c"):
        assert np.array_equal(getattr(new, name), getattr(state, name)), name
    # the next ask is keyed by the advanced generation, so it draws anew
    again = np.stack([c.raw_sample for c in cma_ask(new)])
    assert not np.array_equal(again, np.stack([c.raw_sample for c in cands]))


def test_tell_stationary_input_keeps_mean_shrinks_sigma():
    state = cma_init(small_config())
    cands = [
        EvaluatedCandidate(
            design=DesignVector(state.mean.copy()),
            raw_sample=state.mean.copy(),
            fitness=1.0,
        )
        for _ in range(state.lam)
    ]
    new = cma_tell(state, cands)
    assert np.array_equal(new.mean, state.mean)
    assert new.sigma < state.sigma
    assert new.generation == 1


def test_tell_uniform_two_parent_recombination():
    state = cma_init(small_config(population_size=2, parent_count=2))
    state = dataclasses.replace(state, weights=np.array([0.5, 0.5]))
    s1 = np.array([1.0, 0.0])
    s2 = np.array([0.0, 1.0])
    cands = [
        EvaluatedCandidate(design=DesignVector(s1.copy()), raw_sample=s1, fitness=0.1),
        EvaluatedCandidate(design=DesignVector(s2.copy()), raw_sample=s2, fitness=0.2),
    ]
    new = cma_tell(state, cands)
    assert np.allclose(new.mean, (s1 + s2) / 2, atol=1e-15)


def test_tell_updates_are_functional():
    state = cma_init(small_config())
    frozen = (state.mean.copy(), state.sigma, state.cov.copy(), state.generation)
    cands = evaluate(cma_ask(state), lambda x: np.sum(x**2))
    cma_tell(state, cands)
    assert np.array_equal(state.mean, frozen[0])
    assert state.sigma == frozen[1]
    assert np.array_equal(state.cov, frozen[2])
    assert state.generation == frozen[3]


def test_tell_uses_raw_samples_not_clamped_designs():
    space = DesignSpace(dim=2, lower_bound=0.5, upper_bound=4.0)
    state = dataclasses.replace(cma_init(small_config()), sigma=6.0)
    cands = evaluate(cma_ask(state, space), lambda x: np.sum(x**2))
    new = cma_tell(state, cands)
    # recompute the expected mean from raw samples of the selected parents
    order = np.argsort([c.fitness for c in cands], kind="stable")
    sel = np.array([cands[i].raw_sample for i in order[: state.mu]])
    y = (sel - state.mean) / state.sigma
    expected = state.mean + state.sigma * (state.weights @ y)
    assert np.allclose(new.mean, expected, atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.permutations(list(range(8))))
def test_tell_is_permutation_invariant(perm):
    state = cma_init(small_config())
    cands = evaluate(cma_ask(state), lambda x: float(np.sum(x**2)))
    # make fitness strictly distinct so ordering is unambiguous
    cands = [
        dataclasses.replace(c, fitness=c.fitness + 1e-9 * i)
        for i, c in enumerate(cands)
    ]
    a = cma_tell(state, cands)
    b = cma_tell(state, [cands[i] for i in perm])
    assert np.allclose(a.mean, b.mean, atol=1e-14)
    assert a.sigma == pytest.approx(b.sigma, abs=1e-14)
    assert np.allclose(a.cov, b.cov, atol=1e-14)


def test_cov_stays_symmetric_over_generations():
    state = cma_init(small_config())
    rng = np.random.default_rng(9)
    for _ in range(25):
        cands = evaluate(cma_ask(state), lambda x: np.sum((x - 1.0) ** 2))
        state = cma_tell(state, cands)
        assert np.array_equal(state.cov, state.cov.T)
    assert np.all(np.linalg.eigvalsh(state.cov) > 0)


# --- convergence ------------------------------------------------------------------


def test_sphere_converges_with_default_config():
    state = cma_init(CmaEsConfig(seed=0))
    best = np.inf
    history = []
    for _ in range(200):
        cands = evaluate(cma_ask(state), lambda x: np.sum(x**2))
        history.extend(cands)
        best = min(best, min(c.fitness for c in cands))
        state = cma_tell(state, cands)
    assert best < 1e-9
    # best candidate near the origin in pre-clamp coordinates
    top = min(history, key=lambda c: c.fitness)
    assert np.linalg.norm(top.raw_sample) < 1e-4


# --- generation log -----------------------------------------------------------------


def test_generation_log_round_trip(tmp_path):
    rows = [
        GenerationLogRow(1, -1.5, -0.25, 0.3, np.array([0.2, 0.21])),
        GenerationLogRow(2, -2.0, -1.0, 0.28, np.array([0.3, 0.19])),
    ]
    path = tmp_path / "cma_log.csv"
    write_generation_log(rows, path)
    back = read_generation_log(path)
    assert len(back) == 2
    for a, b in zip(rows, back):
        assert a.generation == b.generation
        assert a.best_fitness == b.best_fitness
        assert a.mean_fitness == b.mean_fitness
        assert a.sigma == b.sigma
        assert np.array_equal(a.mean, b.mean)


def test_generation_log_append_matches_whole_file(tmp_path):
    rows = [
        GenerationLogRow(1, -1.5, -0.25, 0.3, np.array([0.2, 0.21])),
        GenerationLogRow(2, np.inf, np.inf, 0.28, np.array([0.3, 0.19])),
    ]
    whole, appended = tmp_path / "whole.csv", tmp_path / "appended.csv"
    write_generation_log(rows, whole)
    for row in rows:
        write_generation_log([row], appended, append=True)
    assert whole.read_bytes() == appended.read_bytes()

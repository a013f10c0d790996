import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gearevo import cma_es
from gearevo.cma_es import CmaEsConfig, cma_ask, cma_init, cma_tell
from gearevo.codesign import FitnessRecord, write_cma_log
from gearevo.design_space import DesignSpace, clamp_to_bounds
from gearevo.errors import ConfigError, ContractError
from gearevo.tables import read_table


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


def fitness_of(samples, f):
    return np.array([float(f(x)) for x in samples])


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
    assert a.tobytes() == b.tobytes()


def test_ask_population_size_and_fitness_unset():
    """Ask returns the bare (lam, dim) raw samples; their fitness is the caller's to set."""
    state = cma_init(small_config())
    samples = cma_ask(state)
    assert type(samples) is np.ndarray
    assert samples.shape == (8, 2)
    assert samples.dtype == np.float64


def test_ask_degenerate_sigma_collapses_to_mean():
    state = dataclasses.replace(cma_init(small_config()), sigma=1e-300)
    assert np.allclose(cma_ask(state), state.mean, atol=1e-290)


def test_ask_identity_cov_sampling_moments():
    state = dataclasses.replace(cma_init(small_config()), sigma=0.5)
    n = 100_000
    draws = np.concatenate(
        [cma_ask(dataclasses.replace(state, generation=g)) for g in range(n // state.lam)]
    )
    assert draws.shape == (n, 2)
    tol = 4 * 0.5 / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - state.mean) < tol)
    assert np.allclose(draws.std(axis=0), 0.5, rtol=0.02)


def test_ask_rejects_nonfinite_samples():
    state = dataclasses.replace(cma_init(small_config()), mean=np.array([0.2, np.nan]))
    with pytest.raises(ContractError, match="finite"):
        cma_ask(state)


# --- tell ------------------------------------------------------------------------


def test_tell_wrong_count_rejected():
    state = cma_init(small_config())
    samples = cma_ask(state)
    fitness = fitness_of(samples, lambda x: np.sum(x**2))
    for bad_samples, bad_fitness in (
        (samples[:-1], fitness[:-1]),  # one row short
        (samples, fitness[:-1]),  # one fitness short
        (samples[:, :1], fitness),  # samples of another dim
    ):
        with pytest.raises(ContractError, match=r"\(8, 2\).*\(8,\)"):
            cma_tell(state, bad_samples, bad_fitness)


def test_tell_unset_or_nan_fitness_rejected():
    state = cma_init(small_config())
    samples = cma_ask(state)
    fitness = fitness_of(samples, lambda x: np.sum(x**2))
    # no fitness set, or not one (lam,) entry per sample
    for unset in (np.empty(0), fitness[:, None]):
        with pytest.raises(ContractError, match="shape"):
            cma_tell(state, samples, unset)
    fitness[3] = np.nan
    with pytest.raises(ContractError, match="NaN"):
        cma_tell(state, samples, fitness)


def test_tell_accepts_inf_fitness_for_failed_candidates():
    state = cma_init(small_config())
    samples = cma_ask(state)
    fitness = fitness_of(samples, lambda x: np.sum(x**2))
    fitness[0] = np.inf
    new = cma_tell(state, samples, fitness)
    assert np.all(np.isfinite(new.mean))
    assert np.isfinite(new.sigma)


def test_tell_without_a_scored_candidate_keeps_the_distribution():
    state = cma_init(small_config())
    samples = cma_ask(state)
    new = cma_tell(state, samples, fitness_of(samples, lambda x: np.inf))
    assert new.generation == state.generation + 1
    for name in ("mean", "sigma", "cov", "path_sigma", "path_c"):
        assert np.array_equal(getattr(new, name), getattr(state, name)), name
    # the next ask is keyed by the advanced generation, so it draws anew
    assert not np.array_equal(cma_ask(new), samples)


def test_tell_stationary_input_keeps_mean_shrinks_sigma():
    state = cma_init(small_config())
    samples = np.tile(state.mean, (state.lam, 1))
    new = cma_tell(state, samples, np.ones(state.lam))
    assert np.array_equal(new.mean, state.mean)
    assert new.sigma < state.sigma
    assert new.generation == 1


def test_tell_uniform_two_parent_recombination():
    state = cma_init(small_config(population_size=2, parent_count=2))
    state = dataclasses.replace(state, weights=np.array([0.5, 0.5]))
    s1 = np.array([1.0, 0.0])
    s2 = np.array([0.0, 1.0])
    new = cma_tell(state, np.stack([s1, s2]), np.array([0.1, 0.2]))
    assert np.allclose(new.mean, (s1 + s2) / 2, atol=1e-15)


def test_tell_updates_are_functional():
    state = cma_init(small_config())
    frozen = (state.mean.copy(), state.sigma, state.cov.copy(), state.generation)
    samples = cma_ask(state)
    cma_tell(state, samples, fitness_of(samples, lambda x: np.sum(x**2)))
    assert np.array_equal(state.mean, frozen[0])
    assert state.sigma == frozen[1]
    assert np.array_equal(state.cov, frozen[2])
    assert state.generation == frozen[3]


def test_tell_uses_raw_samples_not_clamped_designs():
    space = DesignSpace(dim=2, lower_bound=0.5, upper_bound=4.0)
    state = dataclasses.replace(cma_init(small_config()), sigma=6.0)
    samples = cma_ask(state)
    fitness = fitness_of(clamp_to_bounds(samples, space), lambda x: np.sum(x**2))
    new = cma_tell(state, samples, fitness)
    # recompute the expected mean from raw samples of the selected parents
    order = np.argsort(fitness, kind="stable")
    sel = samples[order[: state.mu]]
    y = (sel - state.mean) / state.sigma
    expected = state.mean + state.sigma * (state.weights @ y)
    assert np.allclose(new.mean, expected, atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.permutations(list(range(8))))
def test_tell_is_permutation_invariant(perm):
    state = cma_init(small_config())
    samples = cma_ask(state)
    # make fitness strictly distinct so ordering is unambiguous
    fitness = fitness_of(samples, lambda x: float(np.sum(x**2))) + 1e-9 * np.arange(8)
    a = cma_tell(state, samples, fitness)
    b = cma_tell(state, samples[perm], fitness[perm])
    assert np.allclose(a.mean, b.mean, atol=1e-14)
    assert a.sigma == pytest.approx(b.sigma, abs=1e-14)
    assert np.allclose(a.cov, b.cov, atol=1e-14)


def test_cov_stays_symmetric_over_generations():
    state = cma_init(small_config())
    for _ in range(25):
        samples = cma_ask(state)
        state = cma_tell(state, samples, fitness_of(samples, lambda x: np.sum((x - 1.0) ** 2)))
        assert np.array_equal(state.cov, state.cov.T)
    assert np.all(np.linalg.eigvalsh(state.cov) > 0)


# --- convergence ------------------------------------------------------------------


def test_sphere_converges_with_default_config():
    state = cma_init(CmaEsConfig(seed=0))
    best, top = np.inf, None
    for _ in range(200):
        samples = cma_ask(state)
        fitness = fitness_of(samples, lambda x: np.sum(x**2))
        k = int(np.argmin(fitness))
        if fitness[k] < best:
            best, top = fitness[k], samples[k]
        state = cma_tell(state, samples, fitness)
    assert best < 1e-9
    # best sample near the origin in pre-clamp coordinates
    assert np.linalg.norm(top) < 1e-4


# --- generation log -----------------------------------------------------------------


def fitness_record(iteration, j_pop, sigma, dist_mean) -> FitnessRecord:
    j_pop = np.array(j_pop)
    best = float(np.min(j_pop))
    return FitnessRecord(
        iteration, np.ones((len(j_pop), 2)), j_pop, best, best, iteration, iteration - 1, sigma,
        np.array(dist_mean),
    )


def test_generation_log_round_trip(tmp_path):
    """cma_log.csv, written from the per-iteration records, reads back exactly."""
    records = [
        fitness_record(1, [-1.5, 1.0], 0.3, [0.2, 0.21]),
        fitness_record(2, [-2.0, 0.0], 0.28, [0.3, 0.19]),
    ]
    path = tmp_path / "cma_log.csv"
    write_cma_log(records, path)
    back = read_table(
        path,
        lambda h: h == ["generation", "best_fitness", "mean_fitness", "sigma", "mean_0", "mean_1"],
        "a CMA-ES log",
    )
    assert len(back) == 2
    for rec, row, want in zip(records, back, [(-1.5, -0.25), (-2.0, -1.0)]):
        assert int(row[0]) == rec.iteration
        assert (float(row[1]), float(row[2])) == want
        assert float(row[3]) == rec.sigma
        assert np.array_equal([float(x) for x in row[4:]], rec.dist_mean)


# --- module layering ---------------------------------------------------------------


def test_imports_from_the_package_only_errors_and_seeding():
    """The optimizer knows no run-directory format: codesign writes cma_log.csv."""
    nodes = list(ast.walk(ast.parse(Path(cma_es.__file__).read_text())))
    names = ["." * n.level + (n.module or "") for n in nodes if isinstance(n, ast.ImportFrom)]
    names += [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    package = {
        name.lstrip(".").removeprefix("gearevo.")
        for name in names
        if name.startswith((".", "gearevo"))
    }
    assert package == {"errors", "seeding"}

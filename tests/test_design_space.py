import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gearevo.chinup_env import N_JOINTS, EnvConfig, VecChinupEnv
from gearevo.cma_es import CmaEsConfig, cma_ask, cma_init
from gearevo.design_space import (
    ActuatorLimits,
    DesignSpace,
    DesignVector,
    clamp_to_bounds,
    expand_designs,
    grid_slice,
    scale_actuator_limits,
    write_designs_csv,
)
from gearevo.errors import ConfigError, ContractError, DimensionError
from gearevo.reward import RewardConfig
from gearevo.tables import read_table


# --- DesignVector / DesignSpace ------------------------------------------------


def test_design_vector_validation():
    DesignVector(np.array([1.0, 2.0]))
    with pytest.raises(DimensionError):
        DesignVector(np.array([[1.0, 2.0]]))
    with pytest.raises(DimensionError):
        DesignVector(np.array([]))
    with pytest.raises(ContractError):
        DesignVector(np.array([1.0, np.nan]))


def test_design_space_validation():
    space = DesignSpace()
    assert (space.dim, space.lower_bound, space.upper_bound) == (2, 0.5, 4.0)
    with pytest.raises(ConfigError):
        DesignSpace(dim=2, lower_bound=4.0, upper_bound=0.5)
    with pytest.raises(ConfigError):
        DesignSpace(dim=2, lower_bound=-1.0, upper_bound=4.0)
    with pytest.raises(ConfigError):
        DesignSpace(dim=0)


# --- actuator-limit scaling ----------------------------------------------------


def test_identity_factor_keeps_defaults():
    lim = scale_actuator_limits(
        DesignVector(np.array([1.0, 1.0])), np.array([10.0, 10.0]), np.array([5.0, 5.0])
    )
    assert np.array_equal(lim.tau_max, [10.0, 10.0])
    assert np.array_equal(lim.qdot_max, [5.0, 5.0])


def test_factor_scales_torque_up_velocity_down():
    lim = scale_actuator_limits(
        DesignVector(np.array([2.0, 1.0])), np.array([10.0, 10.0]), np.array([5.0, 5.0])
    )
    assert np.array_equal(lim.tau_max, [20.0, 10.0])
    assert np.array_equal(lim.qdot_max, [2.5, 5.0])


def test_boundary_factors():
    lim = scale_actuator_limits(
        DesignVector(np.array([0.5, 4.0])), np.array([8.0, 4.0]), np.array([6.0, 2.0])
    )
    assert np.array_equal(lim.tau_max, [4.0, 16.0])
    assert np.array_equal(lim.qdot_max, [12.0, 0.5])


@given(
    st.lists(st.floats(0.5, 4.0), min_size=1, max_size=6),
    st.floats(0.1, 50.0),
    st.floats(0.1, 50.0),
)
def test_power_product_invariant(factors, tau0, qdot0):
    d = DesignVector(np.array(factors))
    n = len(factors)
    lim = scale_actuator_limits(d, np.full(n, tau0), np.full(n, qdot0))
    assert np.allclose(lim.tau_max * lim.qdot_max, tau0 * qdot0, rtol=1e-15, atol=0.0)


def test_matrix_scaling_matches_per_row_design_bitwise():
    # The bank scales its whole design matrix in one call; criterion 01 checks one row.
    rng = np.random.default_rng(7)
    mat = rng.uniform(0.5, 4.0, (64, N_JOINTS))
    env_cfg = EnvConfig()
    bank = VecChinupEnv(env_cfg, RewardConfig(), mat, np.arange(64), seed=0)
    lim = scale_actuator_limits(mat, env_cfg.tau_default, env_cfg.qdot_default)
    assert bank.tau_max.tobytes("C") == lim.tau_max.tobytes()
    assert bank.qdot_max.tobytes("C") == lim.qdot_max.tobytes()
    for row, tau, qdot in zip(mat, lim.tau_max, lim.qdot_max):
        one = scale_actuator_limits(DesignVector(row), env_cfg.tau_default, env_cfg.qdot_default)
        assert tau.tobytes() == one.tau_max.tobytes()
        assert qdot.tobytes() == one.qdot_max.tobytes()


def test_scaling_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        scale_actuator_limits(
            DesignVector(np.array([1.0])), np.array([1.0, 2.0]), np.array([1.0, 2.0])
        )


# --- expansion -------------------------------------------------------------------


def test_paper_expansion_eighty_rollouts():
    plan = expand_designs(50, 4000)
    assert plan.n_exp == 80
    assert plan.design_index(80) == 1
    assert plan.design_index(81) == 2
    assert plan.design_index(4000) == 50


def test_single_design_absorbs_all_envs():
    plan = expand_designs(1, 8)
    assert all(plan.design_index(k) == 1 for k in range(1, 9))
    assert np.array_equal(plan.env_to_design, np.zeros(8, dtype=np.int64))


def test_desk_scale_expansion():
    plan = expand_designs(8, 64)
    assert plan.n_exp == 8
    assert plan.design_index(17) == 3


def test_expansion_matches_brute_force_ceil():
    plan = expand_designs(8, 64)
    for k in range(1, 65):
        brute = -((-k) // 8)  # ceil(k / 8)
        assert plan.design_index(k) == brute
        assert plan.env_to_design[k - 1] == brute - 1


def test_design_index_range_checked():
    plan = expand_designs(8, 64)
    for k in (0, -1, 65):  # 0 would wrap to the last environment's design
        with pytest.raises(DimensionError):
            plan.design_index(k)


def test_indivisible_expansion_rejected():
    with pytest.raises(ConfigError, match="n_env.*n_pop|n_pop.*n_env"):
        expand_designs(7, 64)


# --- clamping --------------------------------------------------------------------


def test_clamp_examples():
    space = DesignSpace()
    assert np.array_equal(clamp_to_bounds(np.array([0.7, 3.0]), space), [0.7, 3.0])
    assert np.array_equal(clamp_to_bounds(np.array([0.1, 5.0]), space), [0.5, 4.0])
    assert np.array_equal(clamp_to_bounds(np.array([-1.0, 2.0]), space), [0.5, 2.0])


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=2))
def test_clamp_always_inside_bounds(values):
    space = DesignSpace()
    clamped = clamp_to_bounds(np.array(values), space)
    assert np.all(clamped >= space.lower_bound)
    assert np.all(clamped <= space.upper_bound)


def wide_population():
    """Raw CMA-ES samples at sigma 5 around (0.2, 0.2): many fall outside the box."""
    state = cma_init(CmaEsConfig(population_size=8, parent_count=4))
    return cma_ask(dataclasses.replace(state, sigma=5.0))


def test_clamp_population_lies_in_box_and_clips_changed_rows():
    space = DesignSpace(dim=2, lower_bound=0.5, upper_bound=4.0)
    samples = wide_population()
    clamped = clamp_to_bounds(samples, space)
    assert np.all(clamped >= 0.5) and np.all(clamped <= 4.0)
    changed = [k for k in range(len(samples)) if not np.array_equal(clamped[k], samples[k])]
    assert changed  # sigma=5 guarantees excursions
    for k in changed:
        assert np.array_equal(clamped[k], np.clip(samples[k], 0.5, 4.0))


def test_clamp_population_matches_each_rows_own_clamp_bitwise():
    """The whole-population clip gives each row's own clamp, bit for bit."""
    space = DesignSpace(dim=2, lower_bound=0.5, upper_bound=4.0)
    samples = wide_population()
    clamped = clamp_to_bounds(samples, space)
    assert not np.shares_memory(clamped, samples)
    for row, sample in zip(clamped, samples):
        assert row.tobytes() == clamp_to_bounds(sample.copy(), space).tobytes()


def test_clamp_rejects_factors_of_other_dim():
    with pytest.raises(DimensionError, match="space dim"):
        clamp_to_bounds(np.ones((4, 3)), DesignSpace(dim=2))
    with pytest.raises(DimensionError, match="space dim"):
        clamp_to_bounds(np.ones(3), DesignSpace(dim=2))


# --- grid slices ------------------------------------------------------------------


def test_grid_resolution_two_hits_corners():
    space = DesignSpace()
    fixed = DesignVector(np.array([1.0, 1.0]))
    grid = grid_slice(space, 0, 1, 2, fixed)
    points = {tuple(d.factors) for d in grid}
    assert points == {(0.5, 0.5), (0.5, 4.0), (4.0, 0.5), (4.0, 4.0)}


def test_grid_resolution_three_has_midpoint():
    space = DesignSpace()
    grid = grid_slice(space, 0, 1, 3, DesignVector(np.array([1.0, 1.0])))
    axis_values = sorted({float(d.factors[0]) for d in grid})
    assert axis_values == [0.5, 2.25, 4.0]
    assert len(grid) == 9


def test_grid_preserves_fixed_coordinates():
    space = DesignSpace(dim=4)
    fixed = DesignVector(np.array([9.0, 9.0, 1.0, 1.0]))
    grid = grid_slice(space, 0, 1, 2, fixed)
    for d in grid:
        assert d.factors[2] == 1.0 and d.factors[3] == 1.0


# --- CSV round trip ----------------------------------------------------------------


def test_designs_csv_round_trip(tmp_path):
    designs = [DesignVector(np.array([0.5, 4.0])), DesignVector(np.array([1.25, 2.5]))]
    path = tmp_path / "designs.csv"
    write_designs_csv(designs, path)
    back = read_table(path, lambda h: h == ["design_id", "factor_0", "factor_1"], "a design CSV")
    assert [cells[0] for cells in back] == ["0", "1"]
    for a, cells in zip(designs, back):
        assert np.allclose(a.factors, [float(x) for x in cells[1:]], rtol=1e-6)


def test_actuator_limits_are_frozen():
    lim = ActuatorLimits(tau_max=np.array([1.0]), qdot_max=np.array([1.0]))
    with pytest.raises(Exception):
        lim.tau_max = np.array([2.0])

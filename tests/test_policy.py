import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gearevo import policy
from gearevo.errors import ConfigError, ContractError, NumericError
from gearevo.policy import (
    LOG_STD_INIT,
    LOG_STD_MAX,
    LOG_STD_MIN,
    PARAM_ORDER,
    PolicyParams,
    Rows,
    adam_init,
    adam_step,
    entropy,
    gaussian_constants,
    gaussian_log_prob,
    load_policy,
    loss_and_grads,
    loss_workspace,
    policy_forward_batch,
    policy_init,
    rollout_work,
    sample_action,
    save_policy,
)
from gearevo.ppo import PpoConfig


# --- init ------------------------------------------------------------------------


def test_same_seed_identical_parameters():
    a = policy_init(14, 4, 2, 7)
    b = policy_init(14, 4, 2, 7)
    for name in PARAM_ORDER:
        assert np.array_equal(a.views()[name], b.views()[name])


def test_parameter_count_for_default_architecture():
    # frozen arithmetic over layer shapes:
    # (2*4+4) + (14*64+64) + (64*64+64) + (64*4+4) + 4 + (64+1) = 5461
    params = policy_init(14, 4, 2, 0)
    assert params.n_params == 5461


def test_architecture_dimensions_configurable():
    # weights follow the (out_features, in_features) convention
    p = policy_init(6, 2, 3, 0, hidden=8, latent=2)
    assert p.enc_w.shape == (2, 3)
    assert p.w1.shape == (8, 6)
    assert p.w2.shape == (8, 8)
    assert p.actor_w.shape == (2, 8)
    assert p.critic_w.shape == (8,)
    assert p.log_std.shape == (2,)
    assert np.all(p.log_std == LOG_STD_INIT)


def test_small_actor_init_keeps_initial_actions_small():
    params = policy_init(14, 4, 2, 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        proprio = rng.uniform(-1, 1, 10)
        design = rng.uniform(0.5, 4.0, 2)
        means, _ = policy_forward_batch(params, design[None], proprio[None])
        assert np.all(np.abs(means) <= 0.1)


def test_init_validates_dimensions():
    with pytest.raises(ConfigError):
        policy_init(3, 4, 2, 0, latent=4)  # obs_dim must exceed latent
    with pytest.raises(ConfigError):
        policy_init(14, 0, 2, 0)


# --- forward ---------------------------------------------------------------------


def test_zero_network_outputs_zero():
    params = policy_init(14, 4, 2, 0)
    zeroed = dataclasses.replace(params, flat=np.zeros(params.n_params))
    design = np.array([[1.0, 2.0]])
    means, values = policy_forward_batch(zeroed, design, np.ones((1, 10)))
    assert np.array_equal(means, np.zeros((1, 4)))
    assert np.array_equal(values, [0.0])
    latent = rollout_work(zeroed, design).obs[:, 10:]
    assert np.array_equal(latent, np.zeros((1, 4)))  # tanh(0) = 0


def test_design_latent_bounded_by_tanh():
    params = policy_init(14, 4, 2, 0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        design = rng.uniform(0.5, 4.0, (1, 2))
        latent = rollout_work(params, design).obs[:, 10:]
        assert np.all(latent > -1.0) and np.all(latent < 1.0)
    # extreme inputs saturate but never escape the closed unit interval
    latent = rollout_work(params, np.array([[1e6, -1e6]])).obs[:, 10:]
    assert np.all(np.abs(latent) <= 1.0)


def test_design_changes_output_distribution():
    params = policy_init(14, 4, 2, 0)
    proprio = np.linspace(-1, 1, 10)[None]
    m1, _ = policy_forward_batch(params, np.array([[0.5, 0.5]]), proprio)
    m2, _ = policy_forward_batch(params, np.array([[4.0, 4.0]]), proprio)
    assert not np.allclose(m1, m2)


def test_forward_raises_on_nonfinite_input():
    params = policy_init(14, 4, 2, 0)
    with pytest.raises(NumericError):
        policy_forward_batch(params, np.array([[1.0, np.nan]]), np.ones((1, 10)))


@pytest.mark.parametrize("rows, blocks", [
    (7, [7]), (64, [64]), (1025, [520, 505]), (1030, [520, 510]), (1100, [552, 548]),
    (2500, [840, 840, 820]), (3000, [1000] * 3), (4000, [1000] * 4), (8000, [1000] * 8),
])
def test_blocked_rollout_forward_keeps_the_bits(monkeypatch, rows, blocks):
    # with a rollout work the trunk runs in the fewest blocks of at most
    # 1024 rows, all but the last of one multiple of 8 rows, through one
    # block of buffers; the means and values keep the bytes of the one-pass
    # forward, twice over the same buffers.  The equality rests on how the
    # BLAS rounds each block (it held on OpenBLAS 0.3.31 at one thread), so
    # a BLAS that rounds a block's rows differently fails here
    params = policy_init(14, 4, 2, 3)
    rng = np.random.default_rng(rows)
    design = rng.uniform(0.5, 3.0, (rows, 2))
    proprios = [rng.standard_normal((rows, 10)) for _ in range(2)]
    want = [policy_forward_batch(params, design, proprio) for proprio in proprios]
    work = rollout_work(params, design)
    assert [h.shape for h in work.hidden] == [(min(rows, 1024), params.hidden)] * 2
    seen = []

    def recording_forward(params, design, proprio, *args):
        seen.append(len(proprio))
        return real_forward(params, design, proprio, *args)

    real_forward = policy._forward
    monkeypatch.setattr(policy, "_forward", recording_forward)
    for proprio, expected in zip(proprios, want):
        got = policy_forward_batch(params, design, proprio, work)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert seen == blocks * 2


# --- distribution -----------------------------------------------------------------


def test_sample_near_deterministic_at_log_std_floor():
    mean = np.array([0.3, -0.7])
    gaussian = gaussian_constants(np.full(2, LOG_STD_MIN))
    rng = np.random.default_rng(0)
    sigma = math.exp(LOG_STD_MIN)  # ~6.7e-3
    for _ in range(100):
        actions, _ = sample_action(mean, gaussian, rng)
        assert np.all(np.abs(actions - mean) < 6 * sigma)


def test_log_prob_at_mode():
    mean = np.array([0.1, 0.2, 0.3])
    log_std = np.array([-0.5, 0.0, 0.25])
    lp = gaussian_log_prob(mean, mean, gaussian_constants(log_std))
    expected = -np.sum(log_std) - 1.5 * math.log(2 * math.pi)
    assert lp == pytest.approx(expected, abs=1e-12)


def test_sample_statistics():
    mean = np.array([1.0, -2.0])
    log_std = np.array([0.0, -0.5])
    gaussian = gaussian_constants(log_std)
    rng = np.random.default_rng(5)
    n = 100_000
    actions, log_probs = sample_action(np.tile(mean, (n, 1)), gaussian, rng)
    sigma = np.exp(log_std)
    tol = 4 * sigma / math.sqrt(n)
    assert np.all(np.abs(actions.mean(axis=0) - mean) < tol)
    assert np.allclose(actions.std(axis=0), sigma, rtol=0.02)
    # log_probs agree with direct evaluation
    direct = gaussian_log_prob(np.tile(mean, (n, 1)), actions, gaussian)
    assert np.allclose(log_probs, direct, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 64, 1024])
@pytest.mark.parametrize("cols", range(1, 9))
def test_log_density_has_the_bits_of_numpy_sum(rows, cols):
    """The column-by-column adds give np.sum's bits, batched and unbatched,
    at every scale, and so does gaussian_log_prob."""
    rng = np.random.default_rng(100 * rows + cols)
    gaussian = gaussian_constants(rng.normal(-0.5, 0.5, cols))
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        z = rng.standard_normal((rows, cols)) * scale * rng.uniform(0.1, 10.0, (rows, cols))
        for zz in (z, z[0]):  # a batch, and one unbatched row
            want = -0.5 * np.sum(zz**2, axis=-1) - gaussian.log_std_sum - gaussian.half_n_log_2pi
            got = policy._log_density(zz * zz, gaussian)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (scale, zz.ndim)
        mean = rng.standard_normal((rows, cols)) * scale
        action = mean + z * gaussian.std
        std_z = (action - mean) / gaussian.std
        want = -0.5 * np.sum(std_z**2, axis=-1) - gaussian.log_std_sum - gaussian.half_n_log_2pi
        assert gaussian_log_prob(mean, action, gaussian).tobytes() == want.tobytes(), scale


def test_entropy_closed_form():
    log_std = np.array([-0.5, -0.5])
    expected = np.sum(log_std) + 1.0 * (1 + math.log(2 * math.pi))
    assert entropy(log_std) == pytest.approx(expected, abs=1e-12)


# --- loss and gradients ------------------------------------------------------------


def test_zero_advantage_ratio_one_policy_loss_zero():
    params = policy_init(6, 2, 2, 3, hidden=8, latent=2)
    rng = np.random.default_rng(0)
    n = 12
    proprio = rng.uniform(-1, 1, (n, 4))
    design = rng.uniform(0.5, 4.0, (n, 2))
    means, values = policy_forward_batch(params, design, proprio)
    actions, log_probs = sample_action(means, gaussian_constants(params.log_std), rng)
    minibatch = {
        "proprio": proprio,
        "design": design,
        "action": actions,
        "old_log_prob": log_probs,  # ratio exactly 1
        "advantage": np.zeros(n),
        "ret": values.copy(),  # value error zero too
    }
    losses, grads = loss_and_grads(params, minibatch, PpoConfig())
    assert losses["policy_loss"] == 0.0
    assert losses["value_loss"] == 0.0
    assert losses["clip_fraction"] == 0.0
    # with zero advantage the surrogate contributes no actor-mean gradient
    assert np.allclose(params.views(grads)["actor_w"], 0.0, atol=1e-15)


def _random_minibatch(params, n, seed):
    rng = np.random.default_rng(seed)
    proprio = rng.standard_normal((n, params.obs_dim - params.latent))
    design = rng.uniform(0.5, 4.0, (n, params.design_dim))
    means, values = policy_forward_batch(params, design, proprio)
    actions, log_probs = sample_action(means, gaussian_constants(params.log_std), rng)
    return {
        "proprio": proprio,
        "design": design,
        "action": actions,
        "old_log_prob": log_probs + rng.normal(0.0, 0.003, n),
        "advantage": rng.standard_normal(n),
        "ret": rng.standard_normal(n),
    }


def test_gradients_match_finite_differences():
    _assert_gradients_match_finite_differences()


def test_blocked_gradients_match_finite_differences(monkeypatch):
    # 10 rows in blocks of 3/3/3/1: the gradient summed across blocks
    monkeypatch.setattr(policy, "_BLOCK_ROWS", 3)
    _assert_gradients_match_finite_differences()


def _assert_gradients_match_finite_differences():
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    minibatch = _random_minibatch(params, 10, 5)
    cfg = PpoConfig()
    _, flat_grads = loss_and_grads(params, minibatch, cfg)
    flat = params.flat

    def loss_at(vec):
        loss, _ = loss_and_grads(dataclasses.replace(params, flat=vec), minibatch, cfg)
        return loss["total"]

    eps = 1e-5
    check = np.random.default_rng(0).choice(flat.size, 80, replace=False)
    for i in check:
        up = flat.copy()
        up[i] += eps
        down = flat.copy()
        down[i] -= eps
        fd = (loss_at(up) - loss_at(down)) / (2 * eps)
        denom = max(1e-8, abs(fd) + abs(flat_grads[i]))
        assert abs(fd - flat_grads[i]) / denom < 1e-4


def test_blocked_pass_matches_single_block(monkeypatch):
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    minibatch = _random_minibatch(params, 10, 7)
    monkeypatch.setattr(policy, "_BLOCK_ROWS", 16)
    whole_losses, whole_grads = loss_and_grads(params, minibatch, PpoConfig())
    monkeypatch.setattr(policy, "_BLOCK_ROWS", 3)  # blocks 3/3/3/1
    losses, grads = loss_and_grads(params, minibatch, PpoConfig())
    # not bitwise: BLAS may round a row's matmul differently in a block of
    # another shape (the 1-row tail goes through gemv)
    assert losses == pytest.approx(whole_losses, rel=1e-12, abs=0.0)
    grads, whole_grads = params.views(grads), params.views(whole_grads)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(grads[name], whole_grads[name], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "key, match",
    [("proprio", "non-finite activation in layer trunk1"), ("ret", "non-finite PPO loss")],
)
def test_nonfinite_in_last_block_raises(monkeypatch, key, match):
    monkeypatch.setattr(policy, "_BLOCK_ROWS", 3)
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    minibatch = _random_minibatch(params, 10, 7)
    minibatch[key][9] = np.nan  # row 9 is the one-row tail block
    with pytest.raises(NumericError, match=match):
        loss_and_grads(params, minibatch, PpoConfig())


@pytest.mark.parametrize("rows, block_rows", [(1024, 1024), (10, 3)])
def test_reused_workspace_gives_same_bits(monkeypatch, rows, block_rows):
    """A workspace left holding NaN from earlier use changes no output bit."""
    monkeypatch.setattr(policy, "_BLOCK_ROWS", block_rows)  # 10 rows: blocks 3/3/3/1
    params = policy_init(14, 4, 2, 3)
    minibatch = _random_minibatch(params, rows, 11)
    fresh_losses, fresh_grads = loss_and_grads(params, minibatch, PpoConfig())
    work = loss_workspace(rows, params.hidden)
    assert [w.shape for w in work.arrays] == [(block_rows, params.hidden)] * 5
    for w in work.arrays:
        w.fill(np.nan)
    losses, grads = loss_and_grads(params, minibatch, PpoConfig(), work)
    assert losses == fresh_losses
    grads, fresh_grads = params.views(grads), params.views(fresh_grads)
    for name in PARAM_ORDER:
        assert grads[name].tobytes() == fresh_grads[name].tobytes(), name


@pytest.mark.parametrize("rows", [7, 1024, 64_000])  # one block, a full block, many blocks
def test_float32_workspace_matches_float64(rows):
    params = policy_init(14, 4, 2, 3)
    minibatch = _random_minibatch(params, rows, 13)
    cfg = PpoConfig()
    losses64, grads64 = loss_and_grads(params, minibatch, cfg)
    work = loss_workspace(rows, params.hidden, np.float32)
    assert all(w.dtype == np.float32 for w in work.arrays)
    losses32, grads32 = loss_and_grads(params, minibatch, cfg, work)
    kl32, kl64 = losses32.pop("approx_kl"), losses64.pop("approx_kl")
    assert losses32 == pytest.approx(losses64, rel=1e-6, abs=0.0)
    # approx_kl is the mean of signed log-ratios about 3e-3 in size, and
    # here cancels to about 1e-4 of that: bound its error relative to the
    # mean size of the terms it averages.
    means, _ = policy_forward_batch(params, minibatch["design"], minibatch["proprio"])
    new_lp = gaussian_log_prob(means, minibatch["action"], gaussian_constants(params.log_std))
    assert abs(kl32 - kl64) <= 1e-6 * np.mean(np.abs(minibatch["old_log_prob"] - new_lp))
    differs = False
    grads32, grads64 = params.views(grads32), params.views(grads64)
    for name in PARAM_ORDER:
        assert grads32[name].dtype == np.float64, name
        error = np.max(np.abs(grads32[name] - grads64[name]))
        assert error <= 1e-5 * np.max(np.abs(grads64[name])), name
        differs |= error > 0.0
    assert differs  # the float32 path really ran


# SHA-256 of the four statistics of `test_loss_statistics_sum_per_block`
# (float64, then float32 workspace), taken while they were means over
# whole-minibatch arrays.
STATISTICS = ("policy_loss", "value_loss", "clip_fraction", "approx_kl")
STATISTICS_DIGESTS = {
    7: "3dca5b5491379a92c35276347d164921354b8f26e2eb13b48129d802f0cb6bce",
    1024: "b2aaeb8c035a9c2f1f8974e7ee05fe1ab6ba1668d803510de78d7ab152ff22b4",
}


@pytest.mark.parametrize("rows", [7, 1024, 64_000])
def test_loss_statistics_sum_per_block(rows):
    """One block keeps the statistics' bits; many stay within 1e-12 of the
    formulas applied per row in float64, and the clipped fraction is exact."""
    params = policy_init(14, 4, 2, 3)
    minibatch = _random_minibatch(params, rows, 17)
    # log-ratios of about 0.3, so that about half of the ratios clip
    minibatch["old_log_prob"] += np.random.default_rng(18).normal(0.0, 0.3, rows)
    cfg = PpoConfig()
    stats = []
    for dtype in (np.float64, np.float32):
        work = loss_workspace(rows, params.hidden, dtype)
        losses, _ = loss_and_grads(params, minibatch, cfg, work)
        stats.append({key: losses[key] for key in STATISTICS})
    if rows in STATISTICS_DIGESTS:
        values = [s[key] for s in stats for key in STATISTICS]
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == STATISTICS_DIGESTS[rows]
    # The per-row values, from the float64 forward pass of each block
    forward = [policy_forward_batch(params, minibatch["design"][lo:lo + 1024],
                                    minibatch["proprio"][lo:lo + 1024])
               for lo in range(0, rows, 1024)]
    mean, value = (np.concatenate(parts) for parts in list(zip(*forward))[:2])
    new_lp = gaussian_log_prob(mean, minibatch["action"], gaussian_constants(params.log_std))
    ratio = np.exp(new_lp - minibatch["old_log_prob"])
    adv, eps = minibatch["advantage"], cfg.clip_epsilon
    want = {
        "policy_loss": -np.mean(np.minimum(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)),
        "value_loss": np.mean((value - minibatch["ret"]) ** 2),
        "clip_fraction": np.mean(np.abs(ratio - 1.0) > eps),
        "approx_kl": np.mean(minibatch["old_log_prob"] - new_lp),
    }
    assert 0.0 < want["clip_fraction"] < 1.0
    assert stats[0]["clip_fraction"] == want["clip_fraction"]
    assert stats[0] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rows, block_rows", [(10, 3), (1500, 1024)])
def test_rows_columns_give_the_bits_of_a_gathered_minibatch(monkeypatch, rows, block_rows):
    """Columns read by row index, the design once per 3 rows, match a gathered copy."""
    monkeypatch.setattr(policy, "_BLOCK_ROWS", block_rows)
    params = policy_init(14, 4, 2, 3)
    source = _random_minibatch(params, 2 * rows, 19)
    source["design"] = source["design"][:-(-2 * rows // 3)]
    picked = np.random.default_rng(20).permutation(2 * rows)[:rows]
    gathered = {key: value[picked // 3 if key == "design" else picked]
                for key, value in source.items()}
    indexed = {key: Rows(value, picked, 3 if key == "design" else 1)
               for key, value in source.items()}
    for dtype in (np.float64, np.float32):
        work = loss_workspace(rows, params.hidden, dtype)
        want_losses, want = loss_and_grads(params, gathered, PpoConfig(), work)
        got_losses, got = loss_and_grads(params, indexed, PpoConfig(), work)
        assert got_losses == want_losses
        assert got.tobytes() == want.tobytes()


def _indexed_minibatch(params, rows, repeat, seed, dtypes):
    """A minibatch of `Rows` columns over sources of twice `rows` rows in the
    given dtypes, the design one row per `repeat` rows."""
    source = _random_minibatch(params, 2 * rows, seed)
    source["design"] = source["design"][:-(-2 * rows // repeat)]
    picked = np.random.default_rng(seed).permutation(2 * rows)[:rows]
    return {key: Rows(value.astype(dtypes.get(key, np.float64)), picked,
                      repeat if key == "design" else 1)
            for key, value in source.items()}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_workspace_that_served_other_minibatches_gives_fresh_bits(dtype):
    """A workspace keeps its block buffers across calls: a call after one on
    other rows of other sources (other dtypes, another design repeat) gives
    the bytes of a call on a fresh workspace, and so does the first minibatch
    after it."""
    params = policy_init(14, 4, 2, 3)
    first = _indexed_minibatch(params, 96, 4, 21, {
        "proprio": np.float32, "design": np.float32, "ret": np.float32, "advantage": np.float32,
    })
    second = _indexed_minibatch(params, 80, 2, 22, {})
    work = loss_workspace(96, params.hidden, dtype)
    for minibatch, rows in ((first, 96), (second, 80), (first, 96)):
        got_losses, got = loss_and_grads(params, minibatch, PpoConfig(), work)
        fresh = loss_workspace(rows, params.hidden, dtype)
        want_losses, want = loss_and_grads(params, minibatch, PpoConfig(), fresh)
        assert got_losses == want_losses
        assert got.tobytes() == want.tobytes()


def test_loss_rejects_small_workspace():
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    minibatch = _random_minibatch(params, 10, 7)
    with pytest.raises(ContractError, match="workspace"):
        loss_and_grads(params, minibatch, PpoConfig(), loss_workspace(9, params.hidden))


# Where to put a non-finite value so that each layer is the first bad one.
POISON = {
    "encoder": ("design", np.nan),
    "trunk1": ("proprio", np.nan),
    "trunk2": ("w2", np.nan),
    "actor": ("actor_b", np.inf),
    "critic": ("critic_b", np.inf),
}


@pytest.mark.parametrize("layer", list(POISON))
def test_nonfinite_error_names_first_bad_layer(layer):
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    minibatch = _random_minibatch(params, 10, 7)
    key, value = POISON[layer]
    if key in minibatch:
        minibatch[key][4] = value
    else:
        vec = params.flat.copy()
        params.views(vec)[key].flat[0] = value
        params = dataclasses.replace(params, flat=vec)
    with pytest.raises(NumericError, match=f"non-finite activation in layer {layer}$"):
        loss_and_grads(params, minibatch, PpoConfig())


def test_loss_raises_on_nonfinite():
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    minibatch = {
        "proprio": np.full((4, 4), np.nan),
        "design": np.ones((4, 2)),
        "action": np.zeros((4, 2)),
        "old_log_prob": np.zeros(4),
        "advantage": np.zeros(4),
        "ret": np.zeros(4),
    }
    with pytest.raises(NumericError):
        loss_and_grads(params, minibatch, PpoConfig())


# --- Adam ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    params = policy_init(6, 2, 2, 0, hidden=8, latent=2)
    opt = adam_init(params, 1e-3)
    grads = np.zeros(params.n_params)
    new_params, new_opt = adam_step(params, grads, opt)
    for name in PARAM_ORDER:
        assert np.array_equal(new_params.views()[name], params.views()[name])
    assert new_opt.step == opt.step + 1


def test_adam_first_step_closed_form():
    params = policy_init(6, 2, 2, 0, hidden=8, latent=2)
    alpha = 1e-3
    opt = adam_init(params, alpha)
    rng = np.random.default_rng(3)
    grad = rng.standard_normal(params.n_params)
    new_params, _ = adam_step(params, grad, opt)
    eps = policy.ADAM_EPS
    grads = params.views(grad)
    for name in PARAM_ORDER:
        g = grads[name]
        expected = params.views()[name] - alpha * g / (np.abs(g) + eps)
        if name == "log_std":
            expected = np.clip(expected, LOG_STD_MIN, LOG_STD_MAX)
        assert np.allclose(new_params.views()[name], expected, atol=1e-12)


def test_adam_determinism():
    params = policy_init(6, 2, 2, 0, hidden=8, latent=2)
    grads = np.full(params.n_params, 0.1)
    a1, o1 = adam_step(params, grads, adam_init(params, 1e-3))
    a2, o2 = adam_step(params, grads, adam_init(params, 1e-3))
    for name in PARAM_ORDER:
        assert np.array_equal(a1.views()[name], a2.views()[name])
    assert o1.step == o2.step


def test_adam_log_std_clamped_after_update():
    params = policy_init(6, 2, 2, 0, hidden=8, latent=2)
    opt = adam_init(params, 10.0)  # huge learning rate forces the clamp
    grad = np.zeros(params.n_params)
    grads = params.views(grad)
    grads["log_std"][:] = 1.0
    new_params, opt = adam_step(params, grad, opt)
    assert np.all(new_params.log_std >= LOG_STD_MIN)
    grads["log_std"][:] = -1.0
    for _ in range(5):
        new_params, opt = adam_step(new_params, grad, opt)
    assert np.all(new_params.log_std <= LOG_STD_MAX)


def test_adam_shape_mismatch_rejected():
    params = policy_init(6, 2, 2, 0, hidden=8, latent=2)
    opt = adam_init(params, 1e-3)
    grads = np.zeros(params.n_params - 1)
    with pytest.raises(ContractError):
        adam_step(params, grads, opt)



def reference_adam_step(arrays, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam array by array, the way the update ran before it was flattened."""
    t += 1
    new, new_m, new_v = {}, {}, {}
    for name, arr in arrays.items():
        g = grads[name]
        new_m[name] = beta1 * m[name] + (1.0 - beta1) * g
        new_v[name] = beta2 * v[name] + (1.0 - beta2) * g**2
        m_hat = new_m[name] / (1.0 - beta1**t)
        v_hat = new_v[name] / (1.0 - beta2**t)
        new[name] = arr - lr * m_hat / (np.sqrt(v_hat) + eps)
    new["log_std"] = np.clip(new["log_std"], LOG_STD_MIN, LOG_STD_MAX)
    return new, new_m, new_v, t


def test_flat_adam_matches_per_array_reference_bitwise():
    # lr 0.7 with a steady log_std gradient drives two log_std entries into
    # the upper clip bound and two into the lower one by step 8; steps 9-20
    # reverse the gradient, and once the first moment turns, the clipped
    # entries leave their bounds again
    params = policy_init(14, 4, 2, 5)
    lr = 0.7
    opt = adam_init(params, lr)
    ref = params.views()
    ref_m = {name: np.zeros_like(a) for name, a in ref.items()}
    ref_v = {name: np.zeros_like(a) for name, a in ref.items()}
    t = 0
    rng = np.random.default_rng(11)
    hit = set()
    for step in range(20):
        grad = np.empty(params.n_params)
        grads = params.views(grad)
        for name, a in ref.items():
            grads[name][...] = rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-4, 2)
        grads["log_std"][:] = np.array([-1.0, 1.0, -1.0, 1.0]) * (1.0 if step < 8 else -1.0)
        given = {name: g.copy() for name, g in grads.items()}
        old_params, old_m = params.views(), opt.m.copy()
        params, new_opt = adam_step(params, grad, opt)
        assert np.array_equal(opt.m, old_m)  # the old state is a snapshot
        opt = new_opt
        for name, g in grads.items():
            assert np.array_equal(g, given[name])
        ref, ref_m, ref_v, t = reference_adam_step(ref, grads, ref_m, ref_v, t, lr)
        for name in PARAM_ORDER:
            got = params.views()[name]
            assert got.shape == ref[name].shape and got.tobytes() == ref[name].tobytes(), name
            assert not np.shares_memory(got, old_params[name])
        assert opt.step == t
        assert opt.m.tobytes() == np.concatenate([ref_m[n].ravel() for n in PARAM_ORDER]).tobytes()
        assert opt.v.tobytes() == np.concatenate([ref_v[n].ravel() for n in PARAM_ORDER]).tobytes()
        hit.update(float(x) for x in params.log_std if x in (LOG_STD_MIN, LOG_STD_MAX))
    assert hit == {LOG_STD_MIN, LOG_STD_MAX}
    assert LOG_STD_MIN < params.log_std.min() and params.log_std.max() < LOG_STD_MAX


def test_gradients_survive_a_later_call():
    # each call returns gradients in its own buffer, even with one workspace
    params = policy_init(14, 4, 2, 3)
    cfg = PpoConfig()
    work = loss_workspace(50, params.hidden)
    _, first = loss_and_grads(params, _random_minibatch(params, 50, 1), cfg, work)
    kept = params.views(first.copy())
    _, second = loss_and_grads(params, _random_minibatch(params, 50, 2), cfg, work)
    first, second = params.views(first), params.views(second)
    for name in PARAM_ORDER:
        assert np.array_equal(first[name], kept[name]), name
        assert not np.array_equal(second[name], kept[name]), name
        assert not np.shares_memory(first[name], second[name]), name



def test_snapshots_are_read_only():
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    before = params.flat.tobytes()
    minibatch = _random_minibatch(params, 10, 7)
    for dtype in (np.float64, np.float32):
        work = loss_workspace(10, params.hidden, dtype)
        _, grad = loss_and_grads(params, minibatch, PpoConfig(), work)
        adam_step(params, grad, adam_init(params, 1e-3))
    assert params.flat.tobytes() == before
    with pytest.raises(ValueError, match="read-only"):
        params.w1[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        params.flat[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.flat = np.zeros(params.n_params)
    with pytest.raises(ContractError, match="need 5461 floats"):
        PolicyParams(np.zeros(5460), 14, 4, 2, 64, 4)


# --- serialization ---------------------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    params = policy_init(14, 4, 2, 9)
    path = tmp_path / "policy.bin"
    save_policy(params, path)
    back = load_policy(path)
    for name in PARAM_ORDER:
        assert np.array_equal(params.views()[name], back.views()[name])
    assert back.obs_dim == 14 and back.action_dim == 4 and back.design_dim == 2
    # byte-stable: saving the loaded policy reproduces the file exactly
    path2 = tmp_path / "policy2.bin"
    save_policy(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a policy header\n" + b"\x00" * 64)
    with pytest.raises(ContractError):
        load_policy(path)


@pytest.mark.parametrize("header", [b'{"format_version": 1}', b"[1, 2]"])
def test_load_rejects_incomplete_header(tmp_path, header):
    # valid JSON that is not a whole header object names the file
    path = tmp_path / "incomplete.bin"
    path.write_bytes(header + b"\n" + b"\x00" * 64)
    with pytest.raises(ContractError, match="incomplete.bin"):
        load_policy(path)


def test_load_rejects_other_format_version_naming_the_policy_format(tmp_path):
    path = tmp_path / "v2.bin"
    save_policy(policy_init(6, 2, 2, 0, hidden=8, latent=2), path)
    data = path.read_bytes()
    assert data.count(b'"format_version": 1,') == 1
    path.write_bytes(data.replace(b'"format_version": 1,', b'"format_version": 2,'))
    with pytest.raises(ContractError) as err:
        load_policy(path)
    assert str(err.value) == (
        f"{path}: unsupported policy format version 2; this version reads only version 1"
    )


def test_load_rejects_truncated_payload(tmp_path):
    params = policy_init(6, 2, 2, 0, hidden=8, latent=2)
    path = tmp_path / "trunc.bin"
    save_policy(params, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ContractError):
        load_policy(path)
    path.write_bytes(data[:-3])  # cut inside the last float
    with pytest.raises(ContractError, match="inside a float"):
        load_policy(path)


@pytest.mark.parametrize("obs_dim", [13, 15])
def test_load_rejects_header_dims_that_disagree_with_block(tmp_path, obs_dim):
    # a valid 5461-float file whose header claims another obs_dim: the dims
    # imply 5397 or 5525 floats, the block and n_params say 5461
    path = tmp_path / "policy.bin"
    save_policy(policy_init(14, 4, 2, 0), path)
    data = path.read_bytes()
    assert data.count(b'"obs_dim": 14,') == 1
    path.write_bytes(data.replace(b'"obs_dim": 14,', f'"obs_dim": {obs_dim},'.encode()))
    with pytest.raises(ContractError) as err:
        load_policy(path)
    assert str(path) in str(err.value)


# Format version 1: the parameter block's arrays, in order, with their shapes
# at dims obs 14, action 4, design 2, hidden 64, latent 4.
LAYOUT_V1 = [
    ("enc_w", (4, 2)), ("enc_b", (4,)),
    ("w1", (64, 14)), ("b1", (64,)),
    ("w2", (64, 64)), ("b2", (64,)),
    ("actor_w", (4, 64)), ("actor_b", (4,)),
    ("log_std", (4,)), ("critic_w", (64,)), ("critic_b", (1,)),
]


def test_policy_file_layout_golden(tmp_path):
    vec = np.arange(5461) / 7.0
    params = PolicyParams(vec.copy(), 14, 4, 2, 64, 4)
    assert PARAM_ORDER == tuple(name for name, _ in LAYOUT_V1)
    pos = 0
    for name, shape in LAYOUT_V1:
        size = math.prod(shape)
        expected = vec[pos : pos + size].reshape(shape)  # C order within each array
        assert np.array_equal(getattr(params, name), expected), name
        assert np.array_equal(params.views()[name], expected), name
        pos += size
    assert pos == vec.size == params.n_params
    path = tmp_path / "policy.bin"
    digest = save_policy(params, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "d0a96f106aa85e9ecb49e8ec43b1ece1d9d82cc503eba6bb859f193305ec7871"
    assert path.read_bytes().endswith(vec.astype("<f8").tobytes())

"""Actor-critic network with a privileged design encoder, by hand in numpy.

Architecture: the design vector passes through one affine layer + tanh into
a 4-dim latent, which is concatenated with the proprioceptive observation
and fed to a tanh MLP trunk (default 64-64).  Heads: an affine actor head
producing the Gaussian action mean (state-independent log-std vector) and
an affine scalar critic head.  The encoder is trained jointly end to end.

Gradients are computed by manual reverse-mode differentiation; the network
is small and fixed, and every layer is verifiable against finite
differences.  `loss_and_grads` runs its minibatch through the network in
blocks of 1024 rows, so that the element-wise passes work on activations in
cache.  It gathers each block's rows from the rollout's arrays just before
the block runs and sums the loss statistics block by block, so nothing it
holds grows with the minibatch.  A minibatch of at most 1024 rows gives the
same bits as one unblocked pass; a larger one sums its gradients and
statistics block by block, about 1e-14 relative from one pass.

Layout: a snapshot (`PolicyParams`) owns one float64 vector `flat`: the
eleven arrays of PARAM_ORDER (ENC_W, ENC_B, W1, B1, W2, B2, ACTOR_W,
ACTOR_B, LOG_STD, CRITIC_W, CRITIC_B) end to end, each in C order, with the
shapes `param_shapes` gives for the five dims.  The named arrays
(`params.w1`, ...) are views of `flat`; `params.views(vec)` lays out any
vector of its size the same way, such as the gradient of `loss_and_grads`
or the Adam moments.  Snapshots are immutable: the dataclass is frozen and
`flat` is read-only, so updates return new snapshots.

Precision: everything is float64 except, in training, the network math of
`loss_and_grads`.  Its compute dtype is the dtype of its loss workspace,
and `ppo.ppo_update` passes a float32 one: the matmuls and tanh of the
forward and backward passes run in float32, while the master parameters,
the Adam moments, the sum of the blocks' gradients and the loss reductions
stay float64 (the master-weights scheme of Micikevicius et al., "Mixed
Precision Training", one precision step up).  Each float32 gradient array
is within about 2e-6 of its largest entry of the float64 one.  Rollouts
(`policy_forward_batch`) and saved policies are float64.  BLAS may round a
matmul differently by where its operands lie in memory, so a float64 pass
over the same values can differ in the last bit between a snapshot whose
arrays are views of one vector and one whose arrays were allocated apart.

Checkpoint format: one JSON header line (format version, dims, snapshot
id, seed, parameter count) followed by `flat` as little-endian float64.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError
from .seeding import stream

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_STD_INIT = -0.5
POLICY_FORMAT_VERSION = 1
# Rows per block in loss_and_grads and the rollout forward: a block's (rows,
# hidden) activations stay in cache through the element-wise passes.
_BLOCK_ROWS = 1024
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def param_shapes(
    obs_dim: int, action_dim: int, design_dim: int, hidden: int, latent: int
) -> dict[str, tuple[int, ...]]:
    """The parameter layout: each array's shape, in the order of `flat`.

    Weights follow the (out_features, in_features) convention.
    """
    return {
        "enc_w": (latent, design_dim), "enc_b": (latent,),
        "w1": (hidden, obs_dim), "b1": (hidden,),
        "w2": (hidden, hidden), "b2": (hidden,),
        "actor_w": (action_dim, hidden), "actor_b": (action_dim,),
        "log_std": (action_dim,), "critic_w": (hidden,), "critic_b": (1,),
    }


PARAM_ORDER = tuple(param_shapes(1, 1, 1, 1, 1))


@functools.lru_cache(maxsize=16)
def _param_layout(*dims: int) -> tuple[int, Mapping[str, tuple[slice, tuple[int, ...]]]]:
    """The floats `param_shapes(*dims)` takes, and each array's slice and shape."""
    slices, pos = {}, 0
    for name, shape in param_shapes(*dims).items():
        size = math.prod(shape)
        slices[name] = (slice(pos, pos + size), shape)
        pos += size
    return pos, MappingProxyType(slices)


def _views(vec: np.ndarray, slices: Mapping) -> dict[str, np.ndarray]:
    """Named views of `vec` by `_param_layout` slices (a 1-D slice is not reshaped)."""
    return {name: vec[sl] if len(shape) == 1 else vec[sl].reshape(shape)
            for name, (sl, shape) in slices.items()}


@dataclass(frozen=True)
class PolicyParams:
    """One policy snapshot: its parameters as one read-only vector.

    `flat` holds the arrays of `param_shapes(*dims)` end to end and is made
    read-only on construction.  Snapshots hold float64; `loss_and_grads`
    makes a float32 copy of one to compute in.
    """

    flat: np.ndarray
    obs_dim: int
    action_dim: int
    design_dim: int
    hidden: int
    latent: int
    snapshot_id: int = 0
    seed: int = -1

    def __post_init__(self) -> None:
        size, slices = _param_layout(*self.dims)
        if self.flat.shape != (size,):
            raise ContractError(
                f"parameter vector of shape {self.flat.shape}; dims {self.dims} need {size} floats"
            )
        self.flat.flags.writeable = False
        # Each array as an attribute of its name (`params.w1`): a view of flat.
        self.__dict__.update(_views(self.flat, slices))

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        """(obs_dim, action_dim, design_dim, hidden, latent): the arguments of param_shapes."""
        return self.obs_dim, self.action_dim, self.design_dim, self.hidden, self.latent

    @property
    def n_params(self) -> int:
        return self.flat.size

    def views(self, vec: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """The named arrays of `vec` (default `flat`), laid out as `flat` is."""
        return _views(self.flat if vec is None else vec, _param_layout(*self.dims)[1])


@dataclass
class AdamState:
    """Adam moments as flat vectors laid out as `PolicyParams.flat`."""

    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def policy_init(
    obs_dim: int,
    action_dim: int,
    design_dim: int,
    seed: int,
    hidden: int = 64,
    latent: int = 4,
) -> PolicyParams:
    """Orthogonal-style init: gain 1 trunk/encoder/critic, 0.01 actor head.

    `seed` is recorded in the snapshot metadata and expanded through a
    named stream.
    """
    if min(obs_dim, action_dim, design_dim, hidden, latent) < 1:
        raise ConfigError("all policy dimensions must be positive")
    if obs_dim <= latent:
        raise ConfigError(f"obs_dim {obs_dim} must exceed latent size {latent}")
    seed = int(seed)
    rng = stream("policy-init", seed)
    size, slices = _param_layout(obs_dim, action_dim, design_dim, hidden, latent)
    flat = np.zeros(size)
    arrays = _views(flat, slices)
    # The weights are drawn in this order: a seed keeps its parameters.
    arrays["enc_w"][:] = _orthogonal(rng, latent, design_dim, 1.0)
    arrays["w1"][:] = _orthogonal(rng, hidden, obs_dim, 1.0)
    arrays["w2"][:] = _orthogonal(rng, hidden, hidden, 1.0)
    arrays["actor_w"][:] = _orthogonal(rng, action_dim, hidden, 0.01)
    arrays["log_std"][:] = LOG_STD_INIT
    arrays["critic_w"][:] = _orthogonal(rng, 1, hidden, 1.0)[0]
    return PolicyParams(flat, obs_dim, action_dim, design_dim, hidden, latent, seed=seed)


def _check_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite activation in layer {name}")
    return x


def _dense_tanh(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """tanh(x @ w.T + b), with the bias add and tanh done in place (in `out`)."""
    h = np.matmul(x, w.T, out=out)
    h += b
    return np.tanh(h, out=h)


def _forward(
    params: PolicyParams, obs: np.ndarray, hidden
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trunk and heads on one observation block: (h1, h2, mean, value).

    `obs` is a (rows, obs_dim) block whose trailing `latent` columns already
    hold the design latent; the encoder runs where the designs are known
    (`rollout_work`, and each block of `loss_and_grads`).  `hidden` gives the
    two (rows, hidden) arrays that h1 and h2 are written into.
    Only the two heads are checked for finiteness: every hidden layer is a
    tanh, non-finite only as NaN, and a NaN reaches both heads.  When a head
    is non-finite, the layers are checked in order so that the error names
    the first bad one.
    """
    h1 = _dense_tanh(obs, params.w1, params.b1, hidden[0])
    h2 = _dense_tanh(h1, params.w2, params.b2, hidden[1])
    mean = h2 @ params.actor_w.T
    mean += params.actor_b
    value = h2 @ params.critic_w + params.critic_b[0]
    if not (np.isfinite(mean).all() and np.isfinite(value).all()):
        layers = zip(("encoder", "trunk1", "trunk2", "actor", "critic"),
                     (obs[:, params.obs_dim - params.latent:], h1, h2, mean, value))
        for name, x in layers:
            _check_finite(name, x)
    return h1, h2, mean, value


@dataclass(frozen=True)
class GaussianConstants:
    """The Gaussian action head of a fixed log_std: `gaussian_constants(log_std)`."""

    std: np.ndarray  # exp(log_std)
    log_std_sum: float
    half_n_log_2pi: float


def gaussian_constants(log_std: np.ndarray) -> GaussianConstants:
    n = log_std.shape[-1]
    log_std_sum = np.add.reduce(log_std, axis=None)
    return GaussianConstants(np.exp(log_std), log_std_sum, 0.5 * n * np.log(2.0 * np.pi))


@dataclass(frozen=True)
class RolloutWork:
    """The constants and buffers of one rollout's policy calls.

    A rollout's parameters and designs do not change between its steps.
    `obs` is the (n_envs, obs_dim) observation buffer with the design
    latent already in its trailing columns, `hidden` the two trunk
    buffers of one block (min(n_envs, `_BLOCK_ROWS`) rows), and `gaussian`
    the constants of the action density.  The buffers are overwritten by
    every forward pass.
    """

    obs: np.ndarray
    hidden: tuple[np.ndarray, np.ndarray]
    gaussian: GaussianConstants


def rollout_work(params: PolicyParams, designs: np.ndarray) -> RolloutWork:
    """The `RolloutWork` of `params` over one row per environment of `designs`.

    The trunk buffers hold one block of `policy_forward_batch`'s rows.
    """
    latent = _dense_tanh(designs, params.enc_w, params.enc_b)
    rows = latent.shape[0]
    obs = np.empty((rows, params.obs_dim))
    obs[:, params.obs_dim - params.latent:] = latent
    block = min(rows, _BLOCK_ROWS)
    hidden = (np.empty((block, params.hidden)), np.empty((block, params.hidden)))
    return RolloutWork(obs, hidden, gaussian_constants(params.log_std))


def policy_forward_batch(
    params: PolicyParams,
    designs: np.ndarray,
    proprio: np.ndarray,
    work: RolloutWork | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized forward for rollouts: (means, values).

    `work` is `rollout_work(params, designs)`, built here when not given, so
    a rollout that passes one encodes its designs once.  proprio, one row
    per row of the work, is copied into the work's observation buffer, and
    the trunk runs through the work's hidden buffers: a bank of at most
    `_BLOCK_ROWS` rows in one pass, a larger one in the fewest blocks of at
    most `_BLOCK_ROWS` rows, each but the last of the same multiple of 8
    rows where that fits, so 4,000 rows run in blocks of 1,000 and 1,030 in
    520 and 510.  The means and values are new arrays.  On OpenBLAS 0.3.31
    at one BLAS thread they have the bits of one unblocked pass at every
    size checked (108 sizes from 1 to 8,000 rows); that rests on how the
    BLAS kernels round a block, and another BLAS, CPU kernel or thread
    count may round differently.  There, a block that starts off a multiple
    of 4 rows, or a short one (a last block of 294 of 1,030 rows), rounded
    some rows differently from one pass.
    """
    if work is None:
        work = rollout_work(params, designs)
    n = len(work.obs)
    if len(proprio) != n:
        raise DimensionError(f"proprio of {len(proprio)} rows for a rollout work of {n} rows")
    work.obs[:, :params.obs_dim - params.latent] = proprio
    blocks = -(-n // _BLOCK_ROWS)
    size = min(8 * -(-n // (8 * blocks)), _BLOCK_ROWS)  # rows per block
    means, values = np.empty((n, params.action_dim)), np.empty(n)
    for lo in range(0, n, size):
        obs = work.obs[lo:lo + size]
        hidden = [h[:len(obs)] for h in work.hidden]
        _, _, means[lo:lo + size], values[lo:lo + size] = _forward(params, obs, hidden)
    return means, values


def sample_action(
    mean: np.ndarray, gaussian: GaussianConstants, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw action = mean + std*z and its log density under the Gaussian head.

    Broadcasts over a leading batch axis in `mean`.
    """
    action = rng.standard_normal(mean.shape)  # z, scaled and shifted in place
    action *= gaussian.std
    action += mean
    return action, gaussian_log_prob(mean, action, gaussian)


def gaussian_log_prob(
    mean: np.ndarray, action: np.ndarray, gaussian: GaussianConstants
) -> np.ndarray:
    z = action - mean
    z /= gaussian.std
    return _log_density(np.square(z, out=z), gaussian)


def _log_density(sq: np.ndarray, gaussian: GaussianConstants) -> np.ndarray:
    """Log density of standardized draws z = (action - mean) / std, one per row.

    `sq` holds z * z.  The result has the bits of
    -0.5 * np.sum(z**2, axis=-1) - log_std_sum - half_n_log_2pi.
    """
    density = _row_sums(sq)
    density *= -0.5
    density -= gaussian.log_std_sum
    density -= gaussian.half_n_log_2pi
    return density


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, with the bits of np.add.reduce(x, axis=-1).

    NumPy adds a row of 2 to 7 entries in order, entry by entry; here each
    of those adds runs over a whole column, several times faster than the
    reduction on a few entries per row.  Other widths go to np.add.reduce,
    which sums 8 or more entries pairwise.
    """
    width = x.shape[-1]
    if not 2 <= width < 8:
        return np.add.reduce(x, axis=-1)
    total = x[..., 0] + x[..., 1]
    for k in range(2, width):
        total += x[..., k]
    return total


def entropy(log_std: np.ndarray) -> float:
    n = log_std.size
    return float(np.add.reduce(log_std, axis=None) + 0.5 * n * (1.0 + np.log(2.0 * np.pi)))


@dataclass(frozen=True)
class Rows:
    """A minibatch column read from `source` by row index, not copied.

    Row i of the column is row index[i] // repeat of `source`: with repeat
    k, each source row serves k consecutive indices, as one design serves
    each of its environment's steps.  `loss_and_grads` gathers such a
    column block by block.  Every index must select a row of `source`; it
    is not checked, and a gather clips it into range.
    """

    source: np.ndarray
    index: np.ndarray
    repeat: int = 1

    def __len__(self) -> int:
        return len(self.index)

    @property
    def dtype(self) -> np.dtype:
        return self.source.dtype

    def take(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows lo:hi of the column, gathered into the first hi - lo rows of `out`."""
        index = self.index[lo:hi]
        if self.repeat != 1:
            index = index // self.repeat
        # mode="clip" writes straight into `out` (the default "raise"
        # gathers into a temporary first); the indices are in range.
        return np.take(self.source, index, axis=0, out=out[:hi - lo], mode="clip")


# The columns of a loss_and_grads minibatch, in the order the loss reads them.
_MINIBATCH_COLUMNS = ("proprio", "design", "action", "old_log_prob", "advantage", "ret")
# The statistics loss_and_grads returns, in order.
LOSS_STATISTICS = ("total", "policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl")


class LossWorkspace:
    """The buffers loss_and_grads works in, kept across its calls.

    `rows` is the rows of one block, `hidden` the trunk width and `dtype`
    the dtype loss_and_grads computes the network in: float64, or float32
    for training.  `arrays` holds five (rows, hidden) arrays of that dtype:
    h1, h2, d_h2, d_h1, and a scratch for the critic's share of d_h2, then
    each 1 - h*h (five separate arrays: as slices of one (5, rows, hidden)
    array they ran slower).  `ones` is the (rows,) vector `_column_sums`
    multiplies by, None for float64.  A minibatch column given as `Rows`
    is gathered block by block into `column_buffer(k, column)`, made on the
    first call that gathers column k and kept while later calls' column k
    has the same row shape and dtype.  Every block overwrites the rows it
    reads, so one workspace serves any number of calls whose blocks have at
    most `rows` rows, and a caller making many calls passes one, so that
    nothing is allocated and faulted in again per call.
    """

    def __init__(self, rows: int, hidden: int, dtype=np.float64):
        self.rows, self.hidden, self.dtype = rows, hidden, np.dtype(dtype)
        self.arrays = tuple(np.empty((rows, hidden), self.dtype) for _ in range(5))
        self.ones = None if self.dtype == np.float64 else np.ones(rows, self.dtype)
        self._columns: list[np.ndarray | None] = [None] * len(_MINIBATCH_COLUMNS)

    def column_buffer(self, k: int, column: Rows) -> np.ndarray:
        """A (rows, *row shape) buffer of `column`'s dtype for minibatch column k."""
        buf, source = self._columns[k], column.source
        if buf is None or buf.dtype != source.dtype or buf.shape[1:] != source.shape[1:]:
            buf = self._columns[k] = np.empty((self.rows, *source.shape[1:]), source.dtype)
        return buf


def loss_workspace(rows: int, hidden: int, dtype=np.float64) -> LossWorkspace:
    """The `LossWorkspace` for calls of at most `rows` rows: one block of min(rows, _BLOCK_ROWS)."""
    return LossWorkspace(min(rows, _BLOCK_ROWS), hidden, dtype)


def loss_and_grads(
    params: PolicyParams, minibatch: dict, ppo_cfg, work: LossWorkspace | None = None
) -> tuple[dict, np.ndarray]:
    """PPO clipped-surrogate loss and its exact gradient for one minibatch.

    minibatch keys: proprio (B,P), design (B,D), action (B,A),
    old_log_prob (B,), advantage (B,) (already normalized), ret (B,).
    Each is an array or a `Rows` column of B rows.  A `Rows` column is
    gathered into a small block buffer just before each block uses it, so
    `ppo.ppo_update` passes the rollout batch's own arrays and no
    minibatch is copied.

    loss = -mean(min(r*A, clip(r)*A)) + value_coef*mean((v-ret)^2)
           - entropy_coef*entropy

    The forward and backward passes run over blocks of `_BLOCK_ROWS` rows
    and sum each block's gradients into the result.  Each block also adds
    its float64 sums of the surrogate, the squared value error, the
    clipped count and the log-ratio, and the loss and its statistics are
    those sums over the minibatch size.  A minibatch of at most
    `_BLOCK_ROWS` rows is one block and gives the same bits as an
    unblocked pass.  A larger one sums its gradients and statistics in a
    different order, and BLAS may round a row's matmuls differently in a
    block of another shape; the results move by about 1e-14 relative
    (`clip_fraction`, a count, stays exact).

    `work` is a `loss_workspace` for at least this many rows; without one,
    the call makes a float64 one.  The workspace's dtype is the compute
    dtype.  With float32, the call casts the parameters and the proprio
    and design rows to float32 and runs the network's matmuls and tanh in
    float32.  The action mean and value are upcast, so the log-prob, ratio,
    surrogate, value error and every statistic are float64, and each
    block's gradients are summed into float64 arrays.  Against float64,
    each gradient array then moves by up to about 2e-6 of its largest entry
    and each loss statistic by under 1e-7 relative; `approx_kl`, a mean of
    signed log-ratios that may cancel, moves by under 1e-7 of the mean size
    of those log-ratios (measured on 7 to 64,000 rows; the tests bound
    these at 1e-5 and 1e-6).

    Returns the statistics, keyed by LOSS_STATISTICS, and the gradient: a
    new float64 vector laid out as `params.flat`.
    """
    columns = [minibatch[key] for key in _MINIBATCH_COLUMNS]
    batch = len(columns[0])
    if work is None:
        work = loss_workspace(batch, params.hidden)
    elif work.rows < min(batch, _BLOCK_ROWS) or work.hidden != params.hidden:
        raise ContractError(
            f"loss workspace too small for {batch} rows of hidden size {params.hidden}"
        )
    dtype, ones = work.dtype, work.ones
    # The network's parameters in the compute dtype.
    net = params if dtype == np.float64 else PolicyParams(params.flat.astype(dtype), *params.dims)
    buffers = [work.column_buffer(k, col) if isinstance(col, Rows) else None
               for k, col in enumerate(columns)]
    eps = ppo_cfg.clip_epsilon
    gaussian = gaussian_constants(params.log_std)

    # Named views of one zeroed float64 vector, fresh for every call.
    grad = np.zeros(params.n_params)
    grads = params.views(grad)
    # Sums of the surrogate, the squared value error, the clipped count and
    # the log-ratio.  -0.0 is the identity of addition, so a single block's
    # sums keep their bits.
    sums = np.full(4, -0.0)
    for lo in range(0, batch, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, batch)
        n = hi - lo
        proprio_b, design_b, action_b, old_lp_b, adv_b, ret_b = (
            col[lo:hi] if buf is None else col.take(lo, hi, buf)
            for col, buf in zip(columns, buffers)
        )
        # The network reads proprio and design in the compute dtype.
        proprio_b = proprio_b.astype(dtype, copy=False)
        design_b = design_b.astype(dtype, copy=False)
        h1_out, h2_out, d_h2_out, d_h1_out, scratch = (w[:n] for w in work.arrays)
        latent = _dense_tanh(design_b, net.enc_w, net.enc_b)
        obs = np.concatenate([proprio_b, latent], axis=-1)
        h1, h2, mean, value = _forward(net, obs, (h1_out, h2_out))
        # The (n, A) section runs in float64, each product, sum and clip
        # formed in place where its operand is spent; dtype=float64 upcasts
        # the float32 mean and value exactly, as astype does.
        value_err = np.subtract(value, ret_b, dtype=np.float64)
        z = np.subtract(action_b, mean, dtype=np.float64)
        z /= gaussian.std
        sq = np.square(z)
        lp = _log_density(sq, gaussian)
        ratio = np.exp(lp - old_lp_b)

        # d(policy_loss)/d(new_lp): gradient flows only where the unclipped
        # branch is selected by the min.  np.maximum then np.minimum clip as
        # np.clip does, a ratio being never -0.0.
        surr1 = ratio * adv_b
        surr2 = np.maximum(ratio, 1.0 - eps)
        np.minimum(surr2, 1.0 + eps, out=surr2)
        surr2 *= adv_b
        d_lp = np.negative(ratio)
        d_lp *= adv_b
        d_lp /= batch
        d_lp = np.where(surr1 <= surr2, d_lp, 0.0)
        ratio -= 1.0
        sums += (
            np.add.reduce(np.minimum(surr1, surr2, out=surr1)),
            np.add.reduce(value_err * value_err),
            np.count_nonzero(np.abs(ratio, out=ratio) > eps),
            np.add.reduce(old_lp_b - lp),
        )
        d_mean = np.divide(z, gaussian.std, out=z)
        d_mean *= d_lp[:, None]
        sq -= 1.0
        grads["log_std"] += d_lp @ sq
        d_value = value_err
        d_value *= ppo_cfg.value_coef * 2.0
        d_value /= batch
        grads["actor_b"] += np.add.reduce(d_mean, axis=0)
        grads["critic_b"] += np.add.reduce(d_value)
        # The backward passes of the heads and the trunk run in the compute dtype.
        d_mean = d_mean.astype(dtype, copy=False)
        d_value = d_value.astype(dtype, copy=False)

        d_h2 = np.matmul(d_mean, net.actor_w, out=d_h2_out)
        d_h2 += np.multiply(net.critic_w[None, :], d_value[:, None], out=scratch)
        grads["actor_w"] += d_mean.T @ h2
        grads["critic_w"] += h2.T @ d_value
        d_z2 = d_h2
        d_z2 *= _one_minus_square(h2, scratch)
        grads["w2"] += d_z2.T @ h1
        grads["b2"] += _column_sums(d_z2, ones)
        d_z1 = np.matmul(d_z2, net.w2, out=d_h1_out)
        d_z1 *= _one_minus_square(h1, scratch)
        grads["w1"] += d_z1.T @ obs
        grads["b1"] += _column_sums(d_z1, ones)
        d_obs = d_z1 @ net.w1
        d_latent = d_obs[:, params.obs_dim - params.latent:]
        d_ze = d_latent * (1.0 - latent**2)
        grads["enc_w"] += d_ze.T @ design_b
        grads["enc_b"] += _column_sums(d_ze, ones)
    grads["log_std"] -= ppo_cfg.entropy_coef

    mean_surrogate, value_loss, clip_fraction, approx_kl = sums / batch
    policy_loss = -mean_surrogate
    ent = entropy(params.log_std)
    total = policy_loss + ppo_cfg.value_coef * value_loss - ppo_cfg.entropy_coef * ent
    if not np.isfinite(total):
        raise NumericError("non-finite PPO loss")
    stats = (total, policy_loss, value_loss, ent, clip_fraction, approx_kl)
    return dict(zip(LOSS_STATISTICS, map(float, stats))), grad


def _column_sums(x: np.ndarray, ones: np.ndarray | None) -> np.ndarray:
    """Column sums of x: numpy's sum, or a BLAS gemv against `ones`.

    For float32 the gemv is several times faster than numpy's row-by-row
    float32 sum and rounds less; float64 keeps numpy's sum, and its bits.
    """
    return x.sum(axis=0) if ones is None else ones[: len(x)] @ x


def _one_minus_square(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 - h*h written into `out`: the tanh derivative at output h.

    np.square is the one product h*h, in about half the time of np.multiply(h, h).
    """
    np.square(h, out=out)
    return np.subtract(1.0, out, out=out)


def adam_init(params: PolicyParams, learning_rate: float) -> AdamState:
    return AdamState(
        m=np.zeros(params.n_params),
        v=np.zeros(params.n_params),
        step=0,
        learning_rate=learning_rate,
    )


def adam_step(
    params: PolicyParams, grad: np.ndarray, opt: AdamState
) -> tuple[PolicyParams, AdamState]:
    """Standard Adam with bias correction; returns new snapshots of both.

    `grad` is laid out as `params.flat`, and the update runs once over the
    whole vector.  Every operation is element-wise, so the result has the
    same bits as an update array by array.  `grad` is left as it is.
    """
    if grad.shape != params.flat.shape:
        raise ContractError(
            f"gradient of shape {grad.shape} for parameters of shape {params.flat.shape}"
        )
    t = opt.step + 1
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
    # theta - lr*m_hat / (sqrt(v_hat) + eps), each product and sum formed
    # in place in one of two work vectors (step and w): the operands
    # commute, so the bits do not change, and fewer fresh vectors are
    # allocated.
    w = grad * (1.0 - ADAM_BETA1)
    m = opt.m * ADAM_BETA1
    m += w
    np.square(grad, out=w)
    w *= 1.0 - ADAM_BETA2
    v = opt.v * ADAM_BETA2
    v += w
    step = m / (1.0 - ADAM_BETA1**t)
    step *= opt.learning_rate
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=w)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    flat = np.subtract(params.flat, step, out=step)
    _, slices = _param_layout(*params.dims)
    log_std = flat[slices["log_std"][0]]
    np.maximum(log_std, LOG_STD_MIN, out=log_std)
    np.minimum(log_std, LOG_STD_MAX, out=log_std)
    new_opt = AdamState(m=m, v=v, step=t, learning_rate=opt.learning_rate)
    return PolicyParams(flat, *params.dims, params.snapshot_id, params.seed), new_opt


# The header keys between format_version and n_params, in file order.
_HEADER_FIELDS = tuple(f.name for f in dataclasses.fields(PolicyParams) if f.name != "flat")


def save_policy(params: PolicyParams, path) -> str:
    """Write `params` to `path`; returns the SHA-256 hex digest of the file."""
    header = {
        "format_version": POLICY_FORMAT_VERSION,
        **{key: getattr(params, key) for key in _HEADER_FIELDS},
        "n_params": params.n_params,
    }
    blob = json.dumps(header).encode("utf-8") + b"\n" + params.flat.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def load_policy(path) -> PolicyParams:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path}: corrupt policy checkpoint header") from exc
    if not isinstance(header, dict):
        raise ContractError(f"{path}: policy checkpoint header is not a JSON object")
    if header.get("format_version") != POLICY_FORMAT_VERSION:
        raise ContractError(
            f"{path}: unsupported policy format version {header.get('format_version')}; "
            f"this version reads only version {POLICY_FORMAT_VERSION}"
        )
    missing = [key for key in (*_HEADER_FIELDS, "n_params") if key not in header]
    if missing:
        raise ContractError(f"{path}: policy checkpoint header lacks {', '.join(missing)}")
    if len(blob) % 8:
        raise ContractError(f"{path}: parameter block of {len(blob)} bytes ends inside a float")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if flat.size != header["n_params"]:
        raise ContractError(
            f"{path}: parameter block has {flat.size} floats, header says {header['n_params']}"
        )
    try:
        return PolicyParams(flat, **{key: header[key] for key in _HEADER_FIELDS})
    except ContractError as exc:
        raise ContractError(f"{path}: header disagrees with its parameter block: {exc}") from exc

"""Covariance Matrix Adaptation Evolution Strategy with an ask/tell interface.

Standard formulation: log recombination weights, cumulative step-size
adaptation, and a rank-1 plus rank-mu covariance update.  Ask and tell work
on arrays of raw samples drawn from N(mean, sigma^2 C).  The outer loop
clamps the samples into the design box to score them and tells the raw
samples back, which keeps the update equations unbiased while honoring the
bounds.

Minimization throughout: lower fitness is better.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, OptimizerDegenerateError
from .seeding import stream


@dataclass(frozen=True)
class CmaEsConfig:
    dim: int = 2
    initial_mean: float = 0.2
    initial_sigma: float = 0.3
    population_size: int = 50
    parent_count: int = 10
    max_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.initial_sigma <= 0:
            raise ConfigError("initial_sigma must be positive")
        if not 1 <= self.parent_count <= self.population_size:
            raise ConfigError(
                f"need 1 <= parent_count <= population_size, got "
                f"mu={self.parent_count}, lambda={self.population_size}"
            )
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass
class CmaEsState:
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_c: np.ndarray
    weights: np.ndarray
    generation: int
    seed: int
    lam: int
    mu: int
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float

    @property
    def dim(self) -> int:
        return self.mean.size


def cma_init(config: CmaEsConfig) -> CmaEsState:
    """Fresh optimizer state with canonical strategy constants."""
    n = config.dim
    mu = config.parent_count
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights**2)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = np.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))

    return CmaEsState(
        mean=np.full(n, config.initial_mean, dtype=np.float64),
        sigma=float(config.initial_sigma),
        cov=np.eye(n),
        path_sigma=np.zeros(n),
        path_c=np.zeros(n),
        weights=weights,
        generation=0,
        seed=config.seed,
        lam=config.population_size,
        mu=mu,
        mu_eff=float(mu_eff),
        c_sigma=float(c_sigma),
        d_sigma=float(d_sigma),
        c_c=float(c_c),
        c_1=float(c_1),
        c_mu=float(c_mu),
        chi_n=float(chi_n),
    )


def _cov_eigh(state: CmaEsState) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of C with positive-definiteness check."""
    cov = 0.5 * (state.cov + state.cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if not np.all(np.isfinite(eigvals)) or np.any(eigvals <= 0.0):
        raise OptimizerDegenerateError(
            "covariance lost positive definiteness", state.generation
        )
    return eigvals, eigvecs


def cma_ask(state: CmaEsState) -> np.ndarray:
    """Sample one population, a (lam, dim) array, from the current distribution.

    The draw is keyed by (state.seed, state.generation), so asking twice
    from the same state yields the identical samples.
    """
    rng = stream("cma-ask", state.seed, state.generation)
    eigvals, eigvecs = _cov_eigh(state)
    z = rng.standard_normal((state.lam, state.dim))
    samples = state.mean + state.sigma * (z * np.sqrt(eigvals)) @ eigvecs.T
    if not np.all(np.isfinite(samples)):
        raise ContractError("design factors must be finite")
    return samples


def cma_tell(state: CmaEsState, samples: np.ndarray, fitness: np.ndarray) -> CmaEsState:
    """Update the search distribution from one scored population.

    `samples` are the (lam, dim) raw samples that `cma_ask` gave and
    `fitness` their (lam,) scores.  Samples are ranked ascending by fitness
    (stable in the given order); the mu best recombine into the new mean,
    then the standard evolution-path, covariance, and CSA step-size updates
    apply.  +inf fitness marks a failed evaluation and ranks last, so
    parents beyond the scored samples are taken in the given order; NaN is
    rejected.  When no sample is scored (every fitness +inf) the
    distribution stays as it is and only the generation advances, so the
    next ask draws new samples.
    """
    if samples.shape != (state.lam, state.dim) or fitness.shape != (state.lam,):
        raise ContractError(
            f"cma_tell needs samples of shape {(state.lam, state.dim)} and fitness of "
            f"shape {(state.lam,)}, got {samples.shape} and {fitness.shape}"
        )
    if np.any(np.isnan(fitness)):
        raise ContractError("cma_tell: a fitness is NaN")
    if np.all(fitness == np.inf):
        return dataclasses.replace(state, generation=state.generation + 1)

    order = np.argsort(fitness, kind="stable")
    selected = samples[order[: state.mu]]
    y = (selected - state.mean) / state.sigma
    y_w = state.weights @ y
    mean_new = state.mean + state.sigma * y_w

    eigvals, eigvecs = _cov_eigh(state)
    cov_invsqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    c_s, d_s = state.c_sigma, state.d_sigma
    path_sigma = (1.0 - c_s) * state.path_sigma + np.sqrt(
        c_s * (2.0 - c_s) * state.mu_eff
    ) * (cov_invsqrt @ y_w)

    gen_new = state.generation + 1
    norm_ps = np.linalg.norm(path_sigma)
    hsig = float(
        norm_ps / np.sqrt(1.0 - (1.0 - c_s) ** (2 * gen_new))
        < (1.4 + 2.0 / (state.dim + 1.0)) * state.chi_n
    )
    c_c = state.c_c
    path_c = (1.0 - c_c) * state.path_c + hsig * np.sqrt(
        c_c * (2.0 - c_c) * state.mu_eff
    ) * y_w

    rank_mu = (state.weights[:, None] * y).T @ y
    cov_new = (
        (1.0 - state.c_1 - state.c_mu) * state.cov
        + state.c_1
        * (np.outer(path_c, path_c) + (1.0 - hsig) * c_c * (2.0 - c_c) * state.cov)
        + state.c_mu * rank_mu
    )
    cov_new = 0.5 * (cov_new + cov_new.T)

    sigma_new = state.sigma * np.exp((c_s / d_s) * (norm_ps / state.chi_n - 1.0))
    if not np.isfinite(sigma_new) or sigma_new <= 0.0:
        raise OptimizerDegenerateError("step size degenerated", state.generation)

    return dataclasses.replace(
        state,
        mean=mean_new,
        sigma=float(sigma_new),
        cov=cov_new,
        path_sigma=path_sigma,
        path_c=path_c,
        generation=gen_new,
    )

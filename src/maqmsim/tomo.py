"""Density-matrix and W-state fidelity estimation from coincidence tables.

Reconstruction happens on a fixed logical two-qubit basis (signal branch x
time-bin branch), so states estimated before and after a transfer can be
compared directly.  The estimator is a maximum-likelihood fit over the
Cholesky-like parameterization rho = T T^dag / tr(T T^dag), which is
physical by construction.

The likelihood treats each setting's coincidence count as an independent
Poisson draw with a shared unknown rate scale; the scale is profiled out
analytically, leaving

    l(T) = sum_s c_s ln q_s - C ln Q,   q_s = tr(T T^dag P_s),
    Q = sum_s N_s q_s,                  C = sum_s c_s,

maximized by scipy L-BFGS-B with an analytic gradient.  scipy is imported
on the first fit, so a process that never fits never loads it.  Each
optimizer evaluation unpacks T once and returns the value and gradient
together; the objective remembers its last point, so the per-step callback
reads the value already computed at the accepted iterate instead of
evaluating it again.  The recorded likelihood trace is checked to be
non-decreasing across accepted steps; a violation means the optimizer
misbehaved and raises ``LikelihoodDecreasedError`` immediately rather than
returning a bad fit.  The check is an explicit raise, so it also holds
under ``python -O``.

A bootstrap fits the observed table once from the maximally mixed state and
hands that base fit back with the estimate, so a report needs no second fit
of the same table.

W fidelities are read off count vectors in ``w_labels`` order.  Both
bootstraps draw one (R, n) stack of Poisson resamples, row r from substream
(seed, r); the W bootstrap evaluates the whole stack in one array expression.
A W table with no population count, or one where fewer than two resamples
succeed, raises ``EstimateUndefinedError``; in the second case it carries
the point estimate, so a report can keep the value and drop the spread.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .detect import CountsTable, tomography_settings, w_labels
from .qstate import DensityMatrix, fidelity

__all__ = [
    "ReconstructionResult",
    "FidelityEstimate",
    "LikelihoodDecreasedError",
    "EstimateUndefinedError",
    "bell_target",
    "mle_reconstruct",
    "monte_carlo_fidelity",
    "w_fidelity",
    "monte_carlo_w_fidelity",
]

Q_FLOOR = 1e-14         # keeps logs finite when a projector is exactly dark
TRACE_RTOL = 1e-9       # likelihood monotonicity slack, relative to |l|
W_CONSISTENCY_TOL = 0.05  # relative slack on |Re rho_ij| <= sqrt(p_i p_j)


def bell_target(relative_phase: float = 0.0) -> np.ndarray:
    """(|00> + e^{i phi} |11>)/sqrt(2) on the logical basis.

    The logical basis is ordered signal branch major, time-bin branch minor:
    index 2 s + b holds |s>_signal |b>_bin.
    """
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[3] = np.exp(1j * relative_phase) / np.sqrt(2.0)
    return amps


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    likelihood_trace: tuple[float, ...] = ()


@dataclass(frozen=True)
class FidelityEstimate:
    """Point fidelity and bootstrap spread.

    ``rho`` is the base fit the point value was computed from, for
    estimators that reconstruct a state; it is not part of the JSON form.
    """

    value: float
    sigma: float
    n_resamples: int
    n_failed: int = 0
    warnings: tuple[str, ...] = ()
    rho: DensityMatrix | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("fidelity value must lie in [0, 1]")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and non-negative")


def _aligned_projectors(counts: CountsTable):
    settings = tomography_settings(2)
    index = {label: i for i, label in enumerate(settings.labels)}
    rows = []
    for row in counts.rows:
        if row.label not in index:
            raise ValueError(f"no measurement setting named {row.label!r}")
        rows.append(index[row.label])
    n, d = len(rows), settings.signal.shape[1]
    # per row: ket = kron(signal, atom) and its projector outer(ket, ket*)
    kets = (settings.signal[rows, :, None] * settings.atom[rows, None, :]).reshape(n, d * d)
    projectors = kets[:, :, None] * kets.conj()[:, None, :]
    observed = np.array([row.coincidences for row in counts.rows], dtype=float)
    exposures = np.array([row.heralds for row in counts.rows], dtype=float)
    return projectors, observed, exposures


def _pack(t_mat: np.ndarray) -> np.ndarray:
    d = t_mat.shape[0]
    parts = [t_mat.diagonal().real]
    lower = [(t_mat[i, j].real, t_mat[i, j].imag)
             for i in range(d) for j in range(i)]
    if lower:
        parts.append(np.concatenate([np.array(p) for p in lower]))
    return np.concatenate(parts)


class LikelihoodDecreasedError(RuntimeError):
    """An accepted optimizer step lowered the log-likelihood beyond TRACE_RTOL."""


class _NegLogLikelihood:
    """-l and its gradient over packed T parameters, memoized on the last x.

    Calling the object returns ``(value, gradient)``.  T is unpacked once
    per point and the value and gradient share it.  A call at an x
    array-equal to the previous one returns the stored pair without
    recomputing, so the optimizer's callback and its first evaluation cost
    nothing extra.
    """

    def __init__(self, projectors, observed, exposures):
        n_settings, d = projectors.shape[:2]
        self.d = d
        self.projectors = projectors
        self.flat_projectors = projectors.reshape(n_settings, d * d)
        self.observed = observed
        self.c_total = float(observed.sum())
        self.s_op = np.tensordot(exposures, projectors, axes=1)
        self.diag = np.diag_indices(d)
        self.lower = np.tril_indices(d, -1)   # row-major, the order _pack writes
        self._last = None                     # (x, value, gradient) of the latest call

    def unpack(self, x: np.ndarray) -> np.ndarray:
        d = self.d
        t_mat = np.zeros((d, d), dtype=complex)
        t_mat[self.diag] = x[:d]
        t_mat[self.lower] = x[d::2] + 1j * x[d + 1::2]
        return t_mat

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self._last is not None and np.array_equal(x, self._last[0]):
            return self._last[1], self._last[2]
        d, observed, s_op = self.d, self.observed, self.s_op
        t_mat = self.unpack(x)
        a_mat = t_mat @ t_mat.conj().T
        q = np.clip(np.einsum("sij,ji->s", self.projectors, a_mat).real, Q_FLOOR, None)
        big_q = max(float(np.einsum("ij,ji->", s_op, a_mat).real), Q_FLOOR)
        value = -(float(observed @ np.log(q)) - self.c_total * np.log(big_q))
        g_mat = ((observed / q) @ self.flat_projectors).reshape(d, d) \
            - (self.c_total / big_q) * s_op
        m_mat = g_mat @ t_mat
        m_lower = m_mat[self.lower]
        grad = np.empty(d * d)
        grad[:d] = -(2.0 * m_mat.diagonal().real)
        grad[d::2] = -(2.0 * m_lower.real)
        grad[d + 1::2] = -(2.0 * m_lower.imag)
        self._last = (x.copy(), value, grad)
        return value, grad


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _fit_mle(projectors, observed, exposures, init_rho, tol, max_iter):
    d = projectors.shape[1]
    objective = _NegLogLikelihood(projectors, observed, exposures)
    x0 = _pack(_initial_t(init_rho, d))
    trace = [-objective(x0)[0]]

    def record(xk):
        # the line search ends on an evaluation at xk, so this is a cache hit
        ll = -objective(xk)[0]
        prev = trace[-1]
        if not ll >= prev - TRACE_RTOL * (1.0 + abs(prev)):   # NaN fails too
            raise LikelihoodDecreasedError(
                f"likelihood decreased across an accepted step: {prev!r} -> {ll!r}")
        trace.append(ll)

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                       callback=record,
                       options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-12})

    t_mat = objective.unpack(res.x)
    a_mat = t_mat @ t_mat.conj().T
    a_mat = (a_mat + a_mat.conj().T) / 2.0
    rho = a_mat / np.trace(a_mat).real
    converged = bool(res.success)
    return rho, float(-res.fun), int(res.nit), converged, tuple(trace)


def _initial_t(init_rho: np.ndarray, d: int) -> np.ndarray:
    jitter = 1e-9
    mat = (init_rho + jitter * np.eye(d)) / (1.0 + jitter * d)
    return np.linalg.cholesky(mat)


def mle_reconstruct(counts: CountsTable, init: DensityMatrix | None = None,
                    tol: float = 1e-9, max_iter: int = 1000) -> ReconstructionResult:
    """Maximum-likelihood state fit, physical by construction.

    ``converged`` reports whether the relative likelihood change dropped
    below ``tol`` within ``max_iter`` accepted steps; on exhaustion the best
    iterate is still returned.  All-zero tables are a flat likelihood, so
    the initial state (maximally mixed by default) comes back unchanged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    projectors, observed, exposures = _aligned_projectors(counts)
    d = projectors.shape[1]
    if init is not None and init.dimension != d:
        raise ValueError(f"init must have the reconstruction dimension {d}, "
                         f"got {init.dimension}")
    init_mat = init.entries if init is not None else np.eye(d) / d
    rho, ll, nit, converged, trace = _fit_mle(projectors, observed, exposures,
                                              np.asarray(init_mat), tol, max_iter)
    return ReconstructionResult(
        rho=DensityMatrix(rho),
        log_likelihood=ll,
        iterations=nit,
        converged=converged,
        likelihood_trace=trace,
    )


def _poisson_resamples(observed: np.ndarray, n_resamples: int, seed: int) -> np.ndarray:
    """(n_resamples, n) Poisson draws around ``observed``; row r uses substream (seed, r)."""
    draws = np.empty((n_resamples, observed.size))
    for r in range(n_resamples):
        draws[r] = np.random.default_rng([seed, r]).poisson(observed)
    return draws


def monte_carlo_fidelity(counts: CountsTable, target: np.ndarray, n_resamples: int,
                         seed: int, tol: float = 1e-9,
                         max_iter: int = 1000) -> FidelityEstimate:
    """Poisson-resample the table, refit each draw, report point and spread.

    The point estimate is the base fit's fidelity; the resample mean sits
    systematically low (each resample carries the sampling noise twice) and
    centering on it would break 1-sigma coverage.  Resampled counts are
    treated as raw Poisson draws (they may exceed the recorded herald
    number; the likelihood only cares about rates).  Each refit warm-starts
    from the base reconstruction, which is returned as ``rho`` so callers
    need not fit the table again.  Failed refits are skipped and counted.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    projectors, observed, exposures = _aligned_projectors(counts)
    base_rho, *_ = _fit_mle(projectors, observed, exposures,
                            np.eye(projectors.shape[1]) / projectors.shape[1],
                            tol, max_iter)
    base = DensityMatrix(base_rho)
    point = fidelity(base, target)   # checks the target before any refit

    values, failed = [], 0
    for resampled in _poisson_resamples(observed, n_resamples, seed):
        try:
            rho, *_ = _fit_mle(projectors, resampled, exposures, base_rho, tol, max_iter)
            values.append(fidelity(DensityMatrix(rho), target))
        except (ValueError, LikelihoodDecreasedError, np.linalg.LinAlgError):
            failed += 1
    if len(values) < 2:
        raise RuntimeError(f"only {len(values)} of {n_resamples} resamples succeeded")
    arr = np.asarray(values)
    return FidelityEstimate(
        value=point,
        sigma=float(arr.std(ddof=1)),
        n_resamples=len(values),
        n_failed=failed,
        rho=base,
    )


class EstimateUndefinedError(ValueError):
    """A W table defines no fidelity (no population count) or no spread.

    ``point`` is None when the populations are all zero.  When fewer than
    two resamples succeed it is the observed table's estimate, with the
    successful and failed resample counts.
    """

    def __init__(self, message: str, point: FidelityEstimate | None = None):
        super().__init__(message)
        self.point = point


def _w_estimate(counts: np.ndarray, d: int):
    """Raw F_W, populations, visibilities and population total, last axis.

    Populations and the visibilities Re rho_ij = (C_ij+ - C_ij-)/(2 total)
    share one normalization, so a flat background pulls F_W toward 1/d
    rather than up.  Sums run left to right (``cumsum``), so a stack row
    gives the bits of the same vector alone.  A zero total gives NaN.
    """
    total = np.cumsum(counts[..., :d], axis=-1)[..., -1:]
    pairs = counts[..., d:].reshape(*counts.shape[:-1], -1, 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        pops = counts[..., :d] / total
        vis = (pairs[..., 0] - pairs[..., 1]) / (2.0 * total)
        value = (np.cumsum(pops, axis=-1)[..., -1]
                 + 2.0 * np.cumsum(vis, axis=-1)[..., -1]) / d
    return value, pops, vis, total[..., 0]


def w_fidelity(counts, dimension: int) -> FidelityEstimate:
    """F_W = (1/d)(sum_i p_i + 2 sum_{i<j} Re rho_ij) from one count vector.

    ``counts`` holds d^2 non-negative counts in ``w_labels(dimension)``
    order.  A visibility larger in magnitude than sqrt(p_i p_j)(1 + tol) is
    physically impossible and gets a warning attached rather than silently
    entering the average; so does a raw estimate outside [0, 1], which is
    clipped.  All-zero population counts raise ``EstimateUndefinedError``.
    """
    d = dimension
    counts = np.asarray(counts, dtype=float)
    if d < 2 or counts.shape != (d * d,):
        raise ValueError(f"need d >= 2 and d^2 counts in w_labels(d) order, "
                         f"got d = {d} and shape {counts.shape}")
    if not (counts >= 0).all():
        raise ValueError("counts must be non-negative")
    value, pops, vis, total = _w_estimate(counts, d)
    if not total > 0:
        raise EstimateUndefinedError("population counts are all zero")
    notes = []
    for (i, j), v in zip(combinations(range(d), 2), vis):
        bound = np.sqrt(pops[i] * pops[j])
        if abs(v) > bound * (1.0 + W_CONSISTENCY_TOL) + 1e-12:
            notes.append(f"visibility ({i},{j}) = {v:.4g} exceeds the "
                         f"population bound {bound:.4g}")
    if not 0.0 <= value <= 1.0:
        notes.append(f"raw estimate {value:.4g} clipped into [0, 1]")
        value = np.clip(value, 0.0, 1.0)
    return FidelityEstimate(value=float(value), sigma=0.0, n_resamples=0,
                            warnings=tuple(notes))


def monte_carlo_w_fidelity(table: CountsTable, dimension: int = 4,
                           n_resamples: int = 100, seed: int = 0) -> FidelityEstimate:
    """Poisson-resample the W counts table and spread the fidelity estimate.

    The rows must be the ``w_settings(dimension)`` rows, in order, with one
    shared herald count.  The point value and its warnings come from
    ``w_fidelity`` on the observed counts; a resample fails when its
    population total is zero.  Raises ``EstimateUndefinedError`` when the
    observed populations are all zero or fewer than two resamples succeed.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    if len({r.heralds for r in table.rows}) > 1:
        raise ValueError("rows must share one herald count for a consistent scale")
    labels, expected = tuple(r.label for r in table.rows), w_labels(dimension)
    if labels != expected:
        raise ValueError(f"rows must be w_labels({dimension}) in order: missing "
                         f"{sorted(set(expected) - set(labels))}, "
                         f"unexpected {sorted(set(labels) - set(expected))}")
    observed = np.array([float(r.coincidences) for r in table.rows])
    point = w_fidelity(observed, dimension)
    values, _, _, total = _w_estimate(_poisson_resamples(observed, n_resamples, seed),
                                      dimension)
    values = np.clip(values[total > 0], 0.0, 1.0)
    tally = dict(n_resamples=int(values.size), n_failed=n_resamples - int(values.size))
    if values.size < 2:
        raise EstimateUndefinedError(
            f"only {values.size} of {n_resamples} resamples succeeded",
            replace(point, **tally))
    return replace(point, sigma=float(values.std(ddof=1)), **tally)

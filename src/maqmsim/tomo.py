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

maximized by L-BFGS-B with an analytic gradient.  ``_fit_stack`` fits k
count vectors at once: each row runs its own workspace of scipy's
reverse-communication kernel ``setulb`` under the rules of scipy's
``minimize(..., method="L-BFGS-B")`` loop: each value and gradient a row's
setulb asks for, x0 first, is evaluated once, when it asks, in one stacked
call per pass, so a row takes the iterates its table alone takes, bit for bit.
Every step of the objective runs on the whole stack and keeps the one-row
summation order: the traces q_s and Q add their terms in a fixed nested
order, as plain adds of contiguous (setting, row) slabs, and the dot
c . ln q and sum_s (c_s / q_s) P_s are matrix products with a unit middle
axis, which make the same BLAS call per row as a one-row product.
Packed parameters map to T, and the gradient back to them, through one
index of float slots.  The first fit loads scipy's compiled ``_lbfgsb``
module alone, never the ``scipy.optimize`` package, so a process that
never fits loads no scipy and one that fits skips the package's import.
Each fit runs scipy's own OpenBLAS, which ``setulb`` calls, on one thread
and restores its earlier count after, so no second core spins.
The value of each accepted step is the row's last evaluation; the
likelihood trace is checked to be non-decreasing across accepted steps,
and a row that fails the check stops with ``LikelihoodDecreasedError`` (an
explicit check, so it also holds under ``python -O``).  A single fit, and
a bootstrap's base fit, raise it; a bootstrap counts a resample that fails
it as failed.

``monte_carlo_fidelities`` bootstraps tables that share labels and heralds,
such as a run's two qubit stages, in two stacks: the base fits of all the
tables, each from the maximally mixed state, then the resamples of all the
tables, each warm-started from its own table's base fit, in blocks of at
most ``MAX_STACK_ROWS`` rows.  Each base fit is handed back with its
estimate, so a report needs no second fit of the same table.

W fidelities are read off count vectors in ``w_labels`` order.  Both
bootstraps read the table's count columns and take its resamples as one
(R, n) array, row r one resampled count vector, as
``detect.poisson_resamples`` draws them; nothing here draws.  A W stage
estimates the observed table and its resamples in one pass, as one
(R + 1, n) stack whose row 0 is the observed table, and the qubit
bootstrap checks and scores each fitted stack in one pass.

Every estimator returns a ``FidelityEstimate``; ``None`` marks what the
data cannot give, and ``warnings`` says why.  A W table with no population
count has no ``value``, nor has a qubit table with no coincidence count.  A
bootstrap keeps its point value and has no ``sigma`` when fewer than two
resamples succeed; for a W table with no coherence count, whose resamples
all give 1/d; and for a qubit table whose counts sit in one setting, whose
resamples all give the base fit's state.  ``w_fidelity`` measures no
spread, so its ``sigma`` is ``None`` too.  Bad arguments (unknown labels,
mixed heralds, qubit tables that differ in labels or heralds, resamples
that are not an (R >= 2, n) array of finite non-negative counts, a bad
target, ``tol`` or ``max_iter``) raise ``ValueError``.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import warnings as _warnings
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

from .detect import CountsTable, tomography_settings, w_labels
from .qstate import DensityMatrix, _stack_fidelities, _unit_target, fidelity

__all__ = [
    "ReconstructionResult",
    "FidelityEstimate",
    "LikelihoodDecreasedError",
    "bell_target",
    "mle_reconstruct",
    "monte_carlo_fidelities",
    "w_fidelity",
    "monte_carlo_w_fidelity",
]

Q_FLOOR = 1e-14         # keeps logs finite when a projector is exactly dark
TRACE_RTOL = 1e-9       # likelihood monotonicity slack, relative to |l|
W_CONSISTENCY_TOL = 0.05  # relative slack on |Re rho_ij| <= sqrt(p_i p_j)
MAX_STACK_ROWS = 1024   # resamples fitted in one stack: ~13 KB of L-BFGS-B state each


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
    """Point fidelity and bootstrap spread; ``None`` where the data give none.

    ``value`` is None for a table that defines no fidelity, ``sigma`` for
    an estimate without a spread; a reason the data gave is in
    ``warnings``.  ``rho`` is the base fit the point value was computed
    from, for estimators that reconstruct a state; it is not part of the
    JSON form.
    """

    value: float | None
    sigma: float | None
    n_resamples: int
    n_failed: int = 0
    warnings: tuple[str, ...] = ()
    rho: DensityMatrix | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.value is not None and not 0.0 <= self.value <= 1.0:
            raise ValueError("fidelity value must lie in [0, 1]")
        if self.sigma is not None and not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and non-negative")


def _aligned_projectors(counts: CountsTable):
    settings = tomography_settings()
    index = {label: i for i, label in enumerate(settings.labels)}
    rows = []
    for label in counts.labels:
        if label not in index:
            raise ValueError(f"no measurement setting named {label!r}")
        rows.append(index[label])
    n, d = len(rows), settings.signal.shape[1]
    # per row: ket = kron(signal, atom) and its projector outer(ket, ket*)
    kets = (settings.signal[rows, :, None] * settings.atom[rows, None, :]).reshape(n, d * d)
    projectors = kets[:, :, None] * kets.conj()[:, None, :]
    return projectors, counts.coincidences.astype(float), counts.heralds.astype(float)


class LikelihoodDecreasedError(RuntimeError):
    """An accepted optimizer step lowered the log-likelihood beyond TRACE_RTOL."""


class _NegLogLikelihoods:
    """-l and its gradient over packed T parameters, for rows of count vectors.

    ``objective(x, rows)`` evaluates count row ``rows[i]`` at ``x[i]`` and
    returns ``(values, gradients)``, the bits a one-row evaluation gives.
    Each trace q_s, and Q = tr(S A) as one more setting S = sum_s N_s P_s,
    adds P_sij.re A_ji.re - P_sij.im A_ji.im over j left to right, then over
    i, as the one-row ``einsum`` does, in contiguous (j, i, s, row) slabs
    that run along the rows.  ln q is taken of one contiguous (row, s) copy,
    as a strided one takes another dot path; c . ln q and sum_s (c_s/q_s) P_s
    are matmuls with a unit middle axis: each row gets the BLAS ddot / zgemv
    call a 1-D product makes.  ``packed[k]`` is the float slot of parameter
    k in the (re, im) view of a row of T, so unpacking is one scatter.
    """

    def __init__(self, projectors, observed, exposures):
        n_settings, d = projectors.shape[:2]
        self.d = d
        self.flat_projectors = projectors.reshape(n_settings, d * d)
        self.observed = observed
        self.c_total = np.array([float(row.sum()) for row in observed])
        self.s_op = np.tensordot(exposures, projectors, axes=1)
        # P_sij as contiguous (j, i, s, 1) slabs, S the last s, to meet A_ji as (j, i, 1, row)
        p_ji = np.concatenate((projectors, self.s_op[None])).transpose(2, 1, 0)[..., None]
        self.p_real, self.p_imag = np.ascontiguousarray(p_ji.real), np.ascontiguousarray(p_ji.imag)
        # the diagonal, then the strict lower triangle row-major as (re, im)
        lower = np.tril_indices(d, -1)
        self.packed = np.concatenate([
            2 * (d + 1) * np.arange(d),
            (2 * (d * lower[0] + lower[1])[:, None] + [0, 1]).ravel()])

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """(m, d^2) packed parameters -> (m, d, d) lower-triangular T."""
        d = self.d
        t_flat = np.zeros((x.shape[0], 2 * d * d))
        t_flat[:, self.packed] = x
        return t_flat.view(complex).reshape(-1, d, d)

    def pack(self, t_mat: np.ndarray) -> np.ndarray:
        """(m, d, d) T -> (m, d^2) packed parameters, the inverse of ``unpack``."""
        t_flat = np.ascontiguousarray(t_mat, dtype=complex).reshape(len(t_mat), -1)
        return t_flat.view(float)[:, self.packed]

    def __call__(self, x: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        d, s_op = self.d, self.s_op
        observed, c_total, m = self.observed[rows], self.c_total[rows], len(rows)
        t_mat = self.unpack(x)
        a_mat = t_mat @ t_mat.conj().transpose(0, 2, 1)
        a_t = a_mat.transpose(1, 2, 0)[:, :, None]
        terms = self.p_real * a_t.real
        terms -= self.p_imag * a_t.imag
        q = np.add.reduce(np.add.reduce(terms))   # each sum starts from 0, as the einsum's do
        big_q = np.maximum(q[-1], Q_FLOOR)
        q = np.maximum(q[:-1].T, Q_FLOOR, order="C")
        values = (observed[:, None, :] @ np.log(q)[:, :, None])[:, 0, 0] - c_total * np.log(big_q)
        g_mat = ((observed / q)[:, None, :] @ self.flat_projectors).reshape(m, d, d)
        g_mat -= (c_total / big_q)[:, None, None] * s_op
        grads = (g_mat @ t_mat).reshape(m, d * d).view(float)[:, self.packed]
        grads *= -2.0   # the bits of -(2 v)
        return -values, grads


# L-BFGS-B settings (scipy's defaults for m, maxls and maxfun; the fit's gtol)
# and the task codes setulb writes
_LBFGS_M = 10
_LBFGS_MAXLS = 20
_LBFGS_MAXFUN = 15000
_LBFGS_PGTOL = 1e-12
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5


_KERNEL = "scipy.optimize._lbfgsb"


def _lbfgsb_kernel():
    """scipy's compiled L-BFGS-B module, loaded without ``scipy.optimize``.

    A module already in ``sys.modules`` is returned as it is, so one a user
    imported, or a stand-in patched onto it, is what the fits call.
    Otherwise the extension is found in scipy's ``optimize`` directory
    (``find_spec`` loads no module), registered under its own name and
    run; ``scipy/optimize/__init__.py`` never executes.  A later import of
    the ``scipy.optimize`` package reuses the module, and so does importing
    ``_lbfgsb`` from it by name, though the package gets no ``_lbfgsb``
    attribute: the import system binds one only when it loads the module.
    """
    kernel = sys.modules.get(_KERNEL)
    if kernel is not None:
        return kernel
    scipy_spec = importlib.util.find_spec("scipy")
    for root in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        finder = FileFinder(os.path.join(root, "optimize"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_KERNEL)
        if spec is not None:
            break
    else:
        raise ImportError(f"the MLE fit needs scipy>=1.15: no compiled {_KERNEL} found")
    kernel = importlib.util.module_from_spec(spec)
    sys.modules[_KERNEL] = kernel
    try:
        spec.loader.exec_module(kernel)
    except BaseException:
        sys.modules.pop(_KERNEL, None)
        raise
    return kernel


@functools.cache
def _scipy_blas_threads(path):
    """The (get, set) thread-count calls of the OpenBLAS scipy bundles, found
    through the kernel's library handle; None for a kernel with no file, a
    non-wheel scipy or MKL, whose fits run on the threads their BLAS picks."""
    if not path:
        return None
    import ctypes
    try:
        lib = ctypes.CDLL(path)
        get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _OneBlasThread:
    """scipy's OpenBLAS on one thread inside the block, its count restored
    after: ``setulb`` would wake a second thread to spin on work too small to
    share.  The iterates do not depend on the thread count.  The count is
    process-wide, so fits run from several threads at once may leave it at 1."""

    def __init__(self, kernel):
        self.threads = _scipy_blas_threads(getattr(kernel, "__file__", None))

    def __enter__(self):
        if self.threads:
            self.before = self.threads[0]()
            self.threads[1](1)

    def __exit__(self, *exc):
        if self.threads:
            self.threads[1](self.before)


class _StackFit(NamedTuple):
    """Row r of every field is the fit of count row r."""

    rho: np.ndarray                     # (k, d, d)
    log_likelihood: np.ndarray          # (k,)
    iterations: np.ndarray              # (k,)
    converged: np.ndarray               # (k,)
    traces: tuple[tuple[float, ...], ...]
    errors: tuple[LikelihoodDecreasedError | None, ...]


def _fit_stack(projectors, observed, exposures, init_rho, tol, max_iter) -> _StackFit:
    """L-BFGS-B on each row of ``observed`` (k, S), all rows in lockstep.

    ``init_rho`` is one start for every row, (d, d), or one per row, (k, d, d).
    The loop is scipy's ``_minimize_lbfgsb`` (one iteration per NEW_X, the
    max_iter and maxfun stops, ``converged`` only on CONVERGENCE), run for
    every row at once; each FG request is evaluated once, when setulb asks,
    x0's first, which opens the row's likelihood trace.  scipy's function
    memo neither evaluates nor counts a request at the x it last evaluated,
    so the maxfun count matches scipy's only while setulb never asks twice
    in a row at the same x (a line-search step that rounds back onto the
    iterate would); f and g match regardless.  A row whose accepted step
    lowers the likelihood stops with its error stored; the others go on.
    """
    kernel = _lbfgsb_kernel()
    setulb = kernel.setulb

    k, d = observed.shape[0], projectors.shape[1]
    n, m = d * d, _LBFGS_M
    objective = _NegLogLikelihoods(projectors, observed, exposures)
    # setulb takes each row of x as a contiguous buffer
    x = np.ascontiguousarray(objective.pack(np.broadcast_to(_initial_t(init_rho, d), (k, d, d))))
    g = np.zeros((k, n))
    no_bounds, nbd = np.zeros(n), np.zeros(n, dtype=np.int32)
    wa = np.zeros((k, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((k, 3 * n), dtype=np.int32)
    task, ln_task = np.zeros((k, 2), dtype=np.int32), np.zeros((k, 2), dtype=np.int32)
    lsave, isave = np.zeros((k, 4), dtype=np.int32), np.zeros((k, 44), dtype=np.int32)
    dsave = np.zeros((k, 29))
    factr = tol / np.finfo(float).eps
    iterations, evaluations = [0] * k, [0] * k
    f, traces, errors = [0.0] * k, [[] for _ in range(k)], [None] * k
    # setulb's arguments per row, f at slot 5; the arrays are row views
    args = [[m, x[r], no_bounds, no_bounds, nbd, 0.0, g[r], factr, _LBFGS_PGTOL, wa[r],
             iwa[r], task[r], lsave[r], isave[r], dsave[r], _LBFGS_MAXLS, ln_task[r]]
            for r in range(k)]

    with _warnings.catch_warnings(), _OneBlasThread(kernel):
        _warnings.simplefilter("ignore", RuntimeWarning)
        active = range(k)
        while active:
            wanted = []
            for r in active:
                row_args, row_task = args[r], args[r][11]
                row_args[5] = f[r]
                while True:
                    setulb(*row_args)
                    code = row_task.item(0)
                    if code == _FG:
                        wanted.append(r)
                        break
                    if code != _NEW_X:
                        break
                    iterations[r] += 1
                    # the line search ends on an evaluation at the accepted x
                    ll, prev = -f[r], traces[r][-1]
                    if not ll >= prev - TRACE_RTOL * (1.0 + abs(prev)):   # NaN fails too
                        errors[r] = LikelihoodDecreasedError(
                            f"likelihood decreased across an accepted step: "
                            f"{prev!r} -> {ll!r}")
                        break
                    traces[r].append(ll)
                    if iterations[r] >= max_iter:
                        row_task[:] = (_STOP, 504)
                    elif evaluations[r] > _LBFGS_MAXFUN:
                        row_task[:] = (_STOP, 502)
            active = wanted
            if wanted:
                values, g[wanted] = objective(x[wanted], wanted)
                for r, value in zip(wanted, values.tolist()):
                    f[r] = value
                    if not evaluations[r]:   # START's request, at x0, opens the trace
                        traces[r].append(-value)
                    evaluations[r] += 1

        t_mat = objective.unpack(x)
        a_mat = t_mat @ t_mat.conj().transpose(0, 2, 1)
        a_mat = (a_mat + a_mat.conj().transpose(0, 2, 1)) / 2.0
        rho = a_mat / np.trace(a_mat, axis1=1, axis2=2).real[:, None, None]
    return _StackFit(rho=rho, log_likelihood=-np.array(f), iterations=np.array(iterations),
                     converged=task[:, 0] == _CONVERGENCE,
                     traces=tuple(tuple(t) for t in traces), errors=tuple(errors))


def _initial_t(init_rho: np.ndarray, d: int) -> np.ndarray:
    """The Cholesky factor of each (d, d) start, nudged off the boundary."""
    jitter = 1e-9
    mat = (init_rho + jitter * np.eye(d)) / (1.0 + jitter * d)
    return np.linalg.cholesky(mat)


def _check_stopping(tol, max_iter) -> None:
    # NaN fails the comparison; at tol >= 1 the relative-reduction test cannot
    # fail, so a fit would stop after one step and report convergence
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be positive and less than 1, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def mle_reconstruct(counts: CountsTable, tol: float = 1e-9,
                    max_iter: int = 1000) -> ReconstructionResult:
    """Maximum-likelihood state fit, physical by construction.

    ``converged`` reports whether the relative likelihood change dropped
    below ``tol`` within ``max_iter`` accepted steps; on exhaustion the best
    iterate is still returned.  All-zero tables are a flat likelihood, so
    the initial state, the maximally mixed one, comes back unchanged.  A
    likelihood decrease raises.
    """
    _check_stopping(tol, max_iter)
    projectors, observed, exposures = _aligned_projectors(counts)
    d = projectors.shape[1]
    fit = _fit_stack(projectors, observed[None], exposures, np.eye(d) / d, tol, max_iter)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    return ReconstructionResult(DensityMatrix(fit.rho[0]), float(fit.log_likelihood[0]),
                                int(fit.iterations[0]), bool(fit.converged[0]), fit.traces[0])


def _resample_stack(resamples, table: CountsTable) -> np.ndarray:
    """``resamples`` as an (R, n) float array of finite non-negative counts, R >= 2."""
    resamples = np.asarray(resamples, dtype=float)
    n = len(table.labels)
    if resamples.ndim != 2 or len(resamples) < 2 or resamples.shape[1] != n:
        raise ValueError(f"need an (R, {n}) array of resamples with R >= 2, "
                         f"got shape {resamples.shape}")
    ok = np.isfinite(resamples) & (resamples >= 0)
    if not ok.all():
        r, c = np.argwhere(~ok)[0].tolist()
        raise ValueError(f"resample {r}, column {c} ({table.labels[c]}) is "
                         f"{float(resamples[r, c])!r}, not a finite non-negative count")
    return resamples


def _spread(point: FidelityEstimate, values: np.ndarray, attempted: int) -> FidelityEstimate:
    """``point`` with the spread of ``values``, the resamples of ``attempted``
    that succeeded; with fewer than two, no sigma and the reason as a warning."""
    tally = dict(n_resamples=int(values.size), n_failed=attempted - int(values.size))
    if values.size < 2:
        return replace(point, warnings=(*point.warnings, f"only {values.size} of "
                                        f"{attempted} resamples succeeded"), **tally)
    return replace(point, sigma=float(values.std(ddof=1)), **tally)


_NO_COUNTS = FidelityEstimate(value=None, sigma=None, n_resamples=0,
                              warnings=("coincidence counts are all zero",))
_ONE_SETTING = "coincidence counts sit in one setting, so the resamples show no spread"


def monte_carlo_fidelities(tables, target: np.ndarray, resamples, tol: float = 1e-9,
                           max_iter: int = 1000) -> tuple[FidelityEstimate, ...]:
    """Refit each resample of each table, report each point fit and its spread.

    The point estimate is the base fit's fidelity; the resample mean sits
    systematically low (each resample carries the sampling noise twice) and
    centering on it would break 1-sigma coverage.  Resampled counts are
    treated as raw Poisson draws (they may exceed the recorded herald
    number; the likelihood only cares about rates).  Each refit warm-starts
    from its table's base reconstruction, which is returned as ``rho`` so
    callers need not fit the table again.  Failed refits are skipped and
    counted against their own table; when fewer than two succeed, sigma is
    None.  Counts that sit in one setting give every resample the base
    fit's optimum, so sigma is None too.  A table with no count is a flat
    likelihood: it has no value, and none of its rows is fitted.

    The tables must share labels and heralds.  ``resamples[i]`` is table
    i's (R_i, n) array of count vectors, R_i >= 2, one column per table
    row, as ``detect.poisson_resamples`` draws them.  All base fits are one
    stack and all refits one more, in blocks of at most ``MAX_STACK_ROWS``
    rows; a row takes the iterates it takes alone, so each table gets the
    estimate it gets alone.  A base fit whose likelihood decreases raises,
    the first table's first.
    """
    tables = tuple(tables)
    stacks = [_resample_stack(r, table) for table, r in zip(tables, resamples, strict=True)]
    _check_stopping(tol, max_iter)
    if not tables:
        raise ValueError("need at least one table")
    first = tables[0]
    if any(table.labels != first.labels or not np.array_equal(table.heralds, first.heralds)
           for table in tables[1:]):
        raise ValueError("tables must share labels and heralds")
    projectors, _, exposures = _aligned_projectors(first)
    d = projectors.shape[1]
    target = _unit_target(target, d)
    observed = np.array([table.coincidences for table in tables], dtype=float)
    counted = np.flatnonzero(observed.any(axis=1)).tolist()
    estimates = [_NO_COUNTS] * len(tables)
    if not counted:
        return tuple(estimates)

    base = _fit_stack(projectors, observed[counted], exposures, np.eye(d) / d, tol, max_iter)
    for error in base.errors:
        if error is not None:
            raise error
    rhos = [DensityMatrix(rho) for rho in base.rho]
    # row r of the resample stack belongs to the owner[r]-th counted table
    stack = np.concatenate([stacks[i] for i in counted])
    owner = np.repeat(np.arange(len(counted)), [len(stacks[i]) for i in counted])
    starts = np.array([rho.entries for rho in rhos])[owner]
    kept = [[] for _ in counted]
    for start in range(0, len(stack), MAX_STACK_ROWS):
        block = slice(start, start + MAX_STACK_ROWS)
        fits = _fit_stack(projectors, stack[block], exposures, starts[block], tol, max_iter)
        fitted = np.array([error is None for error in fits.errors])
        for j, values in enumerate(kept):
            values.append(_stack_fidelities(fits.rho[fitted & (owner[block] == j)], target))
    for j, i in enumerate(counted):
        point = FidelityEstimate(value=fidelity(rhos[j], target), sigma=None, n_resamples=0,
                                 rho=rhos[j])
        est = _spread(point, np.concatenate(kept[j]), len(stacks[i]))
        if np.count_nonzero(observed[i]) == 1:
            est = replace(est, sigma=None, warnings=(*est.warnings, _ONE_SETTING))
        estimates[i] = est
    return tuple(estimates)


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


@functools.lru_cache(maxsize=None)
def _w_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j in lexicographic order, the order of the visibilities;
    built once per dimension, read-only."""
    pairs = np.triu_indices(d, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


_NO_POPULATION = FidelityEstimate(value=None, sigma=None, n_resamples=0,
                                  warnings=("population counts are all zero",))
_NO_COHERENCE = "coherence counts are all zero, so the resamples show no spread"


def _w_populated(counts: np.ndarray, d: int) -> bool:
    """Whether ``counts`` hold a population count; a negative count raises."""
    if not (counts >= 0).all():
        raise ValueError("counts must be non-negative")
    # counts are non-negative, so this sum is positive when _w_estimate's is
    return bool(counts[:d].sum() > 0)


def _w_point(value, pops: np.ndarray, vis: np.ndarray) -> FidelityEstimate:
    """One table's estimate from its ``_w_estimate`` row, with its warnings."""
    i, j = _w_pairs(pops.size)
    bounds = np.sqrt(pops[i] * pops[j])
    notes = [f"visibility ({i[k]},{j[k]}) = {vis[k]:.4g} exceeds the "
             f"population bound {bounds[k]:.4g}"
             for k in np.flatnonzero(np.abs(vis) > bounds * (1.0 + W_CONSISTENCY_TOL) + 1e-12)]
    if not 0.0 <= value <= 1.0:
        notes.append(f"raw estimate {value:.4g} clipped into [0, 1]")
        value = np.clip(value, 0.0, 1.0)
    return FidelityEstimate(value=float(value), sigma=None, n_resamples=0,
                            warnings=tuple(notes))


def w_fidelity(counts, dimension: int) -> FidelityEstimate:
    """F_W = (1/d)(sum_i p_i + 2 sum_{i<j} Re rho_ij) from one count vector.

    ``counts`` holds d^2 non-negative counts in ``w_labels(dimension)``
    order.  A visibility larger in magnitude than sqrt(p_i p_j)(1 + tol) is
    physically impossible and gets a warning attached rather than silently
    entering the average; so does a raw estimate outside [0, 1], which is
    clipped.  All-zero population counts give no value.  One vector has no
    spread, so sigma is None.
    """
    d = dimension
    counts = np.asarray(counts, dtype=float)
    if d < 2 or counts.shape != (d * d,):
        raise ValueError(f"need d >= 2 and d^2 counts in w_labels(d) order, "
                         f"got d = {d} and shape {counts.shape}")
    if not _w_populated(counts, d):
        return _NO_POPULATION
    return _w_point(*_w_estimate(counts, d)[:3])


def monte_carlo_w_fidelity(table: CountsTable, dimension: int,
                           resamples: np.ndarray) -> FidelityEstimate:
    """Spread the W fidelity estimate over the table's resamples.

    The rows must be the ``w_settings(dimension)`` rows, in order, with one
    shared herald count; ``resamples`` is an (R, n) array of count
    vectors, R >= 2, one column per row, as ``detect.poisson_resamples``
    draws them.  The observed counts and their resamples are estimated as
    one stack; the observed row gives the point value and its warnings, the
    bits ``w_fidelity`` gives, and a resample fails when its population
    total is zero.  Observed populations that are all zero give no value.
    Without a coherence count every resample has V = 0 and the value 1/d,
    so its spread measures nothing and sigma is None.
    """
    resamples = _resample_stack(resamples, table)
    if (table.heralds != table.heralds[:1]).any():
        raise ValueError("rows must share one herald count for a consistent scale")
    labels, expected = table.labels, w_labels(dimension)
    if labels != expected:
        raise ValueError(f"rows must be w_labels({dimension}) in order: missing "
                         f"{sorted(set(expected) - set(labels))}, "
                         f"unexpected {sorted(set(labels) - set(expected))}")
    observed = table.coincidences.astype(float)
    if not _w_populated(observed, dimension):
        return _NO_POPULATION
    values, pops, vis, total = _w_estimate(np.concatenate((observed[None], resamples)),
                                           dimension)
    point = _w_point(values[0], pops[0], vis[0])
    est = _spread(point, np.clip(values[1:][total[1:] > 0], 0.0, 1.0), len(resamples))
    if observed[dimension:].any():
        return est
    return replace(est, sigma=None, warnings=(*est.warnings, _NO_COHERENCE))

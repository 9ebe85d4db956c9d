"""Benchmark problem adapters and their proximal operators.

Three families, each exposed through the two-block ``BlockProblem`` surface
with closed-form batch-mean gradients:

* sparse nonnegative matrix factorization:
  min ||A - XY||_F^2  s.t.  X, Y >= 0 and every column of X has at most s
  nonzeros (hard L0 constraint);
* sparse PCA: min ||A - XY||_F^2 + lam1 ||X||_1 + lam2 ||Y||_1;
* blind deconvolution: min ||Z - X (*) Y||_F^2 + lam sum log(1 + theta v^2)
  over the forward-difference entries v of the image X, with 0 <= X <= 1,
  0 <= Y <= 1, ||Y||_1 <= 1.  (*) is valid-region 2D correlation.

The factorization problems split the finite sum over the d columns of A with
F_i = d * ||A_i - X Y_i||^2 so that the component mean equals the monolithic
objective.  Blind deconvolution splits the residual grid into contiguous
tiles; the smooth edge regularizer is deterministic, so it stays outside the
finite sum as the problem's ``smooth_x`` term.
The factorization data is stored component-major, as A^T: a batch gathers
its rows (only a long batch's A_B Y_B^T, such as a full batch of 500, rounds
apart from row-major A's, in the last bits), the gradients are in Gram form,
and the objective sweeps 2r components at a time, the widest parts whose
buffer fits 4 m r temporaries.  The deconvolution oracles work one tile
window at a time, so a component costs about 1/n of a full gradient.

Matrix blocks are flattened row-major into the solver's vector view.

Defaults lam=5e-4 for deconvolution and lam1=lam2=0.1 for sparse PCA are
pragmatic choices for the bundled benchmarks, not reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlockProblem, Iterate, SmoothTerm
from .lipschitz import collatz_wielandt_bound

# ---------------------------------------------------------------------------
# Proximal operators
# ---------------------------------------------------------------------------


def prox_nonneg(v: np.ndarray) -> np.ndarray:
    """Entrywise projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def prox_l1(v: np.ndarray, tau: float) -> np.ndarray:
    """Entrywise soft threshold by tau >= 0."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def prox_l0_nonneg_columns(v: np.ndarray, s: int) -> np.ndarray:
    """Exact prox of the indicator of {columns >= 0 with at most s nonzeros}.

    Per column: clamp negatives to zero, keep the s largest remaining
    entries and zero the rest.  Ties keep the lowest row index (as a stable
    sort would), which makes the prox a deterministic single-valued map.
    """
    if s < 1:
        raise ValueError(f"sparsity level must be >= 1, got {s}")
    v = np.atleast_2d(np.asarray(v, dtype=float))
    clipped = np.maximum(v, 0.0)
    if s >= v.shape[0]:
        return clipped
    # Each column's s-th largest entry, from one partition along the rows of a
    # C-ordered (r, m) negated copy.  NaNs partition after every number.
    kth = -np.partition(np.negative(clipped.T, order="C"), s - 1, axis=1)[:, s - 1]
    keep = clipped >= kth
    nan_kth = np.isnan(kth)
    if np.count_nonzero(keep) != s * v.shape[1] or nan_kth.any():
        # Some column ties at its threshold, or has fewer than s numbers (its
        # threshold is NaN and its NaNs tie): keep what lies above the
        # threshold, then tied entries lowest row first until s are kept.
        nan = np.isnan(clipped)
        above = (clipped > kth) | (nan_kth & ~nan)
        tie = (clipped == kth) | (nan_kth & nan)
        keep = above | (tie & (np.cumsum(tie, axis=0) <= s - np.count_nonzero(above, axis=0)))
    return np.where(keep, clipped, 0.0)


def project_box_l1(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {0 <= p <= 1, sum(p) <= 1}, in closed form.

    A NaN or infinite entry gives an all-NaN output, without a warning, so an
    overflowed step is divergence.  Otherwise the clipped v if it sums to at
    most 1; else the active sum implies p <= 1, so p = max(v - t, 0), the
    simplex projection: t comes from one sort of v shifted by its maximum
    (Duchi et al., ICML 2008) and is raised until p.sum() <= 1 holds exactly.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        return np.full(v.shape, np.nan)
    p = np.clip(v, 0.0, 1.0)
    if p.sum() <= 1.0:
        return p
    w = v.ravel() - v.max()
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.flatnonzero(u * np.arange(1, u.size + 1) > css)[-1] + 1
    t = css[k - 1] / k
    p = np.maximum(w - t, 0.0)
    while (excess := p.sum() - 1.0) > 0.0:
        # Rounding left the sum above 1: shift by the mean excess, and by an ulp at least so each pass progresses.
        t += max(excess / np.count_nonzero(p), np.spacing(abs(t)))
        p = np.maximum(w - t, 0.0)
    return p.reshape(v.shape)


# ---------------------------------------------------------------------------
# Matrix factorization family (sparse NMF and sparse PCA)
# ---------------------------------------------------------------------------


def nmf_component_grads(A: np.ndarray, i: int, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of F_i = d * ||A_i - X Y_i||^2 for column i.

    grad_X = 2d (X Y_i - A_i) Y_i^T; grad_Y is zero outside column i, where
    it equals 2d X^T (X Y_i - A_i).  The d factor makes the component mean
    equal ||A - XY||_F^2.
    """
    d = A.shape[1]
    resid = X @ Y[:, i] - A[:, i]
    grad_x = 2.0 * d * np.outer(resid, Y[:, i])
    grad_y = np.zeros_like(Y)
    grad_y[:, i] = 2.0 * d * (X.T @ resid)
    return grad_x, grad_y


def _top_eigenvalue(G: np.ndarray) -> float:
    """The largest eigenvalue of the symmetric G, or inf where G is not finite
    (``eigvalsh`` raises on some such G and reads others as 0)."""
    return float(np.linalg.eigvalsh(G)[-1]) if np.isfinite(G).all() else math.inf


def _factorization_block_problem(A, r, reg_x_value, reg_y_value, prox_x, prox_y):
    m, d = A.shape
    dim_x, dim_y = m * r, r * d
    A_T = np.ascontiguousarray(A.T)

    def gather(idx, M, axis):
        # Y_B (axis 1 of Y) or A_B^T (axis 0 of A^T).  The full batch (all d
        # indices, sorted) uses M in place; a smaller one gathers.
        return M if len(idx) == d else M.take(idx, axis=axis)

    def value(idx, xv, yv):
        # (X Y_part)^T - A^T[part], never the expanded Gram form, which cancels
        # catastrophically near a fit.  A run of components is sliced, not copied.
        X_T, Y_T = np.ascontiguousarray(xv.reshape(m, r).T), yv.reshape(r, d).T
        buf, total = np.empty((min(2 * r, len(idx)), m)), 0.0
        for start in range(0, len(idx), 2 * r):
            part = idx[start:start + 2 * r]
            resid = buf[:len(part)]
            if part[-1] - part[0] == len(part) - 1:
                part = slice(part[0], part[-1] + 1)
            np.matmul(Y_T[part], X_T, out=resid)
            resid -= A_T[part]
            total += float(np.vdot(resid, resid))
        return d * total / len(idx)

    # The gradients in Gram form, a few BLAS calls per batch:
    # grad_x = (2d/b) (X (Y_B Y_B^T) - A_B Y_B^T), and grad_y in the columns B
    # is (2d/b) ((X^T X) Y_B - X^T A_B), decoded from its per-row data below.
    # Temporaries are at most m x b or m x r.
    def grad_x(idx, xv, yv):
        X = xv.reshape(m, r)
        cols, a_T = gather(idx, yv.reshape(r, d), 1), gather(idx, A_T, 0)
        g = X @ (cols @ cols.T)
        g -= a_T.T @ cols.T
        g *= 2.0 * d / len(idx)
        return g.ravel()

    # Per-row data for SAGA tables (the stored-scalar trick for linear models):
    # component i's x-gradient is 2d outer(resid_i, Y_i), kept as the row
    # (resid_i, Y_i) of m + r numbers, and its y-gradient is 2d X^T resid_i in
    # column i, kept as the r numbers X^T resid_i.
    def rows_x(idx, xv, yv):
        X = xv.reshape(m, r)
        cols, a_T = gather(idx, yv.reshape(r, d), 1), gather(idx, A_T, 0)
        rows = np.empty((len(idx), m + r))
        resid = rows[:, :m]
        np.matmul(cols.T, X.T, out=resid)
        resid -= a_T
        rows[:, m:] = cols.T
        return rows

    def rows_mean_x(idx, rows):
        g = rows[:, :m].T @ rows[:, m:]
        g *= 2.0 * d / len(idx)
        return g.ravel()

    def rows_y(idx, xv, yv):
        # The columns of (X^T X) Y_B - X^T A_B, unscaled: component i's y-gradient
        # is 2d times its row, placed in column i.
        X = xv.reshape(m, r)
        cols, a_T = gather(idx, yv.reshape(r, d), 1), gather(idx, A_T, 0)
        g = (X.T @ X) @ cols
        g -= X.T @ a_T.T
        return g.T

    def rows_mean_y(idx, rows):
        scaled = (2.0 * d / len(idx)) * rows.T
        if len(idx) == d:
            return scaled.ravel()
        g = np.zeros((r, d))
        g[:, idx] = scaled
        return g.ravel()

    def grad_y(idx, xv, yv):
        # The rows' decoding, so a SAGA table's fresh mean is the oracle's bit for bit.
        return rows_mean_y(idx, rows_y(idx, xv, yv))

    # Both hooks take the exact top eigenvalue of an r x r Gram matrix with the scale
    # folded in: one pass over the batch forms it, one application charged.
    def lip_x(xv, yv, batch):
        # The x-gradient is linear through 2 (d/b) Y_B Y_B^T, whose norm is
        # 2 (d/b) ||Y_B||^2.
        cols = gather(batch, yv.reshape(r, d), 1)
        return _top_eigenvalue((2.0 * d / len(batch)) * (cols @ cols.T)), 1

    def lip_y(xv, yv, batch):
        # Per sampled column the y-gradient acts through 2 (d/b) X^T X.
        X = xv.reshape(m, r)
        return _top_eigenvalue((2.0 * d / len(batch)) * (X.T @ X)), 1

    return BlockProblem(
        n=d,
        dim_x=dim_x,
        dim_y=dim_y,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        reg_x_value=reg_x_value,
        reg_y_value=reg_y_value,
        prox_x=prox_x,
        prox_y=prox_y,
        lipschitz_x=lip_x,
        lipschitz_y=lip_y,
        rows_x=rows_x,
        rows_mean_x=rows_mean_x,
        row_dim_x=m + r,
        rows_y=rows_y,
        rows_mean_y=rows_mean_y,
        row_dim_y=r,
    )


@dataclass(frozen=True)
class SparseNmfProblem:
    """||A - XY||_F^2 with X, Y >= 0 and s-sparse columns of X."""

    A: np.ndarray
    r: int
    s: int

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        m, d = self.A.shape
        if not 1 <= self.s <= m:
            raise ValueError(f"sparsity must satisfy 1 <= s <= {m}, got {self.s}")
        if not 1 <= self.r <= d:
            raise ValueError(f"rank must satisfy 1 <= r <= {d}, got {self.r}")

    def block_problem(self) -> BlockProblem:
        m, d = self.A.shape
        r, s = self.r, self.s

        def reg_x(xv):
            X = xv.reshape(m, r)
            feasible = np.all(X >= 0) and np.all(np.count_nonzero(X, axis=0) <= s)
            return 0.0 if feasible else float("inf")

        def reg_y(yv):
            return 0.0 if np.all(yv >= 0) else float("inf")

        # An overflowed step gives an all-NaN factor, as BID's proxes do, so the
        # iterate guard reports it where the proxes would set it to 0.  They can lose
        # only NaN and -inf entries, and the minimum is NaN or -inf when one is there
        # (one reduction, cheaper than an isfinite mask); +inf entries survive both.
        def px(_gamma, xv):
            if not math.isfinite(xv.min()):
                return np.full(xv.shape, np.nan)
            return prox_l0_nonneg_columns(xv.reshape(m, r), s).ravel()

        def py(_gamma, yv):
            return prox_nonneg(yv) if math.isfinite(yv.min()) else np.full(yv.shape, np.nan)

        return _factorization_block_problem(self.A, r, reg_x, reg_y, px, py)

    def initial_iterate(self, seed: int = 0) -> Iterate:
        m, d = self.A.shape
        rng = np.random.default_rng(seed)
        scale = math.sqrt(max(self.A.mean(), 1e-12) / self.r)
        X = scale * rng.random((m, self.r))
        Y = scale * rng.random((self.r, d))
        X = prox_l0_nonneg_columns(X, self.s)
        return Iterate(X.ravel(), Y.ravel())


@dataclass(frozen=True)
class SparsePcaProblem:
    """||A - XY||_F^2 + lam1 ||X||_1 + lam2 ||Y||_1."""

    A: np.ndarray
    r: int
    lam1: float = 0.1
    lam2: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError("l1 weights must be nonnegative")
        if not 1 <= self.r <= self.A.shape[1]:
            raise ValueError(f"rank must satisfy 1 <= r <= {self.A.shape[1]}, got {self.r}")

    def block_problem(self) -> BlockProblem:
        lam1, lam2 = self.lam1, self.lam2

        def reg_x(xv):
            return lam1 * float(np.abs(xv).sum())

        def reg_y(yv):
            return lam2 * float(np.abs(yv).sum())

        def px(gamma, xv):
            return prox_l1(xv, gamma * lam1)

        def py(gamma, yv):
            return prox_l1(yv, gamma * lam2)

        return _factorization_block_problem(self.A, self.r, reg_x, reg_y, px, py)

    def initial_iterate(self, seed: int = 0) -> Iterate:
        m, d = self.A.shape
        rng = np.random.default_rng(seed)
        scale = math.sqrt(max(np.abs(self.A).mean(), 1e-12) / self.r)
        X = scale * rng.standard_normal((m, self.r))
        Y = scale * rng.standard_normal((self.r, d))
        return Iterate(X.ravel(), Y.ravel())


# ---------------------------------------------------------------------------
# Blind deconvolution
# ---------------------------------------------------------------------------


def _output_shape(image_shape: tuple[int, int], kernel_shape: tuple[int, int]) -> tuple[int, int]:
    """Shape of the valid correlation of an image with a kernel."""
    (h, w), (kh, kw) = image_shape, kernel_shape
    if kh > h or kw > w:
        raise ValueError(f"kernel {tuple(kernel_shape)} larger than image {tuple(image_shape)}")
    return h - kh + 1, w - kw + 1


def _strided(X: np.ndarray, shape: tuple[int, ...], steps: tuple[int, ...], offset: int = 0) -> np.ndarray:
    """View of C-contiguous X, read through ``steps`` (in elements) from element ``offset``.

    One ``np.ndarray(buffer=...)`` call: the view ``as_strided`` builds, at a
    fraction of its per-call overhead.
    """
    step = X.itemsize
    return np.ndarray(shape, X.dtype, buffer=X, offset=offset * step, strides=tuple(s * step for s in steps))


def _window_view(X: np.ndarray, kernel_shape: tuple[int, int]) -> np.ndarray:
    """Read-only view of X's kernel-sized windows, shape (out_h, out_w, kh, kw).

    The windows ``sliding_window_view`` gives, without its validation
    overhead.  A non-contiguous X is copied once, and the view reads the copy.
    """
    shape = _output_shape(X.shape, kernel_shape) + tuple(kernel_shape)
    X = np.ascontiguousarray(X)
    view = _strided(X, shape, (X.shape[1], 1) * 2)
    view.flags.writeable = False
    return view


# Output columns per matrix product in ``bid_forward``.  Every tile-window
# correlation of the bundled benchmarks fits in one block.
_COLUMN_BLOCK = 32


def _toeplitz(Y: np.ndarray, ncols: int) -> np.ndarray:
    """Banded Toeplitz factor T of the correlation with Y over ``ncols`` output columns.

    T has shape (kh * (ncols + kw - 1), ncols) with
    T[a * (ncols + kw - 1) + j + b, j] = Y[a, b] and zeros elsewhere.  In
    T's flat layout these entries sit at fixed strides in a, b and j, so one
    strided view writes them all.
    """
    kh, kw = Y.shape
    width = ncols + kw - 1
    toeplitz = np.zeros((kh * width, ncols))
    _strided(toeplitz, (kh, kw, ncols), (width * ncols, ncols, ncols + 1))[...] = Y[:, :, None]
    return toeplitz


def _stacked_rows(X: np.ndarray, start: int, width: int, kh: int) -> np.ndarray:
    """S of ``bid_forward``'s column block of ``width`` input columns from ``start``.

    Row p of S is X[p:p + kh, start:start + width] laid end to end.  For
    C-contiguous X, S is a strided view of X, reshaped: a copy, unless the
    block spans X's rows, when the product gets the overlapping rows as they
    are.  Otherwise S is a C-ordered copy, read from a contiguous copy of the
    block's columns, which is freed before the caller builds T.
    """
    oh = X.shape[0] - kh + 1
    if X.flags.c_contiguous:
        row = X.shape[1]
        return _strided(X, (oh, kh, width), (row, row, 1), start).reshape(oh, -1)
    cols = np.ascontiguousarray(X[:, start:start + width])
    return _strided(cols, (oh, kh, width), (width, width, 1)).copy().reshape(oh, -1)


class ToeplitzFactors:
    """The Toeplitz factors of one kernel array, each built once per block width.

    Pass one to every ``bid_forward(X, Y, factors)`` and
    ``bid_adjoint_image(U, Y, factors)`` call with the same kernel array Y,
    such as an oracle's tile windows or a Lipschitz bound's passes, and
    each factor is built once for them all.  Both functions refuse factors
    of any other array (by identity, so an equal copy is refused too).  The
    kernel's entries must not change while its factors are in use.
    """

    __slots__ = ("kernel", "_by_width", "_flipped")

    def __init__(self, kernel: np.ndarray):
        self.kernel = kernel
        self._by_width: dict[int, np.ndarray] = {}
        self._flipped: ToeplitzFactors | None = None

    def of(self, Y) -> ToeplitzFactors:
        """These factors, once checked to be Y's."""
        if self.kernel is not Y:
            raise ValueError("Toeplitz factors of another kernel array")
        return self

    def toeplitz(self, ncols: int) -> np.ndarray:
        """``_toeplitz(kernel, ncols)``, built on the first request."""
        toeplitz = self._by_width.get(ncols)
        if toeplitz is None:
            toeplitz = self._by_width[ncols] = _toeplitz(self.kernel, ncols)
        return toeplitz

    def flipped(self) -> ToeplitzFactors:
        """The factors of kernel[::-1, ::-1], the kernel of ``bid_adjoint_image``'s correlation."""
        if self._flipped is None:
            self._flipped = ToeplitzFactors(self.kernel[::-1, ::-1])
        return self._flipped


def bid_forward(X: np.ndarray, Y: np.ndarray, factors: ToeplitzFactors | None = None) -> np.ndarray:
    """Valid-region 2D correlation of image X with kernel Y.

    out[p, q] = sum_{a, b} X[p + a, q + b] Y[a, b], output shape
    (h - kh + 1, w - kw + 1).

    One matrix product per block of at most ``_COLUMN_BLOCK`` output
    columns: out[:, block] = S @ T.  Row p of S is the rows X[p:p + kh],
    restricted to the block's ncols + kw - 1 input columns and laid end to
    end (``_stacked_rows``, read through a strided ``np.ndarray`` view);
    T is ``_toeplitz(Y, ncols)``, taken from ``factors`` (Y's
    ``ToeplitzFactors``, shared by the calls that correlate with Y), so T is
    built once per block width for all of them.  T's size does not grow
    with the image width, and S holds at most min(kh, out_h) copies of the
    block's input columns, so the temporaries stay within a few copies of X.
    A single block's product is the result itself.  The products sum in
    another order than the direct sum over (a, b), so results agree with it
    to rounding, and exactly on small-integer-valued inputs.
    """
    X = np.asarray(X, dtype=float)
    factors = ToeplitzFactors(np.asarray(Y, dtype=float)) if factors is None else factors.of(Y)
    oh, ow = _output_shape(X.shape, factors.kernel.shape)
    kh, kw = factors.kernel.shape
    if ow <= _COLUMN_BLOCK:
        return _stacked_rows(X, 0, ow + kw - 1, kh) @ factors.toeplitz(ow)
    out = np.empty((oh, ow))
    for start in range(0, ow, _COLUMN_BLOCK):
        ncols = min(_COLUMN_BLOCK, ow - start)  # the last block may be narrower
        # One S at a time, freed after its product, so the blocks reuse one heap chunk.
        out[:, start:start + ncols] = _stacked_rows(X, start, ncols + kw - 1, kh) @ factors.toeplitz(ncols)
    return out


def bid_patches(X: np.ndarray, kernel_shape: tuple[int, int]) -> np.ndarray:
    """Patch matrix P of the correlation with a kernel of ``kernel_shape``.

    Row p * out_w + q holds the window X[p:p + kh, q:q + kw], so up to
    rounding bid_forward(X, W).ravel() == P @ W.ravel() and
    bid_adjoint_kernel(U, X).ravel() == P.T @ U.ravel().
    """
    kh, kw = kernel_shape
    return _window_view(np.asarray(X, dtype=float), kernel_shape).reshape(-1, kh * kw)


def bid_adjoint_image(U: np.ndarray, Y: np.ndarray, factors: ToeplitzFactors | None = None) -> np.ndarray:
    """Adjoint of X -> bid_forward(X, Y): <fwd(X,Y), U> = <X, adj(U,Y)>.

    The correlation with the flipped kernel Y[::-1, ::-1].  ``factors`` is
    Y's ``ToeplitzFactors``, as for ``bid_forward``; the flipped kernel's
    factors are kept in it, so one object serves both directions.
    """
    flipped = (ToeplitzFactors(Y) if factors is None else factors.of(Y)).flipped()
    (h, w), (kh, kw) = np.shape(U), Y.shape
    padded = np.zeros((h + 2 * (kh - 1), w + 2 * (kw - 1)))
    padded[kh - 1:kh - 1 + h, kw - 1:kw - 1 + w] = U
    return bid_forward(padded, flipped.kernel, flipped)


def bid_adjoint_kernel(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Adjoint of Y -> bid_forward(X, Y); correlation of X with U."""
    return bid_forward(X, U)


def image_gradients(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences (horizontal, vertical) with zero boundary rows."""
    dh = np.zeros_like(X)
    dh[:, :-1] = X[:, 1:] - X[:, :-1]
    dv = np.zeros_like(X)
    dv[:-1, :] = X[1:, :] - X[:-1, :]
    return dh, dv


def image_gradients_adjoint(Wh: np.ndarray, Wv: np.ndarray) -> np.ndarray:
    """Adjoint of ``image_gradients`` (negative discrete divergence)."""
    out = np.zeros_like(Wh)
    out[:, 1:] += Wh[:, :-1]
    out[:, :-1] -= Wh[:, :-1]
    out[1:, :] += Wv[:-1, :]
    out[:-1, :] -= Wv[:-1, :]
    return out


def bid_component_split(shape: tuple[int, int], n_blocks: int) -> list[tuple[slice, slice]]:
    """Partition a residual grid into n_blocks contiguous tiles.

    The grid is cut into a tr x tc layout where tr is the divisor of
    n_blocks closest to its square root; rows/cols are split as evenly as
    possible.  Tiles cover the grid exactly once.
    """
    h, w = shape
    if n_blocks < 1 or n_blocks > h * w:
        raise ValueError(f"need 1 <= n_blocks <= {h * w}, got {n_blocks}")
    tr = max(t for t in range(1, int(math.isqrt(n_blocks)) + 1) if n_blocks % t == 0)
    tc = n_blocks // tr
    if tr > h or tc > w:  # fall back to whichever orientation fits
        tr, tc = tc, tr
    if tr > h or tc > w:
        raise ValueError(f"cannot tile {shape} into {n_blocks} contiguous blocks")
    row_edges = np.linspace(0, h, tr + 1, dtype=int)
    col_edges = np.linspace(0, w, tc + 1, dtype=int)
    tiles = []
    for i in range(tr):
        for j in range(tc):
            tiles.append((slice(row_edges[i], row_edges[i + 1]), slice(col_edges[j], col_edges[j + 1])))
    return tiles


def bid_potential(v: np.ndarray, theta: float) -> np.ndarray:
    """Edge-preserving potential log(1 + theta v^2), applied entrywise."""
    return np.log1p(theta * v * v)


def bid_potential_deriv(v: np.ndarray, theta: float) -> np.ndarray:
    """Derivative 2 theta v / (1 + theta v^2)."""
    return 2.0 * theta * v / (1.0 + theta * v * v)


def bid_grads(
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    lam: float,
    theta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Full gradients of ||Z - X (*) Y||_F^2 + lam sum Phi(D(X))."""
    resid = bid_forward(X, Y) - Z
    grad_x = 2.0 * bid_adjoint_image(resid, Y)
    dh, dv = image_gradients(X)
    grad_x += lam * image_gradients_adjoint(
        bid_potential_deriv(dh, theta), bid_potential_deriv(dv, theta)
    )
    grad_y = 2.0 * bid_adjoint_kernel(resid, X)
    return grad_x, grad_y


# Collatz-Wielandt passes of the BID Lipschitz draws below the full batch (x) and at
# every batch size (y), fixed rule constants.  Measured against the dense eigvalsh
# top eigenvalue at bid-medium's shape (9x9 kernel, 16 tiles) at z0 and after PALM,
# SGD and SAGA runs: the y-bound from 2 passes is 1.0027-1.0033x at the full batch
# and at most 1.011x on every b = 1 window (median 1.001x); the x-bound's data term
# from 4 passes is at most 1.0047x at b = 1.
X_BOUND_PASSES = 4
Y_BOUND_PASSES = 2


@dataclass(frozen=True)
class BlindDeblurProblem:
    """Recover image X and kernel Y from the blurred observation Z.

    Z has shape (h, w); the image variable has shape (h + kh - 1, w + kw - 1)
    so the valid correlation matches Z exactly.  The residual grid is split
    into ``n_tiles`` components, each the data term of one tile; the smooth
    edge regularizer is the deterministic ``smooth_x`` term, outside the
    finite sum, and its curvature is added to the x-hook's value.  A SAGA x-row
    is the tile's residual, zero-padded to the largest tile, followed by the
    kernel at the visit: max tile area + kh * kw numbers.
    """

    Z: np.ndarray
    kernel_shape: tuple[int, int]
    lam: float = 5e-4
    theta: float = 1e3
    n_tiles: int = 16

    def __post_init__(self):
        object.__setattr__(self, "Z", np.asarray(self.Z, dtype=float))
        kh, kw = self.kernel_shape
        if kh < 1 or kw < 1:
            raise ValueError("kernel must be at least 1x1")
        if self.lam <= 0 or self.theta <= 0:
            raise ValueError("lam and theta must be positive")

    @property
    def image_shape(self) -> tuple[int, int]:
        kh, kw = self.kernel_shape
        return self.Z.shape[0] + kh - 1, self.Z.shape[1] + kw - 1

    def block_problem(self) -> BlockProblem:
        Z, lam, theta = self.Z, self.lam, self.theta
        kh, kw = self.kernel_shape
        hx, wx = self.image_shape
        tiles = bid_component_split(Z.shape, self.n_tiles)
        n = len(tiles)
        # Tile i's residual needs only its image window: the tile grown by the kernel.
        windows = [(slice(rs.start, rs.stop + kh - 1), slice(cs.start, cs.stop + kw - 1)) for rs, cs in tiles]

        def reg_value(xv):
            dh, dv = image_gradients(xv.reshape(hx, wx))
            return lam * float(bid_potential(dh, theta).sum() + bid_potential(dv, theta).sum())

        def reg_grad(xv):
            dh, dv = image_gradients(xv.reshape(hx, wx))
            g = image_gradients_adjoint(bid_potential_deriv(dh, theta), bid_potential_deriv(dv, theta))
            return (lam * g).ravel()

        # One oracle call correlates all its windows with one kernel, so it builds the
        # kernel's Toeplitz factors once and shares them (``ToeplitzFactors``).
        def tile_residuals(idx, X, Y, factors=None):
            factors = ToeplitzFactors(Y) if factors is None else factors
            for i in idx:
                yield windows[i], bid_forward(X[windows[i]], Y, factors) - Z[tiles[i]]

        def scatter_adjoints(parts, scale, factors=None):
            # scale * the sum of the image adjoints of (window, residual, kernel) parts,
            # each added into its window; ``factors`` is the kernel's when every part
            # has the same kernel.
            g = np.zeros((hx, wx))
            for window, resid, Y in parts:
                g[window] += bid_adjoint_image(resid, Y, factors)
            g *= scale
            return g.ravel()

        def value(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            total = sum(float((resid * resid).sum()) for _w, resid in tile_residuals(idx, X, Y))
            return n * total / len(idx)

        def grad_x(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            factors = ToeplitzFactors(Y)
            parts = ((window, resid, Y) for window, resid in tile_residuals(idx, X, Y, factors))
            return scatter_adjoints(parts, 2.0 * n / len(idx), factors)

        # Per-row data for SAGA x-tables: tile i's x-gradient is 2n adj(resid_i, Y),
        # kept as resid_i (zero-padded to the largest tile) and the kernel Y, so a
        # row holds a tile and a kernel instead of the image.
        tile_shapes = [(rs.stop - rs.start, cs.stop - cs.start) for rs, cs in tiles]
        areas = [th * tw for th, tw in tile_shapes]
        width = max(areas)

        def rows_x(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            rows = np.zeros((len(idx), width + kh * kw))
            for row, (_window, resid) in zip(rows, tile_residuals(idx, X, Y)):
                row[:resid.size] = resid.ravel()
            rows[:, width:] = yv
            return rows

        def rows_mean_x(idx, rows):
            # A row with an all-zero kernel (a tile not visited yet) adds an exact zero: skip it.
            parts = ((windows[i], row[:areas[i]].reshape(tile_shapes[i]), row[width:].reshape(kh, kw))
                     for i, row in zip(idx, rows) if row[width:].any())
            return scatter_adjoints(parts, 2.0 * n / len(idx))

        def grad_y(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            g = np.zeros((kh, kw))
            for window, resid in tile_residuals(idx, X, Y):
                g += bid_adjoint_kernel(resid, X[window])
            g *= 2.0 * n / len(idx)
            return g.ravel()

        def reg_x(xv):
            return 0.0 if np.all(xv >= 0) and np.all(xv <= 1) else float("inf")

        def reg_y(yv):
            feasible = np.all(yv >= 0) and np.all(yv <= 1) and yv.sum() <= 1.0
            return 0.0 if feasible else float("inf")

        def px(_gamma, xv):
            # Like the kernel projection, a non-finite entry gives an all-NaN image.
            return np.clip(xv, 0.0, 1.0) if np.isfinite(xv).all() else np.full(xv.shape, np.nan)

        def py(_gamma, yv):
            return project_box_l1(yv.reshape(kh, kw)).ravel()

        # The Lipschitz hooks bound the top eigenvalue of M_B^T M_B for the sampled tiles'
        # residual map M_B.  The tiles partition the residual grid, so on the full batch
        # (all n tiles) the x-operator is 2 M^T M for the valid correlation M with Y, and
        # Young's inequality gives ||M|| <= ||Y||_1: the x-hook returns that bound in
        # closed form, with no correlation.  Below the full batch it is loose against the
        # sampled windows' curvature, so the x-hook, like the y-hook at every batch size,
        # takes the Collatz-Wielandt bound of a nonnegative operator: M_B with its data
        # taken as |.| (|Y| for x, the windows of |X| for y) majorizes M_B entrywise, so
        # ||M_B|| <= || |M_B| || and |M_B|^T |M_B| is nonnegative and symmetric.
        # Either x-value adds the smooth_x term's curvature: Phi'' <= 2 theta,
        # ||D^T D|| <= 8.
        edge_curvature = 16.0 * lam * theta

        def lip_x(xv, yv, batch):
            if len(batch) == n:
                return 2.0 * float(np.abs(yv).sum()) ** 2 + edge_curvature, 0
            # Applied window by window, like the oracles, so no correlation is larger than
            # a padded tile window; overlapping windows accumulate.  The operator vanishes
            # outside the sampled windows, so it acts on their bounding box alone: for
            # b = 1 the box is the window itself.
            Y = np.abs(yv.reshape(kh, kw))
            rows, cols = [windows[j][0] for j in batch], [windows[j][1] for j in batch]
            top, left = min(rs.start for rs in rows), min(cs.start for cs in cols)
            box = (max(rs.stop for rs in rows) - top, max(cs.stop for cs in cols) - left)
            sampled = [(slice(rs.start - top, rs.stop - top), slice(cs.start - left, cs.stop - left))
                       for rs, cs in zip(rows, cols)]
            scale = 2.0 * n / len(batch)
            factors = ToeplitzFactors(Y)  # built once per draw

            def apply(v):
                V, g = v.reshape(box), np.zeros(box)
                for window in sampled:
                    g[window] += bid_adjoint_image(bid_forward(V[window], Y, factors), Y, factors)
                g *= scale
                return g.ravel()

            bound, applied = collatz_wielandt_bound(apply, box[0] * box[1], X_BOUND_PASSES)
            return bound + edge_curvature, applied

        # On the kernel, tile j's residual map is its window's patch matrix P_j, so the
        # y-operator is (2n/b) sum_j P_j^T P_j, applied as two window correlations per
        # sampled tile with the window's |X|: P_j v correlates the window with the kernel
        # v, and P_j^T u is the window correlated with u.
        def lip_y(xv, yv, batch):
            X = xv.reshape(hx, wx)
            sampled, scale = [np.abs(X[windows[j]]) for j in batch], 2.0 * n / len(batch)

            def apply(v):
                V, g = v.reshape(kh, kw), np.zeros((kh, kw))
                factors = ToeplitzFactors(V)  # shared by the windows
                for patch in sampled:
                    g += bid_adjoint_kernel(bid_forward(patch, V, factors), patch)
                g *= scale
                return g.ravel()

            return collatz_wielandt_bound(apply, kh * kw, Y_BOUND_PASSES)

        return BlockProblem(
            n=n,
            dim_x=hx * wx,
            dim_y=kh * kw,
            value=value,
            grad_x=grad_x,
            grad_y=grad_y,
            reg_x_value=reg_x,
            reg_y_value=reg_y,
            prox_x=px,
            prox_y=py,
            lipschitz_x=lip_x,
            lipschitz_y=lip_y,
            rows_x=rows_x,
            rows_mean_x=rows_mean_x,
            row_dim_x=width + kh * kw,
            smooth_x=SmoothTerm(reg_value, reg_grad),
        )

    def initial_iterate(self) -> Iterate:
        """Blurred image padded to the image shape; uniform feasible kernel."""
        kh, kw = self.kernel_shape
        top, left = (kh - 1) // 2, (kw - 1) // 2
        X0 = np.pad(
            np.clip(self.Z, 0.0, 1.0),
            ((top, kh - 1 - top), (left, kw - 1 - left)),
            mode="edge",
        )
        # Re-project so the uniform kernel's sum is feasible in floating point.
        Y0 = project_box_l1(np.full((kh, kw), 1.0 / (kh * kw)))
        return Iterate(X0.ravel(), Y0.ravel())


# ---------------------------------------------------------------------------
# Quadratic toys (testing and calibration).
# ---------------------------------------------------------------------------


def _constant_lipschitz(lip: float):
    """A hook returning the constant ``lip`` with no operator application."""
    return lambda x, y, batch: (lip, 0)


def make_separable_quadratic(
    dim_x: int = 4,
    dim_y: int = 4,
    n: int = 10,
    seed: int = 0,
    spread: float = 1.0,
) -> tuple[BlockProblem, dict]:
    """Least-squares toy: F_i = 0.5||x - a_i||^2 + 0.5||y - b_i||^2.

    The offsets average exactly to (a, b), so the mean objective is
    0.5||x - a||^2 + 0.5||y - b||^2 plus a known constant (the minimum
    value).  Partial gradients are 1-Lipschitz.  Returned info holds the
    targets and the optimal value.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim_x)
    b = rng.standard_normal(dim_y)
    ea = rng.standard_normal((n, dim_x)) * spread
    eb = rng.standard_normal((n, dim_y)) * spread
    ea -= ea.mean(axis=0)
    eb -= eb.mean(axis=0)
    a_i = a + ea
    b_i = b + eb

    def value(idx, x, y):
        dx = x - a_i[idx]
        dy = y - b_i[idx]
        return 0.5 * float((dx * dx).sum() + (dy * dy).sum()) / len(idx)

    problem = BlockProblem(
        n=n,
        dim_x=dim_x,
        dim_y=dim_y,
        value=value,
        grad_x=lambda idx, x, y: (x - a_i[idx]).mean(axis=0),
        grad_y=lambda idx, x, y: (y - b_i[idx]).mean(axis=0),
        lipschitz_x=_constant_lipschitz(1.0),
        lipschitz_y=_constant_lipschitz(1.0),
    )
    phi_star = 0.5 * float((ea * ea).sum() + (eb * eb).sum()) / n
    info = {"a": a, "b": b, "phi_star": phi_star, "a_i": a_i, "b_i": b_i, "L": 1.0}
    return problem, info


def make_random_quadratic(dim_x: int = 4, dim_y: int = 4, n: int = 5, seed: int = 0) -> tuple[BlockProblem, dict]:
    """Coupled quadratic components with known curvature.

    F_i = 0.5 x'P_i x + 0.5 y'Q_i y + x'R_i y + s_i'x + t_i'y with P_i, Q_i
    positive definite and R_i Gaussian with standard deviation 0.3.  Info
    carries the mean matrices, the exact block Lipschitz constants of the
    mean gradient, and the worst per-component full-Hessian norm (a valid
    joint Lipschitz constant).
    """
    rng = np.random.default_rng(seed)
    Ps = np.empty((n, dim_x, dim_x))
    Qs = np.empty((n, dim_y, dim_y))
    Rs = rng.standard_normal((n, dim_x, dim_y)) * 0.3
    ss = rng.standard_normal((n, dim_x))
    ts = rng.standard_normal((n, dim_y))
    for i in range(n):
        Bx = rng.standard_normal((dim_x, dim_x))
        By = rng.standard_normal((dim_y, dim_y))
        Ps[i] = Bx.T @ Bx / dim_x + 0.5 * np.eye(dim_x)
        Qs[i] = By.T @ By / dim_y + 0.5 * np.eye(dim_y)

    def value(idx, x, y):
        quad = 0.5 * (Ps[idx] @ x) @ x + 0.5 * (Qs[idx] @ y) @ y + (Rs[idx] @ y) @ x
        return float(np.mean(quad + ss[idx] @ x + ts[idx] @ y))

    P_bar, Q_bar, R_bar = Ps.mean(axis=0), Qs.mean(axis=0), Rs.mean(axis=0)
    lip_x_exact = float(np.linalg.norm(P_bar, 2))
    lip_y_exact = float(np.linalg.norm(Q_bar, 2))
    worst_joint = 0.0
    for i in range(n):
        H = np.block([[Ps[i], Rs[i]], [Rs[i].T, Qs[i]]])
        worst_joint = max(worst_joint, float(np.linalg.norm(H, 2)))

    problem = BlockProblem(
        n=n,
        dim_x=dim_x,
        dim_y=dim_y,
        value=value,
        grad_x=lambda idx, x, y: (Ps[idx] @ x + Rs[idx] @ y + ss[idx]).mean(axis=0),
        grad_y=lambda idx, x, y: (Qs[idx] @ y + x @ Rs[idx] + ts[idx]).mean(axis=0),
        lipschitz_x=_constant_lipschitz(lip_x_exact),
        lipschitz_y=_constant_lipschitz(lip_y_exact),
    )
    info = {
        "P": Ps, "Q": Qs, "R": Rs, "s": ss, "t": ts,
        "P_bar": P_bar, "Q_bar": Q_bar, "R_bar": R_bar,
        "lip_x": lip_x_exact, "lip_y": lip_y_exact, "L_joint": worst_joint,
    }
    return problem, info

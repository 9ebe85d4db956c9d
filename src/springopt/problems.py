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
buffer fits 4 m r temporaries.  The deconvolution oracles correlate a list of
regions: below the full batch each sampled tile's image window, so a
component costs about 1/n of a full gradient; the full batch's tiles
partition the residual grid, so its one region is the whole image.

Matrix blocks are flattened row-major into the solver's vector view.

Defaults lam=5e-4 for deconvolution and lam1=lam2=0.1 for sparse PCA are
pragmatic choices for the bundled benchmarks, not reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    sort would), which makes the prox a deterministic single-valued map.  A
    matrix's columns are its columns; a vector is one column, and comes back
    a vector.
    """
    if s < 1:
        raise ValueError(f"sparsity level must be >= 1, got {s}")
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return prox_l0_nonneg_columns(v[:, None], s)[:, 0]
    if v.ndim != 2:
        raise ValueError(f"the L0 prox takes a vector or a matrix, got {v.ndim} dimensions")
    clipped = np.maximum(v, 0.0)
    m, r = v.shape
    if s >= m:
        return clipped
    # Each column's s-th largest entry, from one in-place partition along the rows of
    # a C-ordered (r, m) negated copy.  NaNs partition after every number.
    neg = np.negative(clipped.T, order="C")
    neg.partition(s - 1, axis=1)
    kth = -neg[:, s - 1]
    keep = clipped >= kth
    # The thresholds lie in [0, inf], so their sum is NaN exactly when one is NaN.
    if np.add.reduce(keep, axis=None) != s * r or math.isnan(np.add.reduce(kth)):
        # Some column ties at its threshold, or has fewer than s numbers (its
        # threshold is NaN and its NaNs tie): keep what lies above the
        # threshold, then tied entries lowest row first until s are kept.
        nan, nan_kth = np.isnan(clipped), np.isnan(kth)
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


# The LAPACK gufunc that ``np.linalg.eigvalsh`` calls on float64 input, without the
# wrapper's type dispatch and ``errstate`` context: the same values, bit for bit.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


def _top_eigenvalue(G: np.ndarray) -> float:
    """The largest eigenvalue of the symmetric float64 G, or inf where G is not
    finite (``eigvalsh`` raises on some such G and reads others as 0).

    Where LAPACK does not converge the value is NaN, which ``eigvalsh`` would
    raise as ``LinAlgError``; the solver's draw reports it as divergence, as
    it does an inf.
    """
    if np.logical_and.reduce(np.isfinite(G), axis=None):
        return float(_eigvalsh_lo(G, signature="d->d")[-1])
    return math.inf


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
        # (one reduction, cheaper than an isfinite mask; ``ndarray.min`` is a Python
        # wrapper around it); +inf entries survive both.
        def px(_gamma, xv):
            if not math.isfinite(np.minimum.reduce(xv)):
                return np.full(xv.shape, np.nan)
            return prox_l0_nonneg_columns(xv.reshape(m, r), s).ravel()

        def py(_gamma, yv):
            return prox_nonneg(yv) if math.isfinite(np.minimum.reduce(yv)) else np.full(yv.shape, np.nan)

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


def _strided(X: np.ndarray, shape: tuple[int, ...], steps: tuple[int, ...]) -> np.ndarray:
    """View of C-contiguous X, read through ``steps`` (in elements) from its first element.

    One ``np.ndarray(buffer=...)`` call, its arguments positional: the view
    ``as_strided`` builds, at a fraction of its per-call overhead.
    """
    step = X.itemsize
    return np.ndarray(shape, X.dtype, X, 0, [s * step for s in steps])


# Output rows and columns per matrix product in ``bid_forward``: a tile window of
# the bundled benchmarks (at most 22 x 22 outputs) is one block, and an image's
# blocks keep S and T at one size at every image size.  From 28 rows, bid-medium's
# full-batch grad_x would exceed the peak tests/test_peak_memory.py holds.
_BLOCK = 24
# Columns of U per matrix product in ``bid_kernel_gradient``.  Its product has
# kh * (block + kw - 1) rows, of which kh * kw per column are summed, so it is
# narrower.
_KERNEL_BLOCK = 16


def _diagonals(A: np.ndarray, kernel_shape: tuple[int, int], ncols: int) -> np.ndarray:
    """The (kh, kw, ncols) view of the entries A[a * width + j + b, j], width = ncols + kw - 1.

    A is C-contiguous with the flat layout of a (kh * width, ncols) array: a
    Toeplitz factor, whose entries these are, or ``bid_kernel_gradient``'s
    product M, whose diagonals it sums.  They sit at fixed strides in a, b
    and j, so one strided view reads or writes them all.
    """
    kh, kw = kernel_shape
    width = ncols + kw - 1
    return _strided(A, (kh, kw, ncols), (width * ncols, ncols, ncols + 1))


def _toeplitz(Y: np.ndarray, ncols: int) -> np.ndarray:
    """Banded Toeplitz factor T of the correlation with Y over ``ncols`` output columns.

    T has shape (kh * (ncols + kw - 1), ncols) with
    T[a * (ncols + kw - 1) + j + b, j] = Y[a, b] and zeros elsewhere, written
    through one ``_diagonals`` view.
    """
    kh, kw = Y.shape
    toeplitz = np.zeros((kh * (ncols + kw - 1), ncols))
    _diagonals(toeplitz, Y.shape, ncols)[...] = Y[:, :, None]
    return toeplitz


class ToeplitzFactors:
    """The Toeplitz factors of one kernel array, each built once per block width.

    Pass one to every ``bid_forward(X, Y, factors)`` and
    ``bid_adjoint_image(U, Y, factors)`` call with the same kernel array Y,
    such as an oracle's regions or a Lipschitz bound's passes, and
    each factor is built once for them all.  Both functions refuse factors
    of any other array (by identity, so an equal copy is refused too).  When
    the kernel's entries change in place, ``refresh`` rewrites the factors
    built so far before they are used again.
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

    def refresh(self) -> None:
        """Rewrite the factors built so far from the kernel's current entries.

        A factor's zeros do not depend on the kernel, so each takes one
        strided write of the kernel, and holds what a new build would.
        """
        kernel = self.kernel[:, :, None]
        for ncols, toeplitz in self._by_width.items():
            _diagonals(toeplitz, self.kernel.shape, ncols)[...] = kernel
        if self._flipped is not None:
            self._flipped.refresh()


class _Correlation:
    """``bid_forward(X, factors.kernel)`` into ``out``, set up once and run as often as X changes.

    X is C-contiguous float.  The set-up is the strided view of X that
    ``bid_forward``'s blocks stack their rows from, reshaped once when one
    block spans X's rows; each call makes the blocks' products from X's and
    the factors' current entries, so a caller that rewrites X in place (or
    the kernel, then ``factors.refresh()``) runs it again with nothing set
    up again.
    """

    __slots__ = ("image", "factors", "out", "_bands")

    def __init__(self, X: np.ndarray, factors: ToeplitzFactors, out: np.ndarray):
        self.image, self.factors, self.out = X, factors, out
        (oh, ow), kh, w = out.shape, factors.kernel.shape[0], X.shape[1]
        self._bands = _strided(X, (oh, kh, w), (w, w, 1))  # bands[p, a] is X[p + a]
        if oh <= _BLOCK and ow <= _BLOCK:  # one block, whose stacked rows are a view, read overlapping
            self._bands = self._bands.reshape(oh, -1)

    def __call__(self) -> np.ndarray:
        bands, out, toeplitz = self._bands, self.out, self.factors.toeplitz
        oh, ow = out.shape
        if bands.ndim == 2:
            return np.matmul(bands, toeplitz(ow), out=out)
        kw = self.factors.kernel.shape[1]
        for start in range(0, ow, _BLOCK):
            ncols = min(_BLOCK, ow - start)  # the last block may be narrower
            for top in range(0, oh, _BLOCK):
                # One S at a time, its product written into out, so the blocks reuse one heap chunk.
                stacked = bands[top:top + _BLOCK, :, start:start + ncols + kw - 1]
                np.matmul(stacked.reshape(len(stacked), -1), toeplitz(ncols),
                          out=out[top:top + _BLOCK, start:start + ncols])
        return out


class _KernelGradient:
    """``bid_kernel_gradient(X, U)`` into ``out``, set up once and run as often as X or U change.

    X is C-contiguous float.  The set-up is, per block of at most
    ``_KERNEL_BLOCK`` columns of U, the kh strided views of X's rows that
    read S.T and the block's columns of U, with one product buffer M per
    block width and its ``_diagonals`` view; each call makes the blocks'
    products from X's and U's current entries and sums their diagonals into
    ``out``, in the blocks' order, so a caller that rewrites X or U in place
    runs it again with nothing set up again.
    """

    __slots__ = ("image", "residual", "out", "_products")

    def __init__(self, X: np.ndarray, U: np.ndarray, out: np.ndarray):
        self.image, self.residual, self.out = X, U, out
        (_h, w), (oh, ow), (kh, kw) = X.shape, U.shape, out.shape
        columns = _strided(X, (kh, w, oh), (w, 1, w))  # columns[a, c] is X[a:a + oh, c]
        sums, self._products = {}, []
        for start in range(0, ow, _KERNEL_BLOCK):
            ncols = min(_KERNEL_BLOCK, ow - start)
            if ncols not in sums:
                M = np.empty((kh, ncols + kw - 1, ncols))
                sums[ncols] = (M, _diagonals(M, (kh, kw), ncols))
            self._products.append((columns[:, start:start + ncols + kw - 1], U[:, start:start + ncols], *sums[ncols]))

    def __call__(self) -> np.ndarray:
        G = self.out
        G[...] = 0.0
        for columns, U, M, diagonals in self._products:
            np.matmul(columns, U, out=M)
            G += np.add.reduce(diagonals, axis=2)  # diagonals.sum(axis=2), without the method's wrapper
        return G


def bid_forward(X: np.ndarray, Y: np.ndarray, factors: ToeplitzFactors | None = None) -> np.ndarray:
    """Valid-region 2D correlation of image X with kernel Y.

    out[p, q] = sum_{a, b} X[p + a, q + b] Y[a, b], output shape
    (h - kh + 1, w - kw + 1).

    One matrix product per block of at most ``_BLOCK`` output rows and
    columns: out[block] = S @ T.  Row p of S is the rows X[p:p + kh] of the
    block's ncols + kw - 1 input columns laid end to end, read from one
    strided view of X (or of one contiguous copy of a non-contiguous X,
    such as a tile window) and reshaped: a copy, unless the block spans X's
    rows, when the product gets the overlapping rows as they are.  T is
    ``_toeplitz(Y, ncols)``, taken from ``factors`` (Y's
    ``ToeplitzFactors``, shared by the calls that correlate with Y); the
    products are ``_Correlation``'s.  Neither grows with the image, so the
    temporaries beyond the output (and X's copy) are the same at every image
    size.  A single block's product is written as the result itself.  The
    products sum in another order than the
    direct sum over (a, b), so results agree with it to rounding, and
    exactly on small-integer-valued inputs.
    """
    X = np.ascontiguousarray(X, dtype=float)
    factors = ToeplitzFactors(np.asarray(Y, dtype=float)) if factors is None else factors.of(Y)
    return _Correlation(X, factors, np.empty(_output_shape(X.shape, factors.kernel.shape)))()


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


def bid_kernel_gradient(X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Adjoint of Y -> bid_forward(X, Y): <bid_forward(X, Y), U> = <Y, bid_kernel_gradient(X, U)>.

    The correlation of X with U, on a tile window and on the whole image
    alike, without a Toeplitz factor of U (258 KB for a 56 x 56 residual).
    Per block of at most ``_KERNEL_BLOCK`` columns of U
    it forms M = S.T @ U[:, block], S being ``bid_forward``'s stacked rows
    of the block, and sums M's strided diagonals: G[a, b] gets
    M[a * width + j + b, j] over the block's columns j, the entries where
    ``_toeplitz`` writes Y[a, b], so this is the adjoint of that write.
    S.T is read as kh strided views of X's rows, one matrix product each in
    a single ``np.matmul``, so S is never copied and M's size does not grow
    with the image; the products are ``_KernelGradient``'s.  It agrees with
    ``bid_forward(X, U)`` to rounding.
    """
    X, U = np.ascontiguousarray(X, dtype=float), np.asarray(U, dtype=float)
    (h, w), (oh, ow) = X.shape, U.shape
    if oh > h or ow > w:
        raise ValueError(f"residual {U.shape} larger than image {X.shape}")
    return _KernelGradient(X, U, np.empty((h - oh + 1, w - ow + 1)))()


def image_gradients(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences (horizontal, vertical) with zero boundary rows."""
    dh = np.zeros_like(X)
    dh[:, :-1] = X[:, 1:] - X[:, :-1]
    dv = np.zeros_like(X)
    dv[:-1, :] = X[1:, :] - X[:-1, :]
    return dh, dv


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

    Each oracle and y-draw correlates a list of regions (an image window and
    its part of the residual grid): the sampled tiles' windows, or, on the
    full batch, whose tiles partition the grid, the whole image.  That sums
    in another order than the tiles, so a fresh SAGA x-row (one tile's)
    decodes to ``grad_x`` bit for bit below the full batch only.
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
        # A region is an image window and the part of the residual grid it yields: tile
        # i's window is the tile grown by the kernel, and the full batch's tiles
        # partition the grid, so its one region is the whole image.
        tile_regions = [((slice(rs.start, rs.stop + kh - 1), slice(cs.start, cs.stop + kw - 1)), (rs, cs))
                        for rs, cs in tiles]
        image_region = [((slice(None), slice(None)), (slice(None), slice(None)))]

        def regions(idx):
            return image_region if len(idx) == n else [tile_regions[i] for i in idx]

        def reg_value(xv):
            dh, dv = image_gradients(xv.reshape(hx, wx))
            return lam * float(bid_potential(dh, theta).sum() + bid_potential(dv, theta).sum())

        def reg_grad(xv):
            # D^T Phi'(D X), one difference direction at a time, so at most two
            # difference-sized arrays are live.  Phi'(d) = 2 theta d / (1 + theta d d) is
            # applied in place in that association order, and the differences are
            # scattered horizontal first, then vertical.
            X, g = xv.reshape(hx, wx), np.zeros((hx, wx))
            for ahead, behind in (((slice(None), slice(1, None)), (slice(None), slice(None, -1))),
                                  ((slice(1, None),), (slice(None, -1),))):
                d = X[ahead] - X[behind]
                den = theta * d
                den *= d
                den += 1.0
                d *= 2.0 * theta
                d /= den
                del den
                g[ahead] += d
                g[behind] -= d
            g *= lam
            return g.ravel()

        # The (window, residual) of each region, correlated with one kernel whose Toeplitz
        # factors are built once and freed on return, before grad_x's adjoints build the
        # flipped ones: on the full batch both would not fit in smooth_x.grad's peak.
        def residuals(regions, X, Y):
            factors = ToeplitzFactors(Y)
            return [(window, bid_forward(X[window], Y, factors) - Z[tile]) for window, tile in regions]

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
            total = sum(float(np.vdot(resid, resid)) for _w, resid in residuals(regions(idx), X, Y))
            return total * (n / len(idx))  # exactly the image's sum of squares on the full batch

        def grad_x(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            parts = ((window, resid, Y) for window, resid in residuals(regions(idx), X, Y))
            return scatter_adjoints(parts, 2.0 * n / len(idx), ToeplitzFactors(Y))

        # Per-row data for SAGA x-tables: tile i's x-gradient is 2n adj(resid_i, Y),
        # kept as resid_i (zero-padded to the largest tile) and the kernel Y, so a
        # row holds a tile and a kernel instead of the image.  A row is one tile's, so
        # rows_x takes tile regions at every batch size.
        tile_shapes = [(rs.stop - rs.start, cs.stop - cs.start) for rs, cs in tiles]
        areas = [th * tw for th, tw in tile_shapes]
        width = max(areas)

        def rows_x(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            rows = np.zeros((len(idx), width + kh * kw))
            for row, (_window, resid) in zip(rows, residuals([tile_regions[i] for i in idx], X, Y)):
                row[:resid.size] = resid.ravel()
            rows[:, width:] = yv
            return rows

        def rows_mean_x(idx, rows):
            # A row with an all-zero kernel (a tile not visited yet) adds an exact zero: skip it.
            parts = ((tile_regions[i][0], row[:areas[i]].reshape(tile_shapes[i]), row[width:].reshape(kh, kw))
                     for i, row in zip(idx, rows) if row[width:].any())
            return scatter_adjoints(parts, 2.0 * n / len(idx))

        def grad_y(idx, xv, yv):
            X, Y = xv.reshape(hx, wx), yv.reshape(kh, kw)
            factors, g = ToeplitzFactors(Y), np.zeros((kh, kw))
            for window, tile in regions(idx):
                patch = np.ascontiguousarray(X[window])  # one copy of a tile window, read by both correlations
                g += bid_kernel_gradient(patch, bid_forward(patch, Y, factors) - Z[tile])
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
            rows, cols = zip(*(tile_regions[j][0] for j in batch))
            top, left = min(rs.start for rs in rows), min(cs.start for cs in cols)
            box = (max(rs.stop for rs in rows) - top, max(cs.stop for cs in cols) - left)
            scale = 2.0 * n / len(batch)
            # Set up once per draw for all its passes: the kernel's factors and, per window
            # shape, a contiguous copy of the window, its forward correlation written into
            # the interior of a zero-padded residual whose border stays zero, and the image
            # adjoint read from that residual.  A pass only copies and multiplies.
            factors, shapes, passes = ToeplitzFactors(Y), {}, []
            for rs, cs in zip(rows, cols):
                h, w = rs.stop - rs.start, cs.stop - cs.start
                if (h, w) not in shapes:
                    window, padded = np.empty((h, w)), np.zeros((h + kh - 1, w + kw - 1))
                    shapes[h, w] = (window, _Correlation(window, factors, padded[kh - 1:h, kw - 1:w]),
                                    _Correlation(padded, factors.flipped(), np.empty((h, w))))
                passes.append(((slice(rs.start - top, rs.stop - top), slice(cs.start - left, cs.stop - left)),
                               *shapes[h, w]))

            def apply(v):
                V, g = v.reshape(box), np.zeros(box)
                for region, window, forward, adjoint in passes:
                    window[...] = V[region]
                    forward()
                    g[region] += adjoint()
                g *= scale
                return g.ravel()

            bound, applied = collatz_wielandt_bound(apply, box[0] * box[1], X_BOUND_PASSES)
            return bound + edge_curvature, applied

        # On the kernel, a region's residual map is its window's patch matrix P_j, so the
        # y-operator is (2n/b) sum_j P_j^T P_j, applied as two correlations per region
        # with the window's |X|: P_j v correlates the window with the kernel v, and
        # P_j^T u is the window correlated with u.  The full batch's one region is the
        # whole image, whose patch matrix P has P^T P = sum_j P_j^T P_j over all tiles.
        def lip_y(xv, yv, batch):
            X, scale = xv.reshape(hx, wx), 2.0 * n / len(batch)
            # Set up once per draw for all its passes: each region's window of |X| with its
            # two correlations, and the factors of one kernel array V.  A pass copies the
            # iterate into V, rewrites V's factors in place and multiplies.
            V = np.zeros((kh, kw))
            factors, passes = ToeplitzFactors(V), []
            for window, _tile in regions(batch):
                patch = np.abs(X[window])
                forward = _Correlation(patch, factors, np.empty(_output_shape(patch.shape, (kh, kw))))
                passes.append((forward, _KernelGradient(patch, forward.out, np.empty((kh, kw)))))

            def apply(v):
                V[...] = v.reshape(kh, kw)
                factors.refresh()
                g = np.zeros((kh, kw))
                for forward, gradient in passes:
                    forward()
                    g += gradient()
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

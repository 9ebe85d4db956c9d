"""Bundled synthetic datasets, generated deterministically from fixed seeds
so benchmark and acceptance runs need no downloads."""

from __future__ import annotations

import numpy as np

from ..problems import bid_forward


def toy_nmf_matrix(seed: int = 0, shape: tuple[int, int] = (50, 20), rank: int = 3) -> np.ndarray:
    """Nonnegative low-rank matrix plus clipped Gaussian noise (sigma 0.05)."""
    rng = np.random.default_rng(seed)
    m, d = shape
    U = rng.random((m, rank))
    V = rng.random((rank, d))
    A = U @ V + 0.05 * rng.standard_normal((m, d))
    return np.maximum(A, 0.0)


def toy_image(seed: int = 0, size: int = 32) -> np.ndarray:
    """Smooth synthetic grayscale image in [0, 1]: a few Gaussian bumps."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    img = np.zeros((size, size))
    for _ in range(4):
        cx, cy = rng.random(2)
        amp = 0.4 + 0.6 * rng.random()
        width = 0.05 + 0.15 * rng.random()
        img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))
    img += 0.1 * np.sin(8 * np.pi * xx) * np.sin(6 * np.pi * yy)
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo)


def toy_blurred_image(seed: int = 0, size: int = 32, kernel: int = 5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(blurred observation Z, true image, true box kernel); Z carries Gaussian noise (sigma 5e-3)."""
    rng = np.random.default_rng(seed + 1)
    x_true = toy_image(seed, size)
    y_true = np.full((kernel, kernel), 1.0 / (kernel * kernel))
    z = bid_forward(x_true, y_true) + 5e-3 * rng.standard_normal((size - kernel + 1,) * 2)
    return np.clip(z, 0.0, 1.0), x_true, y_true

"""Dense spectral bounds and seeded random problem data.

Random data uses the PCG64 bit generator for uniform draws and the
Box-Muller transform for Gaussians, so identical seeds give bit-identical
matrices on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralBounds:
    """Eigenvalue extremes of the Gram matrices of a linear map A.

    ``lmax_ata`` and ``lmin_ata`` bound the spectrum of A^T A, and
    ``lmin_aat`` is the smallest eigenvalue of A A^T.  All values are
    clamped at zero against round-off.
    """

    lmax_ata: float
    lmin_ata: float
    lmin_aat: float


def spectral_bounds(a: np.ndarray, ata: np.ndarray | None = None) -> SpectralBounds:
    """Compute spectral extremes of A^T A and A A^T by dense symmetric
    eigendecomposition; ``ata`` is A^T A when the caller already holds it."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("matrix must be nonempty and two-dimensional")
    eig_ata = np.linalg.eigvalsh(a.T @ a if ata is None else ata)
    eig_aat = np.linalg.eigvalsh(a @ a.T)
    return SpectralBounds(
        lmax_ata=max(float(eig_ata[-1]), 0.0),
        lmin_ata=max(float(eig_ata[0]), 0.0),
        lmin_aat=max(float(eig_aat[0]), 0.0),
    )


def _standard_normal(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal draws via Box-Muller from PCG64 uniforms."""
    m = (n + 1) // 2
    u1 = 1.0 - gen.random(m)  # (0, 1], keeps the log finite
    u2 = gen.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def seeded_problem_data(
    n: int, p: int, seed: int, cond_ratio: float = 100.0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a P-by-N matrix A and a parameter vector u of length P.

    Entries are standard normal.  Column j of A is scaled by
    ``cond_ratio ** (j / (n - 1))`` to introduce controlled
    ill-conditioning; ``cond_ratio = 1`` leaves the matrix unscaled.
    """
    if n < 1 or p < 1:
        raise ValueError("dimensions must be at least 1")
    if not cond_ratio >= 1.0:
        raise ValueError("cond_ratio must be >= 1")
    gen = np.random.Generator(np.random.PCG64(seed))
    draws = _standard_normal(gen, p * n + p)
    a = draws[: p * n].reshape(p, n)
    u = draws[p * n :]
    if n > 1 and cond_ratio != 1.0:
        a = a * cond_ratio ** (np.arange(n) / (n - 1))
    return a, u

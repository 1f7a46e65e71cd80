"""The stacked exponential pair exp(A), exp(-A) with every nilpotent stack
summed through A^6: the Taylor sum even +- odd with
even = I + A^2/2 + A^4/24 + A^6/720 and
odd = A (I + A^2/6 + A^4/120 + A^6/5040), used where A^8 = A^4 A^4 is 0 on
the whole stack, and otherwise Pade-13 scaling and squaring with s per slice
from ||A^p||^(1/p), p = 6, 8, 10, that sum kept on the slices whose A^8 is 0.

flows._expm ends the sum at the first even power that vanishes on the whole
stack; the terms it leaves out are +-0 matrices added to sums that hold no
-0, so the two agree to the bit.  This copy keeps every term.
"""

import math

import numpy as np

PADE13 = [math.perm(26 - k, 13) // math.factorial(k) for k in range(14)]


def eight_term_expm(A):
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = lambda M: np.abs(M).sum(axis=-2).max(axis=-1)
        I = np.eye(A.shape[-1])
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        d8 = norm(A4 @ A4) ** (1 / 8)
        even = I + A2 / 2 + A4 / 24 + A6 / 720
        odd = A @ (I + A2 / 6 + A4 / 120 + A6 / 5040)
        if (d8 == 0).all():
            return even + odd, even - odd
        d6, d10 = norm(A6) ** (1 / 6), norm(A4 @ A6) ** (1 / 10)
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        ok = np.isfinite(eta)
        s = np.ceil(np.log2(np.maximum(eta[ok] / 4.25, 1.0)))
        c = (2.0 ** -s)[:, None, None]
        A, A2, A4, A6 = A[ok] * c, A2[ok] * c**2, A4[ok] * c**4, A6[ok] * c**6
        P = lambda k: PADE13[k + 6] * A6 + PADE13[k + 4] * A4 + PADE13[k + 2] * A2
        U = A @ (A6 @ P(7) + P(1) + PADE13[1] * I)
        V = A6 @ P(6) + P(0) + PADE13[0] * I
        Y = np.linalg.solve(np.stack([V - U, V + U]), np.stack([V + U, V - U]))
        for k in range(int(s.max(initial=0))):
            m = s > k
            Y[:, m] = Y[:, m] @ Y[:, m]
        X = np.full((2,) + even.shape, np.nan)
        X[:, ok] = Y
        nilpotent = (d8 == 0)[..., None, None]
        return np.where(nilpotent, even + odd, X[0]), np.where(nilpotent, even - odd, X[1])

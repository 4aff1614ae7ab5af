"""A float64 sampler of the Case I series laws, apart from the package.

The package tests these laws against their bracketed CDFs
(``limits.bracket``); the tests check the brackets against draws of the
series itself, made here from a Generator's uniforms with no code shared
with the bracket's grid recursion:

* BernoulliConvolution(lam, c): sum over k >= 0 of c * eps_k * lam**k;
* SymmetrizedPerpetuity: r * sum over k >= 0 of q_k * s_1 ... s_k * lam**k,
  with (q_k, s_k) drawn from the law's (Q, sgn M) atoms and r a fair sign.

A series keeps ``terms`` terms, by default enough to push the truncation
bound max|q| * lam**m / (1 - lam) below 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from perpsim import limits as lim

CHUNK_CELLS = 2**17  # uniforms per chunk of the sampler: 1 MiB of float64
SIGN_CHUNK = 2**14  # signs r drawn at a time: 128 KiB of uniforms
FAIR = np.array([0.5, 0.5])
SIGNS = np.array([1.0, -1.0])  # atom 0 is u < 1/2


def truncation_bound(lam: float, m: int) -> float:
    """Worst-case truncation error of the m-term series: lam**m / (1-lam)."""
    return lam**m / (1.0 - lam)


def default_terms(lam: float, target: float = 1e-9) -> int:
    """Smallest m with truncation_bound(lam, m) < target."""
    m = max(1, math.ceil(math.log(target * (1.0 - lam)) / math.log(lam)))
    while truncation_bound(lam, m) >= target:
        m += 1
    return m


def atom_indices(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Index of the atom each uniform picks, in the smallest integer dtype."""
    idx = np.zeros(u.shape, np.min_scalar_type(len(probs)))
    for c in np.cumsum(probs)[:-1]:
        idx += u >= c
    return idx


def series_rows(rng, size: int, width: int, lam: float, probs, q, s=None) -> np.ndarray:
    """``size`` values of a series with ``width`` terms, one per row of uniforms.

    Row i of a (size, width) array of uniforms, drawn in row-major order,
    picks atom a_ik of ``probs`` for term k = 0, 1, ...: q[a_ik] * lam**k,
    times s[a_i1] * ... * s[a_ik] when ``s`` is given. The uniforms are
    drawn a chunk of rows at a time, and a chunk's series are built term
    by term from its atom indices, in one term buffer and one running sign
    product of a chunk's length, so memory beyond the output is O(chunk).
    Each row's terms are added in the order k = 0, 1, ..., one numpy add
    per term, so a value depends on neither the chunk size nor the BLAS:
    the order of a matrix product's sums depends on its shape.
    """
    weights = lam ** np.arange(width)
    out = np.empty(size)
    rows = max(1, CHUNK_CELLS // width)
    term = np.empty(min(rows, size))
    sign = np.empty_like(term)
    for a in range(0, size, rows):
        u = rng.random((min(rows, size - a), width))
        idx = np.ascontiguousarray(atom_indices(u, probs).T)  # a series per column
        del u
        n = idx.shape[1]
        acc, t, sgn = out[a : a + n], term[:n], sign[:n]
        np.take(q, idx[0], out=acc, mode="clip")  # term 0, made in acc
        acc *= weights[0]
        sgn.fill(1.0)
        for k in range(1, width):
            # the sign products and q times a sign are exact
            if s is not None:
                sgn *= np.take(s, idx[k], out=t, mode="clip")
            np.take(q, idx[k], out=t, mode="clip")
            if s is not None:
                t *= sgn
            t *= weights[k]
            acc += t
    return out


def sample_series(law, rng: np.random.Generator, size: int, terms: int | None = None) -> np.ndarray:
    """``size`` draws of a series law, each of ``terms`` terms after the first
    (the BernoulliConvolution's, its ``terms`` terms in all)."""
    m = default_terms(law.lam) if terms is None else terms
    if isinstance(law, lim.BernoulliConvolution):
        out = series_rows(rng, size, m, law.lam, FAIR, SIGNS)
        out *= law.scale
        return out
    pairs = law.pairs or ((1.0, 1.0, law.p), (1.0, -1.0, 1.0 - law.p))
    q, s, w = (np.array(col) for col in zip(*pairs))
    out = series_rows(rng, size, m + 1, law.lam, w, q, s)
    # the sign r, drawn a chunk at a time: the uniforms of one rng.random(size)
    for a in range(0, size, SIGN_CHUNK):
        r = out[a : a + SIGN_CHUNK]
        r *= np.where(rng.random(r.size) < 0.5, 1.0, -1.0)
    return out


def draw(law, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws of any limit law: the series laws here, the others by
    ``limits.sample_limit``."""
    if isinstance(law, (lim.BernoulliConvolution, lim.SymmetrizedPerpetuity)):
        return sample_series(law, rng, size)
    return lim.sample_limit(law, rng, size=size)

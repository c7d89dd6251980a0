"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in a different style from the
package (explicit per-position / per-head loops, naive scans, no shared
helpers) so that agreement between the two is meaningful evidence rather
than the same code tested against itself.
"""

from __future__ import annotations

import math

import numpy as np


def scratch_forward(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loop-based re-derivation of the reference model's forward pass.

    Returns ``(hidden, logits)``.  Reads the adapter's weight arrays but
    shares none of its forward code: attention is computed one query
    position and one head at a time, layernorm and softmax are written out
    with scalar reductions.
    """
    X = np.asarray(X, dtype=np.float64)
    L, d = X.shape
    H = model.n_heads
    dh = d // H
    scale = 1.0 / math.sqrt(dh)

    def layernorm(vec, gamma, beta, eps=1e-5):
        mu = sum(vec) / d
        var = sum((v - mu) ** 2 for v in vec) / d
        return gamma * ((vec - mu) / math.sqrt(var + eps)) + beta

    x = np.array([X[i] + model._pos[i] for i in range(L)])
    for lw in model._layers:
        a = np.array([layernorm(x[i], lw["g1"], lw["b1"]) for i in range(L)])
        q = a @ lw["Wq"]
        k = a @ lw["Wk"]
        v = a @ lw["Wv"]
        attn_out = np.zeros((L, d))
        for i in range(L):
            for h in range(H):
                sl = slice(h * dh, (h + 1) * dh)
                scores = [float(q[i, sl] @ k[j, sl]) * scale for j in range(i + 1)]
                mx = max(scores)
                ws = [math.exp(s - mx) for s in scores]
                z = sum(ws)
                for j in range(i + 1):
                    attn_out[i, sl] += (ws[j] / z) * v[j, sl]
        x = x + attn_out @ lw["Wo"]

        f = np.array([layernorm(x[i], lw["g2"], lw["b2"]) for i in range(L)])
        z1 = f @ lw["W1"]
        gelu = 0.5 * z1 * (1.0 + np.vectorize(math.erf)(z1 / math.sqrt(2.0)))
        x = x + gelu @ lw["W2"]

    hidden = np.array([layernorm(x[i], model._gf, model._bf) for i in range(L)])
    logits = hidden @ model._E.T
    return hidden, logits


def fd_grad(f, x0: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x0, dtype=np.float64)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2.0 * eps)
        it.iternext()
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray,
                floor: float = 1e-8) -> float:
    """Elementwise |a - n| / max(|n|, floor), maximized."""
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def nearest_row_scan(row: np.ndarray, table_entries: np.ndarray,
                     candidate_ids) -> int:
    """Exhaustive L2 scan; ties resolved toward the lowest id."""
    best_id = None
    best_dist = None
    for cid in candidate_ids:
        diff = table_entries[cid] - row
        dist = float(diff @ diff)
        if best_dist is None or dist < best_dist:
            best_dist = dist
            best_id = int(cid)
    return best_id


def brute_ranks(values) -> list[float]:
    """Average ranks (1-based) computed by direct definition."""
    values = list(map(float, values))
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def brute_spearman_rho(xs, ys) -> float:
    """Pearson correlation of brute-force rank vectors, scalar arithmetic."""
    rx = brute_ranks(xs)
    ry = brute_ranks(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def token_nll_recount(model, ids) -> float:
    """Mean next-token NLL of a token sequence, recounted position by position."""
    table = model.embedding_table()
    _, logits = scratch_forward(model, table.entries[list(ids)])
    nlls = []
    for j in range(1, len(ids)):
        row = logits[j - 1]
        mx = float(np.max(row))
        z = mx + math.log(sum(math.exp(float(v) - mx) for v in row))
        nlls.append(z - float(row[ids[j]]))
    return sum(nlls) / len(nlls)


def welch_t_pvalue(a, b) -> float:
    """Two-sided Welch t-test p-value by direct definition: scalar sums for
    each sample's mean and variance, Welch-Satterthwaite degrees of freedom,
    and the t tail through the regularized incomplete beta function."""
    from scipy.special import betainc

    def moments(xs):
        xs = [float(x) for x in xs]
        n = len(xs)
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        return n, mean, var / n

    na, ma, sa = moments(a)
    nb, mb, sb = moments(b)
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (na - 1) + sb ** 2 / (nb - 1))
    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))

"""Independent brute-force reference implementations used as test oracles.

These deliberately favor directness over speed: full pairwise matrices,
explicit loops, one-shot broadcasting. They must stay independent of the
package's optimized code paths.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def sample_entropy_reference(x, m, r):
    """One-shot O(N^2) sample entropy from stacked template matrices."""
    x = np.asarray(x, dtype=np.float64)
    n_templates = x.size - m
    tm = sliding_window_view(x, m)[:n_templates]
    tm1 = sliding_window_view(x, m + 1)[:n_templates]
    dm = np.abs(tm[:, None, :] - tm[None, :, :]).max(axis=2)
    dm1 = np.abs(tm1[:, None, :] - tm1[None, :, :]).max(axis=2)
    iu = np.triu_indices(n_templates, k=1)
    b = int((dm[iu] < r).sum())
    a = int((dm1[iu] < r).sum())
    if a == 0:
        return math.log(max(b, 1)) + math.log(n_templates)
    return math.log(b) - math.log(a)


def fuzzy_entropy_reference(x, m, r, n):
    """One-shot O(N^2) fuzzy entropy with mean-centered templates."""
    x = np.asarray(x, dtype=np.float64)
    n_templates = x.size - m

    def phi(length):
        t = sliding_window_view(x, length)[:n_templates]
        c = t - t.mean(axis=1, keepdims=True)
        d = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
        s = np.exp(-(d**n) / r)
        row_means = (s.sum(axis=1) - 1.0) / (n_templates - 1)
        return float(np.mean(row_means))

    return math.log(phi(m)) - math.log(phi(m + 1))


def diagonal_average_reference(mat):
    """Per-anti-diagonal means gathered by explicit index loops."""
    mat = np.asarray(mat, dtype=np.float64)
    rows, cols = mat.shape
    out = np.zeros(rows + cols - 1)
    for d in range(rows + cols - 1):
        cells = [mat[i, d - i] for i in range(rows) if 0 <= d - i < cols]
        out[d] = float(np.mean(cells))
    return out


def best_split_reference(x, y, margin0):
    """Enumerate every threshold of a 1-D feature for the first boosting
    round of binary logloss and return the gain-maximizing threshold."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = 1.0 / (1.0 + math.exp(-margin0))
    g = np.full_like(y, p) - y
    h = np.full_like(y, p * (1 - p))
    order = np.argsort(x)
    xs, gs, hs = x[order], g[order], h[order]
    total_gain = None
    best_thr = None
    g_tot, h_tot = gs.sum(), hs.sum()
    for k in range(len(xs) - 1):
        if xs[k + 1] <= xs[k]:
            continue
        gl, hl = gs[: k + 1].sum(), hs[: k + 1].sum()
        gr, hr = g_tot - gl, h_tot - hl
        gain = gl**2 / hl + gr**2 / hr - g_tot**2 / h_tot
        if total_gain is None or gain > total_gain:
            total_gain = gain
            best_thr = 0.5 * (xs[k] + xs[k + 1])
    return best_thr, total_gain


def wilcoxon_exact_reference(diff):
    """Two-sided p by enumerating every sign assignment of |diff| midranks."""
    diff = np.asarray(diff, dtype=np.float64)
    diff = diff[diff != 0]
    n = diff.size
    absd = np.abs(diff)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    sorted_vals = absd[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = ranks[diff > 0].sum()
    mu = n * (n + 1) / 4.0
    count = 0
    for mask in range(2**n):
        w = sum(ranks[k] for k in range(n) if (mask >> k) & 1)
        if abs(w - mu) >= abs(w_obs - mu) - 1e-12:
            count += 1
    return count / 2**n


def shapley_interactions_reference(value_fn, n):
    """Direct pairwise interaction sum over all subsets excluding {i, j}."""
    from itertools import combinations

    fact = [math.factorial(k) for k in range(n + 1)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            rest = [f for f in range(n) if f not in (i, j)]
            total = 0.0
            for size in range(n - 1):
                w = fact[size] * fact[n - size - 2] / (2 * fact[n - 1])
                for combo in combinations(rest, size):
                    t = frozenset(combo)
                    delta = (
                        value_fn(t | {i, j})
                        - value_fn(t | {i})
                        - value_fn(t | {j})
                        + value_fn(t)
                    )
                    total += w * delta
            out[i, j] = out[j, i] = total
    return out


def split_search_reference(X, wg, wh, rows, feats, min_data, lam):
    """Exact split search that argsorts the leaf's own rows, as every leaf
    did before presorting. Returns (gain, feature, threshold) or None."""
    n = rows.size
    if n < 2 * min_data:
        return None
    sub = X[np.ix_(rows, feats)]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    gs = np.cumsum(wg[rows][order], axis=0)
    hs = np.cumsum(wh[rows][order], axis=0)
    g_tot = gs[-1]
    h_tot = hs[-1]
    gl, hl = gs[:-1], hs[:-1]
    gr = g_tot - gl
    hr = h_tot - hl
    parent = g_tot**2 / (h_tot + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent
    valid = xs[1:] > xs[:-1]
    pos = np.arange(1, n)  # left child size for a split after sorted row k
    valid &= ((pos >= min_data) & (n - pos >= min_data))[:, None]
    gain = np.where(valid, gain, -np.inf)
    col_best = np.argmax(gain, axis=0)
    col_gain = gain[col_best, np.arange(len(feats))]
    c = int(np.argmax(col_gain))
    if not (col_gain[c] > 0):
        return None
    k = int(col_best[c])
    return float(col_gain[c]), int(feats[c]), float(0.5 * (xs[k, c] + xs[k + 1, c]))


def grow_tree_reference(X, grad, hess, weights, cfg, rng):
    """Leaf-wise growth that sorts at every leaf; returns a ``gbdt.FlatTree``."""
    from physioshap.gbdt import FlatTree

    n, n_feat = X.shape
    if cfg.feature_fraction < 1.0:
        k = max(1, math.ceil(cfg.feature_fraction * n_feat))
        feats = np.sort(rng.choice(n_feat, size=k, replace=False))
    else:
        feats = np.arange(n_feat)
    wg = weights * grad
    wh = weights * hess
    lam = cfg.lambda_l2
    nodes = []  # (left, right, feature, threshold, value, cover)
    candidates = []  # (gain, -creation index, node, rows, depth, feature, threshold)

    def add_leaf(rows):
        value = float(-wg[rows].sum() / (wh[rows].sum() + lam))
        nodes.append((-1, -1, -1, math.nan, value, float(weights[rows].sum())))
        return len(nodes) - 1

    def push(node, rows, depth, seq):
        if depth >= cfg.max_depth:
            return seq
        best = split_search_reference(X, wg, wh, rows, feats, cfg.min_data_in_leaf, lam)
        if best is None:
            return seq
        gain, feat, thr = best
        candidates.append((gain, -seq, node, rows, depth, feat, thr))
        return seq + 1

    seq = push(add_leaf(np.arange(n)), np.arange(n), 0, 0)
    leaves = 1
    while leaves < cfg.num_leaves and candidates:
        i = max(range(len(candidates)), key=lambda j: (candidates[j][0], candidates[j][1]))
        _, _, node, rows, depth, feat, thr = candidates.pop(i)
        mask = X[rows, feat] <= thr
        left, right = add_leaf(rows[mask]), add_leaf(rows[~mask])
        nodes[node] = (left, right, feat, thr, 0.0, nodes[node][5])
        leaves += 1
        seq = push(left, rows[mask], depth + 1, seq)
        seq = push(right, rows[~mask], depth + 1, seq)
    return FlatTree(*zip(*nodes))


def train_reference(X, y, valid, cfg, feature_names=None):
    """GOSS boosting with early stopping, growing every tree with
    ``grow_tree_reference``; same inputs and random stream as ``gbdt.train``
    (inputs are assumed valid). Returns a ``gbdt.GbdtModel``."""
    from physioshap.gbdt import GbdtModel, binary_logloss, goss_sample, sigmoid

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    prior = float((y == 1).sum()) / y.size
    base = math.log(prior / (1.0 - prior))
    margins = np.full(y.size, base)
    if valid is not None:
        Xv = np.asarray(valid[0], dtype=np.float64)
        yv = np.asarray(valid[1], dtype=np.float64)
        v_margins = np.full(yv.size, base)
    master = np.random.default_rng(cfg.seed)
    trees = []
    best_loss = binary_logloss(yv, v_margins) if valid is not None else math.inf
    best_round = 0
    for rnd in range(cfg.max_rounds):
        p = sigmoid(margins)
        grad = p - y
        hess = p * (1.0 - p)
        round_rng = np.random.default_rng(master.integers(2**63))
        idx, w = goss_sample(grad, cfg.goss_a, cfg.goss_b, round_rng)
        tree = grow_tree_reference(X[idx], grad[idx], hess[idx], w, cfg, round_rng)
        trees.append(tree)
        margins = margins + cfg.learning_rate * tree.predict(X)
        if valid is not None:
            v_margins = v_margins + cfg.learning_rate * tree.predict(Xv)
            loss = binary_logloss(yv, v_margins)
            if loss < best_loss:
                best_loss = loss
                best_round = rnd + 1
            elif rnd + 1 - best_round >= cfg.early_stop:
                break
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    return GbdtModel(
        trees=trees,
        learning_rate=cfg.learning_rate,
        base_score=base,
        feature_names=tuple(feature_names),
        best_iteration=best_round if valid is not None else len(trees),
    )

"""Independent differential-geometry oracle built on sympy.

Everything here recomputes connection and curvature data from the
coordinate metric with textbook formulas, deliberately sharing no code
with the package under test.  Frame members are given by their
coordinate components; the coordinate metric is reconstructed from the
gram matrix, so the oracle works for any invertible frame.

All intermediate values live in the ring of exp-polynomials, so the
cheap expand/powsimp normal form below decides equality; full
sympy.simplify is far too slow for randomized use.
"""

from __future__ import annotations

import itertools

import sympy as sp


def to_sympy(expr, coords):
    """Parse the package's canonical rendering into a sympy expression."""
    local = {name: sp.Symbol(name) for name in coords}
    local["exp"] = sp.exp
    return sp.sympify(str(expr).replace("^", "**"), locals=local)


def frame_members(frame):
    """members[k][a]: the coordinate component a of the frame member E_k."""
    d, coords = frame.dim, frame.chart.coords
    return [[to_sympy(frame.members[k, a], coords) for a in range(d)] for k in range(d)]


def canon(expr):
    """Normal form for exp-polynomials; zero iff the expression is zero."""
    expr = sp.expand(expr)
    expr = sp.powsimp(expr, combine="exp", force=True)
    return sp.expand(expr)


def is_zero(expr) -> bool:
    return canon(expr) == 0


def diagonal_gram(signs):
    """The gram matrix diag(signs) of a pseudo-orthonormal frame."""
    return [
        [sp.Integer(q if i == j else 0) for j in range(len(signs))]
        for i, q in enumerate(signs)
    ]


def _matrices(coords, members, gram):
    symbols = [sp.Symbol(c) for c in coords]
    d = len(coords)
    # columns of P are the members' coordinate components
    P = sp.Matrix(d, d, lambda i, a: members[a][i])
    G_frame = sp.Matrix(d, d, lambda a, b: gram[a][b])
    P_inv = P.inv().applyfunc(canon)
    G = (P_inv.T * G_frame * P_inv).applyfunc(canon)  # coordinate metric
    # G^{-1} = P gram^{-1} P^T avoids inverting a symbolic matrix
    Ginv = (P * G_frame.inv() * P.T).applyfunc(canon)
    return symbols, P, P_inv, G, Ginv


def christoffel(coords, members, gram):
    """Coordinate Christoffel symbols Gamma[k][i][j] of the metric."""
    symbols, _, _, G, Ginv = _matrices(coords, members, gram)
    d = len(coords)
    gamma = [[[sp.S.Zero] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = sp.S.Zero
                for l in range(d):
                    acc += Ginv[k, l] * (
                        sp.diff(G[j, l], symbols[i])
                        + sp.diff(G[i, l], symbols[j])
                        - sp.diff(G[i, j], symbols[l])
                    )
                gamma[k][i][j] = canon(acc / 2)
    return gamma


def _covariant_vector(v, x, gamma, symbols):
    """Coordinate components of nabla_x v for vectors given in coordinates."""
    d = len(symbols)
    out = []
    for k in range(d):
        acc = sp.S.Zero
        for m in range(d):
            acc += x[m] * sp.diff(v[k], symbols[m])
            for l in range(d):
                acc += x[m] * v[l] * gamma[k][m][l]
        out.append(canon(acc))
    return out


def frame_connection(coords, members, gram):
    """gamma[i][j][a]: expansion of nabla_{E_i} E_j over the frame."""
    symbols, P, P_inv, _, _ = _matrices(coords, members, gram)
    gamma_coord = christoffel(coords, members, gram)
    d = len(coords)
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            v = _covariant_vector(
                [members[j][k] for k in range(d)],
                [members[i][k] for k in range(d)],
                gamma_coord,
                symbols,
            )
            expansion = P_inv * sp.Matrix(v)
            out[i][j] = [canon(expansion[a]) for a in range(d)]
    return out


def lie_bracket(symbols, x, y):
    """Coordinate components of [X, Y] for X, Y given in coordinates."""
    d = len(symbols)
    return [
        canon(
            sum(
                x[m] * sp.diff(y[k], symbols[m]) - y[m] * sp.diff(x[k], symbols[m])
                for m in range(d)
            )
        )
        for k in range(d)
    ]


def frame_brackets(coords, members):
    """c[i][j][k]: component k of [E_i, E_j], bracketed in coordinates."""
    symbols = [sp.Symbol(c) for c in coords]
    d = len(coords)
    P_inv = sp.Matrix(d, d, lambda i, a: members[a][i]).inv().applyfunc(canon)
    return [
        [
            [canon(v) for v in P_inv * sp.Matrix(lie_bracket(symbols, Ei, Ej))]
            for Ej in members
        ]
        for Ei in members
    ]


def frame_riemann(coords, members, gram):
    """R[i][j][k] = frame components of R(E_i, E_j)E_k."""
    symbols, P, P_inv, _, _ = _matrices(coords, members, gram)
    gamma_coord = christoffel(coords, members, gram)
    d = len(coords)

    def cov(v, x):
        return _covariant_vector(v, x, gamma_coord, symbols)

    out = [[[None] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        Ei = [members[i][k] for k in range(d)]
        for j in range(d):
            Ej = [members[j][k] for k in range(d)]
            br = lie_bracket(symbols, Ei, Ej)
            for k in range(d):
                Ek = [members[k][m] for m in range(d)]
                value = [
                    canon(a - b - c)
                    for a, b, c in zip(
                        cov(cov(Ek, Ej), Ei), cov(cov(Ek, Ei), Ej), cov(Ek, br)
                    )
                ]
                expansion = P_inv * sp.Matrix(value)
                out[i][j][k] = [canon(expansion[a]) for a in range(d)]
    return out


def frame_ricci(coords, members, gram):
    """S[a][b] = Ric(E_a, E_b) from the coordinate Ricci tensor."""
    symbols, P, _, _, _ = _matrices(coords, members, gram)
    d = len(coords)
    gamma = christoffel(coords, members, gram)

    # Ric_{jk} = d_i Gamma^i_{jk} - d_j Gamma^i_{ik}
    #          + Gamma^i_{ip} Gamma^p_{jk} - Gamma^i_{jp} Gamma^p_{ik}
    ric = sp.zeros(d, d)
    for j in range(d):
        for k in range(d):
            acc = sp.S.Zero
            for i in range(d):
                acc += sp.diff(gamma[i][j][k], symbols[i])
                acc -= sp.diff(gamma[i][i][k], symbols[j])
                for p in range(d):
                    acc += gamma[i][i][p] * gamma[p][j][k]
                    acc -= gamma[i][j][p] * gamma[p][i][k]
            ric[j, k] = canon(acc)
    S = (P.T * ric * P).applyfunc(canon)
    return S


def frame_scalar_curvature(coords, members, gram):
    d = len(coords)
    S = frame_ricci(coords, members, gram)
    G_frame = sp.Matrix(d, d, lambda a, b: gram[a][b])
    Ginv = G_frame.inv()
    return canon(sum(Ginv[a, b] * S[a, b] for a in range(d) for b in range(d)))


def frame_covariant(coords, members, gram, t, r, s):
    """Frame components of nabla T, the direction index first.

    t holds the frame components of a valence (r, s) tensor, r in {0, 1},
    flat and row-major with the contravariant index first.  T goes to the
    coordinate basis, takes the textbook derivative there,

        (nabla_p T)^k_mn = d_p T^k_mn + Gamma^k_pl T^l_mn
                           - Gamma^l_pm T^k_ln - Gamma^l_pn T^k_ml,

    and comes back: the result maps (i, a, b, ...) to the component
    a, b, ... of nabla_{E_i} T.
    """
    symbols, P, P_inv, _, _ = _matrices(coords, members, gram)
    gamma = christoffel(coords, members, gram)
    d, rank = len(coords), r + s
    index = list(itertools.product(range(d), repeat=rank))

    def change(comps, up, down):
        """Components of the same tensor in the basis with the given matrices."""
        out = {}
        for new in index:
            acc = sp.S.Zero
            for old, value in comps.items():
                if value == 0:
                    continue
                for p, (o, n) in enumerate(zip(old, new)):
                    value = value * (up[n, o] if p < r else down[o, n])
                acc += value
            out[new] = canon(acc)
        return out

    T = change(dict(zip(index, t)), P, P_inv)
    out = {}
    for q in range(d):
        nabla_q = {}
        for idx in index:
            acc = sp.diff(T[idx], symbols[q])
            for p, k in enumerate(idx):
                for l in range(d):
                    moved = idx[:p] + (l,) + idx[p + 1 :]
                    if p < r:
                        acc += gamma[k][q][l] * T[moved]
                    else:
                        acc -= gamma[l][q][k] * T[moved]
            nabla_q[idx] = acc
        # nabla_{E_i} weighs nabla_q by the coordinate component P[q, i] of E_i
        for idx, value in change(nabla_q, P_inv, P).items():
            for i in range(d):
                out[(i,) + idx] = out.get((i,) + idx, sp.S.Zero) + P[q, i] * value
    return {idx: canon(value) for idx, value in out.items()}


# -- condition residuals ------------------------------------------------------
#
# op[i][j][k][a] is component a of op(E_i, E_j)E_k (the layout of
# frame_riemann), S[a][b] = S(E_a, E_b), xi the frame components of xi.


def frame_w2(riem, ricci, gram, n):
    """W2(X,Y)Z = R(X,Y)Z + (1/2n) [g(X,Z) QY - g(Y,Z) QX], g(QX, Y) = S(X, Y)."""
    d = len(gram)
    G = sp.Matrix(gram)
    Q = G.inv() * sp.Matrix(ricci)  # column b holds the components of Q E_b
    return [
        [
            [
                [
                    canon(
                        riem[i][j][k][a]
                        + (G[i, k] * Q[a, j] - G[j, k] * Q[a, i]) / (2 * n)
                    )
                    for a in range(d)
                ]
                for k in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]


def _on_xi(op, xi, slot):
    """op with its argument in `slot` (0, 1 or 2) set to xi: a d x d x d array."""
    d = len(xi)
    out = {}
    for p in range(d):
        for q in range(d):
            for a in range(d):
                acc = sp.S.Zero
                for m in range(d):
                    idx = [p, q]
                    idx.insert(slot, m)
                    acc += xi[m] * op[idx[0]][idx[1]][idx[2]][a]
                out[p, q, a] = acc
    return out


def derivation_residual(op, ricci, xi):
    """D[x, y, z] = S(op(xi, E_x)E_y, E_z) + S(E_y, op(xi, E_x)E_z)."""
    d = len(xi)
    S = sp.Matrix(ricci)
    first = _on_xi(op, xi, 0)
    return {
        (x, y, z): canon(
            sum(first[x, y, a] * S[a, z] + S[y, a] * first[x, z, a] for a in range(d))
        )
        for x in range(d)
        for y in range(d)
        for z in range(d)
    }


def eight_term_residual(op, ricci, xi):
    """Frame components [a, x, y, z, w] of the Ricci derivation against op:

        S(X, op(Y,Z)W) xi - S(xi, op(Y,Z)W) X
      + S(X,Y) op(xi,Z)W - S(xi,Y) op(X,Z)W
      + S(X,Z) op(Y,xi)W - S(xi,Z) op(Y,X)W
      + S(X,W) op(Y,Z)xi - S(xi,W) op(Y,Z)X
    """
    d = len(xi)
    S = sp.Matrix(ricci)
    xi_vec = sp.Matrix(xi)
    s_xi = (xi_vec.T * S).T  # S(xi, E_m)
    slots = [_on_xi(op, xi, slot) for slot in range(3)]
    out = {}
    for x in range(d):
        unit_x = [1 if a == x else 0 for a in range(d)]
        for y in range(d):
            for z in range(d):
                for w in range(d):
                    v = op[y][z][w]
                    s_xv = sum(S[x, m] * v[m] for m in range(d))
                    s_xiv = sum(s_xi[m] * v[m] for m in range(d))
                    for a in range(d):
                        value = (
                            s_xv * xi[a]
                            - s_xiv * unit_x[a]
                            + S[x, y] * slots[0][z, w, a]
                            - s_xi[y] * op[x][z][w][a]
                            + S[x, z] * slots[1][y, w, a]
                            - s_xi[z] * op[y][x][w][a]
                            + S[x, w] * slots[2][y, z, a]
                            - s_xi[w] * op[y][z][x][a]
                        )
                        out[a, x, y, z, w] = canon(value)
    return out


# -- Nijenhuis torsion and Lie derivatives --------------------------------------
#
# These work in the coordinate basis with the textbook component formulas
# and convert to the frame only at the end.  phi[a][i] and t[a][i] are
# frame components (the coefficient of E_a in phi E_i), w[i] = w(E_i),
# t[i][j] = t(E_i, E_j); X is given by its coordinate components.


def _frame_change(coords, members):
    symbols = [sp.Symbol(c) for c in coords]
    d = len(coords)
    P = sp.Matrix(d, d, lambda i, a: members[a][i])
    return symbols, P, P.inv().applyfunc(canon)


def frame_nijenhuis(coords, members, phi):
    """N[a][i][j]: component a of N(E_i, E_j), from

    N^k_ij = F^m_i d_m F^k_j - F^m_j d_m F^k_i - F^k_m (d_i F^m_j - d_j F^m_i)

    with F the coordinate matrix of phi.
    """
    symbols, P, P_inv = _frame_change(coords, members)
    d = len(coords)
    F = (P * sp.Matrix(phi) * P_inv).applyfunc(canon)
    dF = [F.diff(x) for x in symbols]  # dF[m][k, j] = d_m F^k_j
    N = [
        [
            [
                canon(
                    sum(
                        F[m, i] * dF[m][k, j]
                        - F[m, j] * dF[m][k, i]
                        - F[k, m] * (dF[i][m, j] - dF[j][m, i])
                        for m in range(d)
                    )
                )
                for j in range(d)
            ]
            for i in range(d)
        ]
        for k in range(d)
    ]
    out = [[[None] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            # N(E_i, E_j) in coordinates, then expanded over the frame
            v = sp.Matrix(
                [
                    sum(
                        N[k][p][q] * P[p, i] * P[q, j]
                        for p in range(d)
                        for q in range(d)
                    )
                    for k in range(d)
                ]
            )
            expansion = P_inv * v
            for a in range(d):
                out[a][i][j] = canon(expansion[a])
    return out


def _lie_parts(symbols, x):
    d = len(symbols)
    dX = sp.Matrix(d, d, lambda m, a: sp.diff(x[m], symbols[a]))  # d_a X^m

    def along(f):
        return sum(x[m] * sp.diff(f, symbols[m]) for m in range(d))

    return dX, along


def frame_lie_covariant2(coords, members, x, t):
    """(L_X t)(E_i, E_j) from (L_X T)_ab = X(T_ab) + T_mb d_a X^m + T_am d_b X^m."""
    symbols, P, P_inv = _frame_change(coords, members)
    d = len(coords)
    dX, along = _lie_parts(symbols, x)
    T = (P_inv.T * sp.Matrix(t) * P_inv).applyfunc(canon)
    L = sp.Matrix(
        d,
        d,
        lambda a, b: along(T[a, b])
        + sum(T[m, b] * dX[m, a] + T[a, m] * dX[m, b] for m in range(d)),
    )
    return (P.T * L * P).applyfunc(canon)


def frame_lie_oneform(coords, members, x, w):
    """(L_X w)(E_i) from (L_X w)_a = X(w_a) + w_m d_a X^m."""
    symbols, P, P_inv = _frame_change(coords, members)
    d = len(coords)
    dX, along = _lie_parts(symbols, x)
    W = (P_inv.T * sp.Matrix(w)).applyfunc(canon)
    L = sp.Matrix(
        [along(W[a]) + sum(W[m] * dX[m, a] for m in range(d)) for a in range(d)]
    )
    return (P.T * L).applyfunc(canon)


def frame_lie_endomorphism(coords, members, x, t):
    """Frame matrix of L_X T, from the coordinate formula

    (L_X T)^k_a = X(T^k_a) - T^m_a d_m X^k + T^k_m d_a X^m.
    """
    symbols, P, P_inv = _frame_change(coords, members)
    d = len(coords)
    dX, along = _lie_parts(symbols, x)
    T = (P * sp.Matrix(t) * P_inv).applyfunc(canon)
    L = sp.Matrix(
        d,
        d,
        lambda k, a: along(T[k, a])
        + sum(-T[m, a] * dX[k, m] + T[k, m] * dX[m, a] for m in range(d)),
    )
    return (P_inv * L * P).applyfunc(canon)

"""Independent oracles used to freeze expected values in the tests.

Nothing here reuses the package's jet or curvature code paths: derivatives
come from plain finite differences or sympy, curvature of the reference
spaces comes from closed forms, and ranks come from a hand-rolled
Gram-Schmidt.  Agreement between these and the package is therefore a real
cross-check, not a tautology.  The exceptions are
``reference_condition_suite`` and ``reference_tidal_basis``, which take the
package's jets and curvature and check only how the energy layer samples and
contracts them; the
``reference_*`` linear-analysis functions, which keep the one-instance,
one-SVD-per-question form that the stacked ``traplab.linear_analysis``
must reproduce integer for integer; and ``reference_dense_operator``, which
takes the package's grids and coefficients and keeps the dense N x N
assembly that the banded ``assemble_stability_operator`` must reproduce bit
for bit.
"""

import numpy as np
import sympy as sp


def fd_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hess(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    f0 = f(x)
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = h
        out[k, k] = (f(x + ek) - 2 * f0 + f(x - ek)) / h**2
        for l in range(k + 1, n):
            el = np.zeros(n)
            el[l] = h
            v = (f(x + ek + el) - f(x + ek - el) - f(x - ek + el) + f(x - ek - el)) / (4 * h**2)
            out[k, l] = out[l, k] = v
    return out


def fd_metric_derivatives(g_func, x, h=1e-6):
    """First derivatives dg[k, i, j] of a matrix-valued function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    g0 = np.asarray(g_func(x))
    dg = np.zeros((n,) + g0.shape)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[k] = (np.asarray(g_func(x + e)) - np.asarray(g_func(x - e))) / (2 * h)
    return dg


def constant_curvature_riemann(g, curvature):
    """Closed form R_ijkl = K (g_il g_jk - g_ik g_jl) of a space form."""
    g = np.asarray(g, dtype=float)
    return curvature * (
        np.einsum("il,jk->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    )


def static_product_riemann(spatial_riemann, dim):
    """Riemann tensor of -dt^2 + (spatial metric): spatial block only."""
    r = np.zeros((dim,) * 4)
    r[1:, 1:, 1:, 1:] = spatial_riemann
    return r


def sympy_conformal_quadform(xi_expr, coords, n_value, v, w, signature=None):
    """Quadratic form Riem(w, v, v, w) of e^{2 xi / n} * eta at the origin.

    Entirely symbolic: Christoffel symbols and the curvature tensor are
    produced by sympy differentiation of the rescaled metric, then evaluated
    at zero.  Convention fixed so that the form is positive on orthonormal
    pairs of the unit round sphere.
    """
    dim = len(coords)
    eta = sp.diag(*([-1] + [1] * (dim - 1))) if signature is None else sp.diag(*signature)
    f = xi_expr / sp.Integer(n_value)
    g = sp.exp(2 * f) * eta
    ginv = g.inv()
    gamma = [[[
        sp.Rational(1, 2) * sum(
            ginv[k, l] * (sp.diff(g[l, i], coords[j]) + sp.diff(g[l, j], coords[i])
                          - sp.diff(g[i, j], coords[l]))
            for l in range(dim))
        for j in range(dim)] for i in range(dim)] for k in range(dim)]
    subs0 = {c: 0 for c in coords}

    def riem_low(i, j, k, l):
        # R_ijk^m = d_i Gamma^m_jk - d_j Gamma^m_ik + G^m_ia G^a_jk - G^m_ja G^a_ik
        total = 0
        for m in range(dim):
            expr = sp.diff(gamma[m][j][k], coords[i]) - sp.diff(gamma[m][i][k], coords[j])
            expr += sum(gamma[m][i][a] * gamma[a][j][k] - gamma[m][j][a] * gamma[a][i][k]
                        for a in range(dim))
            total += expr * g[m, l]
        return sp.simplify(total.subs(subs0))

    value = 0
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    if v[j] == 0 or v[k] == 0 or w[i] == 0 or w[l] == 0:
                        continue
                    value += w[i] * v[j] * v[k] * w[l] * riem_low(i, j, k, l)
    return float(sp.simplify(value))


def gram_schmidt_rank(columns, tol=1e-10):
    """Rank by sequential orthogonalization, independent of any SVD."""
    basis = []
    for col in np.atleast_2d(columns).T:
        v = np.array(col, dtype=float)
        for b in basis:
            v = v - np.dot(v, b) * b
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return len(basis)


def column_space_union_full(a, b, tol=1e-10):
    """Whether Im(a) + Im(b) is the full target space, by Gram-Schmidt."""
    h = a.shape[0]
    return gram_schmidt_rank(np.hstack([a, b]), tol) == h


def _frame_along(m, x):
    """Columns e0 = x / |x|_g and a g-orthonormal completion, one chart vector at a time."""
    g = m.g
    e0 = x / np.sqrt(-float(x @ g @ x))
    frame = [e0]
    for k in range(m.dim):
        cand = np.eye(m.dim)[k]
        cand = cand + float(cand @ g @ e0) * e0
        for e in frame[1:]:
            cand = cand - float(cand @ g @ e) * e
        nrm2 = float(cand @ g @ cand)
        if nrm2 > 1e-10:
            frame.append(cand / np.sqrt(nrm2))
        if len(frame) == m.dim:
            break
    assert len(frame) == m.dim
    return np.stack(frame, axis=1)


def reference_tidal_basis(m, v):
    """Rows spanning the complement of causal v in which its tidal matrix is
    taken: the spacelike legs of the frame along timelike v, or a screen basis
    of null v against the companion null vector n with g(v, n) = -2."""
    g = m.g
    q = float(v @ g @ v)
    aux2 = np.linalg.norm(v) ** 2
    if q < -1e-10 * aux2:
        return np.array(_frame_along(m, v).T[1:])
    assert abs(q) <= 1e-10 * aux2
    seed_vec = next(e for e in np.eye(m.dim) if abs(float(e @ g @ v)) > 1e-8)
    a = float(seed_vec @ g @ seed_vec)
    b = float(seed_vec @ g @ v)
    n_vec = seed_vec - (a / (2.0 * b)) * v
    n_vec = n_vec * (-2.0 / float(n_vec @ g @ v))
    pairing = float(v @ g @ n_vec)
    basis = []
    for k in range(m.dim):
        cand = np.eye(m.dim)[k]
        cand = cand - (float(cand @ g @ n_vec) / pairing) * v
        cand = cand - (float(cand @ g @ v) / pairing) * n_vec
        for bb in basis:
            cand = cand - float(cand @ g @ bb) * bb
        nrm2 = float(cand @ g @ cand)
        if nrm2 > 1e-10:
            basis.append(cand / np.sqrt(nrm2))
        if len(basis) == m.dim - 2:
            break
    return np.array(basis).reshape(len(basis), m.dim)


def reference_condition_suite(m_field, points, x_field, seed=0, count=64):
    """The energy condition reports by one loop over the points, the directions
    and the complement vectors, each value computed for one vector at a time.

    This is the per-direction form of ``energy.condition_suite``, kept to
    check the stacked one bit for bit.  It takes the jets and curvature from
    the package and redoes the sampling, frames, bases and contractions with
    ``@``, ``np.dot`` and ``np.linalg.norm``.  Each direction's form
    A_v[i, l] = R_ijkl v^j v^k is one matrix-vector product of R, with its
    (i, l) and (j, k) index pairs as rows and columns, and v (x) v; every plane
    value w A_v w and tidal entry is read from it.
    """
    from traplab.energy import (
        RAPIDITY_LEVELS, STRICT_MARGIN, TIDAL_TOL, Condition, ConditionReport, Verdict,
        Witness,
    )
    from traplab.geometry import ricci_from_riemann, riemann

    def cone(m, x):
        frame = _frame_along(m, x)
        e0, spatial = frame[:, 0], frame[:, 1:]
        rng = np.random.default_rng(seed)
        for k in range(count):
            direction = rng.normal(size=m.dim - 1)
            direction /= np.linalg.norm(direction)
            u = spatial @ direction
            slot = k % 8
            if slot < 4:
                v = np.cosh(RAPIDITY_LEVELS[slot]) * e0 + np.sinh(RAPIDITY_LEVELS[slot]) * u
            elif slot == 4:
                v = e0 + u
            elif slot == 5:
                v = -(e0 + u)
            elif slot == 6:
                v = -(np.cosh(1.0) * e0 + np.sinh(1.0) * u)
            else:
                v = e0 - u
            yield v / np.linalg.norm(v)

    def complement(v):
        n = v.shape[0]
        basis = [v / np.linalg.norm(v)]
        for k in range(n):
            cand = np.eye(n)[k]
            for b in basis:
                cand = cand - np.dot(cand, b) * b
            nrm = np.linalg.norm(cand)
            if nrm > 1e-10:
                basis.append(cand / nrm)
            if len(basis) == n:
                break
        return basis[1:]

    samples = {"ricci": [], "plane": [], "tidal": []}
    for p in points:
        p = np.asarray(p, dtype=float)
        m = m_field(p)
        r = riemann(m)
        ric = ricci_from_riemann(r, m)
        d = m.dim
        rows = np.moveaxis(r.R, -1, -3).reshape(d * d, d * d)
        for v in cone(m, x_field(p).components):
            samples["ricci"].append(Witness(p, v, float(v @ ric @ v)))
            a = (rows @ np.outer(v, v).reshape(d * d, 1)).reshape(d, d)
            w = np.array(complement(v))
            for partner, val in zip(w, np.vecdot(w @ a, w)):
                samples["plane"].append(Witness(p, v, float(val), partner=partner))
            basis = reference_tidal_basis(m, v)
            if len(basis):
                mat = basis @ a.T @ basis.T
                least = np.linalg.eigvalsh(0.5 * (mat + mat.T)).min()
                samples["tidal"].append(Witness(p, v, float(least)))

    def report(condition, kind, violated):
        found = samples[kind]
        witness = next((s for s in found if violated(s.value)), None)
        verdict = Verdict.SATISFIED_ON_SAMPLES if witness is None else Verdict.VIOLATED
        return ConditionReport(condition, verdict, min(s.value for s in found), len(found),
                               witness)

    return {
        Condition.RICCI_STRICT: report(Condition.RICCI_STRICT, "ricci", lambda x: x <= STRICT_MARGIN),
        Condition.RICCI_WEAK: report(Condition.RICCI_WEAK, "ricci", lambda x: x < -STRICT_MARGIN),
        Condition.PLANE_STRICT: report(Condition.PLANE_STRICT, "plane", lambda x: x <= STRICT_MARGIN),
        Condition.PLANE_WEAK: report(Condition.PLANE_WEAK, "plane", lambda x: x < -STRICT_MARGIN),
        Condition.TIDAL_PSD: report(Condition.TIDAL_PSD, "tidal", lambda x: x < -TIDAL_TOL),
    }


# --- linear analysis, one instance at a time --------------------------------

LINEAR_RANK_RTOL = 1e-10


def reference_rank(a, scale=None):
    """Rank with singular values cut at LINEAR_RANK_RTOL times the top one (or ``scale``)."""
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    reference = sv[0] if scale is None else scale
    return int(np.sum(sv > LINEAR_RANK_RTOL * reference))


def reference_null_space(a):
    """Orthonormal kernel basis as columns; (n, 0) when trivial."""
    a = np.atleast_2d(a)
    n = a.shape[1]
    if a.size == 0 or np.abs(a).max() == 0.0:
        return np.eye(n)
    _, sv, vt = np.linalg.svd(a)
    r = int(np.sum(sv > LINEAR_RANK_RTOL * sv[0]))
    return vt[r:].T


def reference_surjectivity(t, s):
    """The three verdicts (rank of [T S], principal angles, adjoint kernels)."""
    h = t.shape[0]
    by_rank = reference_rank(np.hstack([t, s])) == h
    a, b = reference_null_space(t.T), reference_null_space(s.T)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return by_rank, True, True
    cosines = np.linalg.svd(a.T @ b, compute_uv=False)
    by_angles = bool(cosines.max() < 1.0 - LINEAR_RANK_RTOL)
    by_kernels = reference_rank(np.hstack([a, b])) == a.shape[1] + b.shape[1]
    return by_rank, by_angles, by_kernels


def reference_codim(l, s_basis):
    """(lhs, rhs) of the preimage codimension formula."""
    v = l.shape[0]
    s = s_basis.shape[1]
    assert reference_rank(s_basis) == s, "dependent basis"
    perp = reference_null_space(s_basis.T)
    lhs = reference_rank(perp.T @ l) if perp.shape[1] else 0
    dim_sum = reference_rank(np.hstack([s_basis, l]))
    return lhs, (v - s) - (v - dim_sum)


def reference_projection(t, s):
    """ProjectionReport fields of the first-factor projection of ker(T (+) S)."""
    (h, e), f = t.shape, s.shape[1]
    m_basis = reference_null_space(np.hstack([t, s]))
    rank_proj = reference_rank(m_basis[:e, :], scale=1.0)
    dim_ker_proj = m_basis.shape[1] - rank_proj
    dim_ker_s = f - reference_rank(s)
    index_proj = dim_ker_proj - (e - rank_proj)
    index_s = dim_ker_s - (h - reference_rank(s))
    return {
        "dim_ker_projection": dim_ker_proj,
        "dim_ker_S": dim_ker_s,
        "kernel_dims_match": dim_ker_proj == dim_ker_s,
        "projection_full_rank": rank_proj == e,
        "index_projection": index_proj,
        "index_S": index_s,
        "indices_match": index_proj == index_s,
        "sum_is_surjective": reference_rank(np.hstack([t, s])) == h,
    }


def _reference_axis_neighbors(shape, axis):
    num = int(np.prod(shape))
    idx = np.arange(num).reshape(shape)
    return np.roll(idx, -1, axis=axis).ravel(), np.roll(idx, 1, axis=axis).ravel()


def _reference_laplacian_periodic(grid):
    num = grid.num_nodes
    sqrt_h = np.sqrt(np.prod(grid.metric_diag, axis=1))
    mat = np.zeros((num, num))
    rows = np.arange(num)
    for axis, h in enumerate(grid.spacing):
        coeff = sqrt_h / grid.metric_diag[:, axis]
        plus, minus = _reference_axis_neighbors(grid.shape, axis)
        c_plus = 0.5 * (coeff + coeff[plus])
        c_minus = 0.5 * (coeff + coeff[minus])
        scale = 1.0 / (sqrt_h * h * h)
        mat[rows, plus] += scale * c_plus
        mat[rows, minus] += scale * c_minus
        mat[rows, rows] -= scale * (c_plus + c_minus)
    return mat


def _reference_laplacian_latlong(grid):
    n_theta, n_phi = grid.shape
    dtheta, dphi = grid.spacing
    num = grid.num_nodes
    radius_sq = grid.metric_diag[0, 0]
    theta = grid.nodes[:, 0].reshape(n_theta, n_phi)
    sin_t = np.sin(theta)
    idx = np.arange(num).reshape(n_theta, n_phi)
    denom = radius_sq * sin_t * dtheta * dtheta
    c_up = np.sin(theta + 0.5 * dtheta) / denom
    c_dn = np.sin(theta - 0.5 * dtheta) / denom
    c_up[-1] = 0.0
    c_dn[0] = 0.0
    scale = np.broadcast_to(1.0 / (radius_sq * sin_t[:, :1] ** 2 * dphi * dphi), idx.shape)
    mat = np.zeros((num, num))
    mat[idx[:-1], idx[1:]] = c_up[:-1]
    mat[idx[1:], idx[:-1]] = c_dn[1:]
    mat[idx, np.roll(idx, -1, axis=1)] = scale
    mat[idx, np.roll(idx, 1, axis=1)] = scale
    mat[idx, idx] = -c_up - c_dn - 2.0 * scale
    return mat


def _reference_drift_matrix(grid, x):
    num = grid.num_nodes
    mat = np.zeros((num, num))
    if np.abs(x).max() == 0.0:
        return mat
    rows = np.arange(num)
    for axis, h in enumerate(grid.spacing):
        plus, minus = _reference_axis_neighbors(grid.shape, axis)
        c = x[:, axis] / h
        mat[rows, plus] += c
        mat[rows, minus] -= c
    return mat


def reference_dense_operator(grid, coeffs):
    """The stability operator as one dense N x N matrix, assembled entry by
    entry in the order of floating-point operations that the banded
    ``assemble_stability_operator`` must reproduce bit for bit: Laplacian,
    negation, drift, zeroth-order diagonal."""
    if grid.kind.value == "latlong_sphere":
        mat = _reference_laplacian_latlong(grid)
    else:
        mat = _reference_laplacian_periodic(grid)
    mat = -mat
    mat += _reference_drift_matrix(grid, coeffs.X)
    zeroth = coeffs.Q + coeffs.divX - coeffs.normX_sq
    mat[np.diag_indices_from(mat)] += zeroth
    return mat

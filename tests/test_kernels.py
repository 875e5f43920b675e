"""The contraction kernels of the jet-geometry layer against einsum references.

The package contracts jets with stacked ``@``, ``np.matvec``, ``np.vecmat`` and
``np.vecdot`` over reshaped views, and forms outer products by broadcasting.  The
references below write each contraction once more as one ``np.einsum`` with the
index names of the formulas, so a reshape that puts a sum on the wrong axes
shows here by name.  Every comparison holds to ``RTOL`` times the largest
reference entry (at least 1), on random jets with leading shapes ``LEADS`` in
dimensions 2 to 5.  ``test_no_contracting_einsum_in_the_package`` keeps the
package's own ``np.einsum`` calls to pure axis permutations.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from traplab.conformal import ScalarJet2, rescale_metric
from traplab.geometry import (
    MetricJet2,
    Signature,
    TangentVector,
    christoffel,
    christoffel_derivative,
    ricci_from_riemann,
    riemann,
    riem_quadform,
    scalar_curvature,
)
from traplab.initial_data import InitialData, constraints_from_jet, initial_data_expansions
from traplab.scenarios import build_scenario
from traplab.stability import stability_coefficients
from traplab.submanifold import EmbeddingJet2, extrinsic_data

SRC = Path(__file__).resolve().parent.parent / "src" / "traplab"
RTOL = 1e-13
LEADS = [(), (1,), (5,), (2, 3)]
DIMS = [2, 3, 4, 5]
CASES = [(lead, n) for lead in LEADS for n in DIMS]
IDS = [f"lead{lead}-dim{n}" for lead, n in CASES]


def assert_close(fresh, ref):
    fresh, ref = np.asarray(fresh), np.asarray(ref)
    assert fresh.shape == ref.shape
    assert np.abs(fresh - ref).max(initial=0.0) <= RTOL * max(1.0, np.abs(ref).max(initial=0.0))


def symmetric(a, axes=(-1, -2)):
    return 0.5 * (a + a.swapaxes(*axes))


def random_jet(rng, lead, n, signature=Signature.LORENTZIAN):
    """A checked jet at each point of ``lead``: a small symmetric perturbation
    of the flat metric with random symmetric first and second derivatives."""
    eta = np.eye(n)
    if signature is Signature.LORENTZIAN:
        eta[0, 0] = -1.0
    g = eta + 0.05 * symmetric(rng.normal(size=lead + (n, n)))
    dg = symmetric(rng.normal(size=lead + (n,) * 3))
    ddg = symmetric(symmetric(rng.normal(size=lead + (n,) * 4)), (-3, -4))
    return MetricJet2(n, g, dg, ddg, signature)


# einsum references, one per contraction the package writes as a kernel


def christoffel_ref(m):
    bracket = np.einsum("...ilj->...lij", m.dg) + np.einsum("...jil->...lij", m.dg) - m.dg
    return 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(m.g), bracket)


def christoffel_derivative_ref(m):
    ginv = np.linalg.inv(m.g)
    dginv = -np.einsum("...ka,...lab,...bm->...lkm", ginv, m.dg, ginv)
    b = np.einsum("...imj->...mij", m.dg) + np.einsum("...jim->...mij", m.dg) - m.dg
    db = np.einsum("...pimj->...pmij", m.ddg) + np.einsum("...pjim->...pmij", m.ddg) - m.ddg
    return 0.5 * (np.einsum("...pkm,...mij->...pkij", dginv, b)
                  + np.einsum("...km,...pmij->...pkij", ginv, db))


def riemann_ref(m):
    gam, dgam = christoffel_ref(m), christoffel_derivative_ref(m)
    r_up = (np.einsum("...iljk->...ijkl", dgam) - np.einsum("...jlik->...ijkl", dgam)
            + np.einsum("...lia,...ajk->...ijkl", gam, gam)
            - np.einsum("...lja,...aik->...ijkl", gam, gam))
    return np.einsum("...ijkm,...ml->...ijkl", r_up, m.g)


def ricci_ref(r, m):
    ric = np.einsum("...im,...ijkm->...jk", np.linalg.inv(m.g), r)
    return 0.5 * (ric + ric.swapaxes(-1, -2))


def extrinsic_ref(m, d, dd):
    """Shape tensor and mean curvature components of the embedding jet (d, dd)."""
    d_t = d.swapaxes(-1, -2)
    induced_inv = np.linalg.inv(d_t @ m.g @ d)
    accel = dd + np.einsum("...abc,...bi,...cj->...aij", christoffel_ref(m), d, d)
    p_norm = np.eye(m.dim) - d @ induced_inv @ d_t @ m.g
    ii = np.einsum("...ab,...bij->...aij", p_norm, accel)
    return ii, np.einsum("...ij,...aij->...a", induced_inv, ii), induced_inv


def constraints_ref(m, k, dk):
    hinv = np.linalg.inv(m.g)
    r = riemann_ref(m)
    scal = np.einsum("...jk,...jk->...", hinv, ricci_ref(r, m))
    norm_k_sq = np.einsum("...ij,...kl,...ik,...jl->...", k, k, hinv, hinv)
    tr_k = np.einsum("...ij,...ij->...", hinv, k)
    gam = christoffel_ref(m)
    cov_dk = (dk - np.einsum("...lik,...lj->...ikj", gam, k)
              - np.einsum("...lij,...kl->...ikj", gam, k))
    div_k = np.einsum("...ik,...ikj->...j", hinv, cov_dk)
    dhinv = -np.einsum("...ia,...jab,...bk->...jik", hinv, m.dg, hinv)
    d_tr_k = np.einsum("...jik,...ik->...j", dhinv, k) + np.einsum("...ik,...jik->...j", hinv, dk)
    return 0.5 * (scal - norm_k_sq + tr_k * tr_k), div_k - d_tr_k


# random embeddings and slice data


def random_embedding(rng, lead, n, s, time_scale):
    """A random embedding 2-jet at each point of ``lead`` with ``s`` parameters,
    its frame near the spatial axes 1..s, so spacelike for ``random_jet`` metrics
    when the time row is scaled down."""
    d = 0.3 * rng.normal(size=lead + (n, s))
    d[..., 1 : s + 1, :] += np.eye(s)
    d[..., 0, :] *= time_scale
    dd = symmetric(rng.normal(size=lead + (n, s, s)))
    x = rng.normal(size=lead + (n,))
    emb = EmbeddingJet2(s, n, lambda u: (x, d, dd), np.zeros((1, s)))
    return emb, d, dd, np.zeros(lead + (s,))


def unit_normal(m, d):
    """The h-unit normal of a hypersurface with tangent frame d, at each point."""
    w = np.linalg.svd(d)[0][..., :, -1]  # Euclidean-orthogonal to every column of d
    nu = np.matvec(np.linalg.inv(m.g), w)
    return nu / np.sqrt(m.inner(nu, nu))[..., None]


def slice_case(rng, lead, n):
    """A Riemannian jet, a random hypersurface of it with its unit normal, and K, dK."""
    m = random_jet(rng, lead, n, Signature.RIEMANNIAN)
    emb, d, dd, u = random_embedding(rng, lead, n, n - 1, 1.0)
    k = symmetric(rng.normal(size=lead + (n, n)))
    dk = symmetric(rng.normal(size=lead + (n, n, n)))
    data = InitialData(n, lambda p: m, lambda p: (k, dk))
    return m, emb, d, dd, u, k, dk, data, unit_normal(m, d)


@pytest.mark.parametrize("lead,n", CASES, ids=IDS)
def test_connection_and_curvature(lead, n):
    rng = np.random.default_rng(3300 + 10 * n + len(lead))
    m = random_jet(rng, lead, n)
    assert_close(christoffel(m), christoffel_ref(m))
    assert_close(christoffel_derivative(m), christoffel_derivative_ref(m))
    r = riemann(m)
    ref = riemann_ref(m)
    assert_close(r.R, ref)
    assert_close(ricci_from_riemann(r, m), ricci_ref(ref, m))
    assert_close(scalar_curvature(m), np.einsum("...jk,...jk->...", np.linalg.inv(m.g), ricci_ref(ref, m)))
    a, b = rng.normal(size=lead + (n,)), rng.normal(size=lead + (n,))
    base = np.zeros(lead + (n,))
    assert_close(riem_quadform(r, m, TangentVector(base, a), TangentVector(base, b)),
                 np.einsum("...ijkl,...i,...j,...k,...l->...", ref, a, b, b, a))


@pytest.mark.parametrize("lead,n", CASES, ids=IDS)
def test_extrinsic_data(lead, n):
    rng = np.random.default_rng(3400 + 10 * n + len(lead))
    m = random_jet(rng, lead, n)
    for s in range(1, n):
        emb, d, dd, u = random_embedding(rng, lead, n, s, 0.1)
        data = extrinsic_data(emb, lambda x: m, u)
        ii, h, _ = extrinsic_ref(m, d, dd)
        assert_close(data.II, ii)
        assert_close(data.H.components, h)


@pytest.mark.parametrize("lead,n", CASES, ids=IDS)
def test_constraints_from_jet(lead, n):
    rng = np.random.default_rng(3500 + 10 * n + len(lead))
    m = random_jet(rng, lead, n, Signature.RIEMANNIAN)
    k = symmetric(rng.normal(size=lead + (n, n)))
    dk = symmetric(rng.normal(size=lead + (n, n, n)))
    cq = constraints_from_jet(m, k, dk)
    rho, j = constraints_ref(m, k, dk)
    assert_close(cq.rho, rho)
    assert_close(cq.J, j)


@pytest.mark.parametrize("lead,n", CASES, ids=IDS)
def test_slice_expansions_and_stability_coefficients(lead, n):
    rng = np.random.default_rng(3600 + 10 * n + len(lead))
    m, emb, d, dd, u, k, dk, data, nu = slice_case(rng, lead, n)
    ii, h, inv = extrinsic_ref(m, d, dd)
    tr_sigma_k = np.einsum("...ab,...ab->...", inv, d.swapaxes(-1, -2) @ k @ d)
    h_nu = -m.inner(nu, h)
    theta = initial_data_expansions(data, emb, lambda u: nu, u)
    assert_close(theta[0], tr_sigma_k + h_nu)
    assert_close(theta[1], tr_sigma_k - h_nu)

    scal = rng.normal(size=lead)
    surface = SimpleNamespace(nu=lambda u: nu, scal_sigma=lambda u: scal)
    q, x, norm_x = stability_coefficients(data, surface, u, extrinsic_data(emb, data.h_field, u))
    rho, j = constraints_ref(m, k, dk)
    k_nu = -np.einsum("...a,...aij->...ij", np.einsum("...ab,...b->...a", m.g, nu), ii)
    total = k_nu + d.swapaxes(-1, -2) @ k @ d
    norm_total_sq = np.einsum("...ac,...bd,...ab,...cd->...", inv, inv, total, total)
    omega = np.einsum("...ai,...ab,...b->...i", d, k, nu)
    assert_close(q, 0.5 * scal - (np.einsum("...a,...a->...", j, nu) + rho) - 0.5 * norm_total_sq)
    assert_close(x, np.einsum("...ij,...j->...i", inv, omega))
    assert_close(norm_x, np.einsum("...i,...ij,...j->...", omega, inv, omega))


@pytest.mark.parametrize("lead,n", CASES, ids=IDS)
def test_rescale_metric(lead, n):
    rng = np.random.default_rng(3700 + 10 * n + len(lead))
    m = random_jet(rng, lead, n)
    f = ScalarJet2(0.1 * rng.normal(size=lead), rng.normal(size=lead + (n,)),
                   symmetric(rng.normal(size=lead + (n, n))))
    out = rescale_metric(m, f)
    w = np.exp(2.0 * f.value)
    dg_over_w = 2.0 * np.einsum("...k,...ij->...kij", f.grad, m.g) + m.dg
    ddg_over_w = (2.0 * np.einsum("...l,...kij->...lkij", f.grad, dg_over_w)
                  + 2.0 * np.einsum("...lk,...ij->...lkij", f.hess, m.g)
                  + 2.0 * np.einsum("...k,...lij->...lkij", f.grad, m.dg) + m.ddg)
    assert_close(out.dg, np.einsum("...,...kij->...kij", w, dg_over_w))
    assert_close(out.ddg, np.einsum("...,...lkij->...lkij", w, ddg_over_w))


@pytest.mark.parametrize("lead", LEADS, ids=[f"lead{lead}" for lead in LEADS])
def test_schwarzschild_jets_are_outer_products_with_eye(lead):
    # the conformally flat slice and the spatial block of the spacetime metric:
    # d_k g_ij = d_k psi^4 delta_ij and d_l d_k g_ij = d_l d_k psi^4 delta_ij
    sc = build_scenario("schwarzschild_slice_isotropic", {})
    rng = np.random.default_rng(3800 + len(lead))
    p = rng.normal(size=lead + (4,)) + np.array([0.0, 3.0, 0.0, 0.0])
    eye = np.eye(3)
    h, m = sc.initial_data.h_field(p[..., 1:]), sc.metric(p)
    for dg, ddg in ((h.dg, h.ddg), (m.dg[..., 1:, 1:, 1:], m.ddg[..., 1:, 1:, 1:, 1:])):
        assert_close(dg, np.einsum("...k,ij->...kij", dg[..., :, 0, 0], eye))
        assert_close(ddg, np.einsum("...lk,ij->...lkij", ddg[..., :, :, 0, 0], eye))


def contracting_einsums(src: Path) -> list[str]:
    """``file:line`` of each ``einsum`` call under ``src`` that is not a pure
    axis permutation of one operand with a literal subscript string."""
    bad = []
    for path in sorted(src.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "einsum"):
                continue
            spec = call.args[0].value if call.args and isinstance(call.args[0], ast.Constant) else ""
            inputs, arrow, output = str(spec).replace("...", "").partition("->")
            if not (arrow and len(call.args) == 2 and not call.keywords and "," not in inputs
                    and sorted(inputs) == sorted(output) and len(set(output)) == len(output)):
                bad.append(f"{path.name}:{call.lineno}")
    return bad


def test_no_contracting_einsum_in_the_package():
    # contractions are matmul kernels; an einsum may only permute the axes of one operand
    bad = contracting_einsums(SRC)
    assert not bad, f"einsum calls that contract or take several operands: {bad}"


@pytest.mark.parametrize("call,ok", [
    ('np.einsum("...ij->...ji", a)', True),
    ('np.einsum("...ij,...jk->...ik", a, b)', False),
    ('np.einsum("...ij,...kl->...ijkl", a, b)', False),
    ('np.einsum("...ii->...", a)', False),
    ('np.einsum("...ij->...i", a)', False),
    ('np.einsum("ij", a)', False),
    ('np.einsum(spec, a)', False),
])
def test_einsum_rule_reads_the_subscripts(call, ok, tmp_path):
    (tmp_path / "mod.py").write_text(f"import numpy as np\n\n\ndef f(a, b, spec):\n    return {call}\n")
    assert contracting_einsums(tmp_path) == ([] if ok else ["mod.py:5"])

import numpy as np
import pytest

from traplab import linear_analysis
from traplab.linear_analysis import (
    OperatorTriple,
    adjoint_kernels_trivial,
    codim_formula_check,
    perp_intersection_trivial,
    projection_regularity,
    sum_surjective,
)

from traplab.verify import MAX_LINEAR_DIM, _linear_lemma_stacks, linear_lemma_results, verify_linear_lemmas

from _oracles import (
    column_space_union_full,
    linear_lemma_instances,
    reference_codim,
    reference_projection,
    reference_surjectivity,
)

SURJECTIVITY_TESTS = (sum_surjective, perp_intersection_trivial, adjoint_kernels_trivial)


def pad_columns(a, width=8):
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])])


def map_of_rank(rng, h, k, rank):
    return rng.normal(size=(h, rank)) @ rng.normal(size=(rank, k))


def planted_maps(rng, h, k, count):
    """Maps (count, h, k) cycling through every rank 0..min(h, k)."""
    return np.stack([map_of_rank(rng, h, k, i % (min(h, k) + 1)) for i in range(count)])


class TestSumSurjective:
    def test_overlapping_columns(self):
        tr = OperatorTriple(T=np.array([[1.0], [0.0]]), S=np.array([[1.0], [0.0]]))
        assert not sum_surjective(tr)
        assert not perp_intersection_trivial(tr)
        assert not adjoint_kernels_trivial(tr)

    def test_identity_second_factor(self, rng):
        for _ in range(5):
            tr = OperatorTriple(T=rng.normal(size=(2, 3)), S=np.eye(2))
            assert sum_surjective(tr)
            assert perp_intersection_trivial(tr)
            assert adjoint_kernels_trivial(tr)

    def test_against_gram_schmidt_union_oracle(self, rng):
        for _ in range(100):
            tr = OperatorTriple(T=rng.normal(size=(6, 4)), S=rng.normal(size=(6, 3)))
            # degenerate some instances so both verdicts occur
            if rng.random() < 0.5:
                tr = OperatorTriple(T=tr.T[:, :1] @ np.ones((1, 4)), S=tr.S[:, :1] @ np.ones((1, 3)))
            assert sum_surjective(tr) == column_space_union_full(tr.T, tr.S)

    def test_zero_maps(self):
        tr = OperatorTriple(T=np.zeros((3, 2)), S=np.zeros((3, 2)))
        assert not sum_surjective(tr)
        assert not perp_intersection_trivial(tr)


class TestEquivalence:
    def test_batch_equivalence(self):
        rng = np.random.default_rng(424242)
        for _ in range(1000):
            h, e, f = (int(rng.integers(1, 9)) for _ in range(3))
            tr = OperatorTriple(T=rng.normal(size=(h, e)), S=rng.normal(size=(h, f)))
            a, b, c = (
                sum_surjective(tr),
                perp_intersection_trivial(tr),
                adjoint_kernels_trivial(tr),
            )
            assert a == b == c


class TestCodimFormula:
    def test_identity_map(self):
        assert codim_formula_check(np.eye(4), np.eye(4)[:, :2]) == (2, 2, 2)

    def test_zero_map(self):
        assert codim_formula_check(np.zeros((4, 3)), np.eye(4)[:, :2]) == (0, 0, 2)

    def test_dependent_basis_rank(self):
        # a rank below the basis's column count marks the sides as meaningless
        basis = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        assert codim_formula_check(np.eye(3), basis)[2] == 1

    def test_batch_integer_equality(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 500:
            v, u = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            s = int(rng.integers(0, v + 1))
            basis = rng.normal(size=(v, s)) if s else np.zeros((v, 0))
            if s and np.linalg.matrix_rank(basis) < s:
                continue
            l = rng.normal(size=(v, u))
            if rng.random() < 0.3:
                l[:, : u // 2 + 1] = 0.0  # force rank deficiency sometimes
            lhs, rhs, rank = codim_formula_check(l, basis)
            assert lhs == rhs and rank == s
            checked += 1


class TestProjectionRegularity:
    def test_invertible_second_map(self, rng):
        tr = OperatorTriple(T=rng.normal(size=(3, 2)), S=np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
        rep = projection_regularity(tr)
        assert rep.dim_ker_projection == 0
        assert rep.projection_full_rank

    def test_zero_second_map_surjective_first(self, rng):
        tr = OperatorTriple(T=np.eye(3), S=np.zeros((3, 2)))
        rep = projection_regularity(tr)
        assert rep.dim_ker_projection == 2  # = dim ker S = f

    def test_kernel_identity_batch(self):
        rng = np.random.default_rng(31415)
        for _ in range(200):
            h, e, f = (int(rng.integers(1, 9)) for _ in range(3))
            tr = OperatorTriple(T=rng.normal(size=(h, e)), S=rng.normal(size=(h, f)))
            rep = projection_regularity(tr)
            assert rep.kernel_dims_match
            if rep.sum_is_surjective:
                assert rep.indices_match

    def test_square_second_map_regularity_criterion(self):
        # with matching dimensions, full-rank projection is equivalent to a
        # trivial kernel of the second map
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = int(rng.integers(1, 7))
            e = int(rng.integers(1, 7))
            tr = OperatorTriple(T=rng.normal(size=(h, e)), S=rng.normal(size=(h, h)))
            if rng.random() < 0.4:
                tr.S[:, 0] = tr.S[:, -1]  # make S singular sometimes
            if not sum_surjective(tr):
                continue
            rep = projection_regularity(tr)
            ker_s_trivial = np.linalg.matrix_rank(tr.S) == h
            assert rep.projection_full_rank == ker_s_trivial


class TestStacks:
    def test_suite_draws_match_per_instance_path(self):
        # every seed-2024 instance of the linear-lemmas suite, stacked as the
        # suite stacks it, against the one-instance-at-a-time functions
        triples, pairs, projection_pairs = linear_lemma_instances(2024)
        verdicts, sides, rep = linear_lemma_results(2024)
        assert verdicts.tolist() == [list(reference_surjectivity(t, s)) for t, s in triples]
        assert sides.T.tolist() == [list(reference_codim(l, b)) for l, b in pairs]
        for i, (t, s) in enumerate(projection_pairs):
            stacked = {name: value[i] for name, value in vars(rep).items()}
            assert stacked == reference_projection(t, s)
            assert stacked == vars(projection_regularity(OperatorTriple(T=t, S=s)))

    def test_projection_section_stacks_by_h(self, monkeypatch):
        # one projection_regularity stack per distinct h (three SVDs each)
        _, _, projection_pairs = linear_lemma_instances(2024)
        stacks = []
        original = linear_analysis.projection_regularity

        def recording(tr, *args):
            stacks.append(tr.T.shape[:2])
            return original(tr, *args)

        monkeypatch.setattr(linear_analysis, "projection_regularity", recording)
        linear_lemma_results(2024)
        assert sorted(h for _, h in stacks) == sorted({t.shape[0] for t, _ in projection_pairs})
        assert sum(count for count, _ in stacks) == len(projection_pairs)

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_suite_draw_invariants(self, seed):
        # (count, smallest width of the second map) per section: the basis width s may be 0
        for stacks, count, low in zip(_linear_lemma_stacks(seed), (1000, 500, 200), (1, 0, 1)):
            heights = [a.shape[1] for _, a, _, _, _ in stacks]
            assert heights == sorted(set(heights)) and set(heights) <= set(range(1, 9))
            assert np.array_equal(np.sort(np.concatenate([idx for idx, *_ in stacks])), np.arange(count))
            for idx, a, b, width_a, width_b in stacks:
                h = a.shape[1]
                assert a.shape == b.shape == (idx.size, h, MAX_LINEAR_DIM)
                assert (1 <= width_a).all() and (width_a <= MAX_LINEAR_DIM).all()
                assert (low <= width_b).all() and (width_b <= (h if low == 0 else MAX_LINEAR_DIM)).all()
                for maps, widths in ((a, width_a), (b, width_b)):
                    padding = np.arange(MAX_LINEAR_DIM) >= widths[:, None, None]
                    assert (maps[np.broadcast_to(padding, maps.shape)] == 0.0).all()
                    assert (maps[~np.broadcast_to(padding, maps.shape)] != 0.0).all()

    @pytest.mark.parametrize("seed", [0, 1, 7, 99, 2024])
    def test_suite_passes_across_seeds(self, seed):
        records = verify_linear_lemmas(seed)
        assert all(r.passed for r in records)
        details = [r.detail for r in records[:3]]
        assert [d.split()[0] for d in details] == ["1000", "500", "200"]

    def test_suite_svd_calls(self, monkeypatch):
        # per codimension group the basis rank comes from its complement's SVD:
        # 8 groups x (5 surjectivity + 3 codimension + 3 projection) SVDs
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        linear_lemma_results(2024)
        assert len(calls) == 88

    @pytest.mark.parametrize("h, e, f", [(5, 2, 2), (4, 3, 5), (3, 1, 1), (6, 6, 6)])
    def test_mixed_ranks_in_one_stack(self, h, e, f):
        rng = np.random.default_rng(h * 100 + e * 10 + f)
        t = planted_maps(rng, h, e, 12)
        s = planted_maps(rng, h, f, 12)[::-1].copy()
        s[0] = s[-1]  # S repeats a map of the stack
        t[3] = 0.0    # zero maps sit beside full-rank ones
        stack = OperatorTriple(T=t, S=s)
        verdicts = np.stack([test(stack) for test in SURJECTIVITY_TESTS], axis=-1)
        rep = projection_regularity(stack)
        for i in range(len(t)):
            single = OperatorTriple(T=t[i], S=s[i])
            assert verdicts[i].tolist() == [test(single) for test in SURJECTIVITY_TESTS]
            assert verdicts[i].tolist() == list(reference_surjectivity(t[i], s[i]))
            single_rep = projection_regularity(single)
            assert {k: v[i] for k, v in vars(rep).items()} == vars(single_rep)
            assert vars(single_rep) == reference_projection(t[i], s[i])
        if h > e + f:
            assert not verdicts.any()

    def test_codimension_stack_with_empty_subspaces(self):
        rng = np.random.default_rng(12)
        v, u = 5, 4
        dims = np.array([0, 2, 5, 0, 3, 1])
        l = planted_maps(rng, v, u, len(dims))
        basis = np.zeros((len(dims), v, 8))
        for i, k in enumerate(dims):
            basis[i, :, :k] = rng.normal(size=(v, k))
        lhs, rhs, rank = codim_formula_check(pad_columns(l), basis, dims)
        assert rank.tolist() == dims.tolist()
        for i, k in enumerate(dims):
            single = codim_formula_check(l[i], basis[i, :, :k])
            assert (lhs[i], rhs[i], k) == single
            assert (lhs[i], rhs[i]) == reference_codim(l[i], basis[i, :, :k])

    def test_zero_column_padding_keeps_answers(self):
        rng = np.random.default_rng(2718)
        for i in range(200):
            h, e, f, u = (int(rng.integers(1, 9)) for _ in range(4))
            # T of full rank or one below it, so that both verdicts occur
            tr = OperatorTriple(T=map_of_rank(rng, h, e, min(h, e) - i % 2), S=rng.normal(size=(h, f)))
            padded = OperatorTriple(T=pad_columns(tr.T), S=pad_columns(tr.S))
            for test in SURJECTIVITY_TESTS:
                assert test(padded) == test(tr)
            s = int(rng.integers(0, h + 1))
            basis = rng.normal(size=(h, s))
            l = rng.normal(size=(h, u))
            assert codim_formula_check(pad_columns(l), pad_columns(basis), s) == codim_formula_check(l, basis)

    @pytest.mark.parametrize("h", [1, 3, 6])
    def test_projection_stack_padded_past_each_e_and_f(self, h):
        # one stack per h, as the suite stacks its projection pairs: maps of
        # every shape and rank at that h, zero-padded to 8 columns and carrying
        # their own e and f, against the one-instance functions and the oracle
        rng = np.random.default_rng(31 + h)
        pairs = [(map_of_rank(rng, h, e, r % (min(h, e) + 1)), map_of_rank(rng, h, f, r % (min(h, f) + 1)))
                 for r, (e, f) in enumerate((e, f) for e in range(1, 9) for f in range(1, 9))]
        e, f = np.array([[t.shape[1], s.shape[1]] for t, s in pairs]).T
        stack = OperatorTriple(T=np.stack([pad_columns(t) for t, _ in pairs]),
                               S=np.stack([pad_columns(s) for _, s in pairs]))
        rep = projection_regularity(stack, e, f)
        for i, (t, s) in enumerate(pairs):
            single = vars(projection_regularity(OperatorTriple(T=t, S=s)))
            assert {name: value[i] for name, value in vars(rep).items()} == single
            assert single == reference_projection(t, s)

    def test_one_dependent_basis_in_the_stack(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(4, 5, 3))
        basis[2, :, 2] = basis[2, :, 0] - basis[2, :, 1]
        assert codim_formula_check(rng.normal(size=(4, 5, 2)), basis)[2].tolist() == [3, 3, 2, 3]


class TestNonFiniteInput:
    def test_single_instance(self):
        with pytest.raises(ValueError, match="T has a non-finite entry"):
            OperatorTriple(T=[[np.nan, 1.0], [0.0, 1.0]], S=np.eye(2))

    def test_names_the_stack_index(self):
        s = np.ones((2, 3, 3, 2))
        s[1, 2, 0, 1] = np.inf
        with pytest.raises(ValueError, match=r"S has a non-finite entry at stack index \(1, 2\)"):
            OperatorTriple(T=np.ones((2, 3, 3, 4)), S=s)

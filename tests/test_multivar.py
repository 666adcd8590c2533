import itertools

import numpy as np
import pytest

from quatpoly import (
    HyperStatus,
    MatrixPolynomial,
    MultiPolynomial,
    Quaternion,
    QuaternionMatrix,
    Region,
    StabilityStatus,
    ZeroInOmegaError,
    check_hyperstability,
    check_stability,
    check_stability_multi,
    derive_hyperstability_cubic,
    derive_hyperstability_quadratic,
    eigenvector_at,
    eval_action_multi,
    eval_word,
    evaluate_action,
    is_eigenvalue_oracle,
    polyeig,
    rank_decision,
    real_rep_left,
    vec4,
    vec4_to_qvec,
    vec_entries,
)
from quatpoly.matpoly import realified_sweep
from quatpoly.quaternion import right_action_matrix
from _helpers import (
    random_polynomial,
    random_qmatrix,
    random_quaternion,
    random_unit_qvec,
)

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def two_variable_mixed_example():
    """I uv + diag(1,0) vu + I u + I: not stable over {-1/2, 1/2}^2."""
    eye = QuaternionMatrix.identity(2)
    proj = QuaternionMatrix.diagonal([ONE, Quaternion(0)])
    return MultiPolynomial.build(2, [((1, 2), eye), ((2, 1), proj),
                                     ((1,), eye), ((), eye)])


def two_variable_product_example():
    """I uv + I v: hyperstable whenever 0 and -1 stay outside the probes."""
    eye = QuaternionMatrix.identity(2)
    return MultiPolynomial.build(2, [((1, 2), eye), ((2,), eye)])


def test_eval_word_examples():
    assert eval_word((1, 2), [I, J]).approx_eq(K, 0.0)
    assert eval_word((2, 1), [I, J]).approx_eq(-K, 0.0)
    assert eval_word((), [I, J]).approx_eq(ONE, 0.0)
    assert eval_word((1, 2), [I, J]).approx_eq(-eval_word((2, 1), [I, J]), 0.0)


def test_eval_action_multi_examples():
    multi = two_variable_mixed_example()
    out = eval_action_multi(multi, [ONE, Quaternion(0)],
                            [Quaternion(-0.5), Quaternion(0.5)])
    assert out.max_entry_modulus() <= 1e-15

    out = eval_action_multi(multi, [Quaternion(0), Quaternion(0)], [I, J])
    assert out.max_entry_modulus() == 0.0

    prod = two_variable_product_example()
    out = eval_action_multi(prod, [ONE, Quaternion(0)], [ONE, ONE])
    entries = vec_entries(out)
    assert entries[0].approx_eq(Quaternion(2), 1e-15)
    assert entries[1].approx_eq(Quaternion(0), 1e-15)


def test_check_stability_multi_mixed_example():
    omega = Region.finite_set([Quaternion(-0.5), Quaternion(0.5)])
    verdict = check_stability_multi(two_variable_mixed_example(), omega)
    assert verdict.status is StabilityStatus.NOT_STABLE
    mu1, mu2 = verdict.witness_tuple
    assert mu1.approx_eq(Quaternion(-0.5), 0.0)
    assert mu2.approx_eq(Quaternion(0.5), 0.0)
    entries = vec_entries(verdict.witness_vector)
    assert entries[0].modulus() == pytest.approx(1.0, abs=1e-12)
    assert entries[0].vec_norm() <= 1e-12
    assert entries[1].modulus() <= 1e-12


def test_check_stability_multi_product_example():
    omega = Region.finite_set([Quaternion(0.5), Quaternion(-2), I, K])
    verdict = check_stability_multi(two_variable_product_example(), omega)
    assert verdict.status is StabilityStatus.STABLE


def test_check_stability_multi_single_term():
    single = MultiPolynomial.build(1, [((1,), QuaternionMatrix.identity(2))])
    verdict = check_stability_multi(single, Region.finite_set([ONE]))
    assert verdict.status is StabilityStatus.STABLE


def test_multi_rejects_non_finite_region():
    with pytest.raises(ValueError):
        check_stability_multi(two_variable_product_example(),
                              Region.open_ball(Quaternion(0), 1.0))


def test_term_order_insensitive():
    eye = QuaternionMatrix.identity(2)
    proj = QuaternionMatrix.diagonal([ONE, Quaternion(0)])
    terms = [((1, 2), eye), ((2, 1), proj), ((1,), eye), ((), eye)]
    omega = Region.finite_set([Quaternion(-0.5), Quaternion(0.5)])
    baseline = check_stability_multi(MultiPolynomial.build(2, terms), omega)
    for shuffled in ([terms[3], terms[1], terms[0], terms[2]],
                     [terms[2], terms[0], terms[3], terms[1]]):
        verdict = check_stability_multi(MultiPolynomial.build(2, shuffled), omega)
        assert verdict.status == baseline.status
        assert all(a.approx_eq(b, 0.0) for a, b in
                   zip(verdict.witness_tuple, baseline.witness_tuple))


def test_duplicate_words_merge_and_zero_terms_drop():
    eye = QuaternionMatrix.identity(2)
    multi = MultiPolynomial.build(2, [((1,), eye), ((1,), eye * -1.0), ((), eye)])
    assert len(multi.terms) == 1  # the (1,) terms cancel


def test_diagonal_restriction_matches_univariate():
    rng = np.random.default_rng(50)
    eye = QuaternionMatrix.identity(2)
    a2 = QuaternionMatrix.diagonal([random_quaternion(rng), random_quaternion(rng)])
    a1 = QuaternionMatrix.diagonal([random_quaternion(rng), random_quaternion(rng)])
    a0 = eye
    uni = MatrixPolynomial([a0, a1, a2])
    multi = MultiPolynomial.build(2, [((1, 2), a2), ((2,), a1), ((), a0)])
    for _ in range(20):
        mu = random_quaternion(rng)
        y = random_unit_qvec(rng, 2)
        lhs = eval_action_multi(multi, y, [mu, mu])
        rhs = evaluate_action(uni, y, mu)
        assert (lhs - rhs).max_entry_modulus() <= 1e-12 * max(1.0, mu.modulus() ** 2)


def test_derive_quadratic_form_ii_product_example():
    eye = QuaternionMatrix.identity(2)
    omega = Region.finite_set([Quaternion(0.5), Quaternion(-2), I, K])
    verdict = derive_hyperstability_quadratic(eye, eye, QuaternionMatrix.zeros(2, 2),
                                              omega, "ii")
    assert verdict.status is HyperStatus.HYPERSTABLE
    assert verdict.certificate == "multivariate-quadratic-ii"


def test_derive_quadratic_zero_in_omega_guard():
    eye = QuaternionMatrix.identity(2)
    omega = Region.finite_set([Quaternion(0), ONE])
    with pytest.raises(ZeroInOmegaError):
        derive_hyperstability_quadratic(eye, eye, eye, omega, "ii")
    # form i carries no such precondition
    verdict = derive_hyperstability_quadratic(eye, eye, eye, omega, "i")
    assert verdict.status in (HyperStatus.HYPERSTABLE, HyperStatus.UNKNOWN)


def test_mixed_example_not_expressible_in_derivation_forms():
    words = {w for w, _ in two_variable_mixed_example().terms}
    assert (2, 1) in words  # the derivation rules only build (1,1)/(1,2)/(2,)/() terms
    assert words - {(1, 1), (1, 2), (2,), ()} != set()


def test_derive_quadratic_one_directional():
    # Multivariate stability fails at (-1, anything): verdict must stay
    # UNKNOWN rather than flip to a negative claim.
    eye = QuaternionMatrix.identity(2)
    omega = Region.finite_set([Quaternion(-1), Quaternion(0.5)])
    verdict = derive_hyperstability_quadratic(eye, eye, QuaternionMatrix.zeros(2, 2),
                                              omega, "i")
    assert verdict.status is HyperStatus.UNKNOWN


def test_derive_quadratic_dual_path_agreement():
    rng = np.random.default_rng(51)
    omega = Region.finite_set([Quaternion(10), Quaternion(0, 10, 0, 0)])
    for _ in range(10):
        eye = QuaternionMatrix.identity(2)
        a1 = QuaternionMatrix.diagonal([random_quaternion(rng, 0.5),
                                        random_quaternion(rng, 0.5)])
        a0 = QuaternionMatrix.diagonal([random_quaternion(rng, 0.5),
                                        random_quaternion(rng, 0.5)])
        derived = derive_hyperstability_quadratic(eye, a1, a0, omega, "i")
        if derived.status is HyperStatus.HYPERSTABLE:
            ladder = check_hyperstability(MatrixPolynomial([a0, a1, eye]), omega)
            assert ladder.status is HyperStatus.HYPERSTABLE
            assert check_stability(MatrixPolynomial([a0, a1, eye]),
                                   omega).status is StabilityStatus.STABLE


def test_derive_cubic_identity_coefficients():
    eye = QuaternionMatrix.identity(2)
    ok = derive_hyperstability_cubic(eye, eye, eye, eye,
                                     Region.finite_set([Quaternion(2)]))
    assert ok.status is HyperStatus.HYPERSTABLE
    assert ok.certificate == "multivariate-cubic-literal"

    unknown = derive_hyperstability_cubic(eye, eye, eye, eye,
                                          Region.finite_set([Quaternion(-1)]))
    assert unknown.status is HyperStatus.UNKNOWN

    with pytest.raises(ZeroInOmegaError):
        derive_hyperstability_cubic(eye, eye, eye, eye,
                                    Region.finite_set([Quaternion(0)]))


def test_derive_cubic_leading_switch_diverges():
    # c0 = 1, c3 = 2 at the tuple (-1, -1): the literal reading evaluates to
    # -1 + 1 - 1 + 1 = 0 (singular) while the a3 reading gives -2 + 1 - 1 + 1.
    one = QuaternionMatrix.identity(1)
    two = QuaternionMatrix.identity(1) * 2.0
    omega = Region.finite_set([Quaternion(-1)])
    literal = derive_hyperstability_cubic(two, one, one, one, omega, leading="literal")
    assert literal.status is HyperStatus.UNKNOWN
    swapped = derive_hyperstability_cubic(two, one, one, one, omega, leading="a3")
    assert swapped.status is HyperStatus.HYPERSTABLE
    assert swapped.certificate == "multivariate-cubic-a3"


def _record_sweep_operators(monkeypatch):
    """Capture every operator the realified sweep hands to the rank test,
    one entry per slice of each stack."""
    from quatpoly import matpoly

    seen = []

    def record(stack):
        seen.extend(np.array(m) for m in stack)
        return np.full(len(stack), "nonsingular"), np.zeros(stack.shape[:2])

    monkeypatch.setattr(matpoly, "rank_decisions", record)
    return seen


def _sweep_scale(terms, tup):
    """What the sweep divides a tuple's operator by: the power of two 2^e
    with the largest entry modulus of the coefficients in [2^(e-1), 2^e),
    times 2^E, E the largest over the words of the sum of their letters'
    exponents, each letter's the e of its modulus."""
    letters = [np.frexp(np.hypot.reduce(q.as_array()))[1] for q in tup]
    word_exp = max(sum(letters[letter - 1] for letter in word) for word, _ in terms)
    return 2.0 ** (np.frexp(max(a.max_entry_modulus() for _, a in terms))[1] + word_exp)


def _assert_columns_are_actions(op, action, n, terms, tup):
    """Column j of op, times the sweep's scale, is vec4 of the action on the
    j-th real unit vector."""
    op = op * _sweep_scale(terms, tup)
    atol = 1e-12 * (1.0 + np.abs(op).max())
    for j in range(4 * n):
        unit = np.zeros(4 * n)
        unit[j] = 1.0
        np.testing.assert_allclose(op[:, j], vec4(action(vec4_to_qvec(unit))),
                                   rtol=0.0, atol=atol)


def test_sweep_operator_matches_univariate_action(monkeypatch):
    seen = _record_sweep_operators(monkeypatch)
    rng = np.random.default_rng(4101)
    for n in range(1, 5):
        for m in range(4):
            p = random_polynomial(rng, n, m)
            mu = random_quaternion(rng)
            seen.clear()
            is_eigenvalue_oracle(p, mu)
            assert len(seen) == 1
            _assert_columns_are_actions(seen[0], lambda y: evaluate_action(p, y, mu), n,
                                        p.terms, (mu,))


def test_sweep_operator_matches_two_variable_action(monkeypatch):
    seen = _record_sweep_operators(monkeypatch)
    rng = np.random.default_rng(4102)
    words = [w for length in range(4) for w in itertools.product((1, 2), repeat=length)]
    for n in range(1, 5):
        picks = rng.choice(len(words), size=5, replace=False)
        p = MultiPolynomial.build(2, [(words[t], random_qmatrix(rng, n)) for t in picks])
        points = [random_quaternion(rng) for _ in range(2)]
        seen.clear()
        check_stability_multi(p, Region.finite_set(points))
        tuples = list(itertools.product(points, repeat=2))
        assert len(seen) == len(tuples)
        for op, tup in zip(seen, tuples):
            _assert_columns_are_actions(op, lambda y: eval_action_multi(p, y, tup), n,
                                        p.terms, tup)


def _sweep_one_tuple_at_a_time(terms, tuples):
    """Reference sweep: build and rank-test one operator per tuple."""
    n = terms[0][1].n_rows
    undecided = False
    for tup in tuples:
        op = np.zeros((4 * n, n, 4))
        for word, a in terms:
            op += real_rep_left(a).reshape(4 * n, n, 4) @ right_action_matrix(eval_word(word, tup))
        status, kernel = rank_decision(op.reshape(4 * n, 4 * n))
        if status == "singular":
            return status, tup, vec4_to_qvec(kernel / np.linalg.norm(kernel))
        undecided = undecided or status == "unknown"
    return ("unknown" if undecided else "nonsingular"), None, None


def _assert_same_sweep(terms, tuples):
    got = realified_sweep(terms, iter(tuples))
    want = _sweep_one_tuple_at_a_time(terms, tuples)
    assert got[0] == want[0]
    assert got[1] is want[1]
    if want[2] is not None:
        for a, b in ((got[2].a1, want[2].a1), (got[2].a2, want[2].a2)):
            a, b = a.view(float), b.view(float)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    return got


def test_sweep_operators_equal_the_per_tuple_build(monkeypatch):
    # Batched word products and block products repeat the per-tuple
    # floating-point operations exactly, and the power-of-two scales are exact.
    seen = _record_sweep_operators(monkeypatch)
    rng = np.random.default_rng(4107)
    words = [w for length in range(4) for w in itertools.product((1, 2), repeat=length)]
    for n in range(1, 5):
        picks = rng.choice(len(words), size=6, replace=False)
        p = MultiPolynomial.build(2, [(words[t], random_qmatrix(rng, n)) for t in picks])
        points = [random_quaternion(rng) for _ in range(5)]
        seen.clear()
        check_stability_multi(p, Region.finite_set(points))
        for op, tup in zip(seen, itertools.product(points, repeat=2), strict=True):
            want = np.zeros((4 * n, n, 4))
            for word, a in p.terms:
                want += real_rep_left(a).reshape(4 * n, n, 4) @ right_action_matrix(eval_word(word, tup))
            assert np.array_equal(op * _sweep_scale(p.terms, tup), want.reshape(4 * n, 4 * n))


# I t - diag(2, 3): 3 is an exact eigenvalue, and the operator at
# 2 + 5e-11 has a pivot inside the rank dead band.
_SHIFTED = MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-2.0), Quaternion(-3.0)]),
                             QuaternionMatrix.identity(2)])


def _far_points(rng, count):
    return [(Quaternion(10.0) + random_quaternion(rng),) for _ in range(count)]


@pytest.mark.parametrize("planted", [0, 1, 4, 5, 20, 21, 84, 85, 99])
def test_sweep_reports_the_first_singular_tuple_across_chunks(planted):
    # Chunks hold tuples 0, 1-4, 5-20, 21-84 and 85 on: plant an exact
    # eigenvalue on either side of every boundary, and a second one later.
    tuples = _far_points(np.random.default_rng(4104), 100)
    tuples[planted] = (Quaternion(3.0),)
    tuples[min(planted + 3, 99)] = (Quaternion(3.0),)
    status, tup, _ = _assert_same_sweep(_SHIFTED.terms, tuples)
    assert status == "singular" and tup is tuples[planted]


def test_sweep_prefers_a_later_singular_tuple_to_an_earlier_dead_band():
    tuples = _far_points(np.random.default_rng(4105), 30)
    tuples[3] = (Quaternion(2.0 + 5e-11),)
    assert _assert_same_sweep(_SHIFTED.terms, tuples)[0] == "unknown"
    tuples[25] = (Quaternion(3.0),)
    status, tup, _ = _assert_same_sweep(_SHIFTED.terms, tuples)
    assert status == "singular" and tup is tuples[25]
    assert _assert_same_sweep(_SHIFTED.terms, tuples[:3])[0] == "nonsingular"


def test_sweep_matches_one_tuple_at_a_time_on_random_multivariate_input():
    rng = np.random.default_rng(4106)
    words = [w for length in range(4) for w in itertools.product((1, 2), repeat=length)]
    statuses = set()
    for trial in range(12):
        n = 1 + trial % 4
        picks = rng.choice(len(words), size=4, replace=False)
        p = MultiPolynomial.build(2, [(words[t], random_qmatrix(rng, n)) for t in picks])
        points = [random_quaternion(rng) for _ in range(6)]
        if trial % 2:
            # A zero column makes every tuple singular, from the first chunk on.
            for _, a in p.terms:
                a.a1[:, 0] = 0.0
                a.a2[:, 0] = 0.0
        statuses.add(_assert_same_sweep(p.terms, list(itertools.product(points, repeat=2)))[0])
    assert statuses == {"singular", "nonsingular"}


def test_check_stability_matches_one_letter_multivariate():
    rng = np.random.default_rng(4103)
    statuses = set()
    for trial in range(8):
        n, m = 1 + trial % 3, 1 + trial % 2
        p = random_polynomial(rng, n, m, invertible_ends=True)
        points = [random_quaternion(rng) for _ in range(3)]
        if trial % 2 == 0:
            points.insert(1, polyeig(p)[trial % (n * m)].lift())
        region = Region.finite_set(points)
        uni = check_stability(p, region)
        multi = check_stability_multi(MultiPolynomial.build(1, p.terms), region)
        statuses.add(uni.status)
        assert multi.status is uni.status
        if uni.witness is None:
            assert multi.witness_tuple is None
            continue
        (mu,) = multi.witness_tuple
        assert mu.approx_eq(uni.witness, 0.0)
        assert multi.witness_vector.allclose(eigenvector_at(p, mu), 1e-12)
    assert statuses == {StabilityStatus.STABLE, StabilityStatus.NOT_STABLE}

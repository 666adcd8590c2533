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
    evaluate_action,
    is_eigenvalue_oracle,
    polyeig,
    rank_decision,
    real_rep_left,
    vec4_to_qvec,
    vec_entries,
)
from quatpoly.linalg import lift_singular_values
from quatpoly.matpoly import _word_values, realified_sweep
from quatpoly.quaternion import right_action_matrices, right_action_matrix
from _helpers import (
    random_polynomial,
    random_qmatrix,
    random_quaternion,
    random_unit_qvec,
)
from _reference import eval_action_multi, eval_word, vec4

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


def test_derive_quadratic_in_the_rank_dead_band_is_unknown():
    # Form i's u^2 + v - 2 at u = v = 1 + 1e-10 is about 3e-10 times an
    # orthogonal matrix, over a term scale of about 4: the rank test neither
    # clears it (above 4e-9) nor finds a kernel (below 4e-11).
    one = QuaternionMatrix.identity(1)
    omega = Region.finite_set([Quaternion(1.0 + 1e-10)])
    verdict = derive_hyperstability_quadratic(one, one, -2 * one, omega, "i")
    assert verdict.status is HyperStatus.UNKNOWN
    assert verdict.details["multivariate_status"] == "UNKNOWN"


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

    def record(stack, scale):
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


def _assert_same_sweep(terms, points, k=1):
    """The sweep over the k-tuples of ``points`` against the reference over
    ``itertools.product`` of them; the reference's witness tuple, found by
    identity, is returned with the sweep's status and vector."""
    tuples = list(itertools.product(points, repeat=k))
    got = realified_sweep(terms, np.array([q.as_array() for q in points]), k)
    want = _sweep_one_tuple_at_a_time(terms, tuples)
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        rows = np.array([q.as_array() for q in want[1]])
        assert np.array_equal(got[1], rows) and np.array_equal(np.signbit(got[1]), np.signbit(rows))
    if want[2] is not None:
        for a, b in ((got[2].a1, want[2].a1), (got[2].a2, want[2].a2)):
            a, b = a.view(float), b.view(float)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    return got[0], want[1], got[2]


def test_sweep_operators_equal_the_per_tuple_build(monkeypatch):
    # Batched word products and block products repeat the per-tuple
    # floating-point operations exactly, and the power-of-two scales are exact.
    # Each block product is taken flat, (4n n, 4) x (4, 4), as the sweep's one
    # product per term is: at n = 1 numpy takes (4n, n, 4) @ (4, 4) through its
    # one-row path, which rounds otherwise.
    # With three letters the 125 tuples are indexed in itertools.product order too.
    seen = _record_sweep_operators(monkeypatch)
    rng = np.random.default_rng(4107)
    for k in (2, 3):
        words = [w for length in range(4) for w in itertools.product(range(1, k + 1), repeat=length)]
        for n in range(1, 5):
            picks = rng.choice(len(words), size=6, replace=False)
            p = MultiPolynomial.build(k, [(words[t], random_qmatrix(rng, n)) for t in picks])
            points = [random_quaternion(rng) for _ in range(5)]
            seen.clear()
            check_stability_multi(p, Region.finite_set(points))
            for op, tup in zip(seen, itertools.product(points, repeat=k), strict=True):
                want = np.zeros((4 * n, n, 4))
                for word, a in p.terms:
                    block = real_rep_left(a).reshape(4 * n * n, 4) @ right_action_matrix(eval_word(word, tup))
                    want += block.reshape(4 * n, n, 4)
                assert np.array_equal(op * _sweep_scale(p.terms, tup), want.reshape(4 * n, 4 * n))


# I t - diag(2, 3): 3 is an exact eigenvalue, and the operator at
# 2 + 5e-11 has a pivot inside the rank dead band.
_SHIFTED = MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-2.0), Quaternion(-3.0)]),
                             QuaternionMatrix.identity(2)])


def _far_points(rng, count):
    return [Quaternion(10.0) + random_quaternion(rng) for _ in range(count)]


@pytest.mark.parametrize("planted", [0, 1, 3, 4, 5, 7, 8, 9, 20, 21, 83, 84, 85, 99])
def test_sweep_reports_the_first_singular_tuple_across_chunks(monkeypatch, planted):
    # A cap of 4 operators puts the chunk edges at 4, 8, ..., 96: plant an
    # exact eigenvalue on either side of 4, 8 and 84, inside chunks and in
    # the last chunk, and a second one later, the other eigenvalue, so that
    # the rows tell the two apart.
    from quatpoly import matpoly

    monkeypatch.setattr(matpoly, "SWEEP_CHUNK_DOUBLES", 4 * (4 * _SHIFTED.size) ** 2)
    points = _far_points(np.random.default_rng(4104), 100)
    points[planted] = Quaternion(3.0)
    points[min(planted + 3, 99)] = Quaternion(2.0)
    status, tup, _ = _assert_same_sweep(_SHIFTED.terms, points)
    assert status == "singular" and tup[0] is points[planted]


def test_sweep_prefers_a_later_singular_tuple_to_an_earlier_dead_band():
    points = _far_points(np.random.default_rng(4105), 30)
    points[3] = Quaternion(2.0 + 5e-11)
    assert _assert_same_sweep(_SHIFTED.terms, points)[0] == "unknown"
    points[25] = Quaternion(3.0)
    status, tup, _ = _assert_same_sweep(_SHIFTED.terms, points)
    assert status == "singular" and tup[0] is points[25]
    assert _assert_same_sweep(_SHIFTED.terms, points[:3])[0] == "nonsingular"


def test_sweep_matches_one_tuple_at_a_time_on_random_multivariate_input(monkeypatch):
    # 6^2 = 36 tuples of two letters, then 5^3 = 125 of three, across the
    # chunk edges 10, 20, 30, ... of a cap of 10 operators.
    from quatpoly import matpoly

    rng = np.random.default_rng(4106)
    for k, count in ((2, 6), (3, 5)):
        words = [w for length in range(4) for w in itertools.product(range(1, k + 1), repeat=length)]
        statuses = set()
        for trial in range(12):
            n = 1 + trial % 4
            monkeypatch.setattr(matpoly, "SWEEP_CHUNK_DOUBLES", 10 * (4 * n) ** 2)
            picks = rng.choice(len(words), size=4, replace=False)
            p = MultiPolynomial.build(k, [(words[t], random_qmatrix(rng, n)) for t in picks])
            points = [random_quaternion(rng) for _ in range(count)]
            if trial % 2:
                # A zero column makes every tuple singular, from the first chunk on.
                for _, a in p.terms:
                    a.a1[:, 0] = 0.0
                    a.a2[:, 0] = 0.0
            statuses.add(_assert_same_sweep(p.terms, points, k)[0])
        assert statuses == {"singular", "nonsingular"}, k


def test_one_point_set_takes_more_letters_than_an_array_has_axes():
    # A one-point set passes the tuple cap at any number of letters, and its
    # one tuple is formed without an array axis per letter (numpy allows 64).
    k = 70
    eye = QuaternionMatrix.identity(1)
    p = MultiPolynomial.build(k, [(tuple(range(1, k + 1)), eye), ((), eye * -1.0)])
    verdict = check_stability_multi(p, Region.finite_set([ONE]))
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert verdict.witness_tuple == (ONE,) * k
    assert check_stability_multi(p, Region.finite_set([Quaternion(2.0)])).status is StabilityStatus.STABLE


def _word_minus_one(k):
    """t_1 ... t_k - 1 with 1 x 1 identity coefficients."""
    eye = QuaternionMatrix.identity(1)
    return MultiPolynomial.build(k, [(tuple(range(1, k + 1)), eye), ((), eye * -1.0)])


def test_a_thousand_letter_word_keeps_its_verdicts():
    # Each word's letters are counted once per sweep.  At 1 both terms are
    # equal powers of two after scaling and cancel exactly; at 2 the word's
    # 2^1000 sets the scale and the constant term is negligible beside it.
    k = 1000
    p = _word_minus_one(k)
    verdict = check_stability_multi(p, Region.finite_set([ONE]))
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert verdict.witness_tuple == (ONE,) * k
    (y,) = vec_entries(verdict.witness_vector)
    assert y.approx_eq(ONE, 0.0)
    assert check_stability_multi(p, Region.finite_set([Quaternion(2.0)])).status is StabilityStatus.STABLE


@pytest.mark.parametrize("k, point, status", [
    (1100, 2.0, StabilityStatus.STABLE),
    (2000, 2.0, StabilityStatus.STABLE),
    (4000, 1.5, StabilityStatus.STABLE),
    (1100, 1.0, StabilityStatus.NOT_STABLE),
])
def test_a_word_past_the_exponent_range_keeps_its_verdicts(k, point, status):
    # Each letter is scaled into [1/2, 1) before the product: unrenormalised,
    # k such letters fall below 2^-1074 and the operator to the zero matrix.
    verdict = check_stability_multi(_word_minus_one(k), Region.finite_set([Quaternion(point)]))
    assert verdict.status is status
    if status is StabilityStatus.NOT_STABLE:
        assert verdict.witness_tuple == (Quaternion(point),) * k
        (y,) = vec_entries(verdict.witness_vector)
        assert y.approx_eq(ONE, 0.0)


def test_word_values_renormalise_exactly():
    # Powers of two commute with every rounding away from underflow, so a
    # renormalised 1,100-letter product equals the Quaternion product bit for bit.
    rng = np.random.default_rng(4108)
    units = rng.standard_normal((3, 2, 4))
    units /= np.linalg.norm(units, axis=2, keepdims=True) * rng.uniform(1.0, 1.04, (3, 2, 1))
    word = tuple(int(v) for v in rng.integers(1, 3, 1100))
    (values,), (exps,) = _word_values([word], right_action_matrices(units))
    assert (exps < 0).all()
    for row, (value, e) in enumerate(zip(values, exps)):
        want = ONE
        for letter in word:
            want = want * Quaternion(*units[row, letter - 1])
        assert np.array_equal(np.ldexp(value, e), want.as_array())


class _CountedLetters(np.ndarray):
    """Counts the letters' action matrices read from it, one per letter product."""

    reads = 0

    def __getitem__(self, key):
        _CountedLetters.reads += 1
        return np.asarray(self)[key]


@pytest.mark.parametrize("words, products", [
    ([(1,) * i for i in range(6)], 5),
    ([(), (1,), (2,), (1, 2), (2, 1)], 4),
    ([(2, 2, 2), (1, 2), (1,), ()], 5),
    ([(1, 2) * 300, (1, 2) * 550, (2,)], 1101),
])
def test_word_values_multiply_each_prefix_once(words, products):
    # A degree-m univariate polynomial takes m letter products, not m(m+1)/2.
    # The renormalisations still fall every RENORM_LETTERS letters from the
    # start of each word: values and exps equal each word's own, bit for bit.
    units = np.random.default_rng(4111).uniform(0.5, 0.6, (3, 2, 4))
    letters = right_action_matrices(units).view(_CountedLetters)
    _CountedLetters.reads = 0
    values, exps = _word_values(words, letters)
    assert _CountedLetters.reads == products
    for word, value, e in zip(words, values, exps, strict=True):
        (alone,), (alone_exps,) = _word_values([word], letters)
        assert np.array_equal(value, alone) and np.array_equal(e, alone_exps)


def _record_sweep_chunks(monkeypatch):
    """Capture every (stack, term scales) pair the realified sweep hands to
    the rank test."""
    from quatpoly import matpoly

    seen = []

    def record(stack, scale):
        seen.append((np.array(stack), np.array(scale)))
        return np.full(len(stack), "nonsingular"), np.zeros(stack.shape[:2])

    monkeypatch.setattr(matpoly, "rank_decisions", record)
    return seen


def _assert_chunks_equal_the_per_tuple_build(seen, terms, points, k):
    """Each recorded operator, times the sweep's scale, is the sum in term
    order of the flat block products at that tuple's word values, and each
    chunk's term scales are the norms of the lefts times those values' moduli."""
    n = terms[0][1].n_rows
    pow2 = 2.0 ** np.frexp(max(a.max_entry_modulus() for _, a in terms))[1]
    norms = lift_singular_values([a for _, a in terms])[:, 0] / pow2
    lefts = [real_rep_left(a).reshape(4 * n * n, 4) for _, a in terms]
    tuples = iter(itertools.product(points, repeat=k))
    for stack, scale in seen:
        values = np.empty((len(terms), len(stack), 4))
        for c, op in enumerate(stack):
            tup = next(tuples)
            want = np.zeros((4 * n, n, 4))
            for t, ((word, _), left) in enumerate(zip(terms, lefts)):
                value = eval_word(word, tup)
                want += (left @ right_action_matrix(value)).reshape(4 * n, n, 4)
                values[t, c] = value.as_array()
            sweep_scale = _sweep_scale(terms, tup)
            assert np.array_equal(op * sweep_scale, want.reshape(4 * n, 4 * n))
            values[:, c] /= sweep_scale / pow2
        assert np.array_equal(scale, norms @ np.linalg.norm(values, axis=2))
    assert next(tuples, None) is None


def _near_unit_quaternion(rng):
    # Modulus in [0.97, 1): a unit of the sweep as it is, and 1,100 such
    # letters stay far above underflow in the unrenormalised reference.
    q = rng.standard_normal(4)
    return Quaternion(*(q * rng.uniform(0.97, 0.999) / np.linalg.norm(q)))


_SHARED_PREFIX_WORDS = {
    1: [[(), (1,), (1, 1), (1, 1, 1)]],
    2: [[(), (1,), (2,), (1, 2), (2, 1)], [(2, 2, 2), (1, 2), (1,), ()]],
    3: [[(), (1,), (2,), (1, 2), (2, 1)], [(2, 2, 2), (1, 2), (1,), ()],
        [(3, 1, 2), (3, 1), (1, 3), ()]],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_prefix_cache_equals_the_per_tuple_build(monkeypatch, k, n):
    # Each distinct prefix is multiplied out once per chunk and reused, and
    # the renormalisation schedule counts from the start of each word, so a
    # 1,100-letter word beside its own 600-letter prefix (renormalised at
    # letter 512, inside the cached prefix) is exact too.  A chunk cap of 6
    # operators gives chunks of the cap from the first tuple on.
    from quatpoly import matpoly

    monkeypatch.setattr(matpoly, "SWEEP_CHUNK_DOUBLES", 6 * (4 * n) ** 2)
    seen = _record_sweep_chunks(monkeypatch)
    rng = np.random.default_rng([4109, k, n])
    count = {1: 20, 2: 5, 3: 3}[k]
    long_word = tuple(int(v) for v in rng.integers(1, k + 1, 1100))
    cases = [(words, random_quaternion) for words in _SHARED_PREFIX_WORDS[k]]
    cases.append(([long_word, (), long_word[:600]], _near_unit_quaternion))
    for words, draw in cases:
        p = MultiPolynomial.build(k, [(w, random_qmatrix(rng, n)) for w in words])
        points = [draw(rng) for _ in range(count)]
        seen.clear()
        realified_sweep(p.terms, np.array([q.as_array() for q in points]), k)
        assert [len(stack) for stack, _ in seen[:3]] == [6, 6, 6]
        _assert_chunks_equal_the_per_tuple_build(seen, p.terms, points, k)


def test_prefix_cache_equals_the_per_tuple_build_at_the_chunk_cap(monkeypatch):
    # At n = 4 the cap is 256 operators: 343 tuples go in chunks of 256 and 87.
    seen = _record_sweep_chunks(monkeypatch)
    rng = np.random.default_rng(4110)
    p = MultiPolynomial.build(3, [(w, random_qmatrix(rng, 4)) for w in _SHARED_PREFIX_WORDS[3][0]])
    points = [random_quaternion(rng) for _ in range(7)]
    realified_sweep(p.terms, np.array([q.as_array() for q in points]), 3)
    assert [len(stack) for stack, _ in seen] == [256, 87]
    _assert_chunks_equal_the_per_tuple_build(seen, p.terms, points, 3)


def test_a_letter_out_of_range_after_a_cached_prefix_raises():
    a = QuaternionMatrix.identity(1)
    points = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    for terms in ([((1, 2), a), ((1, 2, 3), a)], [((1, 2, 0), a), ((1, 2), a)]):
        with pytest.raises(ValueError, match="outside 1..2"):
            realified_sweep(terms, points, 2)


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

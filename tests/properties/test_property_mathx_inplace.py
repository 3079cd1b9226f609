"""Property-based tests: the in-place mathx variants are bit-identical.

The sampling chains compare ``rand < sigmoid(pre)``, so the ``out=``
variants must match the allocating forms *bitwise* (not just to
tolerance) or fused and reference training would diverge sample by
sample.  Hypothesis drives the inputs through extreme magnitudes where
naive reformulations overflow or lose ulps.

``sigmoid`` itself runs through ``sigmoid_into``, so its oracle is a
test-local copy of the textbook two-branch formula rather than the
library's allocating form.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.mathx import (
    kl_bernoulli,
    kl_bernoulli_grad,
    logistic_log1pexp,
    sigmoid,
    sigmoid_into,
)


def batches(min_value=-750.0, max_value=750.0):
    return st.lists(
        st.floats(
            min_value=min_value,
            max_value=max_value,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=64,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """Oracle: ``1/(1+exp(-x))`` on x ≥ 0, ``exp(x)/(1+exp(x))`` on x < 0,
    selected by boolean indexing."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[neg])
    out[neg] = ex / (1.0 + ex)
    return out


#: Every non-NaN float64: ±inf, ±0.0, subnormals and |x| up to the
#: largest finite value, plus magnitudes around the exp under/overflow
#: thresholds where a naive formula goes wrong.
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-800.0, max_value=800.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]),
)


@st.composite
def misaligned(draw, elements=ANY_FLOAT):
    """A 1-129 element float64 view starting 0-3 elements into its buffer,
    so SIMD loops see every alignment of head and tail."""
    values = draw(st.lists(elements, min_size=1, max_size=129))
    offset = draw(st.integers(min_value=0, max_value=3))
    buf = np.zeros(offset + len(values), dtype=np.float64)
    buf[offset:] = values
    return buf[offset:]


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSigmoidAgainstTwoBranchOracle:
    @given(misaligned())
    @settings(max_examples=300, deadline=None)
    def test_allocating_form_is_bitwise_oracle(self, x):
        before = x.copy()
        want = two_branch_sigmoid(x)
        with np.errstate(over="raise"):
            got = sigmoid(x)
        assert_bitwise(got, want)
        assert_bitwise(x, before)  # input untouched

    @given(misaligned(st.one_of(ANY_FLOAT, st.just(np.nan))))
    @settings(max_examples=200, deadline=None)
    def test_nan_maps_to_nan_and_the_rest_to_the_oracle(self, x):
        nan = np.isnan(x)
        with np.errstate(over="raise"):
            got = sigmoid(x)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert_bitwise(got[~nan], two_branch_sigmoid(x[~nan]))

    def test_extremes_saturate_without_overflow(self):
        x = np.array([-np.inf, -1e308, -746.0, -0.0, 0.0, 746.0, 1e308, np.inf])
        with np.errstate(over="raise"):
            got = sigmoid(x)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])


class TestInPlaceVariantsBitwise:
    @given(misaligned())
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_out_matches_allocating(self, x):
        reference = two_branch_sigmoid(x)
        out = np.empty_like(x)
        with np.errstate(over="raise"):
            res = sigmoid(x, out=out)
        assert res is out
        assert_bitwise(out, reference)

    @given(misaligned(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_into_may_alias_input(self, x, with_scratch):
        reference = two_branch_sigmoid(x)
        scratch = np.empty_like(x) if with_scratch else None
        with np.errstate(over="raise"):
            res = sigmoid_into(x, x, scratch=scratch)
        assert res is x
        assert_bitwise(x, reference)

    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_logistic_log1pexp_out_matches_allocating(self, x):
        reference = logistic_log1pexp(x)
        out = np.empty_like(x)
        scratch = np.empty_like(x)
        res = logistic_log1pexp(x, out=out, scratch=scratch)
        assert res is out
        np.testing.assert_array_equal(out, reference)

    @given(
        batches(min_value=1e-9, max_value=1.0 - 1e-9),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_kl_bernoulli_out_matches_allocating(self, rho_hat, rho):
        reference = kl_bernoulli(rho, rho_hat)
        out = np.empty_like(rho_hat)
        scratch = np.empty_like(rho_hat)
        np.testing.assert_array_equal(
            kl_bernoulli(rho, rho_hat, out=out, scratch=scratch), reference
        )

    @given(
        batches(min_value=1e-9, max_value=1.0 - 1e-9),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_kl_bernoulli_grad_out_matches_allocating(self, rho_hat, rho):
        reference = kl_bernoulli_grad(rho, rho_hat)
        out = np.empty_like(rho_hat)
        scratch = np.empty_like(rho_hat)
        np.testing.assert_array_equal(
            kl_bernoulli_grad(rho, rho_hat, out=out, scratch=scratch), reference
        )

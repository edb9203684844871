import math

import numpy as np
import pytest

from drmel import BasisSpec, DomainError, InvalidArgumentError, evaluate_matrix
from drmel import TwoSampleData, fit_mele


def test_quadratic_point():
    assert np.array_equal(evaluate_matrix(BasisSpec.quadratic(), [2.0])[0], [1.0, 2.0, 4.0])


def test_linear_at_zero():
    assert np.array_equal(evaluate_matrix(BasisSpec.linear(), [0.0])[0], [1.0, 0.0])


def test_linear_log_at_e():
    np.testing.assert_allclose(
        evaluate_matrix(BasisSpec.linear_log(), [math.e])[0], [1.0, math.e, 1.0], rtol=1e-15
    )


def test_matrix_linear():
    assert np.array_equal(
        evaluate_matrix(BasisSpec.linear(), [1.0, 2.0]), [[1, 1], [1, 2]]
    )


def test_matrix_empty_input():
    out = evaluate_matrix(BasisSpec.quadratic(), [])
    assert out.shape == (0, 3)


def test_linear_log_domain_error_carries_index():
    with pytest.raises(DomainError) as err:
        evaluate_matrix(BasisSpec.linear_log(), [1.0, -1.0])
    assert err.value.index == 1


def test_dimensions():
    assert BasisSpec.linear().dimension == 2
    assert BasisSpec.quadratic().dimension == 3
    assert BasisSpec.linear_log().dimension == 3
    assert BasisSpec.custom([np.sin, np.cos, np.tanh]).dimension == 4


def test_from_name():
    assert BasisSpec.from_name("linear-log").kind == "linear-log"
    with pytest.raises(ValueError):
        BasisSpec.from_name("cubic")


def test_custom_basis_and_domain_error():
    spec = BasisSpec.custom([np.sqrt])
    np.testing.assert_allclose(evaluate_matrix(spec, [4.0])[0], [1.0, 2.0])
    with pytest.raises(DomainError) as err:
        evaluate_matrix(spec, [1.0, 4.0, -1.0])
    assert err.value.index == 2


def test_first_component_is_one_and_rows_match(rng):
    for _ in range(50):
        spec = [
            BasisSpec.linear(),
            BasisSpec.quadratic(),
            BasisSpec.linear_log(),
        ][int(rng.integers(3))]
        xs = np.abs(rng.normal(size=7)) + 0.1
        mat = evaluate_matrix(spec, xs)
        assert mat.shape == (7, spec.dimension)
        assert np.all(mat[:, 0] == 1.0)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(mat[i], evaluate_matrix(spec, [x])[0])


def column_stack_basis(spec, x):
    """The basis built column by column, as evaluate_matrix once did."""
    tails = {
        "linear": lambda: [x],
        "quadratic": lambda: [x, x * x],
        "linear-log": lambda: [x, np.log(x)],
        "custom": lambda: [t(x) for t in spec.transforms],
    }
    return np.column_stack([np.ones(x.size), *tails[spec.kind]()])


@pytest.mark.parametrize(
    "spec",
    [
        BasisSpec.linear(),
        BasisSpec.quadratic(),
        BasisSpec.linear_log(),
        BasisSpec.custom([np.sqrt, np.log1p, np.sin]),
    ],
    ids=lambda s: s.kind,
)
def test_matrix_is_bitwise_the_column_build(spec, rng):
    x = np.abs(rng.normal(scale=50.0, size=1001)) + 1e-3
    mat = evaluate_matrix(spec, x)
    ref = column_stack_basis(spec, x)
    assert mat.shape == ref.shape and mat.dtype == ref.dtype
    assert np.ascontiguousarray(mat).tobytes() == ref.tobytes()
    assert mat.T.flags.c_contiguous
    # the samples of a pooled pair, passed in order, give the same rows
    split = evaluate_matrix(spec, x[:600], x[600:])
    assert np.ascontiguousarray(split).tobytes() == ref.tobytes()


def test_domain_error_index_counts_across_parts():
    with pytest.raises(DomainError) as err:
        evaluate_matrix(BasisSpec.linear_log(), [1.0, 2.0], [3.0, 0.0, -1.0])
    assert err.value.index == 3
    with pytest.raises(DomainError) as err:
        evaluate_matrix(BasisSpec.custom([np.sqrt]), [1.0], [4.0, -1.0])
    assert err.value.index == 2


def test_unknown_basis_name_is_a_typed_error():
    with pytest.raises(InvalidArgumentError, match="cubic"):
        BasisSpec.from_name("cubic")


def test_unknown_basis_kind_is_a_typed_error_before_the_fitter():
    with pytest.raises(InvalidArgumentError, match="cubic"):
        fit_mele(TwoSampleData(x0=[1.0, 2.0, 3.0], x1=[2.0, 3.0]), BasisSpec(kind="cubic"))

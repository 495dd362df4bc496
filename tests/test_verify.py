"""The finite-difference suite's cases, and those of the reference ops that
the tests keep, take a stack of inputs, one per row."""

import numpy as np
import pytest

from groundact import tensor as T
from groundact import verify
from groundact.tensor import Tensor, grad_check, no_grad

from helpers import reference_cases, rowwise

_rng = np.random.default_rng(0)
REFERENCE = reference_cases(np.random.default_rng(0))
CASES = verify.op_cases(_rng) + verify.block_cases(_rng) + REFERENCE


@pytest.mark.parametrize("name,f,x", CASES, ids=[c[0] for c in CASES])
def test_case_rows_are_independent(name, f, x):
    # grad_check evaluates every perturbed input as one row of a stack, so a
    # row's value must not depend on the other rows
    nudge = np.random.default_rng(1).uniform(-0.05, 0.05, size=(2, *x.shape))
    stack = np.stack([x.data, x.data + nudge[0], x.data + nudge[1]])
    with no_grad():
        stacked = f(Tensor(stack)).data
        alone = [f(Tensor(stack[k:k + 1])).data[0] for k in range(3)]
    assert stacked.shape == (3,) and len(set(alone)) == 3
    np.testing.assert_array_equal(stacked, alone)


@pytest.mark.parametrize("name,f,x", CASES, ids=[c[0] for c in CASES])
def test_case_graph_does_not_grow_with_the_stack(name, f, x):
    # every case takes the stack as one more axis, so it builds the same
    # graph for any number of rows; one that looped over the rows would
    # build more per row
    def nodes(k):
        stack = Tensor(np.repeat(x.data[None], k, axis=0), requires_grad=True)
        return len(f(stack).topo_order())

    assert nodes(1) == nodes(9)


@pytest.mark.parametrize("name,f,x", REFERENCE, ids=[c[0] for c in REFERENCE])
def test_reference_op_passes_grad_check(name, f, x):
    # the composed references that the fused kernels are compared against
    # are built from these ops, so their gradients are checked as the
    # suite's are
    assert grad_check(f, x) <= verify.TOLERANCE


# the cases whose weights are unpacked from the checked input
UNPACKED = ["linear", "layer_norm", "attention_block_kv_is_x",
            "attention_block_self", "feed_forward_block"]


@pytest.mark.parametrize("name", UNPACKED)
def test_unstacked_weight_gradients_pass_grad_check(name, monkeypatch):
    # the suite checks these cases with weights stacked on the member axis;
    # training runs the 2-d branches of the weight and bias gradients, so
    # check those too: a case called on one unstacked row unpacks 2-d
    # weights, and its row sums add up to that row's value
    seen = set()

    def spy(fn, arg):
        def wrapped(*args):
            seen.add((fn.__name__, args[arg].ndim))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(T, "weight_grad", spy(T.weight_grad, 2))
    monkeypatch.setattr(T, "row_sum", spy(T.row_sum, 1))
    f, x = next((f, x) for n, f, x in CASES if n == name)
    err = grad_check(rowwise(lambda v: T.tsum(f(v))), x)
    assert err <= verify.TOLERANCE
    # every parameter gradient went through the unstacked branch
    assert seen and all(ndim == (2 if fn == "weight_grad" else 1)
                        for fn, ndim in seen)


@pytest.mark.parametrize("repeats", [0, -1])
def test_run_suite_rejects_fewer_than_one_repeat(repeats):
    # zero repeats would check nothing and report a worst error of 0
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        verify.run_suite(repeats=repeats)

"""Property tests for unification."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.terms import Var
from repro.lp.unify import (
    apply_subst,
    match,
    occurs_in,
    substitute,
    unify,
)

from tests.property import unify_oracle
from tests.property.strategies import ground_terms, terms, variables


@given(terms())
def test_unify_with_self_succeeds(term):
    subst = unify(term, term, occurs_check=True)
    assert subst == {}


@given(terms(), terms())
@settings(max_examples=120)
def test_mgu_is_a_unifier(left, right):
    subst = unify(left, right, occurs_check=True)
    if subst is not None:
        assert apply_subst(left, subst) == apply_subst(right, subst)


@given(terms(), terms())
@settings(max_examples=120)
def test_mgu_idempotent(left, right):
    subst = unify(left, right, occurs_check=True)
    if subst is not None:
        for value in subst.values():
            assert apply_subst(value, subst) == value


@given(terms(), terms())
def test_unify_symmetric_in_success(left, right):
    forward = unify(left, right, occurs_check=True)
    backward = unify(right, left, occurs_check=True)
    assert (forward is None) == (backward is None)


@given(ground_terms(), ground_terms())
def test_ground_unification_is_equality(left, right):
    subst = unify(left, right, occurs_check=True)
    if left == right:
        assert subst == {}
    else:
        assert subst is None


@given(terms(), ground_terms())
@settings(max_examples=80)
def test_unify_against_ground_grounds_term(template, ground):
    subst = unify(template, ground, occurs_check=True)
    if subst is not None:
        assert apply_subst(template, subst) == ground


# -- the linear-time primitives agree with the earlier ones --------------------


@given(terms(), terms(), terms())
@settings(max_examples=150)
def test_apply_subst_matches_oracle(left, right, target):
    subst = unify(left, right, occurs_check=True)
    if subst is not None:
        assert apply_subst(target, subst) \
            == unify_oracle.apply_subst(target, subst)


@given(terms(), terms(), terms(), variables())
@settings(max_examples=150)
def test_occurs_in_matches_oracle(left, right, target, var):
    subst = unify(left, right, occurs_check=True) or {}
    assert occurs_in(var, target, subst) \
        == unify_oracle.occurs_in(var, target, subst)


@given(terms(), terms())
def test_apply_subst_unbound_returns_the_same_object(term, other):
    # Nothing of *term* is bound: the identical object comes back, at
    # every level -- the property the identity check relies on.
    assert apply_subst(term, {}) is term
    unrelated = {Var("Unrelated"): other}
    assert apply_subst(term, unrelated) is term


@given(terms(), terms())
@settings(max_examples=150)
def test_match_is_one_way_instance(general, specific):
    theta = match(general, specific)
    if theta is not None:
        assert substitute(general, theta) == specific
    # Matching against an instance always succeeds.
    instance = substitute(general, {Var("X"): specific})
    assert match(general, instance) is not None


@given(terms(), terms())
@settings(max_examples=100)
def test_match_agrees_with_unify_on_ground_targets(general, specific):
    if not specific.is_ground():
        return
    theta = unify(general, specific, occurs_check=True)
    assert (match(general, specific) is None) == (theta is None)

import argparse
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mriordan import Series, aerate, new_element
from mriordan.cli import build_parser
from mriordan.documents import element_from_doc
from mriordan.golden import EXAMPLE1_DOC, EXAMPLE2_DOC, EXAMPLE3_DOC

# A failing property test prints the ``@reproduce_failure`` blob of its
# example, so that a failure seen once can be replayed; every other
# setting keeps its default.
settings.register_profile("mriordan", print_blob=True)
settings.load_profile("mriordan")


@pytest.fixture(scope="session")
def example1():
    return element_from_doc(EXAMPLE1_DOC)


@pytest.fixture(scope="session")
def example2():
    return element_from_doc(EXAMPLE2_DOC)


@pytest.fixture(scope="session")
def example3():
    return element_from_doc(EXAMPLE3_DOC)


def random_proper_element(rng: random.Random, m: int, order: int, span: int = 2):
    """Random proper element with small integer coefficients."""
    nc = order // m
    ghat = Series([1] + [rng.randint(-span, span) for _ in range(nc)])
    g = aerate(ghat, m, 0, order=order)
    f = []
    for _ in range(m):
        fhat = Series([1] + [rng.randint(-span, span) for _ in range((order - 1) // m)])
        f.append(aerate(fhat, m, 1, order=order))
    return new_element(m, g, f, order)


def random_rational_element(rng: random.Random, m: int, order: int):
    """Proper element with genuinely rational (non-integer) coefficients."""
    from fractions import Fraction

    nc = order // m
    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    ghat = Series([1] + [coeff() for _ in range(nc)])
    g = aerate(ghat, m, 0, order=order)
    f = []
    for _ in range(m):
        fhat = Series([1] + [coeff() for _ in range((order - 1) // m)])
        f.append(aerate(fhat, m, 1, order=order))
    return new_element(m, g, f, order)


# Coefficients in the one representation: integers, and rationals that
# include fractions over large coprime denominators (so that a common
# denominator is a large lcm).
int_coeffs = st.integers(min_value=-5, max_value=5)
rational_coeffs = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda v: v.denominator > 1),
    st.sampled_from([Fraction(7, 1009), Fraction(-5, 1013), Fraction(3, 997)]),
)
exact_coeffs = st.one_of(int_coeffs, rational_coeffs)


def exact_lists(min_size=0, max_size=12):
    """Coefficient lists that are all integers, all rationals, or mixed."""
    return st.sampled_from([int_coeffs, rational_coeffs, exact_coeffs]).flatmap(
        lambda c: st.lists(c, min_size=min_size, max_size=max_size)
    )


def square_matrices(min_n, max_n):
    """n x n matrices, as row lists, with entries drawn as ``exact_lists``."""
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: exact_lists(n * n, n * n).map(lambda cs: [cs[i * n : (i + 1) * n] for i in range(n)])
    )


# nonzero leading coefficients: units of Z and non-units of Z and Q
leading_coeffs = st.sampled_from([1, -1, 2, -3, Fraction(2, 3), Fraction(7, 1009)])


def typed(values) -> list:
    """Values with their types, so that 1 and Fraction(1) compare unequal."""
    return [(v, type(v)) for v in values]


def cli_verbs() -> dict:
    """The CLI's subcommand parsers by verb, as ``build_parser`` adds them."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices

import math
import os
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import evenzeta.rationals
from evenzeta.rationals import (
    DOUBLE_FACTORIAL_PRODUCT_MAX,
    double_factorial_odd,
    double_factorial_product,
)
from evenzeta.text import no_int_str_limit, parse_rational

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_exact_addition():
    assert Fraction(1, 6) + Fraction(1, 90) == Fraction(8, 45)


def test_zero_annihilates():
    assert Fraction(3, 4) * Fraction(0) == Fraction(0, 1)


def test_reduction_on_construction():
    # independent gcd oracle
    g = math.gcd(10, 4725)
    assert g == 5
    assert Fraction(10, 4725) == Fraction(10 // g, 4725 // g) == Fraction(2, 945)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


@given(rationals, rationals, rationals)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_canonical_form(q):
    assert parse_rational(str(q)) == q


@pytest.mark.parametrize(
    "text,expected",
    [("-1/30", Fraction(-1, 30)), ("945", Fraction(945)), (" 2/945 ", Fraction(2, 945))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


# full-width, Arabic-Indic and Devanagari digits are not base-10 text
@pytest.mark.parametrize(
    "bad", ["", "1/0", "1.5", "a/b", "1/2/3", "1 / 2", "１２/٣", "١٢", "12/３", "-४"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("i,expected", [(0, 1), (1, 3), (2, 15), (4, 3 * 5 * 7 * 9)])
def test_double_factorial_odd(i, expected):
    assert double_factorial_odd(i) == expected


def test_double_factorial_ratio():
    for i in range(1, 30):
        assert double_factorial_odd(i) == double_factorial_odd(i - 1) * (2 * i + 1)


def test_double_factorial_product():
    assert double_factorial_product(0) == 1
    assert double_factorial_product(3) == 3 * 15 * 105
    for k in range(1, 12):
        assert (
            double_factorial_product(k)
            == double_factorial_product(k - 1) * double_factorial_odd(k)
        )


def test_double_factorial_product_past_recursion_limit(monkeypatch):
    # the tower grows in a loop, so a cold call needs no call depth per k; a
    # recursion through the cache ran out of stack at k = 500
    monkeypatch.setattr(evenzeta.rationals, "_tower", [1])
    assert double_factorial_product(500) % double_factorial_odd(500) == 0
    assert len(evenzeta.rationals._tower) == 501


def test_cold_tower_under_threads(monkeypatch):
    # the tower grows under one lock: more threads than cores (on up to 32
    # cores), released together on a cold tower, must read the same levels
    # as one caller did, round after round
    expected = [double_factorial_product(k) for k in range(301)]
    count = min(os.cpu_count() or 1, 32) + 2
    ks = [300 - 300 * i // count for i in range(count)]

    def build(k):
        start.wait()
        got[k] = double_factorial_product(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(evenzeta.rationals, "_tower", [1])
            # a cold (2i+1)!! is a Python call inside each level, where a
            # thread can be switched out between reading the top and appending
            double_factorial_odd.cache_clear()
            got, start = {}, threading.Barrier(count, timeout=60)
            threads = [threading.Thread(target=build, args=(k,)) for k in ks]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == {k: expected[k] for k in ks}
            assert evenzeta.rationals._tower == expected
    finally:
        sys.setswitchinterval(interval)


def test_double_factorial_product_bound():
    bound = DOUBLE_FACTORIAL_PRODUCT_MAX
    assert bound >= 175
    with pytest.raises(ValueError, match=rf"^k={bound + 1} outside 0\.\.{bound}$"):
        double_factorial_product(bound + 1)
    with pytest.raises(ValueError, match=rf"^k=-1 outside 0\.\.{bound}$"):
        double_factorial_product(-1)


def test_double_factorial_rejects_negative():
    with pytest.raises(ValueError):
        double_factorial_odd(-1)


def test_no_int_str_limit_restores_the_callers_limit():
    # lifted inside the block, restored after it, also when the block raises
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with pytest.raises(ZeroDivisionError):
            with no_int_str_limit():
                assert len(str(10**6000)) == 6001
                1 // 0
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)

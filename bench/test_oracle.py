"""Self-test of the benchmark's reference counter against classical values.

Run with `python3 bench/test_oracle.py` or through pytest.
"""

from oracle import (
    H_FORM,
    SUM_OF_SQUARES,
    automorph_count,
    count,
    disc,
    legendre,
    s,
)


def test_sums_of_three_squares_up_to_10():
    assert [s(n) for n in range(11)] == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30, 24]


def test_s_at_25_and_a_non_diagonal_form():
    # s(25) = 30 (the paper's s(25n) recursion at n = 1); h(2) = 6.
    assert s(25) == 30
    assert count(H_FORM, 2) == 6
    # x^2 + xy + y^2 + z^2 represents 1 six ways in (x, y) and twice in z.
    assert count((1, 1, 1, 0, 0, 1), 1) == 8


def test_discriminant_and_automorphs():
    assert disc(SUM_OF_SQUARES) == 4
    assert disc(H_FORM) == 25
    assert automorph_count(SUM_OF_SQUARES) == 48


def test_legendre_by_euler_criterion():
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("oracle self-test passed")

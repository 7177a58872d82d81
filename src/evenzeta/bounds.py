"""How far each entry point goes: every bound on k, n or N, in one table.

A bound keeps the slowest call it admits within about 4.5 s end to end, in
a fresh process on a 2-vCPU host with Python 3.11.7, unless its comment
says otherwise; the comment names what binds it, and README's bounds table
has the time at it.  The routes publish their bounds under their own names;
this module imports nothing, so the CLI's parser reads it without a route.
"""

DOUBLE_FACTORIAL_PRODUCT_MAX = 700  # a cold double_factorial_product(k), the tower
# the recursion's cache of P_k, read by numerator_polynomial, zeta_numerator,
# zeta_even_rational, translated_polynomial and the Newton partial sums' n;
# newton_partial_sum(n, ELEMENTARY_ZETA_MAX) is the slowest of them
RECURSION_MAX = 260
BASIS_COEFFICIENTS_MAX = 360  # the row recurrence of a cold basis_coefficients(k)
# not its cost: ODD_NUMBERS holds this many values, and plane_trees' catalan
# and tree_data read the same positions
TRANSFORM_MAX = 240
TREE_SUM_MAX = 210  # the family G_0..G_{k-1} that polynomial_via_trees(k) grows
ENUMERATION_MAX = 16  # the Catalan growth of enumerate_trees' stream
BERNOULLI_EVEN_MAX = RECURSION_MAX  # bernoulli_even(k) reads zeta_even_rational(k)
# the classical recursion on Fractions; `bernoulli --k 350 --method classical` reads n = 700
BERNOULLI_CLASSICAL_MAX = 700
# a factorial of about 2k: elementary_zeta, bernoulli_from_zeta, the Newton partial sums' k
ELEMENTARY_ZETA_MAX = 2000
CYCLE_INDEX_MAX = 8  # not its cost: the most variables a verify trial draws
INVERSE_SQUARES_MAX = 700_000  # building the set; above every N bound, each measured on it
NEWTON_GIRARD_MAX = 230  # newton_girard_check at k = N
VARIABLES_MAX = 600  # power_sum at k = N, for it and elementary_symmetric
CYCLE_INDEX_VARIABLES_MAX = 20_000  # cycle_index_elementary at k = CYCLE_INDEX_MAX

# The CLI's commands: ak and pk (with --translated --half-scale) are bound by
# decimal conversion; zeta-even and each bernoulli method reach the library
# bound of the function they call.
AK_MAX = 240
PK_MAX = 180
ZETA_EVEN_MAX = RECURSION_MAX
BERNOULLI_MAX = {
    "recursion": BERNOULLI_EVEN_MAX,
    "tree": TRANSFORM_MAX,
    "classical": BERNOULLI_CLASSICAL_MAX // 2,
}
BERNOULLI_APPROX_MAX = 129  # not its cost: |B_260| is past the largest float
TREES_LIST_MAX = 11  # the listing holds every tree's record
# the transform's cost grows with the size of its values: the digits of each
# numerator and denominator in a sequence file, at `transform --k TRANSFORM_MAX`
SEQUENCE_DIGITS_MAX = 6

# Each verify suite's (min_max_k, hard_max_k) in run order, min_max_k the
# first k it checks.  trees is bound by the tree family and fn by the partial
# sums; newton-girard and cycle-index keep the most variables of their random
# sets, and the others the largest k each reads.  "all" runs every suite at
# the smaller of its max_k and the suite's bound, within ALL_MIN_MAX_K..ALL_MAX_K.
SUITE_BOUNDS = {
    "newton-girard": (1, CYCLE_INDEX_MAX),
    "cycle-index": (1, CYCLE_INDEX_MAX),
    "trees": (2, 200),
    "coeffs": (2, RECURSION_MAX),
    "bernoulli": (1, BERNOULLI_EVEN_MAX),
    "fn": (1, 800),
    "positivity": (1, RECURSION_MAX),
    "leading": (2, RECURSION_MAX),
    "lemma-2ni": (1, BASIS_COEFFICIENTS_MAX),
}
ALL_MIN_MAX_K = max(low for low, _ in SUITE_BOUNDS.values())
ALL_MAX_K = 160

"""Every route's outputs, pinned by the SHA-256 of their canonical bytes.

The ranges, sized to keep the test near 1.5 s cold on a 2-vCPU host:
zeta_numerator and numerator_polynomial for k = 1..260 (RECURSION_MAX);
translated_polynomial, in both frames, for k = 1..140; polynomial_via_trees
for k = 2..110; generalized_transform on the odd numbers for k = 1..240
(TRANSFORM_MAX); basis_coefficients for k = 2..180; bernoulli_classical for
n = 0..320.  A change meant to leave the routes' values as they are passes
this test; a change of a single coefficient, sign or type fails it.
"""

import hashlib
from fractions import Fraction

from evenzeta import (
    basis_coefficients,
    bernoulli_classical,
    generalized_transform,
    numerator_polynomial,
    polynomial_via_trees,
    translated_polynomial,
    zeta_numerator,
)
from evenzeta.polynomials import Polynomial


def canonical(value) -> bytes:
    """Tagged, length-prefixed big-endian bytes of an int, a Fraction or a Polynomial."""
    if isinstance(value, Polynomial):
        parts = [value.content, len(value.primitive), *value.primitive]
        return b"P" + b"".join(map(canonical, parts))
    if isinstance(value, Fraction):
        return b"Q" + canonical(value.numerator) + canonical(value.denominator)
    assert type(value) is int, value
    magnitude = abs(value).to_bytes((abs(value).bit_length() + 7) // 8, "big")
    return (b"-" if value < 0 else b"+") + len(magnitude).to_bytes(8, "big") + magnitude


# each route over its range; PINNED has the digest of its values in order,
# computed from the code before the unused guards of cli, symmetric,
# plane_trees and verify were deleted
ROUTES = {
    "zeta_numerator": (zeta_numerator, range(1, 261)),
    "numerator_polynomial": (numerator_polynomial, range(1, 261)),
    "translated_polynomial": (translated_polynomial, range(1, 141)),
    "translated_polynomial half_scale": (
        lambda k: translated_polynomial(k, half_scale=True), range(1, 141)
    ),
    "polynomial_via_trees": (polynomial_via_trees, range(2, 111)),
    "generalized_transform": (generalized_transform, range(1, 241)),
    "basis_coefficients": (basis_coefficients, range(2, 181)),
    "bernoulli_classical": (bernoulli_classical, range(0, 321)),
}

PINNED = {
    "zeta_numerator": "233400bee41e2a3fff49127eb1e7cf2f805a0287b2a2a81773a201e37478429f",
    "numerator_polynomial": "5435eef8f5b5d969deeeba2b31e144aa8764329c135f425d5e5963d9b62b2daa",
    "translated_polynomial": "9bb3bfc35395f3f50aafb266cf444cc9b0baf7cf634b2031ade181c3a2d5b6ce",
    "translated_polynomial half_scale": (
        "a0a3435a45e1dc434748fbd01a10d966941edbd6eb0dfbb4287947ad3d2232c1"
    ),
    "polynomial_via_trees": "5d32510dbcdc199bdb661256d1805503bc2070c24c4bdebf5e73f97f713ac698",
    "generalized_transform": "5a72c1298b5261cc3f6d34856ea7eea50e38b36b2257d42bb828837a6343bd4d",
    "basis_coefficients": "b7769309ef39e8965dc531206775a78e57f2867177e8b5aeebd996e1c662db4f",
    "bernoulli_classical": "503c2ea10491a351841a064e335b0d5fe7bc034e782e44a87f6fdda28c39e4b2",
}


def test_route_outputs_match_pinned_digests():
    digests = {}
    for name, (route, ks) in ROUTES.items():
        sha = hashlib.sha256()
        for k in ks:
            sha.update(canonical(route(k)))
        digests[name] = sha.hexdigest()
    assert digests == PINNED

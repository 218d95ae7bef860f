"""Byte identity of emitted outputs against digests of earlier releases.

Speed work on the coefficient ring and the series kernels must not change a
single character of what the package emits.  The digests below were taken
before those kernels were rewritten: the SHA-256 of the canonical JSON of
ConditionSystem.to_records() for every s <= 3, p <= 4 on both routes, for
the larger cells of the benchmark's derive grid, for BCH (4, 5), whose
eight symbols fill eight exponent fields of a packed monomial (taken before
monomials were packed into ints), for BCH (4, 6), (5, 5) and (3, 6)
(taken while the BCH route still solved by dense series subtraction), and
for BCH (4, 7) and (6, 6) (taken while the route still formed the logarithm
at every word), for Taylor (6, 6), (3, 8) and (4, 8) (taken while the
splitting product was still a left-to-right product of series exponentials
formed at every word), and for BCH (5, 7) (taken while the logarithm still
multiplied by the expanded splitting product); of the
printed leading error term of the registry's order-3 scheme; of three
printed symbolic objects (a BCH condition system, a log series whose
single-term coefficients carry their sign out to the word, and the full
three-stage splitting product through degree 5, taken with the Taylor pins);
of the exact verification of 43 five-stage schemes, verify_scheme at
p = 3 and 4 on both routes and leading_error_term at p = 3 (taken while the
recurrence still made one kernel call per word); and of verify_scheme at
p = 1, 2, 5 and 6 on both routes over the registry and the 24 Strang
orderings, and of the printed generic 2- and 3-stage splitting products at
truncations 4 to 6 (taken while the recurrence still keyed its tables by
word tuples); and of the printed Lyndon decompositions of the generic
two-stage log through degree 6, and of verify_scheme on the BCH route at
p = 6 to 10 over the registry's Strang and order-3 schemes (taken while the
Lyndon read was still a word-keyed back-substitution); and of the printed
Lyndon decompositions of a seeded three-letter Lie combination at degrees 3
to 5, and of verify_scheme on the BCH route at p = 11 to 13 over the same two
schemes (taken while the read still expanded and kept every bracket); and of the
printed leading error terms of the 43 verification witnesses at p = 1, 2 and 4
(taken while leading_error_term still read the logarithm at order p + 1); and of
verify_scheme on the Taylor route at p = 12 to 16 over the registry's Strang and
order-3 schemes (taken while the product still swept each stage by a ladder of its
powers).
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from splitcond import (
    ConcreteScheme,
    NCSeries,
    NotOrderP,
    SymbolicScheme,
    bracketing,
    condition_system,
    expand,
    leading_error_term,
    lie_decompose,
    lyndon_words_of_degree,
    verify_scheme,
    word_str,
)
from splitcond.cli import REGISTRY
from splitcond.conditions import conditions_bch
from splitcond.poly import Poly
from splitcond.series import log, splitting_product

from helpers import strang_composition

SYSTEM_DIGESTS = {
    ("taylor", 1, 1): "4838f62fc21c0f10ee9aeae4cecc183457d6338482199d51bd2064d3b4319b43",
    ("taylor", 1, 2): "5375a88a5cc6cb848cae28886efcc6f90178a523d8c7d905ee0919a578b10cff",
    ("taylor", 1, 3): "37a649aa159bb3487e8a01a4dcbd476869abd73123de5d7ad232b262d34e970f",
    ("taylor", 1, 4): "7d45d1615a59487a168d6b2c6fa9c0265f3795558bdb86cba236364438c3b8a3",
    ("taylor", 2, 1): "2e07e2ee0a6ef23c6933d9f6b522fb9ba83d8816b88ffb101a666cdd8b196bd3",
    ("taylor", 2, 2): "860a756da41e6df997962bb2e702b2351a80a784317147babb2463c7814994ef",
    ("taylor", 2, 3): "27b0b6327ea7a2e18a97c6a4703f481b3c7276cea36ff379f2996efd2d512815",
    ("taylor", 2, 4): "a0c9f3a3bc09c11da2a5b8c7d3c9d62ae9217de499c1b901e28f04b005be4383",
    ("taylor", 3, 1): "6a3b8853497ce30696fb51a1e701486a1107052bbdfa9a8a86e4085bae287129",
    ("taylor", 3, 2): "dce40a07e83ea71f4423473e681d9ed945cde6f31d066f5c402ec4e13ca749ae",
    ("taylor", 3, 3): "712cd9218abde7447ab0112da6eaf130022b0b0737453490abe1a3860ceb7a87",
    ("taylor", 3, 4): "edbafb6c856177977f2771b11622e36d0519dc56de6b3e4436a97570402154e0",
    ("bch", 1, 1): "4838f62fc21c0f10ee9aeae4cecc183457d6338482199d51bd2064d3b4319b43",
    ("bch", 1, 2): "da42550a5caab48da9cb43080003dfcaf8254eab240fc46df77e7d779933a011",
    ("bch", 1, 3): "a4037556b0111406fbeb826e25a0396219e73308dd3272909773e6ebf9c3e0ab",
    ("bch", 1, 4): "b5527e2ce1afd0b30205c6bb10953ad4132117666fc2fe78864fc3f9117a8539",
    ("bch", 2, 1): "2e07e2ee0a6ef23c6933d9f6b522fb9ba83d8816b88ffb101a666cdd8b196bd3",
    ("bch", 2, 2): "a7973a505ec7c493cf050d6615af7c51b51122c7ca2450cb7dbc9d76545da77b",
    ("bch", 2, 3): "973e33b3ddbca1d9c7ac1995d74be736044ea3f2919beb0680fd5deeae9a1aef",
    ("bch", 2, 4): "01cb081f584710334e3b78e4b392154b4ee4a57ee11f9aba07b04a9a4281c88b",
    ("bch", 3, 1): "6a3b8853497ce30696fb51a1e701486a1107052bbdfa9a8a86e4085bae287129",
    ("bch", 3, 2): "988fd8ef408cceac7879c7c07125c7eec638de7af5fcb65095fc9711b0b7d5d0",
    ("bch", 3, 3): "c8c0f8873f6c482bf96cc8621200ac60263f708532b7665f749690e08533f99d",
    ("bch", 3, 4): "83da43779dfb36b94396a539170e0b4a75c5cb44d67300da917d2420257f5095",
    ("taylor", 2, 5): "ab04643268f05848f1a808d7a64fc91aeeb68d7a5be75df4ee0594869a61ffe0",
    ("taylor", 4, 6): "f7a9133c09ecc677d0f48d3962125271996a9ba128877e35c46798b509608848",
    ("taylor", 5, 5): "b0160a40f58b8227581f639e926733b8e95b3051b11f32b8d4ed6e9e37fc06d4",
    ("bch", 2, 5): "a0be2a0504fd4b43e94c281c6d4d3a0ba3b96682761627a3c8adfa1e452f46b0",
    ("bch", 4, 5): "cd8f5743f4982763b5de837f251a18a972ebd223f330adf7a220d8064f18ce22",
    ("bch", 4, 6): "8d70049ad212831a3935f5606d0edbc94da6c2965f5582017ad683c9c8e6037c",
    ("bch", 5, 5): "8ac9199d6baea3d3f64b3cc1261c98bb677c35513d51341fd21af89cb985b9a1",
    ("bch", 3, 6): "1d040b7ab0ca168368da89092bfb08ec3bfd4ab2d88e25b5b09e488d676fec42",
    ("bch", 4, 7): "4b5bef2004b8587373174f51db80cc367d92ea398a28082eb5f9004bffca1cf9",
    ("bch", 6, 6): "279d03d6d1944aaa62b3a931496f1c093e8894f17582f761074bb7af2f3b919f",
    ("bch", 5, 7): "7871ac67c05b0d5e7d08bdb7024c350fb7b89f315e67d760f9bce92af4cd84e7",
    ("taylor", 6, 6): "e2a564e845f2cd92b43ce997f763a9480ec017cd7e55157923fd792c53fa5368",
    ("taylor", 3, 8): "1da11f4f5baa7bdc70f8cbf178403d345934721f4ba3d2995074946264cae107",
    ("taylor", 4, 8): "4195550df82997a064add215b0e8653435b393863821ac20ba3eb441514e7c5d",
    # the first BCH pin at p = 8: the read keeps degree-7 brackets and drops degree-8 ones
    ("bch", 4, 8): "ebbe7fd8a7ccbcec223868c59a3e7a19ba6e45f7235a053412c5c3540f79790b",
}

LEADING_TERM_DIGEST = "c2e3e4243b113f0f119499131cc5891d08c10083ed7ffe524f6fe81bfcf5dcf6"

BCH_SYSTEM_3_3_TEXT_DIGEST = "936e8c82fe308279b9ff1f7674cb30e8deafc0086f364164f446d8e63f4c1044"

LOG_SERIES_2_3_TEXT_DIGEST = "5b8064435ccaca488a28d16dfbf96e4f3701679f54816fae46d1fd0e104bdb7b"

PRODUCT_3_5_TEXT_DIGEST = "db172ca0d31f55aa1d9d6eca88427f28ae76ea71f397ea783e1501ebcc856218"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("route,stages,order", sorted(SYSTEM_DIGESTS))
def test_condition_system_records_unchanged(route, stages, order):
    records = condition_system(stages, order, route).to_records()
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canonical) == SYSTEM_DIGESTS[(route, stages, order)]


def test_leading_error_term_text_unchanged():
    text = str(leading_error_term(REGISTRY["paper-order3"].scheme, 3))
    assert sha256(text) == LEADING_TERM_DIGEST


def test_bch_system_text_unchanged():
    assert sha256(str(conditions_bch(3, 3))) == BCH_SYSTEM_3_3_TEXT_DIGEST


def test_log_series_text_unchanged():
    text = str(log(splitting_product(SymbolicScheme.generic(2), 3)))
    assert sha256(text) == LOG_SERIES_2_3_TEXT_DIGEST


def test_splitting_product_text_unchanged():
    text = str(splitting_product(SymbolicScheme.generic(3), 5))
    assert sha256(text) == PRODUCT_3_5_TEXT_DIGEST


# -- exact verification of concrete schemes ------------------------------------
#
# verify_scheme reports at p = 3 and 4 on both routes, and leading_error_term at
# p = 3, for five-stage witnesses built here: the 24 orderings of the Strang
# composition with weights (3, 4, 5, -6)/6 (order 3), the registry schemes padded
# to five stages, and seeded order-2 Strang compositions.  The digests were taken
# while the recurrence still made one kernel call per word and sweep.

VERIFY_DIGESTS = {
    (3, "taylor"): "516226a7e5753bd7a66bb5676dfe571ccf23a2c14f61d294fe40ec423ceaadd0",
    (3, "bch"): "b4a237be41cd92fb4ba0fbf9b7811034dea32cb19fb080c50227963ad34f5d9b",
    (4, "taylor"): "115c88bb92f6c4dbaa13a5fa97923eb1b9f02c6126f3e3ca90bf6b412cc1abc0",
    (4, "bch"): "a01c6fe8db4e10a2c2b2f46f3e1cfdd30687c31f625b362ca2185d28347d2cdc",
}

LEADING_TERMS_DIGEST = "0345700f7c06ff4a66c3e04ee5b2c1f01d1dc3c668c68eaca60d31a466d24d61"


def verification_witnesses() -> list[ConcreteScheme]:
    weights = [Fraction(x, 6) for x in (3, 4, 5, -6)]
    schemes = [strang_composition(w) for w in itertools.permutations(weights)]
    schemes += [entry.scheme.padded(5) for entry in REGISTRY.values()]
    rng, numerators = random.Random(1701), [n for n in range(-6, 7) if n]
    while len(schemes) < 24 + len(REGISTRY) + 16:
        w = [Fraction(rng.choice(numerators), rng.randint(1, 6)) for _ in range(3)]
        w.append(1 - sum(w))
        if w[-1] and sum(x**3 for x in w):
            schemes.append(strang_composition(w))
    return schemes


def report_record(report) -> dict:
    return {
        "a": [str(x) for x in report.scheme.a],
        "b": [str(x) for x in report.scheme.b],
        "order": report.order,
        "route": report.route,
        "satisfied": report.satisfied,
        "residuals": [[q, word_str(w), str(r)] for q, w, r in report.residuals],
    }


@pytest.mark.parametrize("order,route", sorted(VERIFY_DIGESTS))
def test_verify_scheme_reports_unchanged(order, route):
    records = [report_record(verify_scheme(s, order, route)) for s in verification_witnesses()]
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canonical) == VERIFY_DIGESTS[(order, route)]


def leading_terms_text(p: int) -> str:
    texts = []
    for scheme in verification_witnesses():
        try:
            texts.append(str(leading_error_term(scheme, p)))
        except NotOrderP:
            texts.append(f"not order {p}")
    return "\n".join(texts)


def test_leading_error_terms_unchanged():
    assert sha256(leading_terms_text(3)) == LEADING_TERMS_DIGEST


# The same witnesses' leading error terms at p = 1, 2 and 4: every witness has order
# 1, all but one order 2, and none order 4.  Pinned while leading_error_term still
# formed the logarithm at order p + 1.

LEADING_TERMS_AT_ORDER_DIGESTS = {
    1: "5af2016903cdacdc6c175fd80cdf19bae4e3457f46e1029b1c165ae843036e8e",
    2: "31ce8cbcee7480800c800eb4f583ff01a95e3741329ae0de45bc8ed374722e37",
    4: "b5d2163a3103a6901dded5fc67f05cf74c9d686f8856992268ea4f42d57e79cc",
}


@pytest.mark.parametrize("order", sorted(LEADING_TERMS_AT_ORDER_DIGESTS))
def test_leading_error_terms_at_other_orders_unchanged(order):
    assert sha256(leading_terms_text(order)) == LEADING_TERMS_AT_ORDER_DIGESTS[order]


# verify_scheme reports at p = 1, 2, 5 and 6 on both routes, over the registry
# schemes as they stand and the 24 Strang orderings, and the printed generic
# splitting products at truncations 4 to 6: the low orders, the top-degree cut
# and the product were pinned while the recurrence still keyed its tables by
# word tuples.

EDGE_VERIFY_DIGESTS = {
    (1, "taylor"): "18a00779111024081d0cc23ba5931ead627cfff79e84dd4292a5840227d5d626",
    (1, "bch"): "28a5fdb83cdbc82d1cb866d76ffbb6af53a08094bc047cfcb5603d95514631f6",
    (2, "taylor"): "1d5c99d9f105368bf955b10c093f98cb890737edd430b175e3163404d1e0dd33",
    (2, "bch"): "a8b30e2022f483ef5a0b73f54c7dd9554b55019d79454019512b376a79053382",
    (5, "taylor"): "42791c7c8e2a342fc8a17702017164a5cfcf71bebcb74093bda28a491dbd86ee",
    (5, "bch"): "f2510cf5e113849b47007064c2aacbc15f986014caf2772c16cb17283ac2a43d",
    (6, "taylor"): "05b3894cb720f6252d00832d008d5ab2be4cfd589b5153e4964f14f5160ba4ee",
    (6, "bch"): "f40eda6ea15e6f15588acf131410d9e0c08fe994219ee7147884373278d2d776",
}

PRODUCT_TEXT_DIGESTS = {
    (2, 4): "b5224fe20e49e5e21b1b570b57b1d0ef1b144822669219dda266379dc6de65c0",
    (2, 5): "776713c358bef352ab026b39fa3c2dd31f495f3b27eba60b190ee949db8cb365",
    (2, 6): "944d5cf5fa5cbf765ad311c94fae5f2a1328ea733f86ca47d95bbba69ac7489e",
    (3, 4): "136987fe8bdab04ad2196338c2260631bfaff0027bc41bf16533b8aed06e3f31",
    (3, 5): "db172ca0d31f55aa1d9d6eca88427f28ae76ea71f397ea783e1501ebcc856218",
    (3, 6): "fb82f0576b10832fb6f7cdcffd702855f7e7185651cc06ce0c05d99c1df8561f",
}


@pytest.mark.parametrize("order,route", sorted(EDGE_VERIFY_DIGESTS))
def test_verify_scheme_reports_at_the_edge_orders_unchanged(order, route):
    weights = [Fraction(x, 6) for x in (3, 4, 5, -6)]
    schemes = [entry.scheme for entry in REGISTRY.values()]
    schemes += [strang_composition(w) for w in itertools.permutations(weights)]
    records = [report_record(verify_scheme(s, order, route)) for s in schemes]
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canonical) == EDGE_VERIFY_DIGESTS[(order, route)]


@pytest.mark.parametrize("stages,truncation", sorted(PRODUCT_TEXT_DIGESTS))
def test_generic_splitting_products_unchanged(stages, truncation):
    text = str(splitting_product(SymbolicScheme.generic(stages), truncation))
    assert sha256(text) == PRODUCT_TEXT_DIGESTS[(stages, truncation)]


# The Lyndon read: the printed lie_decompose of each homogeneous part of the generic
# two-stage log through degree 6 (the read over Poly), and verify_scheme on the BCH
# route at p = 6 to 10 over the registry's Strang and order-3 schemes (Strang's even
# degrees vanish, so its read skips them).  Pinned while the read was still a
# word-keyed back-substitution.

LIE_DECOMPOSITION_TEXT_DIGESTS = {
    1: "019266987ab9bac47f2a8af43bffaad5fc5c3295b6e50a5ddd43748ef5c0be47",
    2: "9897da3f2d163fd6d51b1a2cf8e435acb8d906bfecf219c5c790ebd7422ea6ed",
    3: "99a80fd94ee3ea0a6c6ba91cc305f713a4799b4783151a8ce29eff77c98af767",
    4: "e65d32ec9374893837060fbc9fe752c1e5a21aef1a0a58918fc212d8cc2c28e1",
    5: "89ef6864a997e873859a5334e3b91d8c53294221db30f28c1938778c7c9f6ed5",
    6: "75a3e4be85cbe5fcd3d12c4c01b45b3eddac0fd8cdd2fad181ec7367176f5db2",
}

HIGH_ORDER_VERIFY_DIGESTS = {
    6: "33631f99165ab03da74391ed01edb320ac2e8185c7c2b7626fe738485d686a46",
    7: "7f5c6ec581fa028b3fa0347a2dde413f2f4ab505f80483071bfc643ce9365e90",
    8: "ba60cb5ba04de9df5edb8d039353afd56f27d28f9fd21d8cd787af28487d69a5",
    9: "169aa485ab19faad686ba735a0486476181d2162822494e3dab826b755af9716",
    10: "770cdb221a03a47f39a2cf455d0134b12326e4ac2a978fb149065c9821d35193",
}


@pytest.mark.parametrize("degree", sorted(LIE_DECOMPOSITION_TEXT_DIGESTS))
def test_lie_decompositions_of_the_generic_log_unchanged(degree):
    f = log(splitting_product(SymbolicScheme.generic(2), 6)).homogeneous_part(degree)
    assert sha256(str(lie_decompose(f, degree))) == LIE_DECOMPOSITION_TEXT_DIGESTS[degree]


# The read's letter blocks and its top degree: the printed lie_decompose of a seeded
# three-letter Lie combination at degrees 3 to 5, where Lyndon words first share their
# letters, and verify_scheme on the BCH route at p = 11 to 13 over the same two registry
# schemes, whose top degree fills large blocks.  Pinned while the read still expanded
# and kept the bracketing of every Lyndon word.

THREE_LETTER_LIE_TEXT_DIGESTS = {
    3: "1ae1a52ad2849edb15f21eb5b856768542c5a2ac7baf171f4eb0e5de724d5fae",
    4: "39f86bb66d95bda710ffe866bce2c610d8b924446367f1a3d5b611d8954d806a",
    5: "4ec1ccd2cefc770cad6a0fd2144be31571b541f9a2272e2621e60caa51a6f082",
}

TOP_DEGREE_VERIFY_DIGESTS = {
    11: "6b3dce7c7cd0f2bc07faf7ce9072edc12da353a47c6feacc93c095d7c463523e",
    12: "cc22b5879d924d15a9fbcb2fd4677b1390e4b919ba962c6a62512a491f025440",
    13: "551b28493820e0442adc73cfea95482badac25bdb7f1769bba458632ff658e87",
}


def three_letter_lie_element(degree: int) -> NCSeries:
    # weights in -9/9 .. 9/9, zeros included, some of them times a symbol
    rng, total = random.Random(2003 + degree), NCSeries.zero(degree, 3)
    for w in lyndon_words_of_degree(3, degree):
        weight = Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if rng.random() < 0.3:
            weight = weight * Poly.symbol(rng.choice("ab"), rng.randint(1, 2))
        total = total + expand(bracketing(w), degree, 3).scale(weight)
    return total


@pytest.mark.parametrize("degree", sorted(THREE_LETTER_LIE_TEXT_DIGESTS))
def test_lie_decompositions_over_three_letters_unchanged(degree):
    text = str(lie_decompose(three_letter_lie_element(degree), degree))
    assert sha256(text) == THREE_LETTER_LIE_TEXT_DIGESTS[degree]


BCH_VERIFY_DIGESTS = {**HIGH_ORDER_VERIFY_DIGESTS, **TOP_DEGREE_VERIFY_DIGESTS}


@pytest.mark.parametrize("order", sorted(BCH_VERIFY_DIGESTS))
def test_bch_verify_reports_at_high_orders_unchanged(order):
    schemes = [REGISTRY[name].scheme for name in ("strang", "paper-order3")]
    records = [report_record(verify_scheme(s, order, "bch")) for s in schemes]
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canonical) == BCH_VERIFY_DIGESTS[order]


# The Taylor route where a stage's runs are long: verify_scheme on the Taylor route at
# p = 12 to 16 over the registry's Strang and order-3 schemes, whose products form n^j
# up to j = p along the runs of one letter.  Pinned while the product still swept each
# stage by a ladder of its powers.

TAYLOR_VERIFY_DIGESTS = {
    12: "183bfbd8e95e8ce9bf0b48681e2289f9c4382b3c66eb6282ec104cd56da41669",
    13: "9f53a920c95d96d7adde6f8d8ed68700d98b9891f4741ed647d5a0f6eb65a13a",
    14: "4f39d0807440d3897fd267073bdc2a02956a74436bcfd43105f887ebab86f8c4",
    15: "98335df77e92dac7b2e71f60c5ad6e812575be0e379b7b22503f95b3f3d7bd7a",
    16: "58d85d194719a1f51d0009cb799c2575740fee9ee0a3456a17ad03b2ae2124d8",
}


@pytest.mark.parametrize("order", sorted(TAYLOR_VERIFY_DIGESTS))
def test_taylor_verify_reports_at_high_orders_unchanged(order):
    schemes = [REGISTRY[name].scheme for name in ("strang", "paper-order3")]
    records = [report_record(verify_scheme(s, order, "taylor")) for s in schemes]
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert sha256(canonical) == TAYLOR_VERIFY_DIGESTS[order]

"""Every guarded entry point applies the one size-guard rule with one
wording: past its cap it refuses with "{what} needs {size} {unit},
guard allows {cap}" and the option that sets the cap; admitted past
its default by a loosened cap it warns "guard override in effect:
{what} needs {size} {unit}, past the default {default}; this may take
a long time".  The entry point's own guard warns first; the checks
it calls may warn again, each in the same template.  The defaults are
lowered here so every instance is small."""

import re
import warnings

import pytest

from signedwiener import distances, search
from signedwiener.canceling import (
    is_k_canceling_signing,
    is_rk_canceling_coloring,
)
from signedwiener.distances import (
    EdgeColoring,
    GuardOverride,
    SizeGuardError,
    achievable_path_sums,
    canceling_path_witness,
    canceling_reach_row,
    signed_distance,
    signed_distance_row,
    signed_distance_with_witness,
    wiener_signed,
)
from signedwiener.graphs import complete_graph
from signedwiener.search import (
    find_k_canceling_signing,
    min_signed_wiener,
    threshold_scan,
)

K4, K5 = complete_graph(4), complete_graph(5)
PLUS4 = (1,) * K4.m
TWO4 = EdgeColoring(2, tuple(1 + i % 2 for i in range(K4.m)))
THREE4 = EdgeColoring(3, tuple(1 + i % 3 for i in range(K4.m)))

SIGNED = (distances, "DEFAULT_MAX_N_SIGNED", 3, "vertices", "max_n")
COLORED = (distances, "DEFAULT_MAX_N_COLORED", 3, "vertices", "max_n")


def _bits(default):
    return (search, "DEFAULT_MAX_SEARCH_BITS", default, "candidate bits",
            "max_bits")


# name -> (the guard's default and unit, the call with a cap, the
# guarded work and its size)
GUARDS = {
    "signed_distance_row": (SIGNED, lambda cap: signed_distance_row(
        K4, PLUS4, 0, max_n=cap), "signed distance", 4),
    "signed_distance": (SIGNED, lambda cap: signed_distance(
        K4, PLUS4, 0, 1, max_n=cap), "signed distance", 4),
    "signed_distance_with_witness": (
        SIGNED, lambda cap: signed_distance_with_witness(
            K4, PLUS4, 0, 1, max_n=cap), "signed distance", 4),
    "achievable_path_sums": (SIGNED, lambda cap: achievable_path_sums(
        K4, PLUS4, 0, 1, max_n=cap), "path-sum sweep", 4),
    "wiener_signed": (SIGNED, lambda cap: wiener_signed(
        K4, PLUS4, max_n=cap), "signed Wiener", 4),
    "canceling_reach_row-r2": (SIGNED, lambda cap: canceling_reach_row(
        K4, TWO4, 0, max_n=cap), "zero-path search", 4),
    "canceling_reach_row-r3": (COLORED, lambda cap: canceling_reach_row(
        K4, THREE4, 0, max_n=cap), "canceling-path search", 4),
    "canceling_path_witness-r2": (
        SIGNED, lambda cap: canceling_path_witness(
            K4, TWO4, 0, 1, max_n=cap), "zero-path search", 4),
    "canceling_path_witness-r3": (
        COLORED, lambda cap: canceling_path_witness(
            K4, THREE4, 0, 1, max_n=cap), "canceling-path search", 4),
    "is_k_canceling_signing-k1": (
        SIGNED, lambda cap: is_k_canceling_signing(
            K4, PLUS4, 1, max_n=cap), "zero-path search", 4),
    # k = 2 deletes one vertex of K_5, so the rows run on 4
    "is_k_canceling_signing-k2": (
        SIGNED, lambda cap: is_k_canceling_signing(
            K5, (1,) * K5.m, 2, max_n=cap), "zero-path search", 4),
    "is_rk_canceling_coloring": (
        COLORED, lambda cap: is_rk_canceling_coloring(
            K4, THREE4, 1, max_n=cap), "canceling-path search", 4),
    # K_4's 6 edges: 5 signing bits, ceil(6 log2 3) = 10 coloring bits
    "find_k_canceling_signing": (
        _bits(4), lambda cap: find_k_canceling_signing(
            K4, 1, use_filter=False, max_bits=cap), "signing search", 5),
    "min_signed_wiener": (_bits(4), lambda cap: min_signed_wiener(
        K4, max_bits=cap), "signing scan", 5),
    # an unprobed row checks its bits before its vertices
    "threshold_scan-bits": (_bits(4), lambda cap: threshold_scan(
        3, 1, [4], max_bits=cap), "threshold scan at n=4", 10),
    "threshold_scan-vertices": (COLORED, lambda cap: threshold_scan(
        3, 1, [4], max_n=cap), "canceling-path search", 4),
    # a probed row checks its vertices first, its bits once its probe
    # fails, as the cyclic signing of K_3 does at k = 1
    "threshold_scan-probed-vertices": (SIGNED, lambda cap: threshold_scan(
        2, 1, [4], max_n=cap), "zero-path search", 4),
    "threshold_scan-probed-bits": (_bits(1), lambda cap: threshold_scan(
        2, 1, [3], max_bits=cap), "threshold scan at n=3", 2),
}


@pytest.mark.parametrize("name", GUARDS)
def test_one_guard_rule_and_wording(monkeypatch, name):
    (module, attr, default, unit, option), call, what, size = GUARDS[name]
    monkeypatch.setattr(module, attr, default)
    for cap, allows in ((None, default), (size - 1, size - 1)):
        with pytest.raises(SizeGuardError) as refused:
            call(cap)
        assert (refused.value.reason, refused.value.option) == (
            f"{what} needs {size} {unit}, guard allows {allows}", option)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(size)
    texts = [str(w.message) for w in caught
             if issubclass(w.category, GuardOverride)]
    template = ("guard override in effect: {} needs {} {}, past the "
                "default {}; this may take a long time")
    assert texts[0] == template.format(what, size, unit, default)
    # wiener_signed's rows, say, warn as "signed distance"
    pattern = template.format("[^;]+", size, unit, default)
    assert all(re.fullmatch(pattern, text) for text in texts), texts

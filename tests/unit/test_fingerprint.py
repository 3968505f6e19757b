"""Unit tests for repro.fingerprint: canonical JSON + config fingerprints.

The fingerprint is the scenario server's cache key and feeds
``derive_seed``; it must be byte-stable across processes, platforms and
``PYTHONHASHSEED``, which is why the pinned-literal tests below exist.
A change to any pinned value silently invalidates every recorded cache
and must be made deliberately (bump the canonical-form tag).
"""

from __future__ import annotations

import math
import types
from collections import OrderedDict

import pytest

from repro.errors import ConfigError
from repro.fingerprint import CANONICAL_FORM, canonical_json, config_fingerprint
from repro.parallel import derive_seed


# ----------------------------------------------------------------------
# canonical_json
# ----------------------------------------------------------------------

def test_canonical_json_sorts_keys_and_strips_whitespace():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_canonical_json_is_insertion_order_independent():
    forward = {str(i): i for i in range(20)}
    backward = {str(i): i for i in reversed(range(20))}
    assert canonical_json(forward) == canonical_json(backward)


def test_canonical_json_pinned_value():
    # Pinned literal: covers key sorting, nesting, null spelling and
    # ascii escaping in one shot.
    value = {"b": 1, "a": [1, 2, {"z": None}], "c": "touché"}
    assert canonical_json(value) == '{"a":[1,2,{"z":null}],"b":1,"c":"touch\\u00e9"}'


def test_canonical_json_tuples_equal_lists():
    assert canonical_json((1, 2)) == canonical_json([1, 2]) == "[1,2]"


def test_canonical_json_rejects_non_serializable():
    with pytest.raises(ConfigError):
        canonical_json({"f": lambda: None})
    with pytest.raises(ConfigError):
        canonical_json({"s": {1, 2}})
    with pytest.raises(ConfigError):
        canonical_json(object())


def test_canonical_json_rejects_nan_and_inf():
    # allow_nan=False: NaN has no JSON spelling and NaN != NaN would
    # break content addressing anyway.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            canonical_json({"x": bad})


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(ConfigError):
        canonical_json({1: "a"})


@pytest.mark.parametrize("value", [
    types.MappingProxyType({1: "a"}),
    OrderedDict([("a", 1), (2, "b")]),
    ({"a": 1}, {3: "c"}),
    [{"a": {"b": [OrderedDict([(4, "d")])]}}],
], ids=["mappingproxy", "ordereddict", "tuple-of-dicts", "nested-list"])
def test_non_string_keys_rejected_beyond_plain_dicts(value):
    # The key check dispatches on exact dict/list/tuple first; other
    # mappings must still be reached through the Mapping fallback.
    with pytest.raises(ConfigError):
        canonical_json(value)


# ----------------------------------------------------------------------
# config_fingerprint
# ----------------------------------------------------------------------

def test_config_fingerprint_is_stable_and_order_independent():
    a = config_fingerprint({"workload": "sor", "seed": 7})
    b = config_fingerprint({"seed": 7, "workload": "sor"})
    assert a == b
    assert len(a) == 64
    assert all(c in "0123456789abcdef" for c in a)


def test_config_fingerprint_distinguishes_configs():
    base = config_fingerprint({"workload": "sor", "seed": 7})
    assert config_fingerprint({"workload": "sor", "seed": 8}) != base
    assert config_fingerprint({"workload": "tsp", "seed": 7}) != base


def test_config_fingerprint_pinned_values():
    # Pinned literals: must be identical on every host (the scenario
    # server's disk cache is shared across processes and restarts).
    assert config_fingerprint({"workload": "sor", "seed": 7}) == (
        "f2f9f3a392d93760d97e6a022b18b59a7e47bcb4d1599d3c674fc21dc436e513")
    assert config_fingerprint({}) == (
        "e57a91513310f5188305cdf9a0ab663b2e41b633a54dad91d3f2afe5ceebdb77")


#: Scenario documents as the server fingerprints them, with their
#: digests recorded before the key check gained its exact-type fast path.
SCENARIO_DIGESTS = [
    ({"workload": "synthetic", "processes": 2, "seed": 3,
      "params": {"rounds": 4}},
     "d7e9578bd54a129fc394606b6215726215bbdcb0f00a58c8034351de3abcc960"),
    ({"kind": "workload", "workload": "sor", "seed": 7,
      "crashes": [[1, 40.0]], "check": True},
     "ff7f98628cc327ff8b2435f2993e15a144d7b4ccacdaeb44231c42492a2f1724"),
    ({"kind": "experiment", "experiment": "E1-figure1", "quick": True},
     "bc2c58a7f3a73e468bddf26d1491f1d5bd9fb11e147e719dddc41f528acc4e07"),
    ({"kind": "workload", "workload": "synthetic", "processes": 8,
      "seed": 12345, "params": {"rounds": 40}, "interval": 50.0,
      "baseline": "disom", "consistency": "entry", "crashes": [],
      "check": False, "latency": None, "highwater": None},
     "12674fdf1f455a9c5ce2acb2357b360d74761d825654ac316d73ac036c35c738"),
    ({"nested": ({"a": [1, 2.5, None, True]}, "\u00e9"),
      "x": OrderedDict([("b", 1), ("a", 2)])},
     "96f91085df8af3636e4eebdc4f3725261d3bc6d938641f36cb4f4469f4e0e172"),
]


@pytest.mark.parametrize("document,digest", SCENARIO_DIGESTS)
def test_scenario_document_fingerprints_pinned(document, digest):
    assert config_fingerprint(document) == digest


def test_canonical_form_tag_is_versioned():
    # The tag is folded into every digest; renaming it is a deliberate
    # cache-invalidation event.
    assert CANONICAL_FORM == "repro-canonical-json/1"


# ----------------------------------------------------------------------
# derive_seed integration
# ----------------------------------------------------------------------

def test_derive_seed_accepts_mappings_via_canonical_json():
    direct = derive_seed(7, {"b": 2, "a": 1})
    spelled = derive_seed(7, canonical_json({"b": 2, "a": 1}))
    assert direct == spelled
    assert derive_seed(7, {"a": 1, "b": 2}) == direct


def test_derive_seed_mapping_pinned_value():
    assert derive_seed(7, {"b": 2, "a": 1}) == 245205034806927042


def test_derive_seed_still_rejects_bare_floats():
    # Bare floats stay rejected (formatting ambiguity at the call site);
    # inside a mapping the canonical JSON form pins the spelling, so
    # config-style components with float values are allowed.
    with pytest.raises(ConfigError):
        derive_seed(7, 1.5)
    assert derive_seed(7, {"interval": 50.0}) == derive_seed(7, {"interval": 50.0})
    with pytest.raises(ConfigError):
        derive_seed(7, {"x": math.nan})

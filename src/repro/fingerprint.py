"""Canonical configuration fingerprints.

Deterministic runs make every simulation result a pure function of
``(configuration, seed, code version)`` -- which is only cacheable if
the *key* is just as deterministic.  ``hash()`` is salted per process
(``PYTHONHASHSEED``), ``repr()`` of a dict depends on insertion order,
and ``pickle`` output varies across protocol versions; none of them can
name a result on disk.  This module provides the one stable spelling:

* :func:`canonical_json` -- a strict JSON canonicalization (sorted keys,
  no whitespace, ASCII-only escapes, NaN/Infinity rejected) that maps
  equal configurations to equal strings regardless of dict insertion
  order, platform, process, or hash seed;
* :func:`config_fingerprint` -- sha256 over the canonical form, the
  content address used by the scenario result cache and anywhere else a
  configuration needs a stable identity.

:func:`repro.parallel.seeds.derive_seed` accepts mappings/sequences as
components by routing them through :func:`canonical_json`, so per-point
seeds and cache keys share one canonicalization.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Union

from repro.errors import ConfigError

#: Canonicalization/format identifier, bumped if the canonical form ever
#: changes (which would invalidate every content-addressed key).
CANONICAL_FORM = "repro-canonical-json/1"


def _reject_unserializable(value: Any) -> Any:
    raise ConfigError(
        f"cannot canonicalize a {type(value).__name__} ({value!r}); "
        "fingerprinted configurations must be plain JSON data "
        "(dict/list/str/int/float/bool/None)"
    )


#: Exact types tested before the ``Mapping`` ABC check, which costs
#: more than the ``json.dumps`` it guards when paid on every leaf.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_SEQUENCES = frozenset({list, tuple})


def _reject_non_string_keys(value: Any) -> None:
    kind = type(value)
    if kind in _SCALARS:
        return
    if kind is dict or (kind not in _SEQUENCES
                        and isinstance(value, Mapping)):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigError(
                    f"cannot canonicalize mapping key {key!r}: keys must "
                    f"be strings (json would coerce it, colliding with "
                    f"the string spelling)"
                )
            _reject_non_string_keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _reject_non_string_keys(item)


def canonical_json(value: Any) -> str:
    """The canonical JSON spelling of ``value``.

    Properties (the contract the cache key rests on):

    * mappings are emitted with keys sorted (insertion order invisible);
    * no whitespace, ASCII-only output (locale/encoding invisible);
    * tuples serialize exactly like lists;
    * floats use ``repr`` shortest round-trip form (stable across
      platforms on every supported CPython);
    * ``NaN``/``Infinity``, non-JSON types and non-string mapping keys
      raise :class:`~repro.errors.ConfigError` instead of producing a
      representation that only sometimes compares equal
      (``json.dumps`` would silently coerce the key ``1`` to ``"1"``,
      colliding two distinct configurations).
    """
    _reject_non_string_keys(value)
    try:
        return json.dumps(
            value,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
            default=_reject_unserializable,
        )
    except ValueError as exc:
        # allow_nan=False surfaces as ValueError; keep one error type.
        raise ConfigError(f"cannot canonicalize {value!r}: {exc}") from exc
    except TypeError as exc:  # non-string dict keys and friends
        raise ConfigError(f"cannot canonicalize {value!r}: {exc}") from exc


def config_fingerprint(config: Union[Mapping[str, Any], Any]) -> str:
    """The sha256 hex digest of ``config``'s canonical JSON form.

    Two configurations fingerprint identically iff their canonical forms
    are equal -- independent of dict ordering, process, platform and
    ``PYTHONHASHSEED``.  The digest is the content address used by the
    scenario server's result cache (composed with the seed and code
    version, see ``repro.server.scenario.ScenarioSpec.cache_key``).
    """
    digest = hashlib.sha256()
    digest.update(CANONICAL_FORM.encode("ascii"))
    digest.update(b"\x00")
    digest.update(canonical_json(config).encode("ascii"))
    return digest.hexdigest()


__all__ = ["CANONICAL_FORM", "canonical_json", "config_fingerprint"]

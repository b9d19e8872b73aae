"""JSON encoding/decoding for certificates and interval constraints.

Scalar, form, order, multiorder and finite-structure types carry their
own to_json/from_json; this module covers the certificate evidence, whose
fields and kinds each lemma declares once in `refuter.EVIDENCE`.
"""

from __future__ import annotations

from .field import FieldScalar
from .genericity import IntervalConstraint
from .refuter import EVIDENCE, Certificate, MalformedCertificateError

SCHEMA_VERSION = 1


def _kinds(tag: str) -> dict:
    if tag not in EVIDENCE:
        raise MalformedCertificateError(f"unknown lemma tag {tag!r}")
    return EVIDENCE[tag]


def _encode(value):
    if isinstance(value, FieldScalar):
        return value.to_json()
    if isinstance(value, Certificate):
        return certificate_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def certificate_to_json(cert: Certificate) -> dict:
    ev = cert.evidence
    return {
        "lemma_tag": cert.lemma_tag,
        "constraints": cert.constraints.to_json(),
        "evidence": {key: _encode(ev[key]) for key in _kinds(cert.lemma_tag)},
    }


def _field(obj, key: str, kind: type):
    """obj[key], checked to be a JSON value of the given kind."""
    if not isinstance(obj, dict) or type(obj.get(key)) is not kind:
        raise MalformedCertificateError(f"field {key!r} must be a {kind.__name__}")
    return obj[key]


def _vectors(obj, key: str) -> list[tuple[int, ...]]:
    rows = _field(obj, key, list)
    if not all(type(r) is list and all(type(x) is int for x in r) for r in rows):
        raise MalformedCertificateError(f"field {key!r} must hold integer vectors")
    return [tuple(r) for r in rows]


def _scalar(obj) -> FieldScalar:
    try:
        return FieldScalar.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"bad field scalar: {exc}") from exc


def _decode(ev, key: str, kind):
    """Evidence field key, decoded and type-checked as its declared kind."""
    if kind is Certificate:
        return certificate_from_json(_field(ev, key, dict))
    if kind == [FieldScalar]:
        return [_scalar(c) for c in _field(ev, key, list)]
    if kind == [tuple]:
        return _vectors(ev, key)
    return kind(_field(ev, key, kind))


def certificate_from_json(obj: dict) -> Certificate:
    """Decode a certificate; malformed input raises MalformedCertificateError."""
    tag = _field(obj, "lemma_tag", str)
    ev = _field(obj, "evidence", dict)
    evidence = {key: _decode(ev, key, kind) for key, kind in _kinds(tag).items()}
    try:
        constraints = IntervalConstraint.from_json(_field(obj, "constraints", list))
    except (KeyError, TypeError) as exc:
        raise MalformedCertificateError(f"bad constraints: {exc}") from exc
    return Certificate(constraints, tag, evidence)

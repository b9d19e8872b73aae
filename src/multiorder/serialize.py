"""JSON encoding/decoding for certificates and interval constraints.

Scalar, form, order, multiorder and finite-structure types carry their
own to_json/from_json; this module covers the tag-dispatched certificate
evidence.
"""

from __future__ import annotations

from .field import FieldScalar
from .genericity import IntervalConstraint
from .refuter import (
    TAG_DEPENDENT,
    TAG_DISCRETE_BASE,
    TAG_RATIONAL_KERNEL,
    TAG_SMALL_VOLUME,
    Certificate,
    MalformedCertificateError,
)

SCHEMA_VERSION = 1


def certificate_to_json(cert: Certificate) -> dict:
    ev = cert.evidence
    tag = cert.lemma_tag
    if tag == TAG_DEPENDENT:
        ev_json = {
            "k": ev["k"],
            "coeffs": [c.to_json() for c in ev["coeffs"]],
            "reversed": list(ev["reversed"]),
        }
    elif tag == TAG_RATIONAL_KERNEL:
        ev_json = {
            "order": ev["order"],
            "kernel_basis": [list(b) for b in ev["kernel_basis"]],
            "inner": certificate_to_json(ev["inner"]),
        }
    elif tag == TAG_SMALL_VOLUME:
        ev_json = {
            "det": ev["det"].to_json(),
            "widths": [w.to_json() for w in ev["widths"]],
        }
    elif tag == TAG_DISCRETE_BASE:
        ev_json = {
            "order": ev["order"],
            "pair": [list(p) for p in ev["pair"]],
        }
    else:
        raise MalformedCertificateError(f"unknown lemma tag {tag!r}")
    return {
        "lemma_tag": tag,
        "constraints": cert.constraints.to_json(),
        "evidence": ev_json,
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


def certificate_from_json(obj: dict) -> Certificate:
    """Decode a certificate; malformed input raises MalformedCertificateError."""
    tag = _field(obj, "lemma_tag", str)
    ev = _field(obj, "evidence", dict)
    if tag == TAG_DEPENDENT:
        evidence = {
            "k": _field(ev, "k", int),
            "coeffs": [_scalar(c) for c in _field(ev, "coeffs", list)],
            "reversed": list(_field(ev, "reversed", list)),
        }
    elif tag == TAG_RATIONAL_KERNEL:
        evidence = {
            "order": _field(ev, "order", int),
            "kernel_basis": _vectors(ev, "kernel_basis"),
            "inner": certificate_from_json(_field(ev, "inner", dict)),
        }
    elif tag == TAG_SMALL_VOLUME:
        evidence = {
            "det": _scalar(_field(ev, "det", dict)),
            "widths": [_scalar(w) for w in _field(ev, "widths", list)],
        }
    elif tag == TAG_DISCRETE_BASE:
        pair = _vectors(ev, "pair")
        if len(pair) != 2:
            raise MalformedCertificateError("field 'pair' must hold two vectors")
        evidence = {"order": _field(ev, "order", int), "pair": tuple(pair)}
    else:
        raise MalformedCertificateError(f"unknown lemma tag {tag!r}")
    try:
        constraints = IntervalConstraint.from_json(_field(obj, "constraints", list))
    except (KeyError, TypeError) as exc:
        raise MalformedCertificateError(f"bad constraints: {exc}") from exc
    ends = [e for bound in constraints.bounds for e in bound if e is not None]
    if not all(type(x) is int for e in ends for x in e):
        raise MalformedCertificateError("interval endpoints must be integer vectors")
    return Certificate(constraints, tag, evidence)

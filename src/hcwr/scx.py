"""SCX file format: JSON text holding a complex and an optional labeling.

Schema: ``{"format": "scx-1", "vertex_count": N,
"maximal_simplices": [[...], ...], "labels": [l_0, ..., l_{N-1}]}`` with
``labels`` optional.  A ``meta`` object may record how the complex was
generated (used to reconstruct family labelings like the torus tent);
unknown keys are ignored on read.
"""
from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Optional

from .complexes import SimplicialComplex, build_complex, maximal_simplices
from .generators import LabeledComplex
from .morse import MorseLabeling

FORMAT = "scx-1"
# Largest vertex_count read: building a complex stores one 0-simplex per
# vertex, so an unchecked count lets a few bytes of input exhaust memory.
MAX_VERTICES = 1 << 20


def to_dict(K: SimplicialComplex, labeling: Optional[MorseLabeling] = None,
            meta: Optional[dict] = None) -> dict:
    doc = {
        "format": FORMAT,
        "vertex_count": K.vertex_count,
        "maximal_simplices": [list(s) for s in maximal_simplices(K)],
    }
    if labeling is not None:
        doc["labels"] = list(labeling.labels)
    if meta:
        doc["meta"] = meta
    return doc


def _all_ints(items) -> bool:
    """Every item is a plain ``int``, not a ``bool`` or other subclass;
    one pass in C rather than a Python call per item."""
    return set(map(type, items)) <= {int}


def from_dict(doc: dict):
    """Returns (LabeledComplex, meta).  Raises ValueError on a malformed
    document; labels, if present, are validated against the morse
    constraint by LabeledComplex (InvalidLabeling)."""
    if not isinstance(doc, dict):
        raise ValueError("SCX document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise ValueError(f"unsupported format {doc.get('format')!r}")
    for key in ("vertex_count", "maximal_simplices"):
        if key not in doc:
            raise ValueError(f"SCX document lacks {key!r}")
    n = doc["vertex_count"]
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex_count must be a nonnegative integer, "
                         f"not {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex_count {n} exceeds the limit of "
                         f"{MAX_VERTICES}")
    simplices = doc["maximal_simplices"]
    if not (isinstance(simplices, list)
            and all(map(isinstance, simplices, repeat(list)))
            and _all_ints(chain.from_iterable(simplices))):
        raise ValueError("maximal_simplices must be a list of lists of "
                         "integer vertex ids")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    K = build_complex(simplices, n)
    labeling = None
    if doc.get("labels") is not None:
        labels = doc["labels"]
        if not (isinstance(labels, list) and _all_ints(labels)):
            raise ValueError("labels must be a list of integers")
        labeling = MorseLabeling(tuple(labels))
    return LabeledComplex(K, labeling), meta


def write_scx(path, K: SimplicialComplex,
              labeling: Optional[MorseLabeling] = None,
              meta: Optional[dict] = None):
    with open(path, "w") as fh:
        json.dump(to_dict(K, labeling, meta), fh)
        fh.write("\n")


def read_scx(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("SCX document is nested too deeply") from None
    return from_dict(doc)

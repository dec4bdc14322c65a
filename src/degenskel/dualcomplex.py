"""Combinatorial sncd models and their dual intersection complexes.

A model is described purely combinatorially: a set of components E_i with
multiplicities N_i, and a set of strata.  A stratum stands for a connected
component of an intersection E_J = cap_{j in J} E_j and is recorded as an id,
the component set J, and a face map sending each j in J to the stratum over
J - {j} whose closure contains it.  The dual complex has one simplex of
dimension |J| - 1 per stratum; several strata may share the same component
set (parallel edges and the like), so the complex is a finite simplicial set
rather than a strict simplicial complex.

Rational points of the complex are identified with monomial-valuation data:
a point with barycentric coordinates beta on the face of a stratum with
multiplicities N corresponds to the monomial valuation with weights
alpha_j = beta_j / N_j at that stratum, and conversely beta_j = alpha_j * N_j.
Zero coordinates are resolved through the face map before converting, so
boundary points land on the correct smaller face.  The combinatorial
retraction sends extracted (stratum, alpha) data to the skeleton point with
the same weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .errors import ValidationError, _shown


@dataclass(frozen=True)
class Component:
    id: str
    multiplicity: int


@dataclass(frozen=True)
class Stratum:
    id: str
    components: frozenset[str]
    faces: Mapping[str, str] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.components) - 1


def _is_id_list(value) -> bool:
    """Whether a JSON value is an array of string ids."""
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _synthesize(components: list[Component], strata) -> list[Stratum]:
    """Build each stratum once, with vertex strata and unambiguous faces filled in.

    Strata come as (id, components, faces) triples.  Components without a
    declared vertex stratum get one whose id is the component id.  A missing
    face entry is filled exactly when a unique stratum over the reduced
    component set exists; anything else is left for validation to report.
    """
    rows = [(str(sid), frozenset(comps), faces or {}) for sid, comps, faces in strata]
    stratum_ids = {sid for sid, _, _ in rows}
    covered = {next(iter(comps)) for _, comps, _ in rows if len(comps) == 1}
    for comp in components:
        if comp.id not in covered and comp.id not in stratum_ids:
            rows.append((comp.id, frozenset([comp.id]), {}))
            stratum_ids.add(comp.id)

    by_components: dict[frozenset[str], list[str]] = {}
    for sid, comps, _ in rows:
        by_components.setdefault(comps, []).append(sid)

    out = []
    for sid, comps, faces in rows:
        faces = dict(faces)
        if len(comps) >= 2:
            for j in comps - faces.keys():
                candidates = by_components.get(comps - {j}, [])
                if len(candidates) == 1:
                    faces[j] = candidates[0]
        out.append(Stratum(sid, comps, faces))
    return out


def _model_problems(components: list[Component], strata: list[Stratum]):
    """Every violation of the model invariants, and the indices built to find them.

    Returns (problems, and by id: components, strata, vertex strata of each
    component, checked faces); the indices are the model's own once valid.
    """
    problems = []
    if not components:
        problems.append("model has no components")

    by_cid: dict[str, Component] = {}
    for c in components:
        if c.id in by_cid:
            problems.append(f"component {c.id}: duplicate component id")
        by_cid[c.id] = c
        mult = c.multiplicity
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            problems.append(
                f"component {c.id}: multiplicity must be a positive integer"
            )

    by_id: dict[str, Stratum] = {}
    for s in strata:
        if s.id in by_id:
            problems.append(f"stratum {s.id}: duplicate stratum id")
        by_id[s.id] = s
        if not s.components:
            problems.append(f"stratum {s.id}: empty component set")
        for c in sorted(s.components):
            if c not in by_cid:
                problems.append(f"stratum {s.id}: unknown component {c}")

    vertex_of: dict[str, list[str]] = {}
    for s in strata:
        if len(s.components) == 1:
            vertex_of.setdefault(next(iter(s.components)), []).append(s.id)
    for cid in sorted(by_cid):
        hits = vertex_of.get(cid, [])
        if not hits:
            problems.append(f"component {cid}: no vertex stratum")
        elif len(hits) > 1:
            problems.append(
                f"component {cid}: multiple vertex strata ({', '.join(sorted(hits))})"
            )

    # face-map structure; checked[i] holds the faces of strata[i] that lie
    # over the right component set, face[sid] those of by_id[sid]
    checked = []
    for s in strata:
        checked.append({})
        if len(s.components) == 1:
            if s.faces:
                problems.append(
                    f"stratum {s.id}: vertex stratum cannot have face entries"
                )
            continue
        for j in sorted(s.components - s.faces.keys()):
            problems.append(
                f"stratum {s.id}: missing face entry for {j}"
                " (no unique stratum over the reduced component set)"
            )
        for j, target in sorted(s.faces.items()):
            if j not in s.components:
                problems.append(
                    f"stratum {s.id}: face entry for {j},"
                    " which is not a component of the stratum"
                )
                continue
            parent = by_id.get(target)
            if parent is None:
                problems.append(
                    f"stratum {s.id}: face for {j} targets unknown stratum {target}"
                )
            elif parent.components != s.components - {j}:
                expect = ",".join(sorted(s.components - {j}))
                got = ",".join(sorted(parent.components))
                problems.append(
                    f"stratum {s.id}: face for {j} must lie over {{{expect}}},"
                    f" but {target} lies over {{{got}}}"
                )
            else:
                checked[-1][j] = target
    face = {s.id: faces for s, faces in zip(strata, checked)}

    # simplicial compatibility: removing j then k agrees with k then j
    for s, faces in zip(strata, checked):
        if len(s.components) < 3:
            continue
        for a, b in combinations(sorted(faces), 2):
            ab = face[faces[a]].get(b)
            ba = face[faces[b]].get(a)
            if ab is not None and ba is not None and ab != ba:
                problems.append(
                    f"stratum {s.id}: incompatible face maps:"
                    f" removing {a} then {b} gives {ab},"
                    f" removing {b} then {a} gives {ba}"
                )
    return problems, by_cid, by_id, vertex_of, face


class ModelDescription:
    """Validated combinatorial description of an sncd model, built from
    (id, multiplicity) pairs and (id, components, faces) triples.

    Vertex strata and unambiguous face entries may be omitted from the
    input; they are synthesized before validation (a synthesized vertex
    stratum reuses the component id).  Construction raises ValidationError
    listing every violation when the data is inconsistent.
    """

    def __init__(self, components: Iterable, strata: Iterable = ()):
        comps = [Component(str(cid), mult) for cid, mult in components]
        full = _synthesize(comps, strata)
        problems, self._components, self._strata, self._vertex_of, faces = (
            _model_problems(comps, full)
        )
        if problems:
            raise ValidationError(problems)
        self.components = tuple(sorted(comps, key=lambda c: c.id))
        self.strata = tuple(sorted(full, key=lambda s: s.id))
        # the direct faces of each stratum, in sorted component order as checked
        self._faces = {sid: tuple(f.values()) for sid, f in faces.items()}

    def component(self, cid: str) -> Component:
        try:
            return self._components[cid]
        except KeyError:
            raise ValidationError(f"unknown component {cid}") from None

    def stratum(self, sid: str) -> Stratum:
        try:
            return self._strata[sid]
        except KeyError:
            raise ValidationError(f"unknown stratum {sid}") from None

    def multiplicity(self, cid: str) -> int:
        return self.component(cid).multiplicity

    def vertex_stratum(self, cid: str) -> str:
        """Id of the unique vertex stratum of a component."""
        self.component(cid)
        return self._vertex_of[cid][0]

    def __eq__(self, other):
        if not isinstance(other, ModelDescription):
            return NotImplemented
        return self.components == other.components and self.strata == other.strata

    def __repr__(self) -> str:
        return (
            f"ModelDescription({len(self.components)} components,"
            f" {len(self.strata)} strata)"
        )

    # -- JSON schema ----------------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> ModelDescription:
        problems = []
        if not isinstance(data, dict):
            raise ValidationError("model must be a JSON object")
        for key in ("components", "strata"):
            if not isinstance(data.get(key, []), list):
                raise ValidationError(f"model '{key}' must be a JSON array")
        comps = []
        for entry in data.get("components", []):
            if not isinstance(entry, dict) or "id" not in entry:
                problems.append(f"malformed component entry {_shown(entry)}")
            elif not isinstance(entry["id"], str):
                problems.append(f"component id {_shown(entry['id'])} is not a string")
            else:
                comps.append((entry["id"], entry.get("multiplicity", 1)))
        strata = []
        for entry in data.get("strata", []):
            if (
                not isinstance(entry, dict)
                or "id" not in entry
                or "components" not in entry
                or not isinstance(entry.get("faces") or {}, dict)
            ):
                problems.append(f"malformed stratum entry {_shown(entry)}")
            elif not isinstance(entry["id"], str):
                problems.append(f"stratum id {_shown(entry['id'])} is not a string")
            elif not _is_id_list(entry["components"]):
                problems.append(
                    f"stratum {entry['id']}: 'components' must be a JSON array of ids"
                )
            elif not _is_id_list(list((entry.get("faces") or {}).values())):
                problems.append(f"stratum {entry['id']}: face targets must be ids")
            else:
                strata.append((entry["id"], entry["components"], entry.get("faces")))
        # a JSON escape can carry a lone surrogate, which UTF-8 cannot encode
        for kind, rows in (("component", comps), ("stratum", strata)):
            for sid, *_ in rows:
                if sid.encode("utf-8", "replace").decode("utf-8") != sid:
                    problems.append(f"{kind} id {_shown(sid)} is not valid UTF-8")
        if problems:
            raise ValidationError(problems)
        return cls(comps, strata)

    def to_dict(self) -> dict:
        return {
            "components": [
                {"id": c.id, "multiplicity": c.multiplicity} for c in self.components
            ],
            "strata": [
                {"id": s.id, "components": sorted(s.components)}
                if len(s.components) == 1
                else {
                    "id": s.id,
                    "components": sorted(s.components),
                    "faces": dict(sorted(s.faces.items())),
                }
                for s in self.strata
            ],
        }


class DualComplex:
    """The dual intersection complex of a model: a view of its face maps."""

    def __init__(self, model: ModelDescription):
        self.model = model

    def dimension(self, sid: str) -> int:
        return self.model.stratum(sid).dimension

    @property
    def top_dimension(self) -> int:
        return max(s.dimension for s in self.model.strata)

    def face_closure(self, sid: str) -> frozenset[str]:
        """The stratum together with all its iterated faces."""
        seen = {sid}
        stack = [self.model.stratum(sid)]
        while stack:
            for f in stack.pop().faces.values():
                if f not in seen:
                    seen.add(f)
                    stack.append(self.model.stratum(f))
        return frozenset(seen)

    def direct_faces(self, sid: str) -> tuple[str, ...]:
        """The direct faces of a stratum, in sorted component order."""
        return self.model._faces[self.model.stratum(sid).id]

    def strata_of_dimension(self, d: int) -> list[str]:
        return [s.id for s in self.model.strata if s.dimension == d]

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.model.strata:
            out[s.dimension] = out.get(s.dimension, 0) + 1
        return out

    def __eq__(self, other):
        if not isinstance(other, DualComplex):
            return NotImplemented
        return self.model == other.model

    def to_dot(self) -> str:
        """Graphviz rendering of the 1-skeleton; higher faces as comments."""
        model = self.model
        lines = ["graph dual_complex {"]
        for c in model.components:
            vid = _dot_escaped(model.vertex_stratum(c.id))
            label = f"{_dot_escaped(c.id)} (N={c.multiplicity})"
            lines.append(f'  "{vid}" [label="{label}"];')
        for s in model.strata:
            if s.dimension == 1:
                va, vb = (_dot_escaped(model.vertex_stratum(j)) for j in sorted(s.components))
                lines.append(f'  "{va}" -- "{vb}" [label="{_dot_escaped(s.id)}"];')
        for s in model.strata:
            if s.dimension >= 2:
                comps = ", ".join(_dot_escaped(j) for j in sorted(s.components))
                lines.append(f"  // {s.dimension}-face {_dot_escaped(s.id)}: {comps}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escaped(text: str) -> str:
    """An id as written inside a DOT string or comment: backslash, quote and
    newline escaped, so it can neither end the string nor the comment."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def build_complex(model: ModelDescription) -> DualComplex:
    """One simplex of dimension |J| - 1 per stratum, faces from the face map."""
    return DualComplex(model)


def connected_components(cx, strata: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Partition of a face-closed set of strata into connected pieces.

    Accepts either a DualComplex (optionally restricted to a set of strata)
    or any object exposing .complex and .strata, such as a Subcomplex.
    Connectivity is generated by direct face incidence, which for
    face-closed sets agrees with connectivity of the 1-skeleton.
    """
    if strata is None and hasattr(cx, "complex") and hasattr(cx, "strata"):
        strata = cx.strata
        cx = cx.complex
    faces = cx.model._faces
    ids = set(faces) if strata is None else set(strata)
    for sid in sorted(ids - faces.keys()):
        cx.model.stratum(sid)  # raises on the least unknown id

    parent = {sid: sid for sid in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sid in ids:
        for f in faces[sid]:
            if f in ids:
                ra, rb = find(sid), find(f)
                if ra != rb:
                    parent[ra] = rb

    groups: dict[str, set[str]] = {}
    for sid in ids:
        groups.setdefault(find(sid), set()).add(sid)
    return sorted((frozenset(g) for g in groups.values()), key=min)


# -- skeleton points and monomial data ---------------------------------------


def _as_fraction_map(values: Mapping) -> dict[str, Fraction]:
    out = {}
    for key, value in values.items():
        if isinstance(value, float):
            raise ValidationError("coordinates must be exact rationals, not floats")
        out[str(key)] = Fraction(value)
    return out


@dataclass(frozen=True)
class SkeletonPoint:
    """A face of the dual complex plus rational barycentric coordinates."""

    stratum: str
    barycentric: Mapping[str, Fraction]

    def __post_init__(self):
        coords = _as_fraction_map(self.barycentric)
        object.__setattr__(self, "barycentric", coords)
        if any(b < 0 for b in coords.values()):
            raise ValidationError("barycentric coordinates must be nonnegative")
        total = sum(coords.values())
        if total != 1:
            raise ValidationError(
                f"barycentric coordinates must sum to 1, got {total}"
            )


@dataclass(frozen=True)
class MonomialPointData:
    """A stratum plus the weights alpha of a monomial valuation at it."""

    stratum: str
    alpha: Mapping[str, Fraction]

    def __post_init__(self):
        alpha = _as_fraction_map(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if any(a < 0 for a in alpha.values()):
            raise ValidationError("weights must be nonnegative")


def _check_keys(model: ModelDescription, stratum_id: str, coords: Mapping[str, Fraction]):
    s = model.stratum(stratum_id)
    if set(coords) != set(s.components):
        expect = ",".join(sorted(s.components))
        got = ",".join(sorted(coords))
        raise ValidationError(
            f"stratum {stratum_id}: coordinates must cover exactly"
            f" {{{expect}}}, got {{{got}}}"
        )
    return s


def _resolve_zeros(model: ModelDescription, stratum_id: str, coords):
    """Walk the face map along zero coordinates; order does not matter."""
    s = model.stratum(stratum_id)
    for j in sorted(coords):
        if coords[j] == 0:
            s = model.stratum(s.faces[j])
    return s, {j: coords[j] for j in s.components}


def barycentric_to_monomial(
    model: ModelDescription, point: SkeletonPoint
) -> MonomialPointData:
    """Coordinates of a skeleton point as monomial-valuation data.

    Interior points stay on their stratum with alpha_j = beta_j / N_j; zero
    coordinates first push the point to the face the boundary rule selects.
    A vertex maps to the divisorial datum alpha = 1/N.
    """
    _check_keys(model, point.stratum, point.barycentric)
    s, beta = _resolve_zeros(model, point.stratum, point.barycentric)
    alpha = {j: beta[j] / model.multiplicity(j) for j in s.components}
    return MonomialPointData(s.id, alpha)


def monomial_to_barycentric(
    model: ModelDescription, data: MonomialPointData
) -> SkeletonPoint:
    """Inverse coordinate map: beta_j = alpha_j * N_j, zeros stripped first."""
    s = _check_keys(model, data.stratum, data.alpha)
    total = sum(data.alpha[j] * model.multiplicity(j) for j in s.components)
    if total != 1:
        raise ValidationError(
            f"stratum {data.stratum}: weights must satisfy sum(alpha*N) = 1,"
            f" got {total}"
        )
    s, alpha = _resolve_zeros(model, data.stratum, data.alpha)
    beta = {j: alpha[j] * model.multiplicity(j) for j in s.components}
    return SkeletonPoint(s.id, beta)

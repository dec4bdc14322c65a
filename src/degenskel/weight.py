"""Weight functions of pluricanonical forms and the skeleta they cut out.

A pluricanonical form of level m is recorded on a model by the multiplicity
nu_i of each component in its divisor on the model, together with flags
marking the strata contained in the Zariski closure of the horizontal part
of its divisor.  The weight of the divisorial point of a component is
(nu + m)/N; on a face of the dual complex the weight function interpolates
affinely through beta |-> sum beta_j (nu_j + m)/N_j, except on flagged faces
where that affine value is only a strict lower bound for the true weight
(the exact value there would need a local equation the data does not carry).

A face is essential for the form when every one of its components attains
the minimal divisorial weight and the face is not flagged; the union of the
essential faces, always face-closed, is the Kontsevich-Soibelman skeleton of
the form.  The essential skeleton is the union of these over a supplied
family of forms; with finitely many forms it is a subcomplex of (possibly
equal to) the full essential skeleton, whose defining union runs over all
nonzero pluricanonical forms.

Connectivity and the closed-pseudo-manifold property are implemented as
checkable passes on computed subcomplexes, not as theorems.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .dualcomplex import (
    DualComplex,
    ModelDescription,
    SkeletonPoint,
    _check_keys,
    _is_id_list,
    _resolve_zeros,
    build_complex,
    connected_components,
)
from .errors import ValidationError


@dataclass(frozen=True)
class PluricanonicalForm:
    """Level m, vertical multiplicities nu_i, and horizontal stratum flags."""

    m: int
    vertical: Mapping[str, int]
    horizontal: frozenset[str] = frozenset()

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValidationError("pluricanonical level m must be a positive integer")
        vertical = {str(k): v for k, v in dict(self.vertical).items()}
        for cid, nu in vertical.items():
            if not isinstance(nu, int) or isinstance(nu, bool):
                raise ValidationError(
                    f"component {cid}: vertical multiplicity must be an integer"
                )
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "horizontal", frozenset(self.horizontal))

    @classmethod
    def from_dict(cls, data) -> PluricanonicalForm:
        if not isinstance(data, dict) or "m" not in data or "vertical" not in data:
            raise ValidationError(
                "form must be a JSON object with 'm' and 'vertical' entries"
            )
        if not isinstance(data["vertical"], dict):
            raise ValidationError("form 'vertical' must be a JSON object")
        horizontal = data.get("horizontal", [])
        if not _is_id_list(horizontal):
            raise ValidationError("form 'horizontal' must be a JSON array of ids")
        return cls(data["m"], data["vertical"], frozenset(horizontal))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "vertical": dict(sorted(self.vertical.items())),
            "horizontal": sorted(self.horizontal),
        }


def form_problems(model: ModelDescription, form: PluricanonicalForm) -> list[str]:
    """Every violation of the form invariants relative to the model.  Flags
    are closed under cofaces iff no unflagged stratum has a flagged direct
    face, so the least flagged faces are computed only to word a violation."""
    problems = []
    for c in model.components:
        if c.id not in form.vertical:
            problems.append(f"component {c.id}: no vertical multiplicity")
    component_ids = {c.id for c in model.components}
    for cid in sorted(form.vertical):
        if cid not in component_ids:
            problems.append(f"vertical multiplicity for unknown component {cid}")

    known = {s.id for s in model.strata}
    for sid in sorted(form.horizontal):
        if sid not in known:
            problems.append(f"horizontal flag on unknown stratum {sid}")
    flagged = form.horizontal & known
    for sid in sorted(flagged):
        if model.stratum(sid).dimension == 0:
            problems.append(
                f"stratum {sid}: vertex strata cannot carry a horizontal flag"
            )
    faces = model._faces
    if flagged and any(s not in flagged and not flagged.isdisjoint(faces[s]) for s in faces):
        least = _least_faces(model, flagged)
        for s in model.strata:
            if s.id not in flagged and least[s.id] is not None:
                problems.append(
                    f"stratum {s.id}: contains flagged stratum {least[s.id]}"
                    " but is not flagged itself"
                )
    return problems


def _least_faces(model: ModelDescription, marked) -> dict[str, str | None]:
    """The least marked proper iterated face of every stratum, or None.

    Iterated faces are chains of direct faces, so one pass over the strata in
    order of dimension reads each answer off those of the direct faces.
    """
    least: dict[str, str | None] = {}
    for s in sorted(model.strata, key=lambda s: len(s.components)):
        faces = model._faces[s.id]
        hits = [f for f in faces if f in marked]
        hits += [least[f] for f in faces if least[f] is not None]
        least[s.id] = min(hits, default=None)
    return least


def _vertex_weights(
    model: ModelDescription, form: PluricanonicalForm
) -> dict[str, Fraction]:
    """Divisorial weight (nu_j + m)/N_j of every component, validated once.

    The weight function is affine on faces, so this table answers every
    weight query.  Forms and models are immutable once validated, so the
    pair is checked with form_problems on first use and the table is
    memoized on the form with its model, reused only for that same model
    object.  An invalid pair is never memoized and raises on every call.
    """
    cached = getattr(form, "_weights", None)
    if cached is not None and cached[0] is model:
        return cached[1]
    problems = form_problems(model, form)
    if problems:
        raise ValidationError(problems)
    table = {
        c.id: Fraction(form.vertical[c.id] + form.m, c.multiplicity)
        for c in model.components
    }
    object.__setattr__(form, "_weights", (model, table))
    return table


def global_weight(model: ModelDescription, form: PluricanonicalForm) -> Fraction:
    """Minimal divisorial weight over all components of the model."""
    return min(_vertex_weights(model, form).values())


@dataclass(frozen=True)
class WeightValue:
    """Weight at a skeleton point.

    When the face the point lands on is horizontal-flagged, the affine value
    is only a strict lower bound for the true weight on the face interior,
    and lower_bound_only is set.
    """

    value: Fraction
    lower_bound_only: bool
    stratum: str


def weight_at(
    model: ModelDescription, form: PluricanonicalForm, point: SkeletonPoint
) -> WeightValue:
    """Weight of the form at a skeleton point.

    Zero coordinates are first resolved through the face map, then the
    affine interpolation sum(beta_j * (nu_j + m)/N_j) is evaluated on the
    resulting face.
    """
    weights = _vertex_weights(model, form)
    _check_keys(model, point.stratum, point.barycentric)
    s, beta = _resolve_zeros(model, point.stratum, point.barycentric)
    value = sum(beta[j] * weights[j] for j in s.components)
    return WeightValue(Fraction(value), s.id in form.horizontal, s.id)


class Subcomplex:
    """A face-closed set of strata of a dual complex: its members' direct faces
    are members, and that is all the check reads.  The least missing faces
    are computed only to word a violation."""

    def __init__(self, complex: DualComplex, strata: Iterable[str]):
        ids = frozenset(strata)
        faces = complex.model._faces
        if not all(sid in faces and ids.issuperset(faces[sid]) for sid in ids):
            least = _least_faces(complex.model, faces.keys() - ids)
            raise ValidationError([
                f"stratum {sid}: face {least[sid]} is missing from the subcomplex"
                if sid in faces else f"unknown stratum {sid}"
                for sid in sorted(ids)
                if sid not in faces or least[sid] is not None
            ])
        self.complex = complex
        self.strata = ids

    def is_empty(self) -> bool:
        return not self.strata

    @property
    def dimension(self) -> int:
        if not self.strata:
            return -1
        return max(self.complex.dimension(sid) for sid in self.strata)

    def __eq__(self, other):
        if not isinstance(other, Subcomplex):
            return NotImplemented
        return self.complex == other.complex and self.strata == other.strata

    def __repr__(self) -> str:
        return f"Subcomplex({sorted(self.strata)})"


def _essential_strata(model: ModelDescription, form: PluricanonicalForm) -> set[str]:
    """Unflagged strata all of whose components attain the global weight."""
    weights = _vertex_weights(model, form)
    minimal = min(weights.values())
    tied = {j for j, w in weights.items() if w == minimal}
    return {
        s.id
        for s in model.strata
        if s.components <= tied and s.id not in form.horizontal
    }


def ks_skeleton(model: ModelDescription, form: PluricanonicalForm) -> Subcomplex:
    """Union of the essential faces of the form: the Kontsevich-Soibelman skeleton.

    A stratum qualifies when (nu_j + m)/N_j attains the global weight for
    every component j through it and the stratum is not horizontal-flagged.
    Every face of a qualifying stratum qualifies too (its components are a
    subset, and flags are closed downward), so the set is face-closed; the
    Subcomplex constructor checks that.
    """
    return Subcomplex(build_complex(model), _essential_strata(model, form))


def essential_skeleton(
    model: ModelDescription, forms: Iterable[PluricanonicalForm]
) -> Subcomplex:
    """Union of the Kontsevich-Soibelman skeleta of the supplied forms.

    The defining union runs over all nonzero pluricanonical forms; with a
    finite family the result is a subcomplex of (possibly equal to) the full
    essential skeleton.  Whether a family generates the whole skeleton is
    not decidable from this data.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("at least one pluricanonical form is required")
    strata: set[str] = set()
    for form in forms:
        strata |= _essential_strata(model, form)
    return Subcomplex(build_complex(model), strata)


def is_connected(sub: Subcomplex) -> bool:
    """Whether the subcomplex has at most one connected component.

    The empty subcomplex counts as (vacuously) connected; callers that care
    should treat that case as degenerate.
    """
    return len(connected_components(sub)) <= 1


def is_closed_pseudomanifold(sub: Subcomplex) -> bool:
    """Closed-pseudo-manifold test for a nonempty subcomplex.

    True when the subcomplex is pure of its top dimension d, every
    (d-1)-face lies in exactly two d-faces, and the d-faces are connected
    through (d-1)-faces.  In dimension zero this reduces to being a single
    vertex.
    """
    if sub.is_empty():
        raise ValidationError("pseudo-manifold test requires a nonempty subcomplex")
    cx = sub.complex
    d = sub.dimension
    direct = cx.model._faces

    # sub is face-closed, so its maximal faces are no member's direct face
    faces = {f for sid in sub.strata for f in direct[sid]}
    if any(cx.dimension(sid) != d for sid in sub.strata - faces):
        return False

    top = [sid for sid in sub.strata if cx.dimension(sid) == d]
    if d == 0:
        return len(top) == 1

    cofaces: dict[str, int] = {}
    for sid in top:
        for facet in direct[sid]:
            cofaces[facet] = cofaces.get(facet, 0) + 1
    ridges = [sid for sid in sub.strata if cx.dimension(sid) == d - 1]
    if any(cofaces.get(r, 0) != 2 for r in ridges):
        return False
    return len(connected_components(cx, top + ridges)) == 1

import hashlib
import json
import random
from fractions import Fraction

import pytest

from degenskel import (
    ModelDescription,
    MonomialPointData,
    MonomialWeights,
    MultivariatePoly,
    SkeletonPoint,
    ValidationError,
    barycentric_to_monomial,
    build_complex,
    connected_components,
    monomial_to_barycentric,
    monomial_valuation,
)
from helpers import (
    load_model,
    malformed_model_dicts,
    random_interior_point,
    random_model,
    random_poly,
)


def test_star_curve_dual_graph():
    cx = build_complex(load_model("star_curve.json"))
    assert cx.counts() == {0: 4, 1: 3}
    edges = cx.strata_of_dimension(1)
    assert len(edges) == 3
    for sid in edges:
        assert "E1" in cx.model.stratum(sid).components
    assert connected_components(cx) == [frozenset(
        {"E1", "E2", "E3", "E4", "C12", "C13", "C14"}
    )]


def test_coordinate_planes_standard_2_simplex():
    cx = build_complex(load_model("coordinate_planes.json"))
    assert cx.counts() == {0: 3, 1: 3, 2: 1}
    assert cx.top_dimension == 2
    triangle = cx.strata_of_dimension(2)[0]
    assert cx.face_closure(triangle) == frozenset(
        {"C123", "C12", "C13", "C23", "E1", "E2", "E3"}
    )


def test_single_component_model():
    cx = build_complex(ModelDescription([("E1", 3)]))
    assert cx.counts() == {0: 1}
    assert cx.strata_of_dimension(0) == ["E1"]


def test_parallel_edges_are_allowed():
    model = ModelDescription(
        [("E1", 1), ("E2", 1)],
        [("C12a", ("E1", "E2"), None), ("C12b", ("E1", "E2"), None)],
    )
    assert build_complex(model).counts() == {0: 2, 1: 2}


def test_validation_duplicate_vertex_strata():
    with pytest.raises(ValidationError, match="multiple vertex strata"):
        ModelDescription(
            [("E1", 1)],
            [("V1", ("E1",), None), ("V2", ("E1",), None)],
        )


def test_validation_messages_are_pinned():
    # pinned sha256 of every problem list (None for a valid model), so any
    # change to a validation message or to the order of messages shows
    lists = []
    for data in malformed_model_dicts(random.Random(12), 2000):
        try:
            ModelDescription.from_dict(data)
            lists.append(None)
        except ValidationError as exc:
            lists.append(exc.problems)
    assert sum(p is not None for p in lists) > 1600
    text = json.dumps(lists)
    for message in ("duplicate component id", "duplicate stratum id",
                    "unknown component", "targets unknown stratum", "must lie over",
                    "incompatible face maps", "empty component set",
                    "multiplicity must be a positive integer"):
        assert text.count(message) >= 50, message
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "430b1783ef48c3d8d5dca05030aa6316c73e3a697fffec00a567ff28ab637d7b"
    )


def test_unknown_components_are_reported_in_order():
    with pytest.raises(ValidationError) as exc:
        ModelDescription([("A", 1)], [("S", ("Z", "A", "Y", "X"), None)])
    assert exc.value.problems[:3] == [
        f"stratum S: unknown component {c}" for c in "XYZ"
    ]


def test_model_without_components_is_rejected():
    for data in ({"components": [], "strata": []}, {}):
        with pytest.raises(ValidationError) as exc:
            ModelDescription.from_dict(data)
        assert exc.value.problems == ["model has no components"]


def test_validation_dangling_face_target():
    with pytest.raises(ValidationError, match="unknown stratum"):
        ModelDescription(
            [("E1", 1), ("E2", 1)],
            [("C12", ("E1", "E2"), {"E1": "NOPE", "E2": "E1"})],
        )


def test_validation_wrong_component_set():
    with pytest.raises(ValidationError, match="must lie over"):
        ModelDescription(
            [("E1", 1), ("E2", 1)],
            [("C12", ("E1", "E2"), {"E1": "E1", "E2": "E1"})],
        )


def test_validation_missing_ambiguous_face():
    # two parallel edges make the triangle's face entry ambiguous
    with pytest.raises(ValidationError, match="missing face entry"):
        ModelDescription(
            [("E1", 1), ("E2", 1), ("E3", 1)],
            [
                ("C12a", ("E1", "E2"), None),
                ("C12b", ("E1", "E2"), None),
                ("C13", ("E1", "E3"), None),
                ("C23", ("E2", "E3"), None),
                ("T", ("E1", "E2", "E3"), None),
            ],
        )


def test_validation_simplicial_incompatibility_fixture():
    with pytest.raises(ValidationError, match="S1234.*incompatible face maps"):
        load_model("invalid_model.json")


def test_validation_positive_multiplicity():
    with pytest.raises(ValidationError, match="positive integer"):
        ModelDescription([("E1", 0)])


def test_barycentric_to_monomial_vertex_divisorial():
    model = ModelDescription([("E1", 2)])
    d = barycentric_to_monomial(model, SkeletonPoint("E1", {"E1": 1}))
    assert d.stratum == "E1"
    assert d.alpha == {"E1": Fraction(1, 2)}


def test_barycentric_to_monomial_interior():
    model = load_model("coordinate_planes.json")
    third = Fraction(1, 3)
    d = barycentric_to_monomial(
        model, SkeletonPoint("C123", {"E1": third, "E2": third, "E3": third})
    )
    assert d.stratum == "C123"
    assert d.alpha == {"E1": third, "E2": third, "E3": third}


def test_barycentric_to_monomial_boundary_rule():
    model = load_model("coordinate_planes.json")
    half = Fraction(1, 2)
    d = barycentric_to_monomial(
        model, SkeletonPoint("C123", {"E1": half, "E2": half, "E3": 0})
    )
    assert d.stratum == "C12"
    assert d.alpha == {"E1": half, "E2": half}


def test_monomial_to_barycentric_scales_by_multiplicity():
    model = ModelDescription([("E1", 1), ("E2", 2)], [("C12", ("E1", "E2"), None)])
    p = monomial_to_barycentric(
        model, MonomialPointData("C12", {"E1": Fraction(1, 2), "E2": Fraction(1, 4)})
    )
    assert p.stratum == "C12"
    assert p.barycentric == {"E1": Fraction(1, 2), "E2": Fraction(1, 2)}


def test_monomial_to_barycentric_strips_zeros():
    model = ModelDescription([("E1", 1), ("E2", 2)], [("C12", ("E1", "E2"), None)])
    p = monomial_to_barycentric(
        model, MonomialPointData("C12", {"E1": 1, "E2": 0})
    )
    assert p.stratum == "E1"
    assert p.barycentric == {"E1": Fraction(1)}


def test_divisorial_datum_maps_to_vertex():
    model = ModelDescription([("E1", 4)])
    p = monomial_to_barycentric(
        model, MonomialPointData("E1", {"E1": Fraction(1, 4)})
    )
    assert p.stratum == "E1"
    assert p.barycentric == {"E1": Fraction(1)}


def test_monomial_to_barycentric_rejects_unnormalized():
    model = ModelDescription([("E1", 1), ("E2", 2)], [("C12", ("E1", "E2"), None)])
    with pytest.raises(ValidationError, match="sum\\(alpha\\*N\\)"):
        monomial_to_barycentric(
            model, MonomialPointData("C12", {"E1": 1, "E2": 1})
        )


def test_round_trip_on_interior_points_sampled():
    rng = random.Random(77)
    for _ in range(25):
        model = random_model(rng)
        for _ in range(20):
            p = random_interior_point(rng, model)
            d = barycentric_to_monomial(model, p)
            assert monomial_to_barycentric(model, d) == p


def test_boundary_rule_matches_restricted_weights_sampled():
    # pushing a boundary point to its face gives the same monomial valuation
    # as keeping the zero weights, on polynomials in the surviving variables
    rng = random.Random(99)
    model = load_model("coordinate_planes.json")
    comps = ("E1", "E2", "E3")
    for _ in range(50):
        parts = [rng.randint(0, 5) for _ in comps]
        if sum(p > 0 for p in parts) < 1:
            continue
        total = sum(parts)
        beta = {c: Fraction(p, total) for c, p in zip(comps, parts)}
        point = SkeletonPoint("C123", beta)
        data = barycentric_to_monomial(model, point)
        kept = sorted(data.alpha)
        full = MonomialWeights(tuple(beta[c] for c in comps))
        keep_positions = tuple(i for i, c in enumerate(comps) if c in kept)
        face = MonomialWeights(tuple(data.alpha[c] for c in kept))
        f = random_poly(rng, len(kept))
        lifted = {}
        for exps, coeff in f.terms.items():
            full_exps = [0, 0, 0]
            for pos, e in zip(keep_positions, exps):
                full_exps[pos] = e
            lifted[tuple(full_exps)] = coeff
        lifted_poly = MultivariatePoly(3, lifted)
        assert monomial_valuation(full, lifted_poly) == monomial_valuation(face, f)


def test_connected_components_counts():
    assert len(connected_components(build_complex(load_model("star_curve.json")))) == 1
    two_vertices = build_complex(ModelDescription([("E1", 1), ("E2", 1)]))
    assert len(connected_components(two_vertices)) == 2
    assert connected_components(two_vertices, strata=()) == []


def test_dot_export():
    dot = build_complex(load_model("coordinate_planes.json")).to_dot()
    assert dot.startswith("graph dual_complex {")
    assert '"E1" [label="E1 (N=1)"];' in dot
    assert '"E1" -- "E2" [label="C12"];' in dot
    assert "// 2-face C123: E1, E2, E3" in dot


def test_dot_escapes_ids():
    model = ModelDescription(
        [('A"1', 1), ("B\\", 2), ("C\nD", 1)],
        [
            ('x" ] y', ('A"1', "B\\"), None),
            ("e\\", ('A"1', "C\nD"), None),
            ("f", ("B\\", "C\nD"), None),
            ('t"\n// u', ('A"1', "B\\", "C\nD"), None),
        ],
    )
    dot = build_complex(model).to_dot()
    lines = dot.splitlines()
    # header, 3 vertices, 3 edges, 1 comment, closing brace
    assert len(lines) == 9
    for line in lines:
        assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0, line
    assert '  "A\\"1" [label="A\\"1 (N=1)"];' in lines
    assert '  "A\\"1" -- "B\\\\" [label="x\\" ] y"];' in lines
    assert '  // 2-face t\\"\\n// u: A\\"1, B\\\\, C\\nD' in lines


def test_model_json_round_trip():
    for name in ("star_curve.json", "coordinate_planes.json", "chain_123.json"):
        model = load_model(name)
        assert ModelDescription.from_dict(model.to_dict()) == model


def test_vertex_strata_synthesized_with_component_ids():
    model = load_model("chain_123.json")
    assert model.vertex_stratum("E2") == "E2"
    assert {s.id for s in model.strata} == {"E1", "E2", "E3", "C12", "C23"}


def test_skeleton_point_validation():
    with pytest.raises(ValidationError, match="sum to 1"):
        SkeletonPoint("C12", {"E1": Fraction(1, 2), "E2": Fraction(1, 4)})
    with pytest.raises(ValidationError, match="nonnegative"):
        SkeletonPoint("C12", {"E1": Fraction(3, 2), "E2": Fraction(-1, 2)})
    with pytest.raises(ValidationError, match="floats"):
        SkeletonPoint("C12", {"E1": 0.5, "E2": 0.5})


def test_malformed_entry_text_is_bounded():
    deep = []
    for _ in range(900):
        deep = [deep]
    shown = repr(deep)[:77] + "..."
    cases = [
        ({"components": [deep]}, f"malformed component entry {shown}"),
        ({"components": [{"id": deep}]}, f"component id {shown} is not a string"),
        ({"components": [{"id": "A"}], "strata": [deep]}, f"malformed stratum entry {shown}"),
        (
            {"components": [{"id": "A"}], "strata": [{"id": deep, "components": ["A"]}]},
            f"stratum id {shown} is not a string",
        ),
    ]
    for data, message in cases:
        with pytest.raises(ValidationError) as exc:
            ModelDescription.from_dict(data)
        assert exc.value.problems == [message]
    # an entry that fits is shown whole
    entry = {"id": "AB", "components": ["A", "B"], "faces": ["A"]}
    with pytest.raises(ValidationError) as exc:
        ModelDescription.from_dict({"components": [{"id": "A"}], "strata": [entry]})
    assert exc.value.problems == [f"malformed stratum entry {entry!r}"]

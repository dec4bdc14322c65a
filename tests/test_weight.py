import random
from fractions import Fraction

import pytest

from degenskel import (
    ModelDescription,
    MonomialWeights,
    MultivariatePoly,
    PluricanonicalForm,
    SkeletonPoint,
    Subcomplex,
    ValidationError,
    build_complex,
    essential_skeleton,
    form_problems,
    global_weight,
    is_closed_pseudomanifold,
    is_connected,
    ks_skeleton,
    monomial_valuation,
    weight_at,
)
from degenskel import weight as weight_module
from helpers import (
    divisorial_weight,
    load_form,
    load_model,
    random_form,
    random_interior_point,
    random_model,
    random_model_dict,
    random_point,
    random_subcomplex,
    reference_face_closure,
    reference_form_problems,
    reference_global_weight,
    reference_is_closed_pseudomanifold,
    reference_ks_skeleton,
    reference_subcomplex_problems,
    reference_weight_at,
)


def edge_model():
    return ModelDescription([("E1", 1), ("E2", 2)], [("C12", ("E1", "E2"), None)])


def test_global_weight_chain():
    chain = load_model("chain_123.json")
    assert global_weight(chain, load_form("chain_form_flat.json")) == 1
    assert global_weight(chain, load_form("chain_form_vertex.json")) == Fraction(1, 3)


def test_global_weight_kulikov_is_constant_shift():
    model = load_model("kulikov_k3.json")
    for c in (0, 1, 5):
        form = PluricanonicalForm(1, {e: c for e in ("E1", "E2", "E3", "E4")})
        assert global_weight(model, form) == c + 1


def test_weight_at_edge_against_monomial_valuation():
    # oracle: local equation T1^(nu1+m) * T2^(nu2+m) at alpha = beta/N
    model = edge_model()
    form = PluricanonicalForm(1, {"E1": 0, "E2": 1})
    point = SkeletonPoint("C12", {"E1": Fraction(1, 2), "E2": Fraction(1, 2)})
    local_equation = MultivariatePoly.monomial(2, (0 + 1, 1 + 1), 1)
    oracle = monomial_valuation(
        MonomialWeights((Fraction(1, 2), Fraction(1, 4))), local_equation
    )
    value = weight_at(model, form, point)
    assert oracle == 1
    assert value.value == oracle
    assert not value.lower_bound_only


def test_weight_at_vertex_is_divisorial():
    model = edge_model()
    form = PluricanonicalForm(1, {"E1": 0, "E2": 1})
    value = weight_at(model, form, SkeletonPoint("E2", {"E2": 1}))
    assert value.value == divisorial_weight(2, 1, 1)
    assert value.stratum == "E2"


def test_weight_at_horizontal_face_is_tagged():
    model = edge_model()
    form = PluricanonicalForm(1, {"E1": 0, "E2": 1}, frozenset({"C12"}))
    point = SkeletonPoint("C12", {"E1": Fraction(1, 2), "E2": Fraction(1, 2)})
    value = weight_at(model, form, point)
    assert value.value == 1
    assert value.lower_bound_only


def test_weight_at_pushes_boundary_points():
    model = load_model("coordinate_planes.json")
    form = load_form("planes_form_horizontal.json")
    point = SkeletonPoint("C123", {"E1": Fraction(1, 2), "E2": 0, "E3": Fraction(1, 2)})
    value = weight_at(model, form, point)
    assert value.stratum == "C13"
    assert not value.lower_bound_only


def test_ks_skeleton_chain_flat_is_everything():
    chain = load_model("chain_123.json")
    sub = ks_skeleton(chain, load_form("chain_form_flat.json"))
    assert sub.strata == {"E1", "E2", "E3", "C12", "C23"}


def test_ks_skeleton_chain_vertex_argmin():
    chain = load_model("chain_123.json")
    sub = ks_skeleton(chain, load_form("chain_form_vertex.json"))
    assert sub.strata == {"E3"}


def test_ks_skeleton_kulikov_full_for_every_volume_form():
    model = load_model("kulikov_k3.json")
    everything = {s.id for s in model.strata}
    for c in (0, 2):
        for m in (1, 2, 3):
            form = PluricanonicalForm(
                m, {e: c * m for e in ("E1", "E2", "E3", "E4")}
            )
            assert ks_skeleton(model, form).strata == everything


def test_ks_skeleton_excludes_horizontal_faces():
    model = load_model("coordinate_planes.json")
    sub = ks_skeleton(model, load_form("planes_form_horizontal.json"))
    assert sub.strata == {"E1", "E2", "E3", "C13", "C23"}


def test_essential_skeleton_single_form():
    chain = load_model("chain_123.json")
    form = load_form("chain_form_vertex.json")
    assert essential_skeleton(chain, [form]).strata == ks_skeleton(chain, form).strata


def test_essential_skeleton_union_of_argmins():
    model = load_model("disconnected_argmin.json")
    a = PluricanonicalForm(1, {"E1": 0, "E2": 1, "E3": 1})
    b = PluricanonicalForm(1, {"E1": 1, "E2": 1, "E3": 0})
    assert ks_skeleton(model, a).strata == {"E1"}
    assert ks_skeleton(model, b).strata == {"E3"}
    assert essential_skeleton(model, [a, b]).strata == {"E1", "E3"}


def test_essential_skeleton_scaling_invariance():
    # multiplying the form by lambda shifts nu by v(lambda) * N
    chain = load_model("chain_123.json")
    form = load_form("chain_form_vertex.json")
    for c in (-2, 1, 3):
        scaled = PluricanonicalForm(
            form.m,
            {
                cid: nu + c * chain.multiplicity(cid)
                for cid, nu in form.vertical.items()
            },
            form.horizontal,
        )
        union = essential_skeleton(chain, [form, scaled])
        assert union.strata == ks_skeleton(chain, form).strata


def test_essential_skeleton_requires_forms():
    with pytest.raises(ValueError):
        essential_skeleton(load_model("chain_123.json"), [])


def test_ks_skeleton_nonempty_and_face_closed_sampled():
    rng = random.Random(7)
    for _ in range(40):
        model = random_model(rng)
        form = random_form(rng, model)
        sub = ks_skeleton(model, form)
        assert sub.strata
        cx = sub.complex
        for sid in sub.strata:
            assert cx.face_closure(sid) <= sub.strata


def test_weight_at_bounded_below_by_global_weight_sampled():
    rng = random.Random(8)
    for model, form in [
        (load_model("chain_123.json"), load_form("chain_form_vertex.json")),
        (load_model("kulikov_k3.json"), load_form("kulikov_form.json")),
        (load_model("coordinate_planes.json"), load_form("planes_form_horizontal.json")),
    ]:
        minimum = global_weight(model, form)
        vertex_min = min(
            weight_at(model, form, SkeletonPoint(v, {c: 1 for c in
                model.stratum(v).components})).value
            for v in build_complex(model).strata_of_dimension(0)
        )
        assert vertex_min == minimum
        essential = ks_skeleton(model, form).strata
        for _ in range(500):
            point = random_interior_point(rng, model)
            value = weight_at(model, form, point)
            assert value.value >= minimum
            if point.stratum in essential:
                assert value.value == minimum and not value.lower_bound_only


def test_form_validation_errors():
    model = load_model("chain_123.json")
    problems = form_problems(model, load_form("invalid_form.json"))
    assert any("E2" in p and "vertex" in p for p in problems)

    missing = PluricanonicalForm(1, {"E1": 0})
    assert any("E2" in p for p in form_problems(model, missing))

    planes = load_model("coordinate_planes.json")
    not_closed = PluricanonicalForm(
        1, {"E1": 0, "E2": 0, "E3": 0}, frozenset({"C12"})
    )
    assert any("C123" in p for p in form_problems(planes, not_closed))


def test_form_validation_raises_on_use():
    model = load_model("chain_123.json")
    with pytest.raises(ValidationError):
        global_weight(model, load_form("invalid_form.json"))


def test_subcomplex_requires_face_closure():
    cx = build_complex(load_model("chain_123.json"))
    with pytest.raises(ValidationError, match="missing from the subcomplex"):
        Subcomplex(cx, {"C12"})


def _random_marked(rng, model, closure):
    """A random set of stratum ids: either the strata over a random seed set
    or an arbitrary subset, sometimes with an unknown id."""
    ids = [s.id for s in model.strata]
    seeds = set(rng.sample(ids, rng.randint(0, len(ids))))
    if rng.random() < 0.5:
        over = {sid for sid in ids if closure[sid] & seeds}
        return over if rng.random() < 0.5 else set().union(*(closure[s] for s in seeds))
    return seeds | ({"nowhere"} if rng.random() < 0.1 else set())


def test_closedness_checks_match_reference_table_sampled():
    rng = random.Random(31)
    models = [random_model(rng) for _ in range(300)]
    for _ in range(300):
        try:
            data = random_model_dict(rng, parallel_edges=rng.random() < 0.5)
            models.append(ModelDescription.from_dict(data))
        except ValidationError:
            pass
    assert sum(build_complex(m).top_dimension == 3 for m in models) >= 10
    for model in models:
        cx = build_complex(model)
        closure = reference_face_closure(model)
        for s in model.strata:
            assert cx.face_closure(s.id) == closure[s.id]
            assert cx.direct_faces(s.id) == tuple(
                s.faces[j] for j in sorted(s.components) if j in s.faces
            )
        for _ in range(4):
            vertical = dict(random_form(rng, model).vertical)
            if rng.random() < 0.1:
                vertical.pop(rng.choice(sorted(vertical)))
            form = PluricanonicalForm(
                rng.randint(1, 3), vertical, _random_marked(rng, model, closure)
            )
            assert form_problems(model, form) == reference_form_problems(model, form)

            strata = _random_marked(rng, model, closure)
            expected = reference_subcomplex_problems(model, strata)
            if expected:
                with pytest.raises(ValidationError) as exc:
                    Subcomplex(cx, strata)
                assert exc.value.problems == expected
            else:
                assert Subcomplex(cx, strata).strata == strata


FIXTURE_PAIRS = [
    ("chain_123.json", "chain_form_flat.json"),
    ("chain_123.json", "chain_form_vertex.json"),
    ("coordinate_planes.json", "planes_form.json"),
    ("coordinate_planes.json", "planes_form_horizontal.json"),
    ("disconnected_argmin.json", "disconnected_form.json"),
    ("kulikov_k3.json", "kulikov_form.json"),
    ("star_curve.json", "star_form.json"),
]


def test_closed_inputs_never_compute_least_faces(monkeypatch):
    # the least missing face only words a problem, so valid inputs never need it
    def fail(*args):
        raise AssertionError("_least_faces called on a valid input")

    monkeypatch.setattr(weight_module, "_least_faces", fail)
    pairs = [(load_model(m), load_form(f)) for m, f in FIXTURE_PAIRS]
    rng = random.Random(47)
    for _ in range(150):
        model = random_model(rng)
        pairs += [(model, random_form(rng, model)) for _ in range(2)]
    assert sum(bool(form.horizontal) for _, form in pairs) >= 50
    for model, form in pairs:
        assert form_problems(model, form) == []
        sub = ks_skeleton(model, form)
        assert sub.strata == reference_ks_skeleton(model, form).strata
        other = random_form(rng, model)
        both = essential_skeleton(model, [form, other])
        assert both.strata == sub.strata | ks_skeleton(model, other).strata
        cx = build_complex(model)
        closure = reference_face_closure(model)
        seeds = rng.sample(sorted(closure), rng.randint(0, len(closure)))
        closed = set().union(*(closure[sid] for sid in seeds))
        assert Subcomplex(cx, closed).strata == closed


def test_is_connected():
    chain = load_model("chain_123.json")
    assert is_connected(ks_skeleton(chain, load_form("chain_form_flat.json")))
    disc = load_model("disconnected_argmin.json")
    assert not is_connected(ks_skeleton(disc, load_form("disconnected_form.json")))
    assert is_connected(Subcomplex(build_complex(chain), ()))  # vacuous


def test_pseudomanifold_cycle():
    cycle = ModelDescription(
        [("E1", 1), ("E2", 1), ("E3", 1)],
        [
            ("C12", ("E1", "E2"), None),
            ("C13", ("E1", "E3"), None),
            ("C23", ("E2", "E3"), None),
        ],
    )
    cx = build_complex(cycle)
    assert is_closed_pseudomanifold(Subcomplex(cx, {s.id for s in cycle.strata}))


def test_pseudomanifold_star_fails():
    star = load_model("star_curve.json")
    cx = build_complex(star)
    assert not is_closed_pseudomanifold(Subcomplex(cx, {s.id for s in star.strata}))


def test_pseudomanifold_single_vertex_convention():
    cx = build_complex(load_model("chain_123.json"))
    assert is_closed_pseudomanifold(Subcomplex(cx, {"E3"}))
    assert not is_closed_pseudomanifold(Subcomplex(cx, {"E1", "E3"}))


def test_pseudomanifold_tetrahedron_boundary():
    model = load_model("kulikov_k3.json")
    cx = build_complex(model)
    assert is_closed_pseudomanifold(Subcomplex(cx, {s.id for s in model.strata}))


def test_pseudomanifold_requires_nonempty():
    cx = build_complex(load_model("chain_123.json"))
    with pytest.raises(ValidationError):
        is_closed_pseudomanifold(Subcomplex(cx, ()))


def test_tensor_power_invariance_sampled():
    rng = random.Random(9)
    for _ in range(20):
        model = random_model(rng)
        form = random_form(rng, model)
        base = ks_skeleton(model, form).strata
        for k in (2, 3):
            powered = PluricanonicalForm(
                k * form.m,
                {cid: k * nu for cid, nu in form.vertical.items()},
                form.horizontal,
            )
            assert ks_skeleton(model, powered).strata == base


# -- the vertex-weight table against the per-call references -----------------


def two_cycles():
    """Two disjoint triangles: a pure, disconnected 1-dimensional complex."""
    comps = [(f"{side}{i}", 1) for side in "AB" for i in (1, 2, 3)]
    strata = [
        (f"{side}{i}{j}", (f"{side}{i}", f"{side}{j}"), None)
        for side in "AB"
        for i, j in ((1, 2), (1, 3), (2, 3))
    ]
    return ModelDescription(comps, strata)


def test_weight_queries_match_reference_sampled():
    rng = random.Random(41)
    for _ in range(60):
        model = random_model(rng)
        form = random_form(rng, model)
        assert global_weight(model, form) == reference_global_weight(model, form)
        sub = ks_skeleton(model, form)
        assert sub == reference_ks_skeleton(model, form)
        assert is_closed_pseudomanifold(sub) == reference_is_closed_pseudomanifold(sub)
        for _ in range(20):
            point = random_point(rng, model)
            assert weight_at(model, form, point) == reference_weight_at(
                model, form, point
            )


def test_pseudomanifold_matches_reference_on_subcomplexes():
    named = []
    chain = build_complex(load_model("chain_123.json"))
    named += [
        Subcomplex(chain, {"E3"}),  # 0-dimensional, one vertex
        Subcomplex(chain, {"E1", "E3"}),  # 0-dimensional, disconnected
        Subcomplex(chain, {"E1", "E2", "E3", "C12"}),  # not pure
        Subcomplex(chain, {s.id for s in chain.model.strata}),  # pure, with ends
    ]
    for name in ("kulikov_k3.json", "star_curve.json", "coordinate_planes.json"):
        cx = build_complex(load_model(name))
        named.append(Subcomplex(cx, {s.id for s in cx.model.strata}))
    cycles = build_complex(two_cycles())
    named.append(Subcomplex(cycles, {s.id for s in cycles.model.strata}))
    sphere = load_model("kulikov_k3.json")
    with_point = build_complex(ModelDescription(
        [*((c.id, c.multiplicity) for c in sphere.components), ("E5", 1)],
        [(s.id, s.components, s.faces) for s in sphere.strata],
    ))
    # a closed 2-sphere plus an isolated vertex: not pure, two dimensions down
    named.append(Subcomplex(with_point, {s.id for s in with_point.model.strata}))
    expected = [True, False, False, False, True, False, False, False, False]
    assert [is_closed_pseudomanifold(sub) for sub in named] == expected
    assert [reference_is_closed_pseudomanifold(sub) for sub in named] == expected

    rng = random.Random(42)
    for _ in range(200):
        sub = random_subcomplex(rng, random_model(rng))
        assert is_closed_pseudomanifold(sub) == reference_is_closed_pseudomanifold(sub)


def counting_form_problems(monkeypatch):
    calls = []
    original = weight_module.form_problems

    def counted(model, form):
        calls.append(form)
        return original(model, form)

    monkeypatch.setattr(weight_module, "form_problems", counted)
    return calls


def test_pair_is_validated_once(monkeypatch):
    calls = counting_form_problems(monkeypatch)
    model = load_model("kulikov_k3.json")
    form = load_form("kulikov_form.json")
    rng = random.Random(43)
    global_weight(model, form)
    ks_skeleton(model, form)
    essential_skeleton(model, [form])
    for _ in range(20):
        weight_at(model, form, random_point(rng, model))
    assert len(calls) == 1


def test_memo_is_per_model_object(monkeypatch):
    calls = counting_form_problems(monkeypatch)
    chain = load_model("chain_123.json")
    edge = edge_model()
    form = load_form("chain_form_vertex.json")
    assert global_weight(chain, form) == Fraction(1, 3)
    with pytest.raises(ValidationError, match="unknown component E3"):
        global_weight(edge, form)
    with pytest.raises(ValidationError, match="unknown component E3"):
        ks_skeleton(edge, form)
    assert global_weight(chain, form) == Fraction(1, 3)
    assert len(calls) == 3  # the failed pairs left the memo for chain in place
    # an equal but distinct model object is validated again, and the memo
    # then holds that object, so chain is validated once more
    assert global_weight(load_model("chain_123.json"), form) == Fraction(1, 3)
    assert global_weight(chain, form) == Fraction(1, 3)
    assert len(calls) == 5


def test_invalid_pair_raises_on_every_call(monkeypatch):
    calls = counting_form_problems(monkeypatch)
    model = load_model("chain_123.json")
    form = load_form("invalid_form.json")
    point = SkeletonPoint("E1", {"E1": 1})
    for query in (
        lambda: global_weight(model, form),
        lambda: ks_skeleton(model, form),
        lambda: essential_skeleton(model, [form]),
        lambda: weight_at(model, form, point),
        lambda: global_weight(model, form),
    ):
        with pytest.raises(ValidationError, match="vertex strata"):
            query()
    assert len(calls) == 5

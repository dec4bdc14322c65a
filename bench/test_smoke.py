"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that the generators emit inputs the library accepts, that the
dict-based oracles agree with the library on them, and that one short
round of every workload runs, passes its oracles and repeats its digest.
"""
from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from degenskel import (  # noqa: E402
    BasicModel,
    ModelDescription,
    PluricanonicalForm,
    SkeletonPoint,
    form_problems,
    is_closed_pseudomanifold,
    is_connected,
    ks_skeleton,
    parse_element,
    parse_polynomial,
    weight_at,
)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("shape,k", [("torus", 3), ("torus", 4), ("sphere", 3), ("sphere", 4)])
def test_surfaces_and_forms_match_the_oracles(shape, k):
    rng = random.Random(k)
    data = gen.torus_model(k) if shape == "torus" else gen.sphere_model(k)
    model = ModelDescription.from_dict(data)
    assert len(model.strata) == 6 * k * k + (2 if shape == "sphere" else 0)
    index = oracles.ModelIndex(data)
    for name, fd in gen.surface_forms(rng, data, k).items():
        form = PluricanonicalForm.from_dict(fd)
        assert form_problems(model, form) == []
        sub = ks_skeleton(model, form)
        report = (sorted(sub.strata), min(index.divisorial(fd).values()), is_connected(sub),
                  is_closed_pseudomanifold(sub) if sub.strata else False)
        if sub.strata:
            oracles.check_ks_report(index, fd, report, name == "volume", f"{shape}{k} {name}")
        for _ in range(20):
            p = gen.skeleton_point(rng, data)
            point = SkeletonPoint(p["stratum"], p["barycentric"])
            oracles.check_weight(index, fd, p, weight_at(model, form, point), f"{shape}{k} {name}")


def test_small_models_and_forms_are_valid():
    rng = random.Random(5)
    for _ in range(200):
        data = gen.small_model(rng)
        fd = gen.small_form(rng, data)
        model = ModelDescription.from_dict(data)
        form = PluricanonicalForm.from_dict(fd)
        assert form_problems(model, form) == []
        assert set(ks_skeleton(model, form).strata) == oracles.ModelIndex(data).ks(fd)


def test_rigid_point_texts_satisfy_the_relation():
    rng = random.Random(7)
    for n1, n2 in ((1, 1), (2, 1), (1, 2), (1, 3)):
        for _ in range(5):
            x1, x2 = gen.rigid_point_texts(rng, n1, n2)
            BasicModel(n1, n2).rigid_point(parse_element(x1), parse_element(x2))
            parse_polynomial(gen.sparse_poly_text(rng, 4), arity=2)
    with pytest.raises(ValueError):
        gen.rigid_point_texts(rng, 2, 3)


def _one_round(cls, seed, tmp_path):
    tmp = Path(os.path.relpath(tmp_path, ROOT))
    _, lib, workload = run.set_up(cls, seed, tmp)
    return run.measure(workload, lib, spans.NullTracer(), 1e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload(name, tmp_path, monkeypatch):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(workloads.FlowRigid, "CELLS", workloads.FlowRigid.CELLS[:3])
    monkeypatch.setattr(workloads.SkeletonLarge, "SURFACES", (("torus", 3), ("sphere", 4)))
    first = _one_round(cls, 3, tmp_path)
    again = _one_round(cls, 3, tmp_path)
    assert first["rounds"] == 1
    assert first["digest"] == again["digest"]
    crashes = [f for f in first["failures"] if "traceback" in f]
    assert len(first["failures"]) == len(crashes)
    assert len(crashes) == (2 if name == "cli_process" else 0)


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    tmp = Path(os.path.relpath(tmp_path, ROOT))
    _, lib, workload = run.set_up(workloads.SmallMixed, 2, tmp)
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        run.measure(workload, lib, tracer, 1e-9)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    names = {n for n, _ in spans.per_layer_names()}
    extra = {
        "cli.process.interpreter_ms",
        "cli.process.import_ms",
        "failed_ratio",
        "trace_overhead_ratio",
    }
    assert set(metrics) == names - extra
    assert metrics["field.BaseElement.calls"] == 7
    assert metrics["weight.form_problems.calls"] > metrics["weight.weight_at.calls"] > 0
    assert not hasattr(lib.weight.weight_at, "__wrapped__")

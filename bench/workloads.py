"""The four benchmark workloads: their requests, execution and oracles.

Each workload is a closed loop run from one process: the next request is
sent when the previous one has returned.  Requests come in rounds of a
fixed composition, so every run measures the same mix of sizes whatever
its seed; the seed picks the random values inside each round.  Inputs are
plain data, so the library does all parsing and validation inside the
timed interval.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import gen
import oracles
from oracles import INF, ModelIndex, expect
from spans import COMMANDS

FIXTURES = Path("fixtures")

# every valid (model, form) fixture pair
FIXTURE_PAIRS = [
    ("star_curve.json", "star_form.json"),
    ("coordinate_planes.json", "planes_form.json"),
    ("coordinate_planes.json", "planes_form_horizontal.json"),
    ("chain_123.json", "chain_form_flat.json"),
    ("chain_123.json", "chain_form_vertex.json"),
    ("kulikov_k3.json", "kulikov_form.json"),
    ("disconnected_argmin.json", "disconnected_form.json"),
]


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


class RequestFailed(Exception):
    """A request ended in a traceback, a timeout or a wrong exit status."""


@dataclass
class Request:
    kind: str
    label: str
    data: dict = field(default_factory=dict)


def _point(lib, p: dict):
    """A generated point dict as a SkeletonPoint."""
    return lib.dualcomplex.SkeletonPoint(
        p["stratum"], {c: Fraction(v) for c, v in p["barycentric"].items()}
    )


def _fraction_text(v) -> str:
    return "inf" if v == INF else str(Fraction(v))


# -- shared request kinds --------------------------------------------------------


def run_rigid_flow(lib, data: dict, times: list[str]) -> dict:
    """Parse a rigid point and f, expand once, then evaluate at each time."""
    bm = lib.flow.BasicModel(data["n1"], data["n2"])
    x = bm.rigid_point(lib.parsing.parse_element(data["x1"]), lib.parsing.parse_element(data["x2"]))
    f = lib.parsing.parse_polynomial(data["f"], arity=2)
    expansion = lib.flow.flow_expansion(bm, x, f)
    terms = {i: c.valuation() for i, c in expansion.items()}
    values = [lib.flow.flow_value(bm, x, lib.parsing.parse_flow_time(s), f) for s in times]
    return {"x": x, "f": f, "terms": terms, "values": values}


def _gauss_value(lib, data: dict, x, f):
    """Value at s = 0: min over V-degrees k of v(sum of f's terms of degree k at x).

    The monomial T1^i T2^j moves as V^k with k = i*M2 - j*M1.  Terms of one
    degree can cancel through T1^N1 T2^N2 = t, so this equals the monomial
    valuation of f at (v(x1), v(x2)) exactly when no degree cancels at its
    lowest valuation, and exceeds it otherwise.
    """
    n1, n2 = data["n1"], data["n2"]
    g = gcd(n1, n2)
    groups: dict[int, dict] = {}
    for (i, j), coeff in f.terms.items():
        groups.setdefault(i * n2 // g - j * n1 // g, {})[(i, j)] = coeff
    return min(
        (
            lib.monoval.MultivariatePoly(2, terms).evaluate([x.x1, x.x2]).valuation()
            for terms in groups.values()
        ),
        default=INF,
    )


def _reduced_value(lib, n1: int, n2: int, a1, a2, f):
    """Criterion 7's fixed value: the monomial valuation of f at (a1, a2)
    after rewriting T1^N1 T2^N2 = t, so that T1 occurs to a power below N1.

    Rewriting keeps each term's value; it differs from the monomial
    valuation of f as presented only when rewritten terms cancel.
    """
    t = lib.field.uniformizer()
    reduced: dict[tuple[int, int], object] = {}
    for (i, j), coeff in f.terms.items():
        k = i // n1
        key = (i - k * n1, j - k * n2)
        reduced[key] = reduced[key] + coeff * t**k if key in reduced else coeff * t**k
    return min(
        (c.valuation() + p * a1 + q * a2 for (p, q), c in reduced.items() if c),
        default=INF,
    )


def check_rigid_flow(lib, data: dict, out: dict, times: list[str], label: str):
    """Criterion 6: endpoints, the bound by v(f(x)), monotonicity in s.

    The value at s = inf is v(f(x)) by ``evaluate``.  At s = 0 it is the
    Gauss value of the flowed polynomial, which is at least the monomial
    valuation of f as presented (criterion 6 states equality; it holds
    when the relation T1^N1 T2^N2 = t cancels no leading terms).
    """
    x, f, values = out["x"], out["f"], out["values"]
    direct = f.evaluate([x.x1, x.x2]).valuation()
    weights = lib.monoval.MonomialWeights((Fraction(x.x1.valuation()), Fraction(x.x2.valuation())))
    naive = lib.monoval.monomial_valuation(weights, f)
    gauss = _gauss_value(lib, data, x, f)
    for s_text, v in zip(times, values):
        s = lib.parsing.parse_flow_time(s_text)
        from_terms = min(
            (t if i == 0 else t + i * s for i, t in out["terms"].items()), default=INF
        )
        expect(v == from_terms, f"{label}: value at s={s_text} is not min(v(c_i) + i*s)")
        expect(v <= direct, f"{label}: value at s={s_text} exceeds v(f(x))")
        if s_text == "inf":
            expect(v == direct, f"{label}: value at s=inf is {v}, v(f(x)) is {direct}")
        if s_text == "0":
            expect(v == gauss, f"{label}: value at s=0 is {v}, Gauss value is {gauss}")
            expect(v >= naive, f"{label}: value at s=0 is {v}, below the monomial valuation {naive}")
    ordered = [lib.parsing.parse_flow_time(s) for s in times]
    pairs = sorted(zip(ordered, values), key=lambda p: p[0])
    expect(all(a[1] <= b[1] for a, b in zip(pairs, pairs[1:])), f"{label}: values not monotone in s")


def digest_rigid_flow(out: dict) -> str:
    terms = ",".join(f"{i}:{_fraction_text(v)}" for i, v in sorted(out["terms"].items()))
    return f"{terms}|{','.join(_fraction_text(v) for v in out['values'])}"


def run_cli_main(lib, tracer, data: dict) -> str:
    """In-process ``cli.main``; returns the text written to -o or stdout."""
    argv = data["argv"]
    with tracer.span(f"cli.main.{argv[0]}"):
        code, stdout, stderr = oracles.run_cli_in_process(lib, argv)
    if code != 0:
        raise RequestFailed(f"exit status {code}: {stderr.strip()[:200]}")
    if "-o" in argv:
        return Path(argv[argv.index("-o") + 1]).read_text()
    return stdout


class Workload:
    """Seeded rounds of requests, how to run one, and how to check it.

    ``__init__`` builds the fixed inputs (timed as set-up).  Subclasses give
    ``round_requests`` (plain data for round r), ``execute`` (the timed
    call), ``check`` (raises Mismatch on a wrong result) and ``digest`` (the
    exact text of a result).

    ``TAIL_PERCENTILE`` is the highest of 99.9, 99, 95 and 90 that leaves at
    least ten samples beyond it in a 20 s run at the seed commit.  It is
    fixed per workload, so runs with more or fewer rounds still report the
    same percentile.
    """

    name = ""
    TAIL_PERCENTILE = 95.0

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self._expected: dict[tuple, str] = {}

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def write_json(self, name: str, payload) -> str:
        path = self.tmp / name
        path.write_text(json.dumps(payload))
        return str(path)

    def check_cli(self, lib, argv: list[str], out: str, label: str):
        """Compare with the library-composed output, memoized on the inputs (not on -o)."""
        key = tuple(a for a in argv if not a.startswith(str(self.tmp / "out")))
        if key not in self._expected:
            self._expected[key] = oracles.expected_cli_output(lib, argv, Path("."))
        expect(out == self._expected[key], f"{label}: CLI output differs from the library result")

    def out_path(self, r: int, i: int) -> str:
        return str(self.tmp / f"out-{r}-{i}.json")

    def round_requests(self, r: int) -> list[Request]:
        raise NotImplementedError

    def execute(self, lib, tracer, req: Request, state: dict):
        raise NotImplementedError

    def check(self, lib, req: Request, out, label: str):
        raise NotImplementedError

    def digest(self, req: Request, out) -> str:
        raise NotImplementedError


# -- flow_rigid ----------------------------------------------------------------------


class FlowRigid(Workload):
    """Rigid-point flow queries over a degree sweep on the basic models."""

    name = "flow_rigid"
    # (n1, n2, shape, degree): each round runs every cell once
    CELLS = (
        [(1, 1, "dense", n) for n in (1, 2, 3, 4)]
        + [(2, 1, "dense", n) for n in (1, 2, 3)]
        + [(1, 2, "dense", n) for n in (1, 2, 3)]
        + [(1, 1, "sparse", n) for n in (2, 4, 6, 8)]
        + [(2, 1, "sparse", n) for n in (2, 4, 6)]
        + [(1, 2, "sparse", n) for n in (2, 4, 6)]
    )

    def round_requests(self, r):
        rng = self.rng(r)
        out = []
        for n1, n2, shape, n in self.CELLS:
            x1, x2 = gen.rigid_point_texts(rng, n1, n2)
            f = gen.dense_poly_text(rng, n) if shape == "dense" else gen.sparse_poly_text(rng, n)
            data = {"n1": n1, "n2": n2, "x1": x1, "x2": x2, "f": f}
            out.append(Request("rigid_flow", f"({n1},{n2}) {shape} n={n}", data))
        rng.shuffle(out)
        return out

    def execute(self, lib, tracer, req, state):
        return run_rigid_flow(lib, req.data, gen.FLOW_TIMES)

    def check(self, lib, req, out, label):
        check_rigid_flow(lib, req.data, out, gen.FLOW_TIMES, label)

    def digest(self, req, out):
        return digest_rigid_flow(out)


# -- skeleton_large --------------------------------------------------------------


class SkeletonLarge(Workload):
    """Validation, skeleta and weight queries on large triangulated surfaces."""

    name = "skeleton_large"
    SURFACES = (("torus", 8), ("sphere", 8), ("torus", 12), ("sphere", 12), ("torus", 30))
    # above this many strata the full-surface pseudo-manifold pass takes
    # longer than a round, so only the tied region's skeleton is reported
    FULL_REPORT_MAX = 3000
    WEIGHT_QUERIES = 10
    FORMS = ("volume", "ties", "flags")

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = random.Random(f"{self.name}:{seed}")
        self.models = {}
        for shape, k in self.SURFACES:
            key = f"{shape}{k}"
            model = gen.torus_model(k) if shape == "torus" else gen.sphere_model(k)
            forms = gen.surface_forms(rng, model, k)
            self.models[key] = {
                "model": model,
                "forms": forms,
                "full": len(model["strata"]) <= self.FULL_REPORT_MAX,
                "model_path": self.write_json(f"{key}.json", model),
                "form_paths": {n: self.write_json(f"{key}-{n}.json", f) for n, f in forms.items()},
            }
        self._index: dict[str, ModelIndex] = {}

    def index(self, key) -> ModelIndex:
        if key not in self._index:
            self._index[key] = ModelIndex(self.models[key]["model"])
        return self._index[key]

    def round_requests(self, r):
        rng = self.rng(r)
        out = []
        for key, m in self.models.items():
            forms = self.FORMS if m["full"] else ("ties",)
            out.append(Request("from_dict", key, {"model": key}))
            out += [Request("ks_report", f"{key} {f}", {"model": key, "form": f}) for f in forms]
            out.append(Request("essential", key, {"model": key}))
            for q in range(self.WEIGHT_QUERIES):
                form = self.FORMS[q % 3]
                point = gen.skeleton_point(rng, m["model"])
                data = {"model": key, "form": form, "point": point}
                out.append(Request("weight_at", f"{key} {form} {point['stratum']}", data))
            mp, fp = m["model_path"], m["form_paths"]
            argv = ["ks", mp, fp[forms[0]], "-o", self.out_path(r, len(out))]
            out.append(Request("cli", f"ks {key}", {"argv": argv}))
            if m["full"]:
                argv = ["essential", mp, *fp.values(), "-o", self.out_path(r, len(out))]
                out.append(Request("cli", f"essential {key}", {"argv": argv}))
            samples = "4" if m["full"] else "2"
            argv = ["check", mp, *(fp[f] for f in forms), "--samples", samples, "--seed", str(r)]
            out.append(Request("cli", f"check {key}", {"argv": argv}))
        return out

    def execute(self, lib, tracer, req, state):
        d = req.data
        if req.kind == "cli":
            return run_cli_main(lib, tracer, d)
        key = d["model"]
        if req.kind == "from_dict":
            m = self.models[key]
            model = lib.dualcomplex.ModelDescription.from_dict(m["model"])
            forms = {n: lib.weight.PluricanonicalForm.from_dict(f) for n, f in m["forms"].items()}
            state[key] = (model, forms)
            return sorted(s.id for s in model.strata)
        model, forms = state[key]
        w = lib.weight
        if req.kind == "ks_report":
            form = forms[d["form"]]
            sub = w.ks_skeleton(model, form)
            return (
                sorted(sub.strata),
                w.global_weight(model, form),
                w.is_connected(sub),
                w.is_closed_pseudomanifold(sub),
            )
        if req.kind == "essential":
            return sorted(w.essential_skeleton(model, list(forms.values())).strata)
        return w.weight_at(model, forms[d["form"]], _point(lib, d["point"]))

    def check(self, lib, req, out, label):
        d = req.data
        if req.kind == "cli":
            self.check_cli(lib, d["argv"], out, label)
            return
        key = d["model"]
        index, forms = self.index(key), self.models[key]["forms"]
        if req.kind == "from_dict":
            expect(out == sorted(index.comps), f"{label}: strata differ from the input")
        elif req.kind == "ks_report":
            oracles.check_ks_report(index, forms[d["form"]], out, d["form"] == "volume", label)
        elif req.kind == "essential":
            union = set().union(*(index.ks(f) for f in forms.values()))
            expect(set(out) == union, f"{label}: essential skeleton differs from the union of scans")
        else:
            oracles.check_weight(index, forms[d["form"]], d["point"], out, label)

    def digest(self, req, out):
        if req.kind == "cli":
            return out
        if req.kind == "weight_at":
            return f"{out.stratum}:{out.value}:{out.lower_bound_only}"
        if req.kind == "ks_report":
            strata, gw, conn, pm = out
            return f"{','.join(strata)}|{gw}|{conn}|{pm}"
        return ",".join(out)


# -- small_mixed -------------------------------------------------------------------


class SmallMixed(Workload):
    """Many small independent requests across every layer, in equal shares."""

    name = "small_mixed"
    TAIL_PERCENTILE = 99.0
    PER_KIND = len(FIXTURE_PAIRS)  # one in-process CLI request per fixture pair

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.fixtures = {
            name: json.loads((FIXTURES / name).read_text())
            for pair in FIXTURE_PAIRS
            for name in pair
        }

    def _rigid(self, rng, max_n: int) -> dict:
        n1, n2 = rng.choice(((1, 1), (2, 1), (1, 2)))
        x1, x2 = gen.rigid_point_texts(rng, n1, n2)
        n = rng.randint(1, max_n)
        # a dense cube costs ten times the median request; keep those sparse
        dense = n < 3 and rng.random() < 0.3
        f = gen.dense_poly_text(rng, n) if dense else gen.sparse_poly_text(rng, n)
        return {"n1": n1, "n2": n2, "x1": x1, "x2": x2, "f": f}

    def _cli(self, rng, r: int, i: int) -> Request:
        command = COMMANDS[(i + r) % len(COMMANDS)]
        model, form = FIXTURE_PAIRS[i]
        mp, fp = str(FIXTURES / model), str(FIXTURES / form)
        out = ["-o", self.out_path(r, i)]
        if command == "check":
            argv = ["check", mp, fp, "--samples", "10", "--seed", str(r)]
        elif command == "complex":
            argv = ["complex", mp, *(["--dot"] if rng.random() < 0.5 else []), *out]
        elif command == "weight":
            point = gen.skeleton_point(rng, gen.with_vertex_strata(self.fixtures[model]))
            argv = ["weight", mp, fp, json.dumps(point), *out]
        elif command == "ks":
            argv = ["ks", mp, fp, *out]
        elif command == "essential":
            others = [str(FIXTURES / f) for m, f in FIXTURE_PAIRS if m == model]
            argv = ["essential", mp, *others, *out]
        else:
            d = self._rigid(rng, 3)
            head = [command, str(d["n1"]), str(d["n2"]), d["x1"], d["x2"]]
            argv = head + ([rng.choice(gen.FLOW_TIMES), d["f"]] if command == "flow" else []) + out
        return Request("cli", " ".join(argv[:1] + [model]), {"argv": argv})

    def round_requests(self, r):
        rng = self.rng(r)
        out = []
        for i in range(self.PER_KIND):
            f = gen.sparse_poly_text(rng, rng.randint(1, 3), arity=3)
            g = gen.sparse_poly_text(rng, rng.randint(1, 3), arity=3)
            w = [str(Fraction(rng.randint(0, 8), rng.randint(1, 6))) for _ in range(3)]
            out.append(Request("poly_product", f"({f})*({g})", {"f": f, "g": g, "w": w}))

            n1, n2 = ((1, 1), (2, 1), (2, 3))[i % 3]
            lam = str(Fraction(rng.randint(0, 24), 24))
            f = gen.sparse_poly_text(rng, rng.randint(1, 4))
            data = {"n1": n1, "n2": n2, "lam": lam, "f": f}
            out.append(Request("flow_monomial", f"({n1},{n2}) lam={lam}", data))

            d = self._rigid(rng, 3)
            d["s"] = rng.choice(gen.FLOW_TIMES)
            out.append(Request("rigid_flow", f"({d['n1']},{d['n2']}) {d['f']}", d))

            model = gen.small_model(rng)
            form = gen.small_form(rng, model)
            data = {"model": model, "form": form, "point": gen.skeleton_point(rng, model)}
            out.append(Request("small_model", f"{len(model['strata'])} strata", data))

            elements = [gen.field_element_data(rng) for _ in range(3)]
            out.append(Request("field", "a*b+c, (a-b)/c, a^3", {"elements": elements}))

            out.append(self._cli(rng, r, i))
        rng.shuffle(out)
        return out

    def execute(self, lib, tracer, req, state):
        d = req.data
        if req.kind == "poly_product":
            f = lib.parsing.parse_polynomial(d["f"], arity=3)
            g = lib.parsing.parse_polynomial(d["g"], arity=3)
            w = lib.monoval.MonomialWeights(tuple(Fraction(a) for a in d["w"]))
            return f, g, lib.monoval.monomial_valuation(w, f * g)
        if req.kind == "flow_monomial":
            bm = lib.flow.BasicModel(d["n1"], d["n2"])
            lam = Fraction(d["lam"])
            data = bm.monomial_point(lam / d["n1"], (1 - lam) / d["n2"])
            f = lib.parsing.parse_polynomial(d["f"], arity=2)
            times = [lib.parsing.parse_flow_time(s) for s in gen.FLOW_TIMES]
            return f, [lib.flow.flow_value_monomial(bm, data, s, f) for s in times]
        if req.kind == "rigid_flow":
            return run_rigid_flow(lib, d, [d["s"]])
        if req.kind == "small_model":
            model = lib.dualcomplex.ModelDescription.from_dict(d["model"])
            form = lib.weight.PluricanonicalForm.from_dict(d["form"])
            skeleton = lib.weight.ks_skeleton(model, form)
            return sorted(skeleton.strata), lib.weight.weight_at(model, form, _point(lib, d["point"]))
        if req.kind == "field":
            with tracer.span("field.BaseElement"):
                a, b, c = (lib.field.BaseElement(num, den) for num, den in d["elements"])
                r1 = a * b + c
                r2 = (a - b) / c
                r3 = a**3
                same = r1 - c == a * b
                vals = (r1.valuation(), r2.valuation(), r3.valuation())
            return (a, b, c), (r1, r2, r3), same, vals
        return run_cli_main(lib, tracer, d)

    def check(self, lib, req, out, label):
        d = req.data
        if req.kind == "poly_product":
            f, g, v = out
            w = lib.monoval.MonomialWeights(tuple(Fraction(a) for a in d["w"]))
            vf, vg = lib.monoval.monomial_valuation(w, f), lib.monoval.monomial_valuation(w, g)
            expect(v == vf + vg, f"{label}: v(fg) = {v}, v(f) + v(g) = {vf + vg}")
        elif req.kind == "flow_monomial":
            f, values = out
            lam = Fraction(d["lam"])
            a1, a2 = lam / d["n1"], (1 - lam) / d["n2"]
            want = _reduced_value(lib, d["n1"], d["n2"], a1, a2, f)
            naive = lib.monoval.monomial_valuation(lib.monoval.MonomialWeights((a1, a2)), f)
            expect(all(v == want for v in values), f"{label}: flow values {values} are not {want}")
            expect(want >= naive, f"{label}: fixed value {want} below the monomial valuation {naive}")
        elif req.kind == "rigid_flow":
            check_rigid_flow(lib, d, out, [d["s"]], label)
        elif req.kind == "small_model":
            strata, wv = out
            index = ModelIndex(d["model"])
            expect(set(strata) == index.ks(d["form"]), f"{label}: KS skeleton differs from the scan")
            oracles.check_weight(index, d["form"], d["point"], wv, label)
        elif req.kind == "field":
            (a, b, c), (r1, r2, r3), same, vals = out
            expect(same, f"{label}: (a*b + c) - c != a*b")
            expect(r2 * c + b == a, f"{label}: (a-b)/c * c + b != a")
            expect(r3 == a * a * a, f"{label}: a^3 != a*a*a")
            expect(vals[2] == 3 * a.valuation(), f"{label}: v(a^3) != 3 v(a)")
            vab = (a * b).valuation()
            expect(vab == a.valuation() + b.valuation(), f"{label}: v(ab) != v(a) + v(b)")
        else:
            self.check_cli(lib, d["argv"], out, label)

    def digest(self, req, out):
        if req.kind == "poly_product":
            return _fraction_text(out[2])
        if req.kind == "flow_monomial":
            return ",".join(_fraction_text(v) for v in out[1])
        if req.kind == "rigid_flow":
            return digest_rigid_flow(out)
        if req.kind == "small_model":
            strata, wv = out
            return f"{','.join(strata)}|{wv.stratum}:{wv.value}:{wv.lower_bound_only}"
        if req.kind == "field":
            return ",".join(str(r) for r in out[1]) + f"|{out[3]}"
        return out


# -- cli_process -------------------------------------------------------------------


class CliProcess(Workload):
    """Sequential ``python -m degenskel.cli`` runs of all seven commands.

    Malformed inputs must exit 1 with an ``error:`` line.  Two of them end
    in a traceback at the seed commit (a face list in place of a face map,
    and a non-numeric point coordinate); they stay in every round and count
    as failures.  ``flow ... (T1+T2+1)^200`` is left out: its run time at
    the seed commit is unbounded.  Inputs that the seed commit accepts
    although they are malformed (boolean multiplicities, string component
    lists, list ids) are left out too: they exit 0 and print a result, so
    there is no time to measure that a fixed version would keep.
    """

    name = "cli_process"
    TAIL_PERCENTILE = 90.0
    TIMEOUT_S = 60

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = random.Random(f"{self.name}:{seed}")
        torus = gen.torus_model(10)
        forms = gen.surface_forms(rng, torus, 10)
        self.torus = self.write_json("torus10.json", torus)
        self.forms = {n: self.write_json(f"torus10-{n}.json", f) for n, f in forms.items()}
        self.torus_model = torus
        planes = json.loads((FIXTURES / "coordinate_planes.json").read_text())
        self.planes = gen.with_vertex_strata(planes)
        self.bad_json = str(self.tmp / "truncated.json")
        Path(self.bad_json).write_text(json.dumps(torus)[:500])
        self.face_list = self.write_json(
            "face_list.json",
            {
                "components": [{"id": "A"}, {"id": "B"}],
                "strata": [{"id": "AB", "components": ["A", "B"], "faces": ["A"]}],
            },
        )
        self.env = dict(os.environ, PYTHONPATH="src")

    def round_requests(self, r):
        rng = self.rng(r)
        fx = _fixture
        t, f = self.torus, self.forms
        point = json.dumps(gen.skeleton_point(rng, self.torus_model))
        ok = [
            ["check", fx("kulikov_k3.json"), fx("kulikov_form.json")],
            ["check", t, *f.values(), "--samples", "20", "--seed", str(r)],
            ["complex", fx("kulikov_k3.json")],
            ["complex", fx("star_curve.json"), "--dot"],
            ["complex", t],
            ["weight", fx("coordinate_planes.json"), fx("planes_form.json"),
             json.dumps(gen.skeleton_point(rng, self.planes))],
            ["weight", t, f[rng.choice(list(f))], point],
            ["ks", fx("chain_123.json"), fx("chain_form_vertex.json")],
            ["ks", t, f["ties"]],
            ["essential", fx("chain_123.json"), fx("chain_form_flat.json"),
             fx("chain_form_vertex.json")],
            ["essential", t, *f.values()],
        ]
        flows = ((1, 1, "dense", 4), (2, 1, "sparse", 6), (1, 2, "dense", 3), (1, 1, "sparse", 6))
        for n1, n2, shape, n in flows:
            x1, x2 = gen.rigid_point_texts(rng, n1, n2)
            poly = gen.dense_poly_text(rng, n) if shape == "dense" else gen.sparse_poly_text(rng, n)
            ok.append(["flow", str(n1), str(n2), x1, x2, rng.choice(gen.FLOW_TIMES), poly])
        for n1, n2 in ((1, 1), (2, 1), (1, 3)):
            ok.append(["retract", str(n1), str(n2), *gen.rigid_point_texts(rng, n1, n2)])
        x1, x2 = gen.rigid_point_texts(rng, 1, 1)
        bad = [
            ["check", fx("invalid_model.json")],
            ["check", fx("coordinate_planes.json"), fx("invalid_form.json")],
            ["complex", self.bad_json],
            ["flow", "1", "1", x1, x2, "1", "T1+*T2"],
            ["flow", "1", "1", x1, f"t*{x2}", "1", "T1+T2"],
            ["weight", fx("coordinate_planes.json"), fx("planes_form.json"),
             '{"stratum": "C12", "barycentric": {"E1": "inf", "E2": "0"}}'],
            ["retract", "2", "3", "t", "1"],
            # tracebacks at the seed commit
            ["complex", self.face_list],
            ["weight", fx("coordinate_planes.json"), fx("planes_form.json"),
             '{"stratum": "C12", "barycentric": {"E1": "x", "E2": "1"}}'],
        ]
        out = [Request("ok", " ".join(a[:2]), {"argv": a}) for a in ok]
        out += [Request("error", " ".join(a[:2]), {"argv": a}) for a in bad]
        rng.shuffle(out)
        return out

    def execute(self, lib, tracer, req, state):
        argv = req.data["argv"]
        with tracer.span(f"cli.process.{argv[0]}"):
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "degenskel.cli", *argv],
                    capture_output=True, text=True, timeout=self.TIMEOUT_S, env=self.env,
                )
            except subprocess.TimeoutExpired:
                raise RequestFailed(f"timed out after {self.TIMEOUT_S} s") from None
        if "Traceback (most recent call last)" in proc.stderr:
            raise RequestFailed("traceback: " + proc.stderr.strip().splitlines()[-1][:200])
        want = 0 if req.kind == "ok" else 1
        if proc.returncode != want:
            raise RequestFailed(f"exit status {proc.returncode}, expected {want}")
        if req.kind == "error" and not proc.stderr.startswith("error: "):
            raise RequestFailed("exit status 1 without a named error")
        return proc.stdout if req.kind == "ok" else proc.stderr

    def check(self, lib, req, out, label):
        if req.kind == "ok":
            self.check_cli(lib, req.data["argv"], out, label)

    def digest(self, req, out):
        return out


WORKLOADS = {w.name: w for w in (FlowRigid, SkeletonLarge, SmallMixed, CliProcess)}

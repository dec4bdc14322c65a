"""Exact checks the benchmark runs on every result, outside the timed interval.

The skeleton checks read the model straight from its dict and share no
code with the library: the Kontsevich-Soibelman skeleton by the vertex
criterion, connectivity and the pseudo-manifold test by union-find, and the
weight function by its affine formula.  The CLI checks compare the command
output byte for byte with the same payload composed from library calls.
"""
from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

INF = float("inf")


class Mismatch(Exception):
    """A result disagrees with its oracle."""


def expect(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


class ModelIndex:
    """A model dict with every stratum, face map and multiplicity written out."""

    def __init__(self, model: dict):
        self.mult = {c["id"]: c["multiplicity"] for c in model["components"]}
        self.comps = {s["id"]: frozenset(s["components"]) for s in model["strata"]}
        self.faces = {s["id"]: dict(s.get("faces") or {}) for s in model["strata"]}

    def dim(self, sid: str) -> int:
        return len(self.comps[sid]) - 1

    def direct_faces(self, sid: str):
        return self.faces[sid].values()

    def divisorial(self, form: dict) -> dict[str, Fraction]:
        return {c: Fraction(form["vertical"][c] + form["m"], n) for c, n in self.mult.items()}

    def global_weight(self, form: dict) -> Fraction:
        return min(self.divisorial(form).values())

    def ks(self, form: dict) -> set[str]:
        """Strata whose components all reach the minimal weight, unflagged."""
        w = self.divisorial(form)
        low = min(w.values())
        flagged = set(form.get("horizontal", ()))
        return {
            sid
            for sid, comps in self.comps.items()
            if sid not in flagged and all(w[c] == low for c in comps)
        }

    def connected(self, sub: set[str]) -> bool:
        parent = {s: s for s in sub}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in sub:
            for f in self.direct_faces(s):
                if f in sub:
                    parent[find(s)] = find(f)
        return len({find(s) for s in sub}) <= 1

    def pseudomanifold(self, sub: set[str]) -> bool:
        """Pure of top dimension d, each ridge in two d-faces, d-faces linked."""
        d = max(self.dim(s) for s in sub)
        covered = {f for s in sub for f in self.direct_faces(s)}
        if any(self.dim(s) != d for s in sub - covered):
            return False
        top = [s for s in sub if self.dim(s) == d]
        if d == 0:
            return len(top) == 1
        cofaces: dict[str, list[str]] = {}
        for s in top:
            for f in self.direct_faces(s):
                cofaces.setdefault(f, []).append(s)
        if any(len(cofaces.get(r, ())) != 2 for r in sub if self.dim(r) == d - 1):
            return False
        parent = {s: s for s in top}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in cofaces.values():
            parent[find(a)] = find(b)
        return len({find(s) for s in top}) == 1

    def weight(self, form: dict, point: dict) -> tuple[Fraction, bool, str]:
        """(value, lower-bound-only, stratum) of the affine weight at a point."""
        coords = {c: Fraction(v) for c, v in point["barycentric"].items()}
        sid = point["stratum"]
        for c in sorted(coords):
            if coords[c] == 0:
                sid = self.faces[sid][c]
        w = self.divisorial(form)
        value = sum((coords[c] * w[c] for c in self.comps[sid]), Fraction(0))
        return value, sid in set(form.get("horizontal", ())), sid


def check_ks_report(index: ModelIndex, form: dict, report, volume: bool, label: str):
    strata, gw, connected, pseudo = report
    want = index.ks(form)
    expect(set(strata) == want, f"{label}: KS skeleton differs from the vertex-criterion scan")
    expect(gw == index.global_weight(form), f"{label}: global weight {gw}")
    expect(connected == index.connected(want), f"{label}: connectivity {connected}")
    expect(pseudo == index.pseudomanifold(want), f"{label}: pseudo-manifold {pseudo}")
    if volume:
        expect(connected and pseudo, f"{label}: volume form skeleton is not a closed pseudo-manifold")


def check_weight(index: ModelIndex, form: dict, point: dict, got, label: str):
    value, lower_only, sid = index.weight(form, point)
    expect(
        (got.value, got.lower_bound_only, got.stratum) == (value, lower_only, sid),
        f"{label}: weight_at gave {got}, expected {value} on {sid}",
    )
    gw = index.global_weight(form)
    expect(got.value >= gw, f"{label}: weight below the global weight")
    if sid in index.ks(form):
        constant = got.value == gw and not got.lower_bound_only
        expect(constant, f"{label}: weight not constant on a KS face")


# -- CLI output composed from library calls ------------------------------------


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load(root: Path, path: str):
    return json.loads((root / path).read_text())


def expected_cli_output(lib, argv: list[str], root: Path) -> str:
    """What ``degenskel <argv>`` prints (or writes with -o) on valid input."""
    fmt = lib.field.format_rational
    cmd = argv[0]
    opts = {}
    pos = []
    it = iter(argv[1:])
    for a in it:
        if a in ("-o", "--samples", "--seed"):
            opts[a] = next(it)
        elif a == "--dot":
            opts[a] = True
        else:
            pos.append(a)

    def model(path):
        return lib.dualcomplex.ModelDescription.from_dict(_load(root, path))

    def form(path):
        return lib.weight.PluricanonicalForm.from_dict(_load(root, path))

    def sub_payload(sub, weights):
        return {
            "strata": sorted(sub.strata),
            "globalWeight": weights,
            "connected": lib.weight.is_connected(sub),
            "pseudomanifold": lib.weight.is_closed_pseudomanifold(sub),
        }

    if cmd == "check":
        m = model(pos[0])
        forms = [form(p) for p in pos[1:]]
        for p, f in zip(pos[1:], forms):
            expect(not lib.weight.form_problems(m, f), f"check input {p} is not valid")
        samples = int(opts.get("--samples", 500))
        lines = [f"ok: {pos[0]}: model invariants hold"]
        lines += [f"ok: {p}: form invariants hold" for p in pos[1:]]
        if forms and samples > 0:
            lines += [f"ok: {p}: {samples} sampled points respect the weight bounds" for p in pos[1:]]
        return "".join(line + "\n" for line in lines)
    if cmd == "complex":
        m = model(pos[0])
        cx = lib.dualcomplex.build_complex(m)
        if opts.get("--dot"):
            return cx.to_dot()
        payload = m.to_dict()
        payload["dimension"] = cx.top_dimension
        payload["counts"] = {str(d): n for d, n in sorted(cx.counts().items())}
        return _json_text(payload)
    if cmd == "weight":
        m, f = model(pos[0]), form(pos[1])
        data = json.loads(pos[2])
        point = lib.dualcomplex.SkeletonPoint(
            data["stratum"], {k: Fraction(v) for k, v in data["barycentric"].items()}
        )
        v = lib.weight.weight_at(m, f, point)
        return _json_text(
            {"stratum": v.stratum, "weight": fmt(v.value), "lowerBoundOnly": v.lower_bound_only}
        )
    if cmd == "ks":
        m, f = model(pos[0]), form(pos[1])
        sub = lib.weight.ks_skeleton(m, f)
        return _json_text(sub_payload(sub, fmt(lib.weight.global_weight(m, f))))
    if cmd == "essential":
        m = model(pos[0])
        forms = [form(p) for p in pos[1:]]
        sub = lib.weight.essential_skeleton(m, forms)
        return _json_text(sub_payload(sub, [fmt(lib.weight.global_weight(m, f)) for f in forms]))
    n1, n2 = int(pos[0]), int(pos[1])
    bm = lib.flow.BasicModel(n1, n2)
    x = bm.rigid_point(lib.parsing.parse_element(pos[2]), lib.parsing.parse_element(pos[3]))
    if cmd == "flow":
        f = lib.parsing.parse_polynomial(pos[5], arity=2)
        expansion = lib.flow.flow_expansion(bm, x, f)
        value = lib.flow.flow_value(bm, x, lib.parsing.parse_flow_time(pos[4]), f)
        return _json_text(
            {
                "value": fmt(value),
                "terms": [{"i": i, "vK": fmt(c.valuation())} for i, c in sorted(expansion.items())],
            }
        )
    if cmd == "retract":
        data = lib.flow.retract_point(bm, x)
        point = lib.dualcomplex.monomial_to_barycentric(bm.model_description(), data)
        return _json_text(
            {
                "stratum": data.stratum,
                "alpha": {k: fmt(v) for k, v in sorted(data.alpha.items())},
                "skeletonPoint": {
                    "stratum": point.stratum,
                    "barycentric": {k: fmt(v) for k, v in sorted(point.barycentric.items())},
                },
            }
        )
    raise ValueError(f"no oracle for command {cmd}")


def run_cli_in_process(lib, argv: list[str]) -> tuple[int, str, str]:
    """Call ``cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()

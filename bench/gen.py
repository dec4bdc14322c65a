"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data only:
field and polynomial texts in the CLI syntax, model and form dicts in the
JSON schema, and skeleton points as ``{"stratum", "barycentric"}`` dicts
with string coordinates.  Nothing here imports degenskel, so generating an
input never runs library code and set-up time is pure data generation.
"""
from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

FLOW_TIMES = ("0", "1/3", "1", "7/2", "inf")


# -- field and polynomial texts ----------------------------------------------


def unit_text(rng) -> str:
    """A unit of Z[t]_(t) of degree one over degree one, never constant.

    Keeping numerator and denominator at degree one holds the cost of a
    query steady across seeds; the cross-ratio test excludes u = constant.
    """
    while True:
        a0 = rng.choice((1, -1, 2, -2, 3))
        a1 = rng.choice((-3, -2, -1, 1, 2, 3))
        b1 = rng.choice((-3, -2, -1, 1, 2, 3))
        if a1 != a0 * b1:
            return f"({a0}{a1:+d}*t)/(1{b1:+d}*t)"


def rigid_point_texts(rng, n1: int, n2: int) -> tuple[str, str]:
    """Coordinates (x1, x2) with x1^n1 * x2^n2 = t, as field text.

    Rigid points with coordinates in Q(t) exist only when n1 = 1 or n2 = 1;
    the point is t*u^n2, u^-n1 (or u, t*u^-n1) for a random unit u.
    """
    u = unit_text(rng)
    profiles = ([(1, 0)] if n1 == 1 else []) + ([(0, 1)] if n2 == 1 else [])
    if not profiles:
        raise ValueError(f"no rigid points over Q(t) for N = ({n1}, {n2})")
    a1, a2 = rng.choice(profiles)
    x1 = ("t*" if a1 else "") + f"({u})^{n2}"
    x2 = ("t*" if a2 else "") + f"({u})^-{n1}"
    return x1, x2


_COEFFS = ("1", "2", "-3", "t", "3*t", "t^2", "-2*t", "1/3", "(1+t)", "(2-t)/3")
_POSITIVE = tuple(c for c in _COEFFS if not c.startswith("-"))


def dense_poly_text(rng, n: int) -> str:
    """(T1 + T2 + c*t)^n: every monomial up to degree n occurs."""
    return f"(T1+T2+{rng.randint(1, 5)}*t)^{n}"


def sparse_poly_text(rng, n: int, arity: int = 2) -> str:
    """The n-th power of each variable plus one mixed monomial of degree n.

    The exponents are fixed by n, so a query's cost depends on its degree
    and not on the draw; the seed picks the coefficients.
    """
    monos = [{i: n} for i in range(arity)] + [{0: n - n // 2, arity - 1: n // 2}]
    parts = []
    for k, exps in enumerate(monos):
        mono = "*".join(f"T{i + 1}^{e}" for i, e in sorted(exps.items()) if e)
        # a leading minus would read as an option on a command line
        coeff = rng.choice(_COEFFS if k else _POSITIVE)
        parts.append(f"{coeff}*{mono}")
    return "+".join(parts)


def field_element_data(rng) -> tuple[dict, dict]:
    """(numerator, denominator) coefficient dicts {exponent: Fraction}."""

    def poly(shift: int) -> dict:
        while True:
            out = {
                e + shift: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for e in range(3)
                if rng.random() < 0.6
            }
            out = {e: c for e, c in out.items() if c}
            if out and (shift or 0 in out):
                return out

    return poly(rng.randint(-2, 3)), poly(0)


# -- simplicial surfaces -------------------------------------------------------


def _surface_model(vertices: list[str], triangles: list[tuple[str, str, str]]) -> dict:
    """Model dict of a triangulated surface: one component per vertex (N = 1).

    Every stratum is written out with its face map, so validation sees the
    full structure rather than synthesized entries.
    """
    edges: dict[frozenset, str] = {}
    strata = [{"id": v, "components": [v]} for v in vertices]
    for tri in triangles:
        for a, b in itertools.combinations(tri, 2):
            key = frozenset((a, b))
            if key not in edges:
                eid = f"e{len(edges)}"
                edges[key] = eid
                strata.append({"id": eid, "components": sorted(key), "faces": {a: b, b: a}})
    for n, tri in enumerate(triangles):
        strata.append(
            {
                "id": f"f{n}",
                "components": sorted(tri),
                "faces": {j: edges[frozenset(tri) - {j}] for j in tri},
            }
        )
    return {
        "components": [{"id": v, "multiplicity": 1} for v in vertices],
        "strata": strata,
    }


def torus_model(k: int) -> dict:
    """k x k triangulated torus: 6k^2 strata, simplicial for k >= 3."""
    v = lambda i, j: f"v{i % k}_{j % k}"
    vertices = [v(i, j) for i in range(k) for j in range(k)]
    triangles = []
    for i in range(k):
        for j in range(k):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    return _surface_model(vertices, triangles)


def sphere_model(k: int) -> dict:
    """Triangulated 2-sphere: a k x k cylinder capped by two cone points.

    6k^2 + 2 strata; the dual complex of a Kulikov type III degeneration
    of K3 surfaces has this shape.
    """
    v = lambda i, j: f"v{i}_{j % k}"
    vertices = [v(i, j) for i in range(k) for j in range(k)] + ["south", "north"]
    triangles = []
    for i in range(k - 1):
        for j in range(k):
            a, b, c, d = v(i, j), v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    for j in range(k):
        triangles.append(("south", v(0, j), v(0, j + 1)))
        triangles.append(("north", v(k - 1, j), v(k - 1, j + 1)))
    return _surface_model(vertices, triangles)


def _neighbours(model: dict) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {c["id"]: [] for c in model["components"]}
    for s in model["strata"]:
        if len(s["components"]) == 2:
            a, b = s["components"]
            out[a].append(b)
            out[b].append(a)
    return out


def surface_forms(rng, model: dict, k: int) -> dict[str, dict]:
    """The three form kinds on a surface model.

    - ``volume``: m = 1, nu = 0 everywhere; the skeleton is the whole surface.
    - ``ties``: nu = 0 on a graph ball of radius k/4, larger elsewhere, so
      the minimal weight is tied on that region only.
    - ``flags``: the volume weights plus horizontal flags on a few seed
      edges and every triangle through them (closed under containment).
    """
    comps = [c["id"] for c in model["components"]]
    nbrs = _neighbours(model)
    centre = rng.choice(comps)
    dist = {centre: 0}
    queue = deque([centre])
    while queue:
        x = queue.popleft()
        for y in nbrs[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    radius = max(1, k // 4)
    ties = {c: 0 if dist[c] <= radius else rng.randint(1, 3) for c in comps}

    edges = [s for s in model["strata"] if len(s["components"]) == 2]
    seeds = {s["id"] for s in rng.sample(edges, max(1, k // 2))}
    flagged = set(seeds)
    for s in model["strata"]:
        if len(s["components"]) == 3 and seeds & set(s["faces"].values()):
            flagged.add(s["id"])
    zero = {c: 0 for c in comps}
    return {
        "volume": {"m": 1, "vertical": zero, "horizontal": []},
        "ties": {"m": 1, "vertical": ties, "horizontal": []},
        "flags": {"m": 1, "vertical": zero, "horizontal": sorted(flagged)},
    }


def skeleton_point(rng, model: dict, zero_share: float = 0.3) -> dict:
    """A point on a random stratum; some coordinates are zero on purpose."""
    s = rng.choice(model["strata"])
    comps = sorted(s["components"])
    parts = [rng.randint(1, 9) for _ in comps]
    if len(comps) > 1 and rng.random() < zero_share:
        parts[rng.randrange(len(comps))] = 0
    total = sum(parts)
    return {
        "stratum": s["id"],
        "barycentric": {c: str(Fraction(p, total)) for c, p in zip(comps, parts)},
    }


def with_vertex_strata(model: dict) -> dict:
    """The model with the vertex strata the library would synthesize."""
    strata = list(model.get("strata", []))
    declared = {s["id"] for s in strata}
    covered = {s["components"][0] for s in strata if len(s["components"]) == 1}
    strata += [
        {"id": c["id"], "components": [c["id"]]}
        for c in model["components"]
        if c["id"] not in covered and c["id"] not in declared
    ]
    return {"components": model["components"], "strata": strata}


# -- small random models (the shape of tests/helpers.random_model) ------------


def small_model(rng) -> dict:
    """At most 15 strata: up to six components, parallel edges, triangles.

    Vertex strata and face maps are written out, so the oracles can read
    the complex straight from the dict.
    """
    n = rng.randint(1, 6)
    comps = [{"id": f"E{i}", "multiplicity": rng.randint(1, 4)} for i in range(1, n + 1)]
    ids = [c["id"] for c in comps]
    strata = [{"id": c, "components": [c]} for c in ids]
    edges_by_pair: dict[frozenset, list[str]] = {}
    budget = 15 - n
    if n >= 2 and budget > 0:
        for k in range(rng.randint(0, min(6, budget))):
            a, b = sorted(rng.sample(ids, 2))
            sid = f"C{a[1:]}{b[1:]}x{k}"
            strata.append({"id": sid, "components": [a, b], "faces": {a: b, b: a}})
            edges_by_pair.setdefault(frozenset((a, b)), []).append(sid)
    budget = 15 - len(strata)
    if n >= 3 and budget > 0:
        for k in range(rng.randint(0, min(3, budget))):
            tri = sorted(rng.sample(ids, 3))
            if not all(frozenset(p) in edges_by_pair for p in itertools.combinations(tri, 2)):
                continue
            faces = {
                removed: rng.choice(edges_by_pair[frozenset(set(tri) - {removed})])
                for removed in tri
            }
            strata.append(
                {"id": f"T{''.join(x[1:] for x in tri)}x{k}", "components": tri, "faces": faces}
            )
    return {"components": comps, "strata": strata}


def small_form(rng, model: dict) -> dict:
    """A form with forced ties and downward-closed horizontal flags."""
    m = rng.choice((1, 1, 2, 3))
    comps = model["components"]
    w0 = rng.choice((1, 2))
    tied = set(rng.sample([c["id"] for c in comps], rng.randint(1, len(comps))))
    vertical = {
        c["id"]: w0 * c["multiplicity"] - m + (0 if c["id"] in tied else rng.randint(1, 3))
        for c in comps
    }
    triangles = [s for s in model["strata"] if len(s["components"]) == 3]
    seeds = {s["id"] for s in model["strata"] if len(s["components"]) > 1 and rng.random() < 0.25}
    flagged = set(seeds)
    for t in triangles:
        if seeds & set(t["faces"].values()):
            flagged.add(t["id"])
    return {"m": m, "vertical": vertical, "horizontal": sorted(flagged)}

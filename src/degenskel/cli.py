"""Command-line interface: validation, dual complexes, skeleta and flows.

Commands read the JSON schemas documented in the README and emit
deterministic JSON (sorted keys, rationals as "p/q" strings in lowest
terms, +infinity as "inf").  Exit status: 0 on success, 1 when input data
violates an invariant (each violation is reported with the offending id),
2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .dualcomplex import (
    ModelDescription,
    SkeletonPoint,
    build_complex,
    monomial_to_barycentric,
)
from .errors import ValidationError
from .field import format_rational
from .flow import BasicModel, flow_valuations, min_term_value, retract_point
from .parsing import parse_element, parse_flow_time, parse_polynomial
from .weight import (
    PluricanonicalForm,
    _vertex_weights,
    global_weight,
    is_closed_pseudomanifold,
    is_connected,
    ks_skeleton,
    essential_skeleton,
    weight_at,
)

PROG = "degenskel"


def _loads(text: str, source: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or int() past its digit limit
        raise ValidationError(f"{source}: malformed JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{source}: JSON nested too deeply") from None


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return _loads(text, path)


def _load_model(path: str) -> ModelDescription:
    return ModelDescription.from_dict(_read_json(path))


def _load_form(path: str) -> PluricanonicalForm:
    return PluricanonicalForm.from_dict(_read_json(path))


def _emit(payload, output: str | None):
    """Write text as is, or anything else as deterministic JSON."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(payload, encoding="utf-8")
    elif hasattr(sys.stdout, "buffer"):  # UTF-8 in every locale, as with -o
        sys.stdout.flush()
        sys.stdout.buffer.write(payload.encode("utf-8"))
    else:  # a text stream with no bytes underneath, such as an io.StringIO
        sys.stdout.write(payload)


def _point_from_arg(arg: str) -> SkeletonPoint:
    data = _loads(arg, "point argument") if arg.lstrip().startswith("{") else _read_json(arg)
    if (
        not isinstance(data, dict)
        or not isinstance(data.get("stratum"), str)
        or not isinstance(data.get("barycentric"), dict)
    ):
        raise ValidationError(
            "point must be a JSON object with 'stratum' and 'barycentric'"
        )
    floats = [k for k, v in data["barycentric"].items() if isinstance(v, float)]
    if floats:
        # the JSON reader has already rounded the literal to a binary float
        raise ValidationError([
            f"invalid barycentric coordinate for {k}: a JSON float is not"
            ' exact; write the rational as a string such as "3/10"'
            for k in floats
        ])
    try:
        # Fraction rejects 'inf' and 'nan': a coordinate is a finite rational
        coords = {k: Fraction(str(v)) for k, v in data["barycentric"].items()}
    except ValueError as exc:
        raise ValidationError(f"invalid barycentric coordinate: {exc}") from None
    return SkeletonPoint(data["stratum"], coords)


def _subcomplex_payload(sub, weights) -> dict:
    return {
        "strata": sorted(sub.strata),
        "globalWeight": weights,
        "connected": is_connected(sub),
        "pseudomanifold": is_closed_pseudomanifold(sub),
    }


# -- commands -----------------------------------------------------------------


def _cmd_check(args) -> int:
    problems = []

    def load(path, parse):
        # read and JSON errors name the path already; schema errors get it here
        try:
            data = _read_json(path)
        except ValidationError as exc:
            problems.extend(exc.problems)
            return None
        try:
            return parse(data)
        except ValidationError as exc:
            problems.extend(f"{path}: {p}" for p in exc.problems)

    model = load(args.model, ModelDescription.from_dict)
    forms = []
    for path in args.forms:
        form = load(path, PluricanonicalForm.from_dict)
        if form is not None and model is not None:
            try:
                _vertex_weights(model, form)  # validated once, memoized for the audit
            except ValidationError as exc:
                problems.extend(f"{path}: {p}" for p in exc.problems)
            forms.append((path, form))
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1
    print(f"ok: {args.model}: model invariants hold")
    for path, form in forms:
        print(f"ok: {path}: form invariants hold")
    if model is not None and forms and args.samples > 0:
        audit_problems = _sampled_audit(model, forms, args.samples, args.seed)
        if audit_problems:
            for p in audit_problems:
                print(f"error: {p}", file=sys.stderr)
            return 1
    return 0


def _sampled_audit(model, forms, samples: int, seed: int) -> list[str]:
    """Spot-check weight-function inequalities at random interior points."""
    rng = random.Random(seed)
    strata = list(model.strata)
    problems = []
    for path, form in forms:
        minimum = global_weight(model, form)
        essential = ks_skeleton(model, form).strata
        for _ in range(samples):
            s = rng.choice(strata)
            comps = sorted(s.components)
            parts = [rng.randint(1, 9) for _ in comps]
            total = sum(parts)
            point = SkeletonPoint(
                s.id, {c: Fraction(p, total) for c, p in zip(comps, parts)}
            )
            value = weight_at(model, form, point)
            if value.value < minimum:
                problems.append(
                    f"{path}: weight below the global weight at {s.id}"
                )
            elif s.id in essential and (
                value.lower_bound_only or value.value != minimum
            ):
                problems.append(
                    f"{path}: essential face {s.id} is not constantly minimal"
                )
        if not problems:
            print(f"ok: {path}: {samples} sampled points respect the weight bounds")
    return problems


def _cmd_complex(args) -> int:
    model = _load_model(args.model)
    cx = build_complex(model)
    if args.dot:
        _emit(cx.to_dot(), args.output)
        return 0
    payload = model.to_dict()
    payload["dimension"] = cx.top_dimension
    payload["counts"] = {str(d): n for d, n in sorted(cx.counts().items())}
    _emit(payload, args.output)
    return 0


def _cmd_weight(args) -> int:
    model = _load_model(args.model)
    form = _load_form(args.form)
    point = _point_from_arg(args.point)
    value = weight_at(model, form, point)
    _emit(
        {
            "stratum": value.stratum,
            "weight": format_rational(value.value),
            "lowerBoundOnly": value.lower_bound_only,
        },
        args.output,
    )
    return 0


def _cmd_ks(args) -> int:
    model = _load_model(args.model)
    form = _load_form(args.form)
    sub = ks_skeleton(model, form)
    weights = format_rational(global_weight(model, form))
    _emit(_subcomplex_payload(sub, weights), args.output)
    return 0


def _cmd_essential(args) -> int:
    model = _load_model(args.model)
    forms = [_load_form(path) for path in args.forms]
    sub = essential_skeleton(model, forms)
    weights = [format_rational(global_weight(model, form)) for form in forms]
    _emit(_subcomplex_payload(sub, weights), args.output)
    return 0


def _cmd_flow(args) -> int:
    bm = BasicModel(args.n1, args.n2)
    x = bm.rigid_point(parse_element(args.x1), parse_element(args.x2))
    s = parse_flow_time(args.s)
    f = parse_polynomial(args.f, arity=2)
    valuations = flow_valuations(bm, x, f)
    _emit(
        {
            "value": format_rational(min_term_value(valuations, s)),
            "terms": [
                {"i": i, "vK": format_rational(v)}
                for i, v in sorted(valuations.items())
            ],
        },
        args.output,
    )
    return 0


def _cmd_retract(args) -> int:
    bm = BasicModel(args.n1, args.n2)
    x = bm.rigid_point(parse_element(args.x1), parse_element(args.x2))
    data = retract_point(bm, x)
    point = monomial_to_barycentric(bm.model_description(), data)
    _emit(
        {
            "stratum": data.stratum,
            "alpha": {k: format_rational(v) for k, v in sorted(data.alpha.items())},
            "skeletonPoint": {
                "stratum": point.stratum,
                "barycentric": {
                    k: format_rational(v) for k, v in sorted(point.barycentric.items())
                },
            },
        },
        args.output,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Exact dual complexes, monomial valuations, weight functions and"
            " skeleta of one-parameter sncd degenerations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate model and form invariants")
    p.add_argument("model", help="model JSON file")
    p.add_argument("forms", nargs="*", help="form JSON files")
    p.add_argument(
        "--samples",
        type=int,
        default=500,
        help="sampled weight-bound audit points per form (0 disables)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampler seed")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("complex", help="emit the dual intersection complex")
    p.add_argument("model")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("weight", help="weight of a form at a skeleton point")
    p.add_argument("model")
    p.add_argument("form")
    p.add_argument(
        "point",
        help="inline JSON or a path to a JSON file with 'stratum' and"
        " 'barycentric'",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("ks", help="Kontsevich-Soibelman skeleton of one form")
    p.add_argument("model")
    p.add_argument("form")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ks)

    p = sub.add_parser(
        "essential",
        help="union of the skeleta of the supplied forms; a subcomplex of"
        " (possibly equal to) the full essential skeleton",
    )
    p.add_argument("model")
    p.add_argument("forms", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_essential)

    p = sub.add_parser("flow", help="flow value of a polynomial at a rigid point")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("x1", help="first coordinate, field syntax, e.g. 't/(1+t)'")
    p.add_argument("x2", help="second coordinate, field syntax")
    p.add_argument("s", help="flow time: nonnegative rational or 'inf'")
    p.add_argument("f", help="polynomial in T1, T2, e.g. 'T1+T2'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("retract", help="retraction of a rigid point to the skeleton")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("x1")
    p.add_argument("x2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_retract)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

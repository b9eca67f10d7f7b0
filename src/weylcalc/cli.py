"""Command-line front end.

Single JSON document on stdout per invocation; diagnostics on stderr.
Exit codes: 0 success, 1 usage or bad input, 2 hypothesis violation,
3 search budget exceeded, 4 internal assertion or failed verification.
A reader that closes stdout early ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import dims, verify
from .affweyl import (
    class_key,
    from_finite,
    from_parts,
    newton_point,
    omega_elements,
    simple_reflections,
    translation,
)
from .classes import (
    enumerate_straight_classes,
    length_ball,
    p_alcove_test,
    reduce_to_min,
    resolve_class,
    straight_class_of,
    ux_decompose,
)
from .dims import GammaDescriptor, virtual_dimension
from .errors import (
    ExplorationBudgetExceeded,
    GroupTooLarge,
    HypothesisViolated,
    Inconclusive,
    InfinitePi1,
    InternalAssertion,
    DecompositionNotFound,
    NonIntegralDimension,
    NonIntegralHalf,
    WeylcalcError,
)
from .finiteweyl import (
    delta_reduce_to_min,
    enumerate_w0,
    fw_from_word,
    is_elliptic_delta,
    supp_delta,
)
from .linalg import format_fraction, parse_fraction
from .rootdata import PRESETS, build_root_datum, load_config

CACHE_ENV = "WEYLCALC_CACHE_DIR"


class UsageError(WeylcalcError):
    pass


def _load_datum(spec):
    if spec is None:
        raise UsageError("--group is required")
    if spec in PRESETS:
        return build_root_datum(spec)
    if os.path.exists(spec):
        return build_root_datum(load_config(spec))
    return build_root_datum(spec)  # raises MalformedConfig with the preset list


def _parse_word(text):
    """1-based comma-separated finite generator indices; '' is the identity."""
    if text is None or text.strip() == "":
        return []
    try:
        word = [int(tok) - 1 for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad word {text!r}: {exc}") from exc
    if any(i < 0 for i in word):
        raise UsageError("word letters are 1-based simple indices")
    return word


def _ints(values, what):
    """A JSON list of integers; bools and floats are refused, never truncated."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise UsageError(f"{what} must be a list of integers, got {json.dumps(values)}")
    return values


def _rationals(values, what):
    """A list of rationals, each an integer or a 'p/q' string."""
    try:
        if isinstance(values, list):
            return [parse_fraction(x) for x in values]
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"{what} must be a list of integers or 'p/q' strings, got {json.dumps(values)}")


def _json(text, what, shape):
    """A JSON document of the given shape (dict or list)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"bad {what} {text[:80]!r}: {exc}") from exc
    if not isinstance(doc, shape):
        raise UsageError(f"bad {what} {text[:80]!r}: expected a JSON {shape.__name__}")
    return doc


def _parse_element(datum, text):
    doc = _json(text, "element", dict)
    lam = _ints(doc.get("lambda"), "lambda")
    word = [i - 1 for i in _ints(doc.get("word", []), "word")]
    if len(lam) != datum.rank:
        raise UsageError(f"lambda must have {datum.rank} coordinates")
    if any(i < 0 or i >= datum.n_simple for i in word):
        raise UsageError("word letters are 1-based finite simple indices")
    return from_parts(datum, lam, word)


def _parse_vector(datum, text, integral=False):
    parts = [tok for tok in text.split(",") if tok.strip() != ""]
    if len(parts) != datum.rank:
        raise UsageError(f"expected {datum.rank} comma-separated coordinates")
    vec = tuple(_rationals(parts, "coordinates"))
    if integral and any(x.denominator != 1 for x in vec):
        raise UsageError(f"expected integer coordinates, got {text!r}")
    return tuple(int(x) for x in vec) if integral else vec


def _parse_class(datum, doc):
    """A class from its parsed JSON document."""
    if not isinstance(doc, dict):
        raise UsageError(f'a class is {{"kappa": [...], "nu": [...]}}, got {json.dumps(doc)}')
    kappa = _ints(doc.get("kappa"), "kappa")
    nu = _rationals(doc.get("nu"), "nu")
    if len(kappa) != datum.rank or len(nu) != datum.rank:
        raise UsageError(f"kappa and nu must each have {datum.rank} coordinates")
    return resolve_class(datum, kappa, nu)


def _gamma(datum, cls, args):
    if (args.d is None) != (args.c is None) or (args.springer_dim is None and args.d is None):
        raise UsageError("supply --springer-dim, or both --d and --c")
    gd = GammaDescriptor(cls, springer_dim=args.springer_dim, d_gamma=args.d, c_gamma=args.c)
    try:
        gd.resolve_springer_dim(datum)
    except (ValueError, NonIntegralDimension) as exc:
        raise UsageError(str(exc)) from exc
    return gd


def _virtual_dim(w, cls):
    """The virtual dimension of (w, cls), or None when it is not an integer."""
    try:
        return virtual_dimension(w, cls)
    except NonIntegralHalf:
        return None


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _element_info(w):
    kappa, nu_bar = class_key(w)
    return {
        "element": w.to_json(),
        "length": w.length,
        "nu": [format_fraction(x) for x in newton_point(w)[0]],
        "nu_dominant": [format_fraction(x) for x in nu_bar],
        "kappa": list(kappa),
    }


def cmd_describe(args):
    datum = _load_datum(args.group)
    refl = simple_reflections(datum)
    doc = {
        "group": datum.name,
        "rank": datum.rank,
        "n_simple": datum.n_simple,
        "cartan": [list(r) for r in datum.cartan],
        "positive_roots": len(datum.pos_roots),
        "w0_order": len(enumerate_w0(datum)),
        "generators": [{"label": l, "element": s.to_json()} for l, s in refl],
        "pi1": {
            "order": datum.pi1_order(),
            "invariant_factors": list(datum.pi1_invariants()),
        },
        "datum_hash": datum.hash_hex,
    }
    try:
        doc["omega"] = [w.to_json() for w in omega_elements(datum)]
    except InfinitePi1:
        doc["omega"] = None
    _emit(doc)
    return 0


def cmd_finite(args):
    datum = _load_datum(args.group)
    if args.action == "enumerate":
        elems = enumerate_w0(datum)
        _emit(
            {
                "group": datum.name,
                "order": len(elems),
                "max_length": elems[-1].length,
                "elements": [[i + 1 for i in w.word] for w in elems],
            }
        )
        return 0
    w = fw_from_word(datum, _parse_word(args.word))
    if args.action == "reduce":
        w_min, path = delta_reduce_to_min(w)
        _emit(
            {
                "group": datum.name,
                "w": [i + 1 for i in w.word],
                "w_min": [i + 1 for i in w_min.word],
                "min_length": w_min.length,
                "path": [
                    {"s": i + 1, "before": [j + 1 for j in b.word], "after": [j + 1 for j in a.word]}
                    for i, b, a in path
                ],
            }
        )
        return 0
    if args.action == "supp":
        _emit(
            {
                "group": datum.name,
                "w": [i + 1 for i in w.word],
                "supp": sorted(i + 1 for i in set(w.word)),
                "supp_delta": sorted(i + 1 for i in supp_delta(w)),
                "elliptic": is_elliptic_delta(w),
            }
        )
        return 0
    raise UsageError(f"unknown finite action {args.action!r}")


def cmd_classes(args):
    datum = _load_datum(args.group)
    started = time.perf_counter()
    if args.action == "straight-classes":
        classes = enumerate_straight_classes(datum, args.max_length, args.budget)
        _emit(
            {
                "group": datum.name,
                "max_length": args.max_length,
                "classes": [c.to_json() for c in classes],
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        return 0
    if args.w is None:
        raise UsageError("--w is required for this action")
    w = _parse_element(datum, args.w)
    if args.action == "min":
        result = reduce_to_min(w, args.budget)
        _emit(
            {
                "group": datum.name,
                "w": _element_info(w),
                "result": result.to_json(),
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        return 0
    if args.action == "ux":
        result = reduce_to_min(w, args.budget)
        dec = ux_decompose(result.w_min, args.budget, check_minimal=False)
        _emit(
            {
                "group": datum.name,
                "w": _element_info(w),
                "w_min": result.w_min.to_json(),
                "ux": dec.to_json(),
                "straight_class": straight_class_of(w, args.budget).to_json(),
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        return 0
    if args.action == "p-alcove":
        nu = _parse_vector(datum, args.nu) if args.nu else newton_point(w)[0]
        _emit(
            {
                "group": datum.name,
                "w": w.to_json(),
                "nu": [format_fraction(x) for x in nu],
                "p_alcove": p_alcove_test(w, nu),
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        return 0
    raise UsageError(f"unknown classes action {args.action!r}")


def _with_cache(datum, args, fn):
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    loaded = 0
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        loaded = dims.load_cache(datum, cache_dir)
    result = fn()
    cache = dims._dim_cache(datum)
    stats = {"loaded": loaded, "hits": cache.hits, "misses": cache.misses}
    if cache_dir:
        # the answer is already out, and a memo never changes it, so a
        # failed save only warns, as a failed load does
        try:
            dims.save_cache(datum, cache_dir)
        except OSError as exc:
            print(f"weylcalc: could not save cache to {cache_dir}: {exc}", file=sys.stderr)
    return result, stats


def cmd_dim(args):
    datum = _load_datum(args.group)
    cls = _parse_class(datum, _json(args.cls, "class", dict))
    started = time.perf_counter()

    if args.kind in ("x-flag", "y-flag"):
        if args.w is None:
            raise UsageError("--w is required for flag queries")
        w = _parse_element(datum, args.w)
        if args.kind == "x-flag":
            value, stats = _with_cache(datum, args, lambda: dims.dim_X_flag(w, cls, args.budget))
        else:
            gd = _gamma(datum, cls, args)
            value, stats = _with_cache(datum, args, lambda: dims.dim_Y_flag(w, gd, args.budget))
        result = reduce_to_min(w, args.budget)
        dec = ux_decompose(result.w_min, args.budget, check_minimal=False)
        doc = value.to_json()
        doc.update(
            {
                "query": {"kind": args.kind, "group": datum.name, "w": _element_info(w), "class": cls.to_json()},
                "virtual_dim": _virtual_dim(w, cls),
                "witnesses": {
                    "w_min": result.w_min.to_json(),
                    "path_length": len(result.path),
                    "ux": dec.to_json(),
                },
                "cache": stats,
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        _emit(doc)
        return 0

    if args.kind in ("x-gr", "y-gr"):
        if args.mu is None:
            raise UsageError("--mu is required for Grassmannian queries")
        mu = _parse_vector(datum, args.mu, integral=True)
        if args.kind == "x-gr":
            value = dims.dim_X_grass(datum, mu, cls)
        else:
            value = dims.dim_Y_grass(datum, mu, _gamma(datum, cls, args))
        doc = value.to_json()
        doc.update(
            {
                "query": {"kind": args.kind, "group": datum.name, "mu": list(mu), "class": cls.to_json()},
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        _emit(doc)
        return 0

    if args.kind == "y-super":
        if args.mu is None:
            raise UsageError("--mu is required for y-super")
        mu = _parse_vector(datum, args.mu, integral=True)
        x = fw_from_word(datum, _parse_word(args.x_word))
        y = fw_from_word(datum, _parse_word(args.y_word))
        gd = _gamma(datum, cls, args)
        value, stats = _with_cache(
            datum, args, lambda: dims.dim_Y_superregular(x, mu, y, gd, args.budget)
        )
        w = from_finite(x) * translation(datum, mu) * from_finite(y)
        doc = value.to_json()
        doc.update(
            {
                "query": {
                    "kind": "y-super",
                    "group": datum.name,
                    "x": [i + 1 for i in x.word],
                    "mu": list(mu),
                    "y": [i + 1 for i in y.word],
                    "class": cls.to_json(),
                },
                "w": w.to_json(),
                "virtual_dim": _virtual_dim(w, cls),
                "cache": stats,
                "timing_ms": round(1000 * (time.perf_counter() - started), 3),
            }
        )
        _emit(doc)
        return 0

    raise UsageError(f"unknown dim kind {args.kind!r}")


def emit_table(datum, max_length, classes, fmt="json", out=None, budget=None):
    """Tabulate (w, class) -> (nonempty, dim, virtual dim) over the length
    ball.  Deterministic row order; output carries no timing so repeated
    runs are byte-identical."""
    columns = []  # per class: the class, its profile id, kappa and nu as printed
    for cls in classes:
        columns.append(
            (cls, dims._validate_class(datum, cls)[0], list(cls.kappa),
             [format_fraction(x) for x in cls.nu_bar])
        )
    rows = []
    for w in length_ball(datum, max_length, budget):
        profile = dims.dim_profile(w, budget)
        lam, word = list(w.lam), [i + 1 for i in w.fw.word]
        for cls, cid, kappa, nu in columns:
            dim = profile.get(cid)
            rows.append(
                {
                    "lambda": lam,
                    "word": word,
                    "length": w.length,
                    "kappa": kappa,
                    "nu": nu,
                    "nonempty": dim is not None,
                    "dim": dim,
                    "virtual_dim": _virtual_dim(w, cls),
                }
            )
    if fmt == "json":
        text = json.dumps(
            {"group": datum.name, "max_length": max_length, "rows": rows},
            indent=2,
            sort_keys=True,
        ) + "\n"
    elif fmt == "csv":
        lines = ["lambda;word;length;kappa;nu;nonempty;dim;virtual_dim"]
        for r in rows:
            lines.append(
                ";".join(
                    [
                        "|".join(str(x) for x in r["lambda"]),
                        "|".join(str(x) for x in r["word"]),
                        str(r["length"]),
                        "|".join(str(x) for x in r["kappa"]),
                        "|".join(r["nu"]),
                        "true" if r["nonempty"] else "false",
                        "" if r["dim"] is None else str(r["dim"]),
                        "" if r["virtual_dim"] is None else str(r["virtual_dim"]),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown table format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_table(args):
    datum = _load_datum(args.group)
    if args.classes:
        classes = [_parse_class(datum, doc) for doc in _json(args.classes, "--classes", list)]
    else:
        classes = list(enumerate_straight_classes(datum, args.class_length, args.budget))
    _with_cache(
        datum,
        args,
        lambda: emit_table(
            datum, args.max_length, classes, fmt=args.format, out=args.out, budget=args.budget
        ),
    )
    return 0


def cmd_verify(args):
    datum = _load_datum(args.group)
    if args.suite == "all":
        names = list(verify.SUITES)
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: all, {', '.join(sorted(verify.SUITES))}"
        )
    reports = []
    for name in names:
        fn = verify.SUITES[name]
        kwargs = {}
        if name == "oracle" and args.radius is not None:
            kwargs["radius"] = args.radius
        if name in ("min", "p-alcove", "dim-bound", "master") and args.max_length is not None:
            kwargs["max_len"] = args.max_length
        reports.append(fn(datum, **kwargs))
    passed = all(r["passed"] for r in reports)
    _emit({"group": datum.name, "passed": passed, "suites": reports})
    return 0 if passed else 4


def main(argv=None):
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`weylcalc ... | head`): nothing more
        # can be shown, so stop quietly.  stdout now points at devnull, so the
        # interpreter's final flush raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


def _main(argv):
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Exact affine Weyl group combinatorics and cell-dimension calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", help="preset name or path to a JSON root-datum config")
        p.add_argument("--budget", type=int, default=None, help="node budget for closures")
        p.add_argument("--cache-dir", default=None, help=f"memo cache dir (or ${CACHE_ENV})")

    p = sub.add_parser("describe", help="summary of a group preset or config")
    add_common(p)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("finite", help="finite Weyl group operations")
    p.add_argument("action", choices=["enumerate", "reduce", "supp"])
    p.add_argument("--word", default="", help="1-based comma-separated simple indices")
    add_common(p)
    p.set_defaults(fn=cmd_finite)

    p = sub.add_parser("classes", help="conjugacy-class operations")
    p.add_argument("action", choices=["min", "straight-classes", "ux", "p-alcove"])
    p.add_argument("--w", help='element as {"lambda": [...], "word": [...]}')
    p.add_argument("--nu", help="rational coweight, comma-separated")
    p.add_argument("--max-length", type=int, default=2)
    add_common(p)
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("dim", help="dimension/nonemptiness queries")
    p.add_argument("kind", choices=["x-flag", "x-gr", "y-flag", "y-gr", "y-super"])
    p.add_argument("--w", help='element as {"lambda": [...], "word": [...]}')
    p.add_argument("--mu", help="dominant coweight, comma-separated integers")
    p.add_argument("--x-word", default="", help="finite part x for y-super")
    p.add_argument("--y-word", default="", help="finite part y for y-super")
    p.add_argument("--class", dest="cls", required=True, help='{"kappa": [...], "nu": [...]}')
    p.add_argument("--springer-dim", type=int, default=None)
    p.add_argument("--d", type=int, default=None, help="discriminant valuation")
    p.add_argument("--c", type=int, default=None, help="rank drop")
    add_common(p)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("table", help="tabulate dimensions over a length ball")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--class-length", type=int, default=2, help="census length bound for classes")
    p.add_argument("--classes", help="explicit JSON list of class descriptors")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="output path (default stdout)")
    add_common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--max-length", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except (ExplorationBudgetExceeded, GroupTooLarge) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (InternalAssertion, DecompositionNotFound, NonIntegralDimension) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except WeylcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # a closed stdout is main's to handle
    except OSError as exc:
        # an unusable --cache-dir, --out or config path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every command has one shape: parse its inputs, build one JSON document,
emit it on stdout through `_emit` (`table` writes its rows through
`emit_table`).  Each input kind is checked by one parser, and each
subcommand takes only the flags it reads.  Diagnostics go to stderr, one
line, with the prefix and exit code of the first `_EXITS` row the error
matches: 0 success, 1 usage or bad input, 2 hypothesis violation, 3 search
budget exceeded or out of memory (a MemoryError, caught here only, whose
line names the command), 4 internal assertion or failed verification.  A
reader that closes stdout early ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import dims, verify
from .affweyl import (
    AffineWeylElt,
    from_parts,
    kappa_w,
    newton_point,
    omega_elements,
    simple_reflections,
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
from .dims import GammaDescriptor
from .errors import (
    DecompositionFailure,
    ExplorationBudgetExceeded,
    GroupTooLarge,
    HypothesisViolated,
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
    w0_order,
)
from .linalg import format_fraction, parse_fraction
from .rootdata import PRESETS, build_root_datum, load_config

CACHE_ENV = "WEYLCALC_CACHE_DIR"


class UsageError(WeylcalcError):
    pass


class _Parser(argparse.ArgumentParser):
    """Its errors, and its subparsers', raise UsageError: one stderr line."""

    def error(self, message):
        raise UsageError(message)


# (exception types, stderr prefix, exit code); the first row that matches wins.
_EXITS = (
    (UsageError, "usage error", 1),
    (HypothesisViolated, "hypothesis violated", 2),
    ((ExplorationBudgetExceeded, GroupTooLarge), "budget exceeded", 3),
    ((InternalAssertion, DecompositionFailure, DecompositionNotFound, NonIntegralDimension),
     "internal assertion failed", 4),
    (MemoryError, "out of memory", 3),
    (WeylcalcError, "error", 1),
    (OSError, "error", 1),  # an unusable --cache-dir, --out or config path
)


def _load_datum(spec):
    if spec is None:
        raise UsageError("--group is required")
    if spec in PRESETS:
        return build_root_datum(spec)
    if os.path.exists(spec):
        return build_root_datum(load_config(spec))
    return build_root_datum(spec)  # raises MalformedConfig with the preset list


def _word(datum, letters):
    """0-based indices of 1-based finite simple letters, each range-checked."""
    if any(i < 1 or i > datum.n_simple for i in letters):
        raise UsageError("word letters are 1-based finite simple indices")
    return [i - 1 for i in letters]


def _parse_word(datum, text):
    """1-based comma-separated finite simple indices; '' is the identity."""
    if text.strip() == "":
        return []
    try:
        letters = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad word {text!r}: {exc}") from exc
    return _word(datum, letters)


def _letters(u):
    """The 1-based canonical word of a finite element."""
    return [i + 1 for i in u.word]


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


def _parse_element(datum, text, needed="this action"):
    if text is None:
        raise UsageError(f"--w is required for {needed}")
    doc = _json(text, "element", dict)
    lam = _ints(doc.get("lambda"), "lambda")
    letters = _ints(doc.get("word", []), "word")
    if len(lam) != datum.rank:
        raise UsageError(f"lambda must have {datum.rank} coordinates")
    return from_parts(datum, lam, _word(datum, letters))


def _parse_vector(datum, text, integral=False):
    parts = text.split(",")
    if any(tok.strip() == "" for tok in parts):
        raise UsageError(f"empty coordinate in {text!r}")
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
        return dims.virtual_dimension(w, cls)
    except NonIntegralHalf:
        return None


def _emit(doc, started=None):
    """Write the command's one document; `timing_ms` when `started` is given."""
    if started is not None:
        doc["timing_ms"] = round(1000 * (time.perf_counter() - started), 3)
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _element_info(w):
    nu, nu_bar = newton_point(w)
    return {
        "element": w.to_json(),
        "length": w.length,
        "nu": [format_fraction(x) for x in nu],
        "nu_dominant": [format_fraction(x) for x in nu_bar],
        "kappa": list(kappa_w(w)),
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
        "w0_order": w0_order(datum),
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
    return _emit(doc)


def cmd_finite(args):
    datum = _load_datum(args.group)
    doc = {"group": datum.name}
    if args.action == "enumerate":
        elems = enumerate_w0(datum)
        doc.update(
            order=len(elems), max_length=elems[-1].length, elements=[_letters(w) for w in elems]
        )
        return _emit(doc)
    w = fw_from_word(datum, _parse_word(datum, args.word))
    doc["w"] = _letters(w)
    if args.action == "reduce":
        w_min, path = delta_reduce_to_min(w)
        doc.update(
            w_min=_letters(w_min),
            min_length=w_min.length,
            path=[{"s": i + 1, "before": _letters(b), "after": _letters(a)} for i, b, a in path],
        )
    else:
        doc.update(
            supp=sorted(i + 1 for i in set(w.word)),
            supp_delta=sorted(i + 1 for i in supp_delta(w)),
            elliptic=is_elliptic_delta(w),
        )
    return _emit(doc)


def cmd_classes(args):
    datum = _load_datum(args.group)
    started = time.perf_counter()
    doc = {"group": datum.name}
    if args.action == "straight-classes":
        classes = enumerate_straight_classes(datum, args.max_length, args.budget)
        doc.update(max_length=args.max_length, classes=[c.to_json() for c in classes])
        return _emit(doc, started)
    w = _parse_element(datum, args.w)
    if args.action == "p-alcove":
        nu = _parse_vector(datum, args.nu) if args.nu else newton_point(w)[0]
        doc.update(w=w.to_json(), nu=[format_fraction(x) for x in nu], p_alcove=p_alcove_test(w, nu))
        return _emit(doc, started)
    result = reduce_to_min(w, args.budget)
    doc["w"] = _element_info(w)
    if args.action == "min":
        doc["result"] = result.to_json()
    else:
        doc.update(
            w_min=result.w_min.to_json(),
            ux=ux_decompose(result.w_min, args.budget, check_minimal=False).to_json(),
            straight_class=straight_class_of(w, args.budget).to_json(),
        )
    return _emit(doc, started)


def _with_cache(datum, args, fn):
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    loaded = 0
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        loaded = dims.load_cache(datum, cache_dir)
    result = fn()
    cache = dims._dim_cache(datum)
    stats = {"loaded": loaded, "hits": cache.hits, "misses": cache.misses}
    # a run that added no entry to what it loaded would write the same bytes
    if cache_dir and not (loaded and len(cache.table) == loaded):
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
    query = {"kind": args.kind, "group": datum.name, "class": cls.to_json()}
    extra = {}
    if args.kind in ("x-flag", "y-flag"):
        w = _parse_element(datum, args.w, "flag queries")
        query["w"] = _element_info(w)
        if args.kind == "x-flag":
            value, extra["cache"] = _with_cache(datum, args, lambda: dims.dim_X_flag(w, cls, args.budget))
        else:
            gd = _gamma(datum, cls, args)
            value, extra["cache"] = _with_cache(datum, args, lambda: dims.dim_Y_flag(w, gd, args.budget))
        result = reduce_to_min(w, args.budget)
        extra["virtual_dim"] = _virtual_dim(w, cls)
        extra["witnesses"] = {
            "w_min": result.w_min.to_json(),
            "path_length": len(result.path),
            "ux": ux_decompose(result.w_min, args.budget, check_minimal=False).to_json(),
        }
    else:
        if args.mu is None:
            needed = "y-super" if args.kind == "y-super" else "Grassmannian queries"
            raise UsageError(f"--mu is required for {needed}")
        mu = _parse_vector(datum, args.mu, integral=True)
        query["mu"] = list(mu)
        if args.kind == "x-gr":
            value = dims.dim_X_grass(datum, mu, cls)
        elif args.kind == "y-gr":
            value = dims.dim_Y_grass(datum, mu, _gamma(datum, cls, args))
        else:
            x = fw_from_word(datum, _parse_word(datum, args.x_word))
            y = fw_from_word(datum, _parse_word(datum, args.y_word))
            query.update(x=_letters(x), y=_letters(y))
            gd = _gamma(datum, cls, args)
            value, extra["cache"] = _with_cache(
                datum, args, lambda: dims.dim_Y_superregular(x, mu, y, gd, args.budget)
            )
            w = AffineWeylElt(datum, x.act(mu), x * y)
            extra.update(w=w.to_json(), virtual_dim=_virtual_dim(w, cls))
    doc = value.to_json()
    doc.update(extra, query=query)
    return _emit(doc, started)


def emit_table(datum, max_length, classes, fmt="json", out=None, budget=None):
    """Tabulate (w, class) -> (nonempty, dim, virtual dim) over the length
    ball.  Deterministic row order; output carries no timing so repeated
    runs are byte-identical.  Each class's part (profile id, def + l,
    printed kappa and nu) and each element's (profile, l(w) + l(eta(w)),
    printed lambda, word and length) is computed once; a row takes only
    their difference, halved when even."""
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown table format {fmt!r}")
    show = (lambda values: "|".join(map(str, values))) if fmt == "csv" else list
    columns = [
        (dims._validate_class(datum, cls), cls.defect + cls.length, show(cls.kappa),
         show([format_fraction(x) for x in cls.nu_bar]))
        for cls in classes
    ]
    rows = []
    for w in length_ball(datum, max_length, budget):
        profile, part = dims.dim_profile(w, budget), dims.element_part(w)
        lam, word, length = show(w.lam), show(_letters(w.fw)), w.length
        for cid, cpart, kappa, nu in columns:
            dim, num = profile.get(cid), part - cpart
            vd = None if num % 2 else num // 2
            if fmt == "csv":
                dim = "false;" if dim is None else f"true;{dim}"
                rows.append(f"{lam};{word};{length};{kappa};{nu};{dim};{'' if vd is None else vd}\n")
            else:
                rows.append({"lambda": lam, "word": word, "length": length, "kappa": kappa, "nu": nu,
                             "nonempty": dim is not None, "dim": dim, "virtual_dim": vd})
    if fmt == "csv":
        text = "lambda;word;length;kappa;nu;nonempty;dim;virtual_dim\n" + "".join(rows)
    else:
        doc = {"group": datum.name, "max_length": max_length, "rows": rows}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
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
    _with_cache(datum, args, lambda: emit_table(
        datum, args.max_length, classes, fmt=args.format, out=args.out, budget=args.budget))
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
        kwargs = {}
        if args.radius is not None and name in ("oracle", "straightness", "min"):
            kwargs["radius"] = args.radius
        if args.max_length is not None and name in (
                "min", "census", "straight-cyclic", "p-alcove", "dim-bound", "master"):
            kwargs["max_len"] = args.max_length
        reports.append(verify.SUITES[name](datum, **kwargs))
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


def _parser():
    parser = _Parser(
        prog="weylcalc",
        description="Exact affine Weyl group combinatorics and cell-dimension calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, budget=False, cache_dir=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--group", help="preset name or path to a JSON root-datum config")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="node budget for closures")
        if cache_dir:
            p.add_argument("--cache-dir", default=None, help=f"memo cache dir (or ${CACHE_ENV})")
        p.set_defaults(fn=fn)
        return p

    command("describe", cmd_describe, "summary of a group preset or config")

    p = command("finite", cmd_finite, "finite Weyl group operations")
    p.add_argument("action", choices=["enumerate", "reduce", "supp"])
    p.add_argument("--word", default="", help="1-based comma-separated simple indices")

    p = command("classes", cmd_classes, "conjugacy-class operations", budget=True)
    p.add_argument("action", choices=["min", "straight-classes", "ux", "p-alcove"])
    p.add_argument("--w", help='element as {"lambda": [...], "word": [...]}')
    p.add_argument("--nu", help="rational coweight, comma-separated")
    p.add_argument("--max-length", type=int, default=2)

    p = command("dim", cmd_dim, "dimension/nonemptiness queries", budget=True, cache_dir=True)
    p.add_argument("kind", choices=["x-flag", "x-gr", "y-flag", "y-gr", "y-super"])
    p.add_argument("--w", help='element as {"lambda": [...], "word": [...]}')
    p.add_argument("--mu", help="dominant coweight, comma-separated integers")
    p.add_argument("--x-word", default="", help="finite part x for y-super")
    p.add_argument("--y-word", default="", help="finite part y for y-super")
    p.add_argument("--class", dest="cls", required=True, help='{"kappa": [...], "nu": [...]}')
    p.add_argument("--springer-dim", type=int, default=None)
    p.add_argument("--d", type=int, default=None, help="discriminant valuation")
    p.add_argument("--c", type=int, default=None, help="rank drop")

    p = command("table", cmd_table, "tabulate dimensions over a length ball", budget=True, cache_dir=True)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--class-length", type=int, default=2, help="census length bound for classes")
    p.add_argument("--classes", help="explicit JSON list of class descriptors")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="output path (default stdout)")

    p = command("verify", cmd_verify, "run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--max-length", type=int, default=None)
    return parser


def _main(argv):
    args = None
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit:  # only -h exits: a bad command line raises UsageError
            return 0
        # a negative length bound, radius or budget has no meaning; a ball
        # would keep its seeds, and a search would name a budget of -1
        for flag in ("max_length", "class_length", "radius", "budget"):
            if (getattr(args, flag, None) or 0) < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be nonnegative")
        return args.fn(args)
    except BrokenPipeError:
        raise  # a closed stdout is main's to handle
    except (WeylcalcError, OSError, MemoryError) as exc:
        prefix, code = next((p, c) for types, p, c in _EXITS if isinstance(exc, types))
        detail = f"weylcalc {args.command}" if isinstance(exc, MemoryError) and args else exc
        print(f"{prefix}: {detail}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

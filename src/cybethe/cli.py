"""Command-line front end.

Subcommands: fold, validate, verify, generate, populate, typea analyze,
typea flow, eigenvalues, lambda0, check-numeric.  Inputs are JSON
documents (instances, tuples); outputs are JSON on stdout or --out.  Exit
codes: 0 all requested checks pass, 1 a check failed, 2 input error,
3 internal invariant violation.
"""

import argparse
import json
import math
import sys

from . import serialize
from .cartan import canonical_lambda0, orbit_data
from .errors import (CybetheError, InputError, InternalInvariantError,
                     NotGeneric, NotSelfDual)

# Each command imports the modules it runs beyond `serialize` and `cartan`
# once its inputs are read, so that a request compiles and loads only
# those, and a request refused for its input skips them.  Scalar options
# are read right after the instance, whose field they need, and before the
# tuple, whose reading loads `qpoly` and `frame`.


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _instance(args):
    return serialize.instance_from_doc(_load_json(args.instance))


def _tuple(args, inst):
    y = serialize.tuple_from_doc(_load_json(args.tuple), inst.M)
    if len(y.polys) != inst.cartan.n:
        raise InputError(f"the tuple has {len(y.polys)} components, but "
                         f"the instance has rank {inst.cartan.n}")
    return y


def _parse_samples(text, order):
    return [serialize.parse_scalar(chunk, order)
            for chunk in text.split(",") if chunk.strip()]


def cmd_fold(args):
    doc = args.cartan
    if doc.startswith("{"):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputError(f"--cartan is not a JSON document: {exc}")
    cartan = serialize.cartan_from_doc(doc)
    aut = serialize.perm_from_doc(args.sigma, cartan.n)
    fold = orbit_data(cartan, aut)
    doc = {
        "reps": [r + 1 for r in fold.reps],
        "orbit_len": list(fold.orbit_len),
        "linking": list(fold.linking),
        "a_fold": [list(row) for row in fold.a_fold.a],
        "d_fold": list(fold.a_fold.d),
        "orbits": [[i + 1 for i in orbit] for orbit in fold.orbits],
    }
    _emit(doc, args.out)
    return 0


def cmd_validate(args):
    inst = _instance(args)
    from .frame import validate_lambda0
    fold = orbit_data(inst.cartan, inst.aut)
    ok, violations = validate_lambda0(inst, fold, typea_p=args.p)
    _emit({"ok": ok, "violations": violations}, args.out)
    return 0 if ok else 1


def cmd_verify(args):
    inst = _instance(args)
    y = _tuple(args, inst)
    from .frame import (is_critical_exact, is_cyclotomic_tuple,
                        weight_at_infinity)
    try:
        report = {"generic": True, "witness": None,
                  "critical": is_critical_exact(inst, y)[0]}
    except NotGeneric as exc:
        report = {"generic": False, "witness": str(exc), "critical": False}
    report["cyclotomic"] = is_cyclotomic_tuple(inst, y)
    report["lambda_infinity"] = serialize.weight_doc(
        weight_at_infinity(inst, y))
    _emit(report, args.out)
    return 0 if (report["generic"] and report["critical"]
                 and report["cyclotomic"]) else 1


def cmd_generate(args):
    inst = _instance(args)
    c = serialize.parse_scalar(args.c, inst.M)
    y = _tuple(args, inst)
    fold = orbit_data(inst.cartan, inst.aut)
    from .frame import weight_at_infinity
    from .genengine import cyclotomic_generate
    out, step = cyclotomic_generate(inst, fold, y, args.direction - 1, c)
    doc = {
        "tuple": serialize.tuple_doc(out, inst.M),
        "direction": args.direction,
        "kind": step.kind,
        "lambda_infinity": serialize.weight_doc(weight_at_infinity(inst, out)),
    }
    serialize.put(doc, "c", step.c, inst.M)
    serialize.put(doc, "intermediates", dict(step.intermediates), inst.M)
    _emit(doc, args.out)
    return 0


def cmd_populate(args):
    inst = _instance(args)
    samples = _parse_samples(args.samples, inst.M)
    seed = _tuple(args, inst)
    fold = orbit_data(inst.cartan, inst.aut)
    from .genengine import explore_population
    graph = explore_population(inst, fold, seed, args.depth, samples)
    _emit(serialize.catalog_doc(graph), args.out)
    return 0


def cmd_typea_analyze(args):
    if args.members < 0:
        raise InputError(f"--members must be >= 0, got {args.members}")
    inst = _instance(args)
    y = _tuple(args, inst)
    from .typea import (beta, cyclotomic_population, flag_type,
                        frame_conditions_check, gram_matrix, isotropy_check,
                        kernel_basis, witt_basis)
    space, flag = kernel_basis(inst, y)
    report = frame_conditions_check(space)
    # self-duality and the B matrix of the special basis: one Gram matrix
    try:
        g = gram_matrix(space)
    except NotSelfDual:
        g = None
    self_dual = g is not None
    doc = serialize.space_doc(space, inst.M)
    doc["frame_report"] = report
    doc["self_dual"] = self_dual
    doc["flag_type"] = sorted(flag_type(space, flag.adjusted))
    serialize.put(doc, "beta_roundtrip", beta(space, flag.adjusted), inst.M)
    if self_dual:
        wb = witt_basis(space, adjusted=flag.adjusted,
                        quadratic_extension=args.quadratic_extension)
        serialize.put(doc, "witt", {"vectors": wb.vectors, "gram": wb.gram,
                                    "constants": wb.constants}, inst.M)
        doc["flag_isotropic"] = isotropy_check(wb.gram)
        serialize.put(doc, "b_matrix_special_basis", g, inst.M)
    if args.members:
        # members come from the Witt basis without quadratic extension;
        # a space that is not self-dual has none
        if not self_dual:
            raise NotSelfDual("kernel space of the seed is not self-dual")
        if args.quadratic_extension:
            wb = witt_basis(space, adjusted=flag.adjusted)
        pop = cyclotomic_population(inst, space, wb,
                                    sample_count=args.members,
                                    rng_seed=args.seed)
        doc["population"] = {**pop, "members": [
            serialize.tuple_doc(m, inst.M) for m in pop["members"]]}
    _emit(doc, args.out)
    return 0 if (report["ok"] and self_dual) else 1


def cmd_typea_flow(args):
    inst = _instance(args)
    params = _parse_samples(args.c, inst.M)
    if not params:  # every generator sweeps the list
        raise InputError("flow needs at least one sample parameter")
    y = _tuple(args, inst)
    fold = orbit_data(inst.cartan, inst.aut)
    from .typea import (apply_flow, determine_p, flow_vs_generation,
                        kernel_basis, require_generator, require_type_a,
                        witt_basis)
    if args.generator == "X":
        res = flow_vs_generation(inst, fold, y, args.k, params)
        doc = {"generator": f"X_{args.k}", "all_match": res["all_match"],
               "matches": res["matches"]}
        serialize.put(doc, "rho", res["rho"], inst.M)
        _emit(doc, args.out)
        return 0 if res["all_match"] else 1
    # Y/Z generators have no generation counterpart; apply and report
    require_generator(require_type_a(inst), determine_p(inst),
                      args.generator, args.k)
    space, flag = kernel_basis(inst, y)
    wb = witt_basis(space, adjusted=flag.adjusted)
    tuples = []
    for c in params:
        _, tup = apply_flow(space, wb, (args.generator, args.k), c)
        tuples.append({"c": c, "tuple": [q.monic() for q in tup]})
    doc = {"generator": f"{args.generator}_{args.k}"}
    serialize.put(doc, "tuples", tuples, inst.M)
    _emit(doc, args.out)
    return 0


def cmd_eigenvalues(args):
    inst = _instance(args)
    y = _tuple(args, inst)
    from .frame import eigenvalues
    res = eigenvalues(inst, y)
    doc = {key: res[key] for key in ("match", "origin_zero", "not_critical")}
    for key in ("cyclotomic", "extended"):
        serialize.put(doc, key, res[key], inst.M)
    _emit(doc, args.out)
    return 0 if res["match"] and not res["not_critical"] else 1


def cmd_lambda0(args):
    weight = canonical_lambda0(args.rank, args.M)
    _emit({"lambda0": serialize.weight_doc(weight)}, args.out)
    return 0


def cmd_check_numeric(args):
    overrides = {}
    for option, field in (("h", "fd_step"), ("tol", "root_residual")):
        value = getattr(args, option)
        if value is not None:
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"--{option} must be a positive finite "
                                 f"number, got {value}")
            overrides[field] = value
    inst = _instance(args)
    y = _tuple(args, inst)
    from .numerics import FD_TOL, Tolerances, embed, grad_check, residuals
    tol = Tolerances(**overrides)
    point = embed(y, tol)
    try:
        per_root = residuals(inst, point) if point.roots else []
        grad = grad_check(inst, point, tol=tol)
    except OverflowError:
        raise InputError("a point or weight of the instance is too large "
                         "for a float") from None
    norm = max((abs(r) for r in per_root), default=0.0)
    doc = {
        "max_residual": norm,
        "per_root": [{"root": [z.real, z.imag], "colour": c + 1,
                      "residual": abs(r)}
                     for z, c, r in zip(point.roots, point.colours,
                                        per_root)],
        "gradient_mismatch": grad["max_mismatch"],
        "max_gradient": grad["max_gradient"],
    }
    _emit(doc, args.out)
    ok = norm < tol.root_residual and grad["max_mismatch"] < FD_TOL
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors become InputError, so they also get a JSON record."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="cybethe",
        description="Exact cyclotomic Bethe critical points: folding, "
                    "generation, population catalogs, type-A flag theory, "
                    "and numeric cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fold", help="fold Cartan data along an automorphism")
    p.add_argument("--cartan", required=True,
                   help='series tag like "A4" or inline JSON matrix doc')
    p.add_argument("--sigma", required=True,
                   help='cycles "(1 4)(2 3)" or JSON 1-based image array')
    p.add_argument("--out")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("validate", help="check the weight at the origin")
    p.add_argument("--instance", required=True)
    p.add_argument("--p", type=int, default=None,
                   help="also check the type-A conditions for this p")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify",
                       help="genericity / cyclotomy / criticality report")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="one cyclotomic generation step")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--direction", type=int, required=True,
                   help="orbit representative, 1-based")
    p.add_argument("--c", required=True, help="parameter (exact scalar)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("populate", help="bounded BFS population catalog")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--samples", default="1/3,1,-1/2,2",
                   help="comma-separated exact parameters")
    p.add_argument("--out")
    p.set_defaults(func=cmd_populate)

    p_typea = sub.add_parser("typea", help="type-A flag theory")
    sub_a = p_typea.add_subparsers(dest="typea_command", required=True)

    p = sub_a.add_parser("analyze",
                         help="kernel space, frame checks, B matrix, Witt")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--quadratic-extension", action="store_true")
    p.add_argument("--members", type=int, default=0,
                   help="also emit this many sampled population members")
    p.add_argument("--seed", type=int, default=0,
                   help="sampler seed for --members")
    p.add_argument("--out")
    p.set_defaults(func=cmd_typea_analyze)

    p = sub_a.add_parser("flow",
                         help="apply a flag flow; X flows are cross-checked "
                              "against cyclotomic generation")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--generator", choices=("X", "Y", "Z"), default="X")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--c", default="1,2,1/2,-1,3",
                   help="comma-separated parameters")
    p.add_argument("--out")
    p.set_defaults(func=cmd_typea_flow)

    p = sub.add_parser("eigenvalues", help="exact Gaudin eigenvalue tables")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("lambda0",
                       help="canonical type-A weight at the origin")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lambda0)

    p = sub.add_parser("check-numeric",
                       help="embed roots, residual and gradient report")
    p.add_argument("--instance", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--h", type=float, default=None,
                   help="finite-difference step (finite, > 0)")
    p.add_argument("--tol", type=float, default=None,
                   help="override residual tolerance (finite, > 0)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_numeric)

    return parser


# options whose value is an exact scalar or a comma-separated list of them
_SCALAR_OPTIONS = ("--c", "--samples")


def _join_scalar_values(argv):
    """`--c -1/2` -> `--c=-1/2`: argparse takes a separate value that
    starts with "-" and is not a plain number for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _SCALAR_OPTIONS and arg[:1] == "-" \
                and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    try:
        args = build_parser().parse_args(_join_scalar_values(
            sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except CybetheError as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc),
                         **exc.payload}}, None)
        return 3 if isinstance(exc, InternalInvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())

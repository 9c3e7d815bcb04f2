"""Command-line interface.

Subcommands: norm, reduce, thresholds, verify, transform.  All
floating-point output is printed with 12 significant digits.  Exit
codes: 0 on success, 1 when `verify` finds a failed criterion, 2 on a
user error (a DwlabError, malformed JSON or number, a missing config
key, an unreadable file), reported as one `dwlab: error: ...` line on
stderr, and 141 (128 + SIGPIPE, as for a process the signal ends) when
the reader of stdout closes it early, e.g. `dwlab reduce ... | head`.
The config JSON schemas are documented in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dyadic import CubeId, DwlabError, Truncation, enumerate_cubes
from .growth import make_growth
from .weights import (
    QuadratureSpec,
    WeightError,
    constant_weight,
    diag_power_weight,
    identity_weight,
    power_weight,
)
from .reducing import build_family
from .seqspace import CoeffSeq, SeqSpaceError, SpaceParams, seq_norm
from .adops import ad_thresholds, molecule_thresholds
from .transforms import GridFunction, build_lp_window, dwt_analyze, phi_analyze
from .harness import EXPERIMENTS, emit_report, run_all, run_experiment
from .harness.report import _sig12


def _fmt(x):
    return f"{float(x):.12g}"


def _json_int(text):
    """A JSON integer; one beyond the float range is a DwlabError."""
    if abs(int(text)) <= sys.float_info.max:
        return int(text)
    raise DwlabError(f"integer {text[:8]}... of {len(text)} digits is "
                     "beyond the float range")


def _integer(x, name):
    """x if it is a JSON integer (not true or false), else a DwlabError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DwlabError(f"{name} must be an integer, got {x!r}")
    return x


def _load_json(arg):
    """Accept inline JSON or a path to a JSON file."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s, parse_int=_json_int)
    try:
        with open(arg) as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise DwlabError(f"cannot read {arg}: {exc}") from exc


def _parse_weight(spec):
    """Weight presets: 'identity[:m]', 'power:alpha', 'diag_power:a:b',
    'constant:d1,d2,...' or the equivalent JSON object."""
    if not isinstance(spec, dict):
        kind, *args = str(spec).split(":")
        names = {"identity": ("m",), "power": ("alpha",), "constant": ("diag",),
                 "diag_power": ("alpha", "beta")}.get(kind, ())
        spec = dict(zip(("preset",) + names, [kind] + args))
        if "diag" in spec:
            spec["diag"] = spec["diag"].split(",")
        if "m" in spec:
            spec["m"] = int(spec["m"])
    kind = spec["preset"]
    if kind == "identity":
        return identity_weight(_integer(spec.get("m", 1), "m"))
    if kind == "power":
        return power_weight(float(spec["alpha"]),
                            _integer(spec.get("n", 1), "n"))
    if kind == "diag_power":
        return diag_power_weight(float(spec["alpha"]), float(spec["beta"]),
                                 _integer(spec.get("n", 1), "n"))
    if kind == "constant":
        return constant_weight(np.diag([float(d) for d in spec["diag"]]))
    raise WeightError(f"unknown weight preset: {kind}")


def _parse_window(doc):
    return Truncation(doc.get("n", 1), doc["j_min"], doc["j_max"],
                      doc.get("root_extent", 1))


def _parse_growth(doc):
    doc = dict(doc or {"kind": "power", "tau": 0.0})
    kind = doc.pop("kind")
    return make_growth(kind, **doc)


def _parse_q(val):
    if val in ("inf", "infinity", None):
        return np.inf
    return float(val)


def _parse_space(doc, t=None):
    mode = doc.get("mode", "unweighted")
    weight = _parse_weight(doc["weight"]) if "weight" in doc else None
    quad = QuadratureSpec(_integer(doc.get("nodes_per_cell", 3),
                                   "nodes_per_cell"))
    reducing = None
    if mode == "averaging":
        if weight is None or t is None:
            raise SeqSpaceError("averaging mode needs a weight and a window")
        reducing = build_family(weight, float(doc["p"]), t, quad)
    return SpaceParams(doc["family"], float(doc.get("s", 0.0)),
                       _parse_q(doc["p"]), _parse_q(doc["q"]),
                       _parse_growth(doc.get("growth")), mode=mode,
                       reducing=reducing, quad=quad,
                       weight=weight if mode == "matrix" else None)


def _complex(c):
    """One complex entry: a JSON number or an [re, im] pair of numbers."""
    parts = c if isinstance(c, list) else [c, 0.0]
    if not (len(parts) == 2 and all(type(x) in (int, float) for x in parts)):
        raise DwlabError("a complex entry is a number or an [re, im] "
                         f"pair, got {json.dumps(c)}")
    return complex(*parts)


def _parse_sequence(doc, t):
    tv = CoeffSeq(t, _integer(doc.get("m", 1), "m"))
    for ent in doc["entries"]:
        z = np.array([_complex(c) for c in ent["value"]])
        tv[CubeId(_integer(ent["j"], "j"),
                  tuple(_integer(k, "k") for k in ent["k"]))] = z
    return tv


def _pair(v):
    return [_sig12(np.real(v)), _sig12(np.imag(v))]


def _matrix_doc(M):
    return [[_pair(v) for v in row] for row in np.asarray(M, dtype=complex)]


def cmd_norm(args):
    doc = _load_json(args.config)
    try:
        t = _parse_window(doc["window"])
        params = _parse_space(doc["space"], t)
        tv = _parse_sequence(doc["sequence"], t)
    except (TypeError, AttributeError) as exc:  # a value of the wrong type
        raise DwlabError(f"malformed config: {exc}") from exc
    print(_fmt(seq_norm(tv, params, t)))
    return 0


def cmd_reduce(args):
    W = _parse_weight(args.weight)
    t = Truncation(1, args.j_min, args.j_max, args.root_extent)
    backend = {"exact2": "exact_p2"}.get(args.backend, args.backend)
    fam = build_family(W, args.p, t, backend=backend)
    out = {
        "weight": W.label,
        "p": args.p,
        "backend": backend,
        "equivalence_bounds": [_fmt(b) for b in fam.equivalence_bounds],
    }
    if backend == "mvee":
        out["mvee"] = {"gap": _fmt(fam.mvee_gap), "iterations": fam.mvee_iters,
                       "capped": fam.mvee_capped}
    out["operators"] = [
        {"j": Q.j, "k": list(Q.k), "matrix": _matrix_doc(fam[Q])}
        for Q in enumerate_cubes(t)
    ]
    print(json.dumps(out, indent=2))
    return 0


def cmd_thresholds(args):
    doc = _load_json(args.space)
    try:
        th = ad_thresholds(
            float(doc.get("s", 0.0)), _parse_q(doc["p"]), _parse_q(doc["q"]),
            doc["family"], *(float(doc.get(key, 0.0))
                             for key in ("delta1", "delta2", "omega")),
            n=_integer(doc.get("n", 1), "n"),
            weighted=tuple(doc["weighted"]) if "weighted" in doc else None)
    except (TypeError, AttributeError) as exc:  # a value of the wrong type
        raise DwlabError(f"malformed space: {exc}") from exc
    mol = molecule_thresholds(th)
    print(f"regime   {th.regime}" + ("  (weighted)" if th.weighted else ""))
    for label, val in (("J", th.J), ("D_min", th.D_min),
                       ("E_min", th.E_min), ("F_min", th.F_min)):
        print(f"{label:<8} {_fmt(val)}")
    print("analysis molecule (K, L, M, N) > "
          + ", ".join(_fmt(v) for v in mol.analysis))
    print("synthesis molecule (K, L, M, N) > "
          + ", ".join(_fmt(v) for v in mol.synthesis))
    print(f"wavelet smoothness k_min = {mol.k_min}")
    return 0


def cmd_verify(args):
    try:
        seed = int(args.seed, 0)
        if seed < 0:
            raise ValueError(seed)
    except ValueError:
        raise DwlabError(f"--seed must be a non-negative integer, "
                         f"got {args.seed}")
    if args.experiment.lower() == "all":
        reports = run_all(seed=seed)
    else:
        reports = [run_experiment(args.experiment, seed=seed)]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.criterion}  [{r.wall_time:.1f}s]")
    if args.out:
        emit_report(reports, fmt=args.format, path=args.out, seed=seed)
        print(f"report written to {args.out}")
    ok = all(r.passed for r in reports)
    print("all criteria hold" if ok else "some criteria FAILED")
    return 0 if ok else 1


def cmd_transform(args):
    doc = _load_json(args.infile)
    vals = np.array([_complex(c) for c in doc["values"]])
    f = GridFunction(_integer(doc.get("n", 1), "n"), _integer(doc["N"], "N"),
                     vals)
    if args.kind == "dwt":
        c = dwt_analyze(f, k=args.filter_k or 4, levels=args.levels)
        out = {
            "kind": "dwt",
            "filter_k": c.filter_k,
            "approx": [_pair(v) for v in c.approx],
            "details": {str(j): [_pair(v) for v in d]
                        for j, d in c.details.items()},
        }
    else:
        if args.levels is not None or args.filter_k is not None:
            raise DwlabError("--levels and --filter-k apply to dwt only: phi "
                             "has no wavelet filter and N fixes its levels")
        w = build_lp_window(f.N)
        tv = phi_analyze(f, w)
        out = {
            "kind": "phi",
            "entries": [
                {"j": Q.j, "k": list(Q.k), "value": [_pair(v) for v in z]}
                for Q, z in tv.entries.items()
            ],
        }
    print(json.dumps(out, indent=2))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dwlab",
        description="dyadic sequence-space norms, reducing operators, "
                    "almost-diagonal thresholds, and verification experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute one sequence norm from a config")
    p.add_argument("--config", required=True,
                   help="JSON config (inline or path)")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("reduce", help="dump a reducing-operator family")
    p.add_argument("--weight", required=True,
                   help="preset, e.g. power:-0.5 or diag_power:-0.5:-0.25")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--backend", default="exact2",
                   choices=["exact2", "exact_p2", "mvee"])
    p.add_argument("--j-min", type=int, default=0)
    p.add_argument("--j-max", type=int, default=3)
    p.add_argument("--root-extent", type=int, default=1)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("thresholds",
                       help="print the admissibility threshold table")
    p.add_argument("--space", required=True,
                   help="JSON space description (inline or path)")
    p.set_defaults(fn=cmd_thresholds)

    p = sub.add_parser("verify", help="run verification experiments")
    p.add_argument("experiment",
                   help="experiment name or 'all'; one of "
                        + ", ".join(sorted(EXPERIMENTS)))
    p.add_argument("--seed", default="0xDAD1C")
    p.add_argument("--out", default=None, help="write a report file")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="analyze a grid function")
    p.add_argument("kind", choices=["dwt", "phi"])
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON grid function (inline or path)")
    p.add_argument("--levels", type=int, default=None,
                   help="dwt only: levels to take, >= 1 (default: all)")
    p.add_argument("--filter-k", type=int, default=None,
                   choices=[2, 3, 4, 6, 8],
                   help="dwt only: Daubechies DB-k filter (default: 4)")
    p.set_defaults(fn=cmd_transform)

    args = ap.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left: drop the unflushed rest quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyError as exc:
        print(f"dwlab: error: missing config key {exc}", file=sys.stderr)
    except ValueError as exc:  # DwlabError, malformed JSON or numbers
        print(f"dwlab: error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

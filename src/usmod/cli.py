"""The usmod command line.

Subcommands:
  laws      run the law registry over a seeded corpus; exit 0 iff no law
            is violated
  check     evaluate `assert` lines of a DSL file (a refused declaration
            exits 2, its message starting `line N: `)
  search    hunt for claim witnesses (or law violations) with shrinking
  envelope  construct and verify an envelope for a module declared in a
            DSL file; emit a certificate
  injective certification pipeline for declared modules at a chosen tier

Size caps come from defaults overridden by the USMOD_CAPS environment
variable, whose keys are ring, module, lattice and hom (e.g.
USMOD_CAPS=ring=32,module=64); any other key exits 2 with config-error.

A reader that closes stdout early (``usmod laws | head -2``) ends any
subcommand with exit 141 (128 + SIGPIPE) and nothing on stderr: the rest of
stdout goes to os.devnull, as the SIGPIPE note in Python's signal docs
describes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .caps import caps_from_env
from .corpus import Bounds, generate_corpus
from .dsl import evaluate_assertions, parse_program
from .errors import ConfigError, IOErrorUsmod, UsmodError
from .injective import (
    bounded_u_S_injective_test,
    certify_u_S_injective,
    construct_u_S_envelope,
)
from .laws import HOLDS, LAWS_BY_ID, SKIP_INAPPLICABLE, SKIP_RESOURCE, VIOLATED, run_laws, tally
from .report import FORMATS, emit_report
from .search import CLAIMS, search_counterexamples
from .witnesses import serialize_module


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="usmod", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"usmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_laws = sub.add_parser("laws", help="run the law registry over a seeded corpus")
    p_laws.add_argument("--law", action="append", help="law id filter (repeatable)")
    p_laws.add_argument("--seed", type=int, default=42)
    p_laws.add_argument("--max-ring", type=int, default=36)
    p_laws.add_argument("--max-module", type=int, default=64)
    p_laws.add_argument("--max-instances", type=int, default=600)
    p_laws.add_argument("--report", help="write the report to this path")
    p_laws.add_argument("--format", choices=FORMATS, default="json")
    p_laws.add_argument("--list", action="store_true", help="list law ids and exit")

    p_check = sub.add_parser("check", help="evaluate assert lines of a DSL file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true", help="emit the full JSON report")

    p_search = sub.add_parser("search", help="counterexample search with shrinking")
    p_search.add_argument("--claim", required=True)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--max-ring", type=int, default=12)
    p_search.add_argument("--max-module", type=int, default=64)
    p_search.add_argument("--count", type=int, default=5)
    p_search.add_argument("--time-budget", type=float, default=120.0)
    p_search.add_argument("--list", action="store_true", help="list claim ids and exit")

    p_env = sub.add_parser("envelope", help="construct + verify an envelope; emit a certificate")
    p_env.add_argument("file")
    p_env.add_argument("--module", help="module name (default: first declared)")
    p_env.add_argument("--mset", help="multiplicative set name (default: first declared)")

    p_inj = sub.add_parser("injective", help="injectivity certification pipeline")
    p_inj.add_argument("file")
    p_inj.add_argument("--tier", choices=("certify", "bounded", "refute"), default="certify")
    p_inj.add_argument("--module", help="module name (default: every declared module)")
    p_inj.add_argument("--mset", help="multiplicative set name (default: first declared)")

    args = parser.parse_args(argv)
    commands = {
        "laws": _cmd_laws,
        "check": _cmd_check,
        "search": _cmd_search,
        "envelope": _cmd_envelope,
        "injective": _cmd_injective,
    }
    try:
        code = commands[args.command](args, caps_from_env())
        sys.stdout.flush()
    except UsmodError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the exit flush must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _cmd_laws(args, caps) -> int:
    if args.list:
        for law_id, law in sorted(LAWS_BY_ID.items()):
            kind = "bounded" if law.bounded else "exact"
            needs = f" (needs {', '.join(law.needs)})" if law.needs else ""
            print(f"{law_id:36s} [{kind}] {law.description}{needs}")
        return 0
    bounds = Bounds(
        max_ring=args.max_ring,
        max_module=args.max_module,
        max_instances=args.max_instances,
    )
    corpus = generate_corpus(args.seed, bounds, caps)
    results = run_laws(corpus, args.law, caps)
    tallies = tally(results)
    violated_total = 0
    for law_id, counts in sorted(tallies.items()):
        line = (
            f"{law_id:36s} holds={counts[HOLDS]:5d} violated={counts[VIOLATED]:3d} "
            f"{SKIP_RESOURCE}={counts[SKIP_RESOURCE]:5d} "
            f"{SKIP_INAPPLICABLE}={counts[SKIP_INAPPLICABLE]:5d}"
        )
        print(line)
        violated_total += counts[VIOLATED]
    print(f"-- {len(results)} results over {len(corpus)} instances; violated={violated_total}")
    if args.report:
        emit_report(results, args.format, args.report, seed=args.seed, caps=caps)
        print(f"report written to {args.report}")
    return 1 if violated_total else 0


def _cmd_check(args, caps) -> int:
    results = evaluate_assertions(_load_program(args.file, caps), caps)
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            extra = f" witness_s={r.witness_s}" if r.witness_s else ""
            extra += "" if r.enumeration_complete else " (incomplete)"
            extra += f" [{r.detail}]" if r.detail else ""
            print(f"{mark} line {r.line}: {r.text}{extra}")
    failed = sum(1 for r in results if not r.ok)
    summary = f"-- {len(results) - failed}/{len(results)} assertions passed"
    print(summary, file=sys.stderr if args.json else sys.stdout)
    return 1 if failed else 0


def _cmd_search(args, caps) -> int:
    if args.list:
        for cid, claim in sorted(CLAIMS.items()):
            print(f"{cid:48s} {claim.description}")
        return 0
    bounds = Bounds(max_ring=args.max_ring, max_module=args.max_module)
    hits = search_counterexamples(
        args.claim, bounds, args.seed, args.count, caps, args.time_budget
    )
    for hit in hits:
        print(json.dumps(hit.to_json()))
    claim = CLAIMS[args.claim]
    print(f"-- {len(hits)} witness(es) for claim {args.claim}", file=sys.stderr)
    if not claim.expect_witnesses and hits:
        return 1  # a paper law was violated or an impossible witness surfaced
    return 0


def _load_program(path: str, caps):
    """The parsed DSL file; an unreadable or non-UTF-8 file is an io-error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IOErrorUsmod(f"cannot read {path}: {exc}") from exc
    return parse_program(text, caps)


def _pick(env, table_name: str, requested: Optional[str], file: str):
    table = getattr(env, table_name)
    if not table:
        raise ConfigError(f"{file} declares no {table_name}")
    if requested is None:
        return next(iter(table.items()))
    if requested not in table:
        raise ConfigError(f"{file} does not declare {table_name[:-1]} {requested!r}")
    return requested, table[requested]


def _cmd_envelope(args, caps) -> int:
    env = _load_program(args.file, caps)
    mod_name, module = _pick(env, "modules", args.module, args.file)
    mset_name, mset = _pick(env, "msets", args.mset, args.file)
    cand = construct_u_S_envelope(module, mset, caps)
    if cand is None:
        print(json.dumps({"module": mod_name, "mset": mset_name, "verdict": "unknown"}))
        return 1
    essential = cand.essential_verdict
    certificate = {
        "module": mod_name,
        "mset": mset_name,
        "candidate_E": serialize_module(cand.map.target),
        "embedding": list(cand.map.map),
        "certificate_tier": cand.e_certificate,
        "preenvelope_level": cand.preenvelope_level,
        "essential_verdict": essential.verdict,
        "is_envelope": essential.verdict,
        "witnesses": {"essential_pair": essential.witness_s_pair},
    }
    print(json.dumps(certificate, indent=2))
    return 0 if essential.verdict else 1


def _cmd_injective(args, caps) -> int:
    env = _load_program(args.file, caps)
    mset_name, mset = _pick(env, "msets", args.mset, args.file)
    modules = dict([_pick(env, "modules", args.module, args.file)]) if args.module else env.modules
    worst = 0
    for name, module in modules.items():
        if args.tier == "certify":
            report = certify_u_S_injective(module, mset, caps)
        else:
            report = bounded_u_S_injective_test(module, mset, caps)
        payload = {
            "module": name,
            "mset": mset_name,
            "tier": args.tier,
            "verdict": report.verdict,
            "certificate": report.certificate,
            "catalogue_size": report.catalogue_size,
        }
        if args.tier == "refute":
            payload["refuted"] = report.verdict == "refuted"
        print(json.dumps(payload, indent=2))
        if report.verdict == "refuted" and args.tier != "refute":
            worst = 1
        if args.tier == "refute" and report.verdict != "refuted":
            worst = 1
    return worst


if __name__ == "__main__":
    raise SystemExit(main())

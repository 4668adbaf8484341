"""Report emission: json, junit-xml, markdown-summary.

Field order is fixed by construction (insertion-ordered dicts, sorted law
ids), so identical runs emit identical artifacts modulo wall time.
"""
from __future__ import annotations

import json
from typing import Optional, Sequence
from xml.etree import ElementTree as ET

from . import __version__
from .caps import Caps
from .errors import IOErrorUsmod
from .laws import HOLDS, SKIP_INAPPLICABLE, SKIP_RESOURCE, VIOLATED, LawResult, tally

FORMATS = ("json", "junit-xml", "markdown-summary")


def render_report(
    results: Sequence[LawResult],
    fmt: str,
    seed: Optional[int] = None,
    caps: Optional[Caps] = None,
) -> str:
    if fmt == "json":
        return _render_json(results, seed, caps)
    if fmt == "junit-xml":
        return _render_junit(results)
    if fmt == "markdown-summary":
        return _render_markdown(results)
    raise IOErrorUsmod(f"unknown report format {fmt!r}")


def emit_report(
    results: Sequence[LawResult],
    fmt: str,
    path: str,
    seed: Optional[int] = None,
    caps: Optional[Caps] = None,
) -> str:
    text = render_report(results, fmt, seed, caps)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOErrorUsmod(f"cannot write report to {path}: {exc}") from exc
    return path


def _render_json(results, seed, caps) -> str:
    tallies = tally(results)
    payload = {
        "tool": "usmod",
        "version": __version__,
        "seed": seed,
        "caps": None if caps is None else {
            "max_ring": caps.max_ring,
            "max_module": caps.max_module,
            "max_lattice": caps.max_lattice,
            "max_hom": caps.max_hom,
        },
        "laws": [
            {
                "law_id": law_id,
                "holds": counts[HOLDS],
                "violated": counts[VIOLATED],
                SKIP_RESOURCE: counts[SKIP_RESOURCE],
                SKIP_INAPPLICABLE: counts[SKIP_INAPPLICABLE],
                "skip_reasons": counts["skip_reasons"],
            }
            for law_id, counts in sorted(tallies.items())
        ],
        "violations": [r.to_json() for r in results if r.verdict == VIOLATED],
        "total_results": len(results),
    }
    return json.dumps(payload, indent=2)


def _render_junit(results) -> str:
    suites = ET.Element("testsuites")
    by_law: dict[str, list[LawResult]] = {}
    for r in results:
        by_law.setdefault(r.law_id, []).append(r)
    for law_id in sorted(by_law):
        bucket = by_law[law_id]
        suite = ET.SubElement(
            suites,
            "testsuite",
            name=law_id,
            tests=str(len(bucket)),
            failures=str(sum(1 for r in bucket if r.verdict == VIOLATED)),
            skipped=str(sum(1 for r in bucket if r.verdict not in (HOLDS, VIOLATED))),
        )
        for r in bucket:
            case = ET.SubElement(
                suite,
                "testcase",
                name=r.instance.key()[:160],
                time=f"{r.wall_time:.6f}",
            )
            if r.verdict == VIOLATED:
                failure = ET.SubElement(case, "failure", message=r.detail or "violated")
                failure.text = json.dumps(r.witness)
            elif r.verdict != HOLDS:
                ET.SubElement(case, "skipped", message=f"{r.verdict}: {r.detail}")
    ET.indent(suites)
    return ET.tostring(suites, encoding="unicode", xml_declaration=True)


def _render_markdown(results) -> str:
    tallies = tally(results)
    lines = [
        f"# usmod law report (v{__version__})",
        "",
        f"| law | holds | violated | {SKIP_RESOURCE} | {SKIP_INAPPLICABLE} |",
        "|-----|------:|---------:|-----------------:|---------------------:|",
    ]
    for law_id, counts in sorted(tallies.items()):
        lines.append(
            f"| {law_id} | {counts[HOLDS]} | {counts[VIOLATED]} "
            f"| {counts[SKIP_RESOURCE]} | {counts[SKIP_INAPPLICABLE]} |"
        )
    total_violated = sum(c[VIOLATED] for c in tallies.values())
    lines.append("")
    lines.append(f"**Total violated: {total_violated}**")
    return "\n".join(lines) + "\n"

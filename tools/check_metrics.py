#!/usr/bin/env python3
"""Validate lcsf-metrics-v1 JSON (obs::Registry::to_json output).

Stdlib-only: implements the small JSON-Schema subset used by
tools/metrics_schema.json (type, required, properties,
additionalProperties-as-schema, enum, minimum) rather than depending on
an external jsonschema package. On top of the structural schema it
checks the semantic invariants of the format: distribution order
statistics are ordered (min <= p50 <= p95 <= max, mean inside
[min, max]) and the deterministic flag matches the content (a
deterministic export carries no timers section and no wall-clock
distribution).

Usage:
  tools/check_metrics.py --schema tools/metrics_schema.json out.json
  tools/check_metrics.py --schema ... out.json --require stats.mc.samples
  tools/check_metrics.py --diff-deterministic a.json b.json
  tools/check_metrics.py --schema ... out.json \
      --max-ratio teta.chord_iterations/teta.transients=1150

--require asserts a counter name is present (repeatable; CI uses it to
prove the engine instrumentation actually fired). --max-ratio bounds the
quotient of two counters (repeatable): deterministic counts make
machine-independent gates, such as chord iterations per transient. --diff-deterministic
strips the wall-clock content (timers, *_seconds/_ms/_us/_ns
distributions) from two exports and fails when the remainders differ --
the CLI-level witness of the thread-count-invariance contract.

Exit status: 0 = valid, 1 = violation, 2 = usage / unreadable input.
"""

import argparse
import json
import sys

WALL_CLOCK_SUFFIXES = ("_seconds", "_ms", "_us", "_ns")


def is_wall_clock(name):
    return name.endswith(WALL_CLOCK_SUFFIXES)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_metrics: cannot read {path}: {err}")


def type_ok(value, name):
    return {
        "object": lambda v: isinstance(v, dict),
        "string": lambda v: isinstance(v, str),
        "boolean": lambda v: isinstance(v, bool),
        # bool is an int subclass in Python; exclude it explicitly.
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool),
    }[name](value)


def validate(doc, schema, where, errors):
    """Check `doc` against the supported schema subset; append messages."""
    stype = schema.get("type")
    if stype and not type_ok(doc, stype):
        errors.append(f"{where}: expected {stype}, "
                      f"got {type(doc).__name__}")
        return
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{where}: {doc!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool) and doc < schema["minimum"]:
        errors.append(f"{where}: {doc} < minimum {schema['minimum']}")
    if not isinstance(doc, dict):
        return
    for key in schema.get("required", []):
        if key not in doc:
            errors.append(f"{where}: missing required key '{key}'")
    props = schema.get("properties", {})
    extra = schema.get("additionalProperties")
    for key, value in doc.items():
        if key in props:
            validate(value, props[key], f"{where}.{key}", errors)
        elif isinstance(extra, dict):
            validate(value, extra, f"{where}.{key}", errors)


def semantic_checks(doc, errors):
    for name, d in doc.get("distributions", {}).items():
        if not isinstance(d, dict):
            continue
        try:
            lo, p50, p95, hi = d["min"], d["p50"], d["p95"], d["max"]
            if not (lo <= p50 <= p95 <= hi):
                errors.append(f"distribution {name}: quantiles out of "
                              f"order ({lo} / {p50} / {p95} / {hi})")
            if not (lo <= d["mean"] <= hi):
                errors.append(f"distribution {name}: mean {d['mean']} "
                              f"outside [{lo}, {hi}]")
        except (KeyError, TypeError):
            pass  # structural validation already reported it
    if doc.get("deterministic") is True:
        if "timers" in doc:
            errors.append("deterministic export must not contain timers")
        for name in doc.get("distributions", {}):
            if is_wall_clock(name):
                errors.append(f"deterministic export contains wall-clock "
                              f"distribution '{name}'")


def deterministic_view(doc):
    """The thread-count-invariant projection of one metrics export."""
    return {
        "schema": doc.get("schema"),
        "counters": doc.get("counters", {}),
        "distributions": {
            k: v for k, v in doc.get("distributions", {}).items()
            if not is_wall_clock(k)
        },
    }


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate lcsf-metrics-v1 JSON exports.")
    parser.add_argument("files", nargs="*", help="metrics JSON file(s)")
    parser.add_argument("--schema", help="schema file "
                        "(tools/metrics_schema.json)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="COUNTER",
                        help="fail unless this counter is present "
                             "(repeatable)")
    parser.add_argument("--max-ratio", action="append", default=[],
                        metavar="NUM/DEN=LIMIT",
                        help="fail unless counter NUM / counter DEN <= "
                             "LIMIT (repeatable)")
    parser.add_argument("--diff-deterministic", nargs=2,
                        metavar=("A.json", "B.json"),
                        help="compare the deterministic projections of "
                             "two exports")
    args = parser.parse_args(argv)

    if args.diff_deterministic:
        a_path, b_path = args.diff_deterministic
        a = deterministic_view(load(a_path))
        b = deterministic_view(load(b_path))
        if a != b:
            print(f"check_metrics: deterministic content differs between "
                  f"{a_path} and {b_path}", file=sys.stderr)
            for section in ("schema", "counters", "distributions"):
                if a[section] != b[section]:
                    print(f"  {section}: {a[section]!r}\n"
                          f"        != {b[section]!r}", file=sys.stderr)
            return 1
        print(f"check_metrics: deterministic content identical "
              f"({a_path} vs {b_path})")
        return 0

    if not args.schema or not args.files:
        parser.error("need --schema and at least one metrics file "
                     "(or --diff-deterministic)")
    schema = load(args.schema)
    ratios = []
    for spec in args.max_ratio:
        try:
            names, limit = spec.rsplit("=", 1)
            num, den = names.split("/")
            ratios.append((num, den, float(limit)))
        except ValueError:
            parser.error(f"--max-ratio expects NUM/DEN=LIMIT, got {spec!r}")
    status = 0
    for path in args.files:
        doc = load(path)
        errors = []
        validate(doc, schema, "$", errors)
        semantic_checks(doc, errors)
        counters = doc.get("counters", {})
        for name in args.require:
            if name not in counters:
                errors.append(f"required counter '{name}' missing")
        for num, den, limit in ratios:
            if not counters.get(den):
                errors.append(f"ratio {num}/{den}: counter '{den}' "
                              f"missing or zero")
                continue
            ratio = counters.get(num, 0) / counters[den]
            if ratio > limit:
                errors.append(f"ratio {num}/{den} = {ratio:.6g} exceeds "
                              f"{limit:g}")
            else:
                print(f"check_metrics: {path}: {num}/{den} = "
                      f"{ratio:.6g} <= {limit:g}")
        if errors:
            status = 1
            print(f"check_metrics: {path}: INVALID", file=sys.stderr)
            for e in errors:
                print(f"  {e}", file=sys.stderr)
        else:
            print(f"check_metrics: {path}: ok "
                  f"({len(counters)} counters, "
                  f"{len(doc.get('distributions', {}))} distributions, "
                  f"{len(doc.get('timers', {}))} timers)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

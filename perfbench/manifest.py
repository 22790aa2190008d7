"""Load and validate BENCHMARK.json, the benchmark's manifest.

The rules are the ones the manifest is published under: key sets, name and
unit alphabets, list sizes and bounds. `validate` returns a list of problems
(empty when the manifest is valid) so callers can print all of them at once.
"""

import json
import os
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BYTES = 64 * 1024


def manifest_path(root):
    return os.path.join(root, "BENCHMARK.json")


def load(root):
    with open(manifest_path(root), "rb") as f:
        raw = f.read()
    if len(raw) > MAX_BYTES:
        raise ValueError("BENCHMARK.json is larger than 64 KiB")
    return json.loads(raw.decode("utf-8"))


def _check_metric(m, keys, errors, where):
    if not isinstance(m, dict) or set(m) != keys:
        errors.append(f"{where}: keys must be exactly {sorted(keys)}")
        return
    if not isinstance(m["name"], str) or not NAME_RE.match(m["name"]):
        errors.append(f"{where}: bad name {m['name']!r}")
    if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
        errors.append(f"{where}: bad unit {m['unit']!r}")
    if m["better"] not in ("higher", "lower"):
        errors.append(f"{where}: better must be 'higher' or 'lower'")
    if "bound" in keys:
        b = m["bound"]
        if isinstance(b, bool) or not isinstance(b, (int, float)) or \
                not 0 < b <= 0.25:
            errors.append(f"{where}: bound must be in (0, 0.25]")


def validate(doc, root=None):
    """Problems with manifest `doc`; files under `paths` are checked when
    `root` (the repository root) is given."""
    errors = []
    if not isinstance(doc, dict) or set(doc) != TOP_KEYS:
        return [f"top-level keys must be exactly {sorted(TOP_KEYS)}"]

    cmd = doc["command"]
    if not isinstance(cmd, list) or not 1 <= len(cmd) <= 32 or \
            not all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    else:
        for c in cmd:
            if c.startswith("/") or ".." in c.split("/"):
                errors.append(f"command: {c!r} leaves the repository")

    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: 1 to 16 directories")
        paths = []
    for p in paths:
        if not isinstance(p, str) or not PATH_RE.match(p) or \
                p.startswith("/") or ".." in p.split("/"):
            errors.append(f"paths: bad path {p!r}")
        elif root is not None:
            full = os.path.join(root, p)
            if not os.path.isdir(full) or os.path.islink(full):
                errors.append(f"paths: {p!r} is not a directory")
                continue
            for dirpath, dirs, files in os.walk(full):
                for name in dirs + files:
                    q = os.path.join(dirpath, name)
                    if os.path.islink(q):
                        errors.append(f"paths: {q} is a link")
    if isinstance(cmd, list):
        for c in cmd[1:]:
            if "/" in c and paths and not any(
                    c == p or c.startswith(p.rstrip("/") + "/") for p in paths):
                errors.append(f"command: {c!r} is outside paths")

    rs = doc["run_seconds"]
    if isinstance(rs, bool) or not isinstance(rs, int) or not 1 <= rs <= 60:
        errors.append("run_seconds: a whole number from 1 to 60")

    names = []
    wls = doc["workloads"]
    if not isinstance(wls, list) or not 2 <= len(wls) <= 8:
        errors.append("workloads: 2 to 8")
        wls = []
    for i, w in enumerate(wls):
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errors.append(f"workloads[{i}]: keys must be exactly name, why")
            continue
        if not isinstance(w["name"], str) or not NAME_RE.match(w["name"]):
            errors.append(f"workloads[{i}]: bad name {w['name']!r}")
        if not isinstance(w["why"], str) or not 0 < len(w["why"]) <= 200 \
                or "\n" in w["why"]:
            errors.append(f"workloads[{i}]: why is one line of <= 200 chars")
        names.append(w["name"])

    e2e = doc["end_to_end"]
    if not isinstance(e2e, list) or not 1 <= len(e2e) <= 16:
        errors.append("end_to_end: 1 to 16 metrics")
        e2e = []
    for i, m in enumerate(e2e):
        _check_metric(m, {"name", "unit", "better", "bound"}, errors,
                      f"end_to_end[{i}]")
    setup = [m for m in e2e if isinstance(m, dict) and m.get("name") == "setup_s"]
    if len(setup) != 1 or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end: needs setup_s in unit s, better lower")

    pl = doc["per_layer"]
    if not isinstance(pl, list) or not 1 <= len(pl) <= 128:
        errors.append("per_layer: 1 to 128 metrics")
        pl = []
    for i, m in enumerate(pl):
        _check_metric(m, {"name", "unit", "better"}, errors, f"per_layer[{i}]")

    names += [m.get("name") for m in e2e + pl if isinstance(m, dict)]
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        errors.append(f"names used more than once: {dup}")
    return errors


def metrics_for(doc, trace):
    """{name: (unit, better)} a run prints with --trace 0 (end-to-end) or 1."""
    return {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer" if trace else "end_to_end"]}


def check_result(doc, trace, result):
    """Problems with one run's result object against the manifest."""
    errors = []
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, "
                "metrics"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if isinstance(result[k], bool) or not isinstance(result[k], int):
            errors.append(f"{k} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    want = metrics_for(doc, trace)
    got = result["metrics"]
    if not isinstance(got, dict):
        return errors + ["metrics is not an object"]
    for name in sorted(set(want) - set(got)):
        errors.append(f"metric {name} not printed")
    for name in sorted(set(got) - set(want)):
        errors.append(f"metric {name} printed but not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append(f"metric {name}: keys must be value, unit")
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
            errors.append(f"metric {name}: value is not a number")
        if m["unit"] != want[name][0]:
            errors.append(f"metric {name}: unit {m['unit']!r}, manifest says "
                          f"{want[name][0]!r}")
    return errors

#!/usr/bin/env python3
"""Finds the `pub fn`s of the library crates that nothing outside their
crate calls, by compiling instead of by name.

For each library crate in turn, in a temporary copy of the workspace, every
`pub fn` (and `pub const fn`) under `crates/<crate>/src` — its binaries
aside — is narrowed to `pub(crate)`, and `cargo clippy --workspace
--all-targets` runs. Its warnings count as errors, as CI's `-D warnings`
makes them, so a narrowing CI would reject — a public `len` beside a
private `is_empty` — is undone too; two are not: `dead_code`, so that a
function only the crate's own tests call is reported, and
`unreachable_pub`, so that a type only a narrowed function exposed is not
taken for a reason to restore it. Each function a compile error names — by the span of
its definition, or else by a name the error quotes or marks — is made
`pub` again, and the check runs again until it passes. The functions left narrowed are printed, one per
line as `crate: file:line name`; the exit status is 1 if there are any, 0
if there are none, and 2 if no error of a failing check names a narrowed
function (the script cannot make progress) or the unmodified copy does
not build.

The per-commit export check greps for each name outside its crate, so a
function named like any other (`len`, `clear`, `new`) passes it whether or
not anything calls it; this check does not. It does not see doctests.

Usage: python3 scripts/narrow_exports.py [crate ...]
    (default: every library crate the export check walks). Set
    CARGO_TARGET_DIR to reuse a build directory; the default is one inside
    the temporary copy, so a run starts cold.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

CRATES = [
    "util", "obs", "lang", "sema", "ir", "passes", "p4", "tofino", "bmv2", "runtime", "net",
    "core", "apps",
]

# A definition line: indentation, `pub`, an optional `const`, `fn`, a name.
DEF = re.compile(r"^(\s*)pub (const )?fn ([A-Za-z_0-9]+)")
NAMED = re.compile(r"`([A-Za-z_0-9]+)`")
# What a narrowing may cause that does not undo it: a function only the
# crate's own tests call, and a type only a narrowed function exposed.
ALLOWED = {"dead_code", "unreachable_pub"}


def workspace_files(root):
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout
    return [f for f in out.decode().split("\0") if f]


def copy_workspace(root, dest):
    for rel in workspace_files(root):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        # A fresh modification time: cargo judges freshness by the paths
        # relative to the workspace and their times, so a copy that kept
        # the originals' times would be served an earlier run's build.
        shutil.copy(src, os.path.join(dest, rel))


def narrow(copy, crate):
    """Narrows every `pub fn` of `crate`; returns {(file, line): name}."""
    narrowed = {}
    src = os.path.join("crates", crate, "src")
    for dirpath, dirnames, filenames in os.walk(os.path.join(copy, src)):
        rel_dir = os.path.relpath(dirpath, copy)
        if rel_dir == os.path.join(src, "bin"):
            dirnames[:] = []
            continue
        for name in sorted(filenames):
            if not name.endswith(".rs"):
                continue
            rel = os.path.join(rel_dir, name)
            path = os.path.join(copy, rel)
            with open(path) as f:
                lines = f.readlines()
            changed = False
            for i, line in enumerate(lines):
                m = DEF.match(line)
                if m:
                    lines[i] = line.replace("pub ", "pub(crate) ", 1)
                    narrowed[(rel, i + 1)] = m.group(3)
                    changed = True
            if changed:
                with open(path, "w") as f:
                    f.writelines(lines)
    return narrowed


def restore(copy, rel, line):
    path = os.path.join(copy, rel)
    with open(path) as f:
        lines = f.readlines()
    lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
    with open(path, "w") as f:
        f.writelines(lines)


def check(copy, target):
    """The errors of one `cargo clippy`: each rendered, with the names it
    mentions or marks and the (file, line) of every span."""
    proc = subprocess.run(
        ["cargo", "clippy", "--workspace", "--all-targets", "--keep-going", "--quiet",
         "--message-format=json"],
        cwd=copy, capture_output=True, text=True, env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    errors = []
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") != "compiler-message":
            continue
        d = msg["message"]
        code = (d.get("code") or {}).get("code")
        # CI denies every warning; the workspace as it is has none.
        if d["level"] != "error" and not (d["level"] == "warning" and code not in ALLOWED):
            continue
        spans, names = [], set(NAMED.findall(d["message"]))
        for node in [d] + d.get("children", []):
            for s in node.get("spans", []):
                # The code a span marks, when it is a name: a call that
                # now resolves to something else (`x.as_str()` to `str`'s).
                for t in s.get("text", []):
                    names.add(t["text"][t["highlight_start"] - 1 : t["highlight_end"] - 1])
                # A span inside a macro expansion names the invocation too.
                while s:
                    path = os.path.relpath(os.path.join(copy, s["file_name"]), copy)
                    spans.append((os.path.normpath(path), s["line_start"]))
                    s = (s.get("expansion") or {}).get("span")
        errors.append((d.get("rendered") or d["message"], names, spans))
    if proc.returncode != 0 and not errors:
        sys.stderr.write(proc.stderr)
        errors.append(("cargo clippy failed without a compiler error", set(), []))
    return errors


def narrow_crate(copy, target, crate):
    narrowed = narrow(copy, crate)
    while True:
        errors = check(copy, target)
        if not errors:
            return narrowed
        # An error that names no narrowed function is taken for a knock-on
        # of one that does (a method made private changes what a call
        # resolves to); it must be gone once those are restored.
        restored = set()
        for _, names, spans in errors:
            hits = {s for s in spans if s in narrowed}
            if not hits:
                hits = {k for k, name in narrowed.items() if name in names}
            restored |= hits
        if not restored:
            sys.stderr.write(f"{crate}: no error names a narrowed function:\n{errors[0][0]}\n")
            sys.exit(2)
        for rel, line in sorted(restored):
            restore(copy, rel, line)
            del narrowed[(rel, line)]


def main():
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    crates = sys.argv[1:] or CRATES
    with tempfile.TemporaryDirectory(prefix="narrow-exports-") as copy:
        copy_workspace(root, copy)
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(copy, "target")
        errors = check(copy, target)
        if errors:
            sys.stderr.write(f"the workspace does not build as it is:\n{errors[0][0]}\n")
            sys.exit(2)
        left = []
        for crate in crates:
            narrowed = narrow_crate(copy, target, crate)
            for (rel, line), name in sorted(narrowed.items()):
                left.append(f"{crate}: {rel}:{line} {name}")
            print(f"{crate}: {len(narrowed)} narrowed", file=sys.stderr, flush=True)
    for line in left:
        print(line)
    sys.exit(1 if left else 0)


if __name__ == "__main__":
    main()

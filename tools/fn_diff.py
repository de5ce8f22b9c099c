#!/usr/bin/env python3
"""Compare two ELF binaries function by function.

Usage:

  fn_diff.py OLD NEW                 # names of the functions that differ
  fn_diff.py OLD NEW --show REGEX    # ... plus a diff of each match's code
  fn_diff.py OLD NEW --objdump PATH  # a different objdump
  fn_diff.py OLD NEW --rename FROM=TO  # compare code moved to another class

Both binaries are disassembled with `objdump -d -C`. Each function's
instructions are normalised before comparison, so that moving code around
does not count as a change:

  * instruction addresses are dropped;
  * branch and call targets keep only their symbol (`<f+0x1c>`), not the
    absolute address;
  * rip-relative displacements become `X(%rip)` and objdump's `# addr`
    annotations keep only their symbol;
  * the spelling of a `Sites{...}` template argument (the chaos sites a
    core is instantiated with) is reduced to `Sites{}` in every name;
  * the nop padding after a function's last instruction is dropped.

A function that moved to another class (say from a structure into a base
it now shares) has a new name. `--rename FROM=TO` (repeatable) replaces
the literal text FROM by TO in every name and instruction of both binaries,
so the moved function is compared with its old self.

A byte compare of `.text` reports almost every function of a rebuilt
binary as changed once one function grows or moves; this reports only the
functions whose normalised instructions differ, then the functions present
in only one binary. Exits 0 when no function differs, 1 otherwise.
"""

import argparse
import difflib
import re
import subprocess
import sys

FUNC_RE = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN_RE = re.compile(r"^\s*[0-9a-f]+:\s*(.*)$")
TARGET_RE = re.compile(r"\b[0-9a-f]+ (?=<)")
RIP_RE = re.compile(r"-?0x[0-9a-f]+\(%rip\)")
COMMENT_RE = re.compile(r"#\s*[0-9a-f]+\s*")
PADDING_RE = re.compile(r"^((data16|cs) )*(nop|xchg %ax,%ax|int3)")


def strip_sites(name):
    """Replaces every balanced `Sites{...}` in name with `Sites{}`."""
    out = []
    i = 0
    while True:
        j = name.find("Sites{", i)
        if j < 0:
            out.append(name[i:])
            return "".join(out)
        out.append(name[i:j] + "Sites{}")
        depth = 0
        k = j + len("Sites")
        while k < len(name):
            if name[k] == "{":
                depth += 1
            elif name[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        i = k + 1


def normalise(insn):
    """One instruction's text without addresses that move with placement."""
    insn = COMMENT_RE.sub("# ", insn)
    insn = RIP_RE.sub("X(%rip)", insn)
    insn = TARGET_RE.sub("", insn)
    insn = re.sub(r"\s+", " ", insn).strip()
    return strip_sites(insn)


def parse(text, renames=()):
    """{function name: [normalised instructions]} of `objdump -d` output.

    A name defined more than once (local symbols of different objects)
    gets a `#2`, `#3`, ... suffix in order of appearance. Each (FROM, TO)
    of renames is replaced in every normalised name and instruction.
    """
    def rename(s):
        for old, new in renames:
            s = s.replace(old, new)
        return s

    funcs = {}
    current = None
    for line in text.splitlines():
        m = FUNC_RE.match(line)
        if m:
            name = rename(strip_sites(m.group(1)))
            base, n = name, 1
            while name in funcs:
                n += 1
                name = f"{base}#{n}"
            current = funcs.setdefault(name, [])
            continue
        m = INSN_RE.match(line)
        if m and current is not None and m.group(1):
            current.append(rename(normalise(m.group(1))))
    for insns in funcs.values():
        while insns and PADDING_RE.match(insns[-1]):
            insns.pop()
    return funcs


def compare(old, new):
    """(changed, only_old, only_new) name lists of two parse() results."""
    changed = sorted(n for n in old.keys() & new.keys() if old[n] != new[n])
    return changed, sorted(old.keys() - new.keys()), sorted(new.keys() - old.keys())


def disassemble(path, objdump):
    return subprocess.run([objdump, "-d", "-C", "-w", "--no-show-raw-insn", path],
                          check=True, capture_output=True, text=True).stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--show", metavar="REGEX",
                    help="print a diff of every differing function matching REGEX")
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("--rename", metavar="FROM=TO", action="append", default=[],
                    help="replace the text FROM by TO in names and code")
    args = ap.parse_args(argv)

    renames = [tuple(r.split("=", 1)) for r in args.rename]
    old = parse(disassemble(args.old, args.objdump), renames)
    new = parse(disassemble(args.new, args.objdump), renames)
    changed, only_old, only_new = compare(old, new)
    show = re.compile(args.show) if args.show else None
    print(f"fn_diff: {len(old)} / {len(new)} functions, {len(changed)} differ")
    for name in changed:
        print(f"changed: {name}")
        if show and show.search(name):
            sys.stdout.writelines(
                line + "\n" for line in difflib.unified_diff(
                    old[name], new[name], "old", "new", lineterm=""))
    for name in only_old:
        print(f"only in old: {name}")
    for name in only_new:
        print(f"only in new: {name}")
    return 1 if changed or only_old or only_new else 0


if __name__ == "__main__":
    sys.exit(main())

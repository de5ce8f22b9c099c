#!/usr/bin/env python3
"""Regression tests for tools/fn_diff.py, run on canned `objdump -d` text.

Covers the normalisation that lets two builds of the same code compare
equal although their functions sit at different addresses: absolute branch
and call targets, rip-relative displacements and their `# addr` notes, the
`Sites{...}` template argument's spelling, and trailing nop padding. Also
checks that a real instruction change, and a function present in only one
binary, are still reported, and that --rename pairs a moved function with
its old self.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fn_diff  # noqa: E402

OLD = """
lfbench:     file format elf64-x86-64

Disassembly of section .text:

0000000000014660 <lf::fr::Core<X, lf::fr::Sites{(lf::chaos::Site)12, (lf::chaos::Site)13}>::help_flagged(N*, N*) const>:
   14660:\tpush   %r13
   14662:\tmov    0x1dfb5(%rip),%rax        # 32620 <counters+0x10>
   14669:\tcall   14200 <lf::stats::tls()>
   1466e:\tje     14690 <lf::fr::Core<X, lf::fr::Sites{(lf::chaos::Site)12, (lf::chaos::Site)13}>::help_flagged(N*, N*) const+0x30>
   14670:\tret
   14671:\tnopl   0x0(%rax)

0000000000014680 <search(long)>:
   14680:\tlea    -0x20(%rip),%rdi        # 14660 <x>
   14687:\tret

0000000000014690 <gone()>:
   14690:\tret
"""

NEW = """
0000000000015660 <lf::fr::Core<X, lf::fr::Sites{(lf::chaos::Site)11, (lf::chaos::Site)12, (lf::chaos::Site)13}>::help_flagged(N*, N*) const>:
   15660:\tpush   %r13
   15662:\tmov    0x1cfb5(%rip),%rax        # 32620 <counters+0x10>
   15669:\tcall   15200 <lf::stats::tls()>
   1566e:\tje     15690 <lf::fr::Core<X, lf::fr::Sites{(lf::chaos::Site)11, (lf::chaos::Site)12, (lf::chaos::Site)13}>::help_flagged(N*, N*) const+0x30>
   15670:\tret
   15671:\tdata16 cs nopw 0x0(%rax,%rax,1)

0000000000015680 <search(long)>:
   15680:\tlea    -0x40(%rip),%rdi        # 15640 <x>
   15687:\tret

00000000000156a0 <added()>:
   156a0:\tret
"""


class FnDiffTest(unittest.TestCase):
    def test_placement_alone_is_no_change(self):
        changed, only_old, only_new = fn_diff.compare(fn_diff.parse(OLD),
                                                      fn_diff.parse(NEW))
        self.assertEqual(changed, [])
        self.assertEqual(only_old, ["gone()"])
        self.assertEqual(only_new, ["added()"])

    def test_sites_spelling_is_normalised_in_names(self):
        names = list(fn_diff.parse(NEW))
        self.assertEqual(names[0],
                         "lf::fr::Core<X, lf::fr::Sites{}>::help_flagged(N*, N*) const")

    def test_instruction_change_is_reported(self):
        changed, _, _ = fn_diff.compare(
            fn_diff.parse(OLD),
            fn_diff.parse(NEW.replace("push   %r13", "push   %r12")))
        self.assertEqual(len(changed), 1)
        self.assertIn("help_flagged", changed[0])

    def test_normalise(self):
        self.assertEqual(fn_diff.normalise("call   401234 <f(int)+0x1c>"),
                         "call <f(int)+0x1c>")
        self.assertEqual(
            fn_diff.normalise("mov    -0x2edf(%rip),%rax        # 404010 <g>"),
            "mov X(%rip),%rax # <g>")
        self.assertEqual(fn_diff.normalise("mov    0x10(%rax),%rdx"),
                         "mov 0x10(%rax),%rdx")

    def test_rename_matches_moved_functions(self):
        old = "0000000000001000 <A::f()>:\n    1000:\tcall   2000 <A::g()>\n"
        new = "0000000000001000 <B<A>::f()>:\n    1000:\tcall   2000 <B<A>::g()>\n"
        renames = [("B<A>::", "A::")]
        changed, only_old, only_new = fn_diff.compare(
            fn_diff.parse(old, renames), fn_diff.parse(new, renames))
        self.assertEqual((changed, only_old, only_new), ([], [], []))

    def test_duplicate_names_are_kept_apart(self):
        text = ("0000000000001000 <f>:\n    1000:\tret\n"
                "0000000000002000 <f>:\n    2000:\tnop\n    2001:\tret\n")
        self.assertEqual(sorted(fn_diff.parse(text)), ["f", "f#2"])


if __name__ == "__main__":
    unittest.main()

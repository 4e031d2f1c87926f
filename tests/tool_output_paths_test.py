#!/usr/bin/env python3
"""Output paths of pddcli, pddquery, pddserve and pddgen, end to end.

Each tool checks its output paths (--metrics, --cache-file, --index,
--dump-relation, the image of `pddquery build`) while it parses its
flags: a path that is no regular file, is where stdout goes, or lies in
a missing directory exits 1 before the run, with nothing on stdout and
nothing created. `pddquery verify --metrics` writes a sidecar that
tools/telemetry_check.py accepts.
Outputs are replaced atomically (a new inode each write) and a symbolic
link is written through. pddgen checks every output operand the same
way before it generates anything, and its options may stand anywhere
among the operands.

Usage: tool_output_paths_test.py TOOL_DIR [unittest args]
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(sys.argv.pop(1)) if len(sys.argv) > 1 else None
TELEMETRY_CHECK = (pathlib.Path(__file__).resolve().parent.parent / "tools" /
                   "telemetry_check.py")


def tool(name, *args):
    return subprocess.run([str(TOOLS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=20)


class ToolOutputPathsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        cls.root = pathlib.Path(cls._tmp.name)
        cls.relation = cls.root / "r.pxr"
        generated = tool("pddgen", "person", cls.relation,
                         cls.root / "gold.csv", "--entities", 20, "--seed", 7)
        assert generated.returncode == 0, generated.stderr

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def setUp(self):
        self.dir = pathlib.Path(tempfile.mkdtemp(dir=self.root))

    def assertRefused(self, result):
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertEqual(result.stdout, "")

    def pddgen(self, *args):
        """pddgen run in this test's directory."""
        return subprocess.run(
            [str((TOOLS / "pddgen").resolve()), *map(str, args)],
            cwd=self.dir, capture_output=True, text=True, timeout=20)

    def test_pddgen_options_may_stand_anywhere_among_the_outputs(self):
        for kind, outputs, options in (
                ("person", ("r.pxr", "g.csv"),
                 ("--entities", 12, "--seed", 3, "--full-names")),
                ("astro", ("a.pxr", "b.pxr", "g.csv"),
                 ("--objects", 6, "--seed", 3)),
                ("biblio", ("r.pxr", "g.csv"),
                 ("--publications", 6, "--seed", 3))):
            placements = {
                "after": (*outputs, *options),
                "before": (*options, *outputs),
                "between": (outputs[0], *options[:2], *outputs[1:],
                            *options[2:]),
            }
            written = {}
            for place, args in placements.items():
                with self.subTest(kind=kind, place=place):
                    for name in outputs:
                        (self.dir / name).unlink(missing_ok=True)
                    result = self.pddgen(kind, *args)
                    self.assertEqual(result.returncode, 0, result.stderr)
                    self.assertTrue(result.stdout.startswith("wrote "))
                    written[place] = [(self.dir / name).read_bytes()
                                      for name in outputs]
            self.assertEqual(written["before"], written["after"], kind)
            self.assertEqual(written["between"], written["after"], kind)

    def test_pddgen_refuses_missing_outputs_and_writes_nothing(self):
        for args in (("person", "--entities", 20, "--seed", 7),
                     ("person", "r.pxr", "--seed", 7),
                     ("astro", "a.pxr", "--objects", 5, "g.csv"),
                     ("biblio", "--publications", 5)):
            with self.subTest(args=args):
                result = self.pddgen(*args)
                self.assertRefused(result)
                self.assertEqual(len(result.stderr.splitlines()), 1)
                self.assertIn("needs <", result.stderr)
                self.assertEqual(list(self.dir.iterdir()), [])

    def test_pddgen_refuses_bad_outputs_before_generating(self):
        fifo = self.dir / "fifo.pxr"
        os.mkfifo(fifo)
        (self.dir / "sub").mkdir()
        # Captured, stdout is a pipe: /dev/stdout names no regular file.
        for bad in (self.dir / "sub", fifo, "/dev/stdout",
                    self.dir / "missing" / "g.csv"):
            for args in ((bad, "g.csv"), ("r.pxr", bad)):
                with self.subTest(args=args):
                    self.assertRefused(
                        self.pddgen("person", *args, "--entities", 20))
                    # The good output was not written either.
                    self.assertEqual(sorted(p.name for p in
                                            self.dir.iterdir()),
                                     ["fifo.pxr", "sub"])
        self.assertEqual(list((self.dir / "sub").iterdir()), [])

    def test_pddgen_writes_a_linked_output_through_the_link(self):
        link = self.dir / "link.pxr"
        link.symlink_to("target.pxr")
        inodes = []
        for _ in range(2):
            result = self.pddgen("person", link, "g.csv", "--entities", 20)
            self.assertEqual(result.returncode, 0, result.stderr)
            self.assertTrue(link.is_symlink())
            inodes.append((self.dir / "target.pxr").stat().st_ino)
            os.link(self.dir / "target.pxr",
                    self.dir / f"kept{len(inodes)}.pxr")
        self.assertNotEqual(inodes[0], inodes[1])
        plain = self.pddgen("person", "plain.pxr", "g.csv", "--entities", 20)
        self.assertEqual(plain.returncode, 0, plain.stderr)
        self.assertEqual((self.dir / "target.pxr").read_bytes(),
                         (self.dir / "plain.pxr").read_bytes())
        self.assertEqual(
            sorted(p.name for p in self.dir.iterdir()),
            ["g.csv", "kept1.pxr", "kept2.pxr", "link.pxr", "plain.pxr",
             "target.pxr"])

    def test_pddcli_refuses_bad_metrics_paths_before_the_run(self):
        fifo = self.dir / "fifo.json"
        os.mkfifo(fifo)
        # Captured, stdout is a pipe: /dev/stdout names no regular file.
        for path in (self.dir, fifo, "/dev/null", "/dev/stdout",
                     self.dir / "missing" / "m.json"):
            with self.subTest(path=str(path)):
                self.assertRefused(
                    tool("pddcli", "detect", self.relation, "--metrics", path))
        self.assertEqual(sorted(p.name for p in self.dir.iterdir()),
                         ["fifo.json"])

    def test_pddcli_refuses_the_file_its_stdout_goes_to(self):
        out = self.dir / "out.txt"
        for path in ("/dev/stdout", out):
            with self.subTest(path=str(path)), open(out, "w") as stdout:
                result = subprocess.run(
                    [str(TOOLS / "pddcli"), "detect", str(self.relation),
                     "--metrics", str(path)],
                    stdout=stdout, stderr=subprocess.PIPE, text=True,
                    timeout=20)
                self.assertEqual(result.returncode, 1, result.stderr)
            self.assertEqual(out.read_text(), "")

    def test_pddcli_refuses_a_cache_file_in_a_missing_directory(self):
        self.assertRefused(
            tool("pddcli", "detect", self.relation, "--cache-file",
                 self.dir / "missing" / "c.pddcache"))
        self.assertEqual(list(self.dir.iterdir()), [])

    def test_pddcli_writes_a_linked_sidecar_through_the_link(self):
        link = self.dir / "link.json"
        link.symlink_to("target.json")
        report = tool("pddcli", "detect", self.relation, "--metrics", link)
        self.assertEqual(report.returncode, 0, report.stderr)
        self.assertIn("duplicate", report.stdout.lower())
        self.assertTrue(link.is_symlink())
        doc = json.loads((self.dir / "target.json").read_text())
        self.assertEqual(doc["schema"], "pdd.telemetry.v1")
        self.assertEqual(sorted(p.name for p in self.dir.iterdir()),
                         ["link.json", "target.json"])

    def test_pddquery_build_refuses_a_bad_image_path_before_the_run(self):
        for path in ("/dev/null", self.dir):
            with self.subTest(path=str(path)):
                self.assertRefused(
                    tool("pddquery", "build", self.relation, path))
        self.assertRefused(
            tool("pddquery", "build", self.relation, self.dir / "i.pddindex",
                 "--metrics", self.dir))
        self.assertEqual(list(self.dir.iterdir()), [])

    def test_pddquery_verify_writes_its_sidecar(self):
        index = self.dir / "run.pddindex"
        metrics = self.dir / "verify.json"
        self.assertEqual(
            tool("pddquery", "build", self.relation, index).returncode, 0)
        verified = tool("pddquery", "verify", index, self.relation,
                        "--metrics", metrics)
        self.assertEqual(verified.returncode, 0, verified.stderr)
        self.assertIn("index verify: OK", verified.stdout)
        checked = subprocess.run(
            [sys.executable, str(TELEMETRY_CHECK), "validate", str(metrics)],
            capture_output=True, text=True, timeout=20)
        self.assertEqual(checked.returncode, 0, checked.stdout)
        doc = json.loads(metrics.read_text())
        self.assertIn("exec.index.pairs", doc["counters"])
        self.assertEqual(sorted(p.name for p in self.dir.iterdir()),
                         ["run.pddindex", "verify.json"])

    def test_pddserve_refuses_bad_output_paths_before_serving(self):
        # At one arrival per second the feed alone outlasts the timeout.
        for flag in ("--cache-file", "--index", "--dump-relation",
                     "--metrics"):
            with self.subTest(flag=flag):
                self.assertRefused(
                    tool("pddserve", self.relation, "--rate", 1, flag,
                         "/dev/null"))

    def test_pddserve_replaces_its_outputs(self):
        dump = self.dir / "canonical.pxr"
        metrics = self.dir / "serve.json"
        inodes = []
        for _ in range(2):
            served = tool("pddserve", self.relation, "--dump-relation", dump,
                          "--metrics", metrics)
            self.assertEqual(served.returncode, 0, served.stderr)
            inodes.append((dump.stat().st_ino, metrics.stat().st_ino))
            os.link(dump, self.dir / f"dump{len(inodes)}")
            os.link(metrics, self.dir / f"metrics{len(inodes)}")
        self.assertNotEqual(inodes[0][0], inodes[1][0])
        self.assertNotEqual(inodes[0][1], inodes[1][1])
        batch = tool("pddcli", "detect", dump)
        self.assertEqual(batch.stdout, served.stdout)
        self.assertEqual(len(list(self.dir.iterdir())), 6)


if __name__ == "__main__":
    if TOOLS is None:
        sys.exit("usage: tool_output_paths_test.py TOOL_DIR")
    unittest.main()

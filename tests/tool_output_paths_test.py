#!/usr/bin/env python3
"""Output paths of pddcli, pddquery and pddserve, end to end.

Each tool checks its output paths (--metrics, --cache-file, --index,
--dump-relation, the image of `pddquery build`) while it parses its
flags: a path that is no regular file, is where stdout goes, or lies in
a missing directory exits 1 before the run, with nothing on stdout and
nothing created.
Outputs are replaced atomically (a new inode each write) and a symbolic
link is written through.

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

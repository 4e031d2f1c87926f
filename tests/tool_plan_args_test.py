#!/usr/bin/env python3
"""The tools' shared plan flags, end to end.

pddcli detect/demo/explain, pddserve and pddquery build/verify (and
pddcli index-build) take one set of plan flags: --plan FILE first, then
--workers/--batch, then every --set. Each plan parameter has one
spelling, its plan key, so the old decision flags (--key, --reduction,
--window, --t-lambda, --t-mu, --derivation, --prepare) are unknown
options. The relation is read once, so a build from a pipe writes the
image a build from the file writes, and explain decides the pair the
way detect does. `pddcli detect --stats` only renders: it attaches no
cache, and the old --cache-stats and --stream-candidates are unknown
options.

Usage: tool_plan_args_test.py TOOL_DIR [unittest args]
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(sys.argv.pop(1)) if len(sys.argv) > 1 else None

DELETED_FLAGS = (("--key", "name:3"), ("--reduction", "full"),
                 ("--window", "9"), ("--t-lambda", "0.3"), ("--t-mu", "0.8"),
                 ("--derivation", "max_similarity"), ("--prepare",))


def tool(name, *args, feed=None):
    return subprocess.run([str(TOOLS / name), *map(str, args)], input=feed,
                          capture_output=True, text=True, timeout=20)


def piped(name, path, *args):
    """`cat path | name args...`: the relation arrives on a pipe, which
    can be read only once."""
    return tool(name, *args, feed=pathlib.Path(path).read_text())


class ToolPlanArgsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        cls.root = pathlib.Path(cls._tmp.name)
        cls.relation = cls.root / "r.pxr"
        generated = tool("pddgen", "person", cls.relation,
                         cls.root / "gold.csv", "--entities", 60, "--seed", 7)
        assert generated.returncode == 0, generated.stderr
        cls.plan = cls.root / "smoke.plan"
        cls.plan.write_text("key = name:3,job:2\n"
                            "reduction = snm_certain_keys\n"
                            "reduction.window = 4\n")

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def setUp(self):
        self.dir = pathlib.Path(tempfile.mkdtemp(dir=self.root))

    def assertOk(self, result):
        self.assertEqual(result.returncode, 0, result.stderr)

    def csv_row(self, relation, id1, id2, *flags):
        csv = tool("pddcli", "detect", relation, "--csv", *flags)
        self.assertOk(csv)
        rows = [row for row in csv.stdout.splitlines()
                if row.startswith(f"{id1},{id2},")]
        self.assertEqual(len(rows), 1, csv.stdout[:200])
        return rows[0]

    def explained(self, relation, id1, id2, *flags):
        """The `sim=... -> class` line of explain, as a CSV row."""
        result = tool("pddcli", "explain", relation, id1, id2, *flags)
        self.assertOk(result)
        line = result.stdout.splitlines()[-1].strip()
        self.assertTrue(line.startswith("sim="), result.stdout)
        similarity, match_class = line[len("sim="):].split(" -> ")
        return f"{id1},{id2},{similarity},{match_class}"

    def test_deleted_decision_flags_are_unknown_options(self):
        for flag in DELETED_FLAGS:
            with self.subTest(flag=flag[0]):
                detect = tool("pddcli", "detect", self.relation, *flag)
                serve = tool("pddserve", self.relation, *flag)
                for result in (detect, serve):
                    self.assertEqual(result.returncode, 1, result.stderr)
                    self.assertIn("unknown option", result.stderr)
                    self.assertEqual(result.stdout, "")

    def test_plan_file_applies_first_and_set_last(self):
        def plan_of(*flags):
            printed = tool("pddcli", "detect", self.relation, "--print-plan",
                           *flags)
            self.assertOk(printed)
            return printed.stdout
        widened = plan_of("--set", "reduction.window=8", "--plan", self.plan)
        self.assertIn("reduction.window = 8\n", widened)
        self.assertEqual(widened,
                         plan_of("--plan", self.plan, "--set",
                                 "reduction.window=8"))
        # Executor keys never reach the plan's identity.
        self.assertEqual(plan_of("--plan", self.plan),
                         plan_of("--plan", self.plan, "--workers", 2,
                                 "--batch", 7))
        # --batch is the executor.batch key: FromSpec and the config's
        # validation judge its value.
        zero = tool("pddcli", "detect", self.relation, "--batch", 0)
        self.assertEqual(zero.returncode, 1)
        self.assertIn("batch_size must be positive", zero.stderr)

    def test_build_from_a_pipe_writes_the_image_of_the_file(self):
        from_file = self.dir / "file.pddindex"
        self.assertOk(tool("pddquery", "build", self.relation, from_file,
                           "--plan", self.plan))
        for name, command in (("pddquery", "build"),
                              ("pddcli", "index-build")):
            with self.subTest(tool=name):
                image = self.dir / f"{name}-stdin.pddindex"
                self.assertOk(piped(name, self.relation, command,
                                    "/dev/stdin", image, "--plan",
                                    self.plan))
                self.assertEqual(image.read_bytes(), from_file.read_bytes())
        verified = piped("pddquery", self.relation, "verify", from_file,
                         "/dev/stdin", "--plan", self.plan)
        self.assertOk(verified)
        self.assertIn("index verify: OK", verified.stdout)

    def test_explain_decides_under_the_plan_it_is_given(self):
        strict = ("--set", "classify.t_mu=0.95")
        row = self.explained(self.relation, "r0", "r1", *strict)
        self.assertTrue(row.endswith(",possible"), row)
        self.assertEqual(row, self.csv_row(self.relation, "r0", "r1",
                                           *strict))
        self.assertEqual(self.explained(self.relation, "r0", "r1"),
                         self.csv_row(self.relation, "r0", "r1"))

    def test_explain_prepares_the_tuples_as_detect_does(self):
        relation = self.dir / "cased.pxr"
        relation.write_text("relation cased\n"
                            "schema name:string, job:string\n"
                            "tuple a\nalt 1 | ANNA ; baker\n"
                            "tuple b\nalt 1 | anna ; baker\n")
        prepare = ("--set", "prepare=lower,trim,collapse")
        self.assertEqual(self.csv_row(relation, "a", "b", *prepare),
                         "a,b,1,match")
        self.assertEqual(self.explained(relation, "a", "b", *prepare),
                         "a,b,1,match")

    def test_stats_renders_the_run_without_changing_it(self):
        plain = tool("pddcli", "detect", self.relation, "--plan", self.plan)
        self.assertOk(plain)
        metrics = self.dir / "stats.json"
        stats = tool("pddcli", "detect", self.relation, "--plan", self.plan,
                     "--stats", "--metrics", metrics)
        self.assertOk(stats)
        self.assertEqual(stats.stdout, plain.stdout)
        self.assertIn("| decide |", stats.stderr)
        self.assertIn("reduction snm_certain_keys,", stats.stderr)
        self.assertNotIn("## Decision cache", stats.stderr)
        self.assertNotIn("exec.cache.attached", metrics.read_text())
        # A cache flag attaches the cache, and --stats then renders it.
        cached = tool("pddcli", "detect", self.relation, "--plan", self.plan,
                      "--stats", "--cache-capacity", 64)
        self.assertOk(cached)
        self.assertEqual(cached.stdout, plain.stdout)
        self.assertIn("## Decision cache", cached.stderr)
        for flag in ("--cache-stats", "--stream-candidates"):
            with self.subTest(flag=flag):
                result = tool("pddcli", "detect", self.relation, flag)
                self.assertEqual(result.returncode, 1)
                self.assertIn(f"unknown option '{flag}'", result.stderr)
                self.assertEqual(result.stdout, "")

    def test_explain_refuses_an_unknown_flag(self):
        result = tool("pddcli", "explain", self.relation, "r0", "r1",
                      "--no-such-flag")
        self.assertEqual(result.returncode, 1)
        self.assertIn("unknown option '--no-such-flag'", result.stderr)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    if TOOLS is None:
        sys.exit("usage: tool_plan_args_test.py TOOL_DIR")
    unittest.main()

"""run.py rejects bad command lines with exit 2 before building anything."""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=60)


class RunCliTest(unittest.TestCase):
    def assert_usage_error(self, *args):
        r = run(*args)
        self.assertEqual(r.returncode, 2, (args, r.stdout, r.stderr))
        self.assertEqual(r.stdout, "", args)

    def test_unknown_and_abbreviated_flags(self):
        self.assert_usage_error("--workload", "fleet-stream", "--sed", "1")
        self.assert_usage_error("--work", "fleet-stream")
        self.assert_usage_error("--workload", "fleet-stream", "extra")

    def test_malformed_values(self):
        w = ("--workload", "fleet-stream")
        for bad in (("--seed", "-1"), ("--seed", "1e3"), ("--seed", str(2**64)),
                    ("--seconds", "0"), ("--seconds", "2.5"), ("--seconds", "601"),
                    ("--trace", "2"), ("--jobs", "0"), ("--jobs", "100000"),
                    ("--jobs", "four")):
            self.assert_usage_error(*w, *bad)
        self.assert_usage_error("--workload", "alexa34")

    def test_mode_is_required_and_exclusive(self):
        self.assert_usage_error()
        self.assert_usage_error("--self-test", "--workload", "fleet-stream")


if __name__ == "__main__":
    unittest.main()

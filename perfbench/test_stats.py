"""Tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench
"""

import unittest

import stats


def span(name, start, end, parent=-1, threads=1, id_=0):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "id": id_, "threads": threads}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [15, 20, 35, 40, 50]
        self.assertEqual(stats.percentile(xs, 5), 15)
        self.assertEqual(stats.percentile(xs, 30), 20)
        self.assertEqual(stats.percentile(xs, 40), 20)
        self.assertEqual(stats.percentile(xs, 50), 35)
        self.assertEqual(stats.percentile(xs, 100), 50)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_returns_a_sample(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 99.5), 100)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailPercentileTest(unittest.TestCase):
    def test_highest_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)

    def test_none_when_too_few(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span("a", 10, 30)]), [20])

    def test_children_are_subtracted(self):
        spans = [span("pass", 0, 100), span("fwd", 10, 40, parent=0),
                 span("bwd", 50, 90, parent=0)]
        self.assertEqual(stats.self_times(spans), [30, 30, 40])

    def test_overlapping_children_count_once(self):
        spans = [span("p", 0, 100), span("a", 10, 50, parent=0),
                 span("b", 30, 70, parent=0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_children_clipped_to_parent(self):
        spans = [span("p", 0, 100), span("a", 90, 150, parent=0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("p", 0, 100), span("c", 0, 60, parent=0),
                 span("g", 0, 50, parent=1)]
        self.assertEqual(stats.self_times(spans), [40, 10, 50])


def serve_run(rows, window_s=2.0, deadline_ns=50):
    """rows: (status, due_ns, done_ns, output_ok)."""
    return {
        "window_s": window_s,
        "deadline_ns": deadline_ns,
        "status": [r[0] for r in rows],
        "due_ns": [r[1] for r in rows],
        "done_ns": [r[2] for r in rows],
        "output_ok": [r[3] for r in rows],
    }


class ServeAccountingTest(unittest.TestCase):
    def test_only_valid_ok_by_deadline_counts(self):
        s = serve_run([
            (stats.OK, 0, 40, 1),                # good
            (stats.OK, 0, 50, 1),                # good: exactly at deadline
            (stats.OK, 0, 51, 1),                # late
            (stats.OK, 0, 10, 0),                # wrong output
            (stats.SHED_QUEUE_FULL, 0, 1, 1),    # shed
            (stats.SHED_LOAD, 0, 1, 1),          # shed
            (stats.EXPIRED, 0, 60, 1),           # expired
            (stats.WORKER_STALLED, 0, 70, 1),    # failed
            (stats.ERROR, 0, 5, 1),              # failed
            (-1, 0, -1, 1),                      # never resolved
        ])
        c = stats.serve_outcomes(s)
        self.assertEqual((c["good"], c["late"], c["shed"], c["expired"],
                          c["error"]), (2, 1, 2, 1, 4))
        self.assertAlmostEqual(c["ok_frac"], 0.2)
        self.assertAlmostEqual(c["shed_frac"], 0.2)
        self.assertAlmostEqual(c["expired_frac"], 1 / 8)

    def test_goodput_runs_to_the_last_completion(self):
        s = serve_run([(stats.OK, 0, 40, 1), (stats.OK, 3_000_000_000,
                                              3_999_999_990, 1)],
                      window_s=3.0, deadline_ns=2_000_000_000)
        self.assertAlmostEqual(stats.serve_outcomes(s)["goodput_per_s"], 0.5)

    def test_goodput_is_zero_when_nothing_resolves(self):
        s = serve_run([(-1, 0, -1, 1)])
        self.assertEqual(stats.serve_outcomes(s)["goodput_per_s"], 0.0)

    def test_latency_is_from_due_time_of_ok_responses(self):
        s = serve_run([(stats.OK, 100, 3_000_100, 1),
                       (stats.EXPIRED, 0, 9_000_000, 1)])
        self.assertEqual(stats.serve_latencies_ms(s), [3.0])


if __name__ == "__main__":
    unittest.main()

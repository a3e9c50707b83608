"""Tests of the benchmark's own generators and output checks.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite: they test the benchmark, not
normeval, and do not import it.
"""

from __future__ import annotations

import copy
import json
import unittest
from collections import Counter
from pathlib import Path

import checks
import gen
from bn_stemmer import SUFFIXES, stem as bn_stem
from run import import_seconds

BENCH = Path(__file__).resolve().parent
MINI = BENCH.parent / "src" / "normeval" / "data" / "mini_corpus.tsv"
SCRATCH = BENCH / "_work" / "selftest"
SAMPLE_ROWS = [
    ("The runners were sprinting across the muddy field.", "sports"),
    ("Bake the bread until golden, then let it cool!", "cooking"),
    ("Heavy rain is expected over the hills tonight.", "weather"),
]


def _file_bytes(rows) -> bytes:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "corpus.tsv"
    gen.write_tsv(str(path), rows)
    return path.read_bytes()


class GeneratorTest(unittest.TestCase):
    def test_en_scaleup_is_seeded(self):
        rows = gen.read_tsv(str(MINI)) if MINI.is_file() else SAMPLE_ROWS
        first = _file_bytes(gen.en_scaleup(rows, 7))
        self.assertEqual(first, _file_bytes(gen.en_scaleup(rows, 7)))
        self.assertNotEqual(first, _file_bytes(gen.en_scaleup(rows, 8)))

    def test_en_scaleup_keeps_labels_and_grows_vocabulary(self):
        out = gen.en_scaleup(SAMPLE_ROWS, 1)
        self.assertEqual(len(out), gen.EN_COPIES * len(SAMPLE_ROWS))
        self.assertEqual([label for _, label in out[:3]], [label for _, label in SAMPLE_ROWS])
        before = {t for text, _ in SAMPLE_ROWS for t in checks.own_tokens(text)}
        after = {t for text, _ in out for t in checks.own_tokens(text)}
        self.assertGreater(len(after), 10 * len(before))

    def test_bn_corpus_is_seeded(self):
        rows, occurrences, stems = gen.bn_corpus(3)
        again = gen.bn_corpus(3)
        self.assertEqual(_file_bytes(rows), _file_bytes(again[0]))
        self.assertEqual((occurrences, stems), again[1:])
        self.assertNotEqual(_file_bytes(rows), _file_bytes(gen.bn_corpus(4)[0]))

    def test_bn_pairs_match_the_stemmer_and_the_text(self):
        rows, occurrences, stems = gen.bn_corpus(5)
        self.assertEqual(len(rows), gen.BN_DOCS)
        self.assertEqual(set(occurrences), set(stems))
        for token, root in stems.items():
            self.assertEqual(bn_stem(token), root)
            self.assertIn(token[len(root):], ("",) + SUFFIXES)
        tokens = Counter(t for text, _ in rows for t in checks.own_tokens(text))
        self.assertEqual(tokens, occurrences)
        suffixed = sum(n for t, n in occurrences.items() if stems[t] != t)
        self.assertAlmostEqual(suffixed / sum(occurrences.values()), gen.BN_SUFFIXED_SHARE, delta=0.02)

    def test_write_tsv_refuses_rows_the_reader_would_merge(self):
        with self.assertRaises(ValueError):
            gen.write_tsv(str(SCRATCH / "refused.tsv"), [('"quoted start', "a")])


class ExpectationTest(unittest.TestCase):
    def test_own_tokens(self):
        self.assertEqual(checks.own_tokens("«Hello,» world! -- ok"), ["hello", "world", "ok"])
        self.assertEqual(checks.own_tokens("কথা বলো।"), ["কথা", "বলো"])

    def test_truncate_expectation(self):
        got = checks.truncate_expectation(["abcd ab abcd"], 3)
        # types abcd, ab -> abc, ab; occurrences lose 1/4, 0, 1/4
        self.assertEqual(got["cr"], 1.0)
        self.assertAlmostEqual(got["anld"], (0.25 + 0 + 0.25) / 3)

    def test_stems_expectation(self):
        got = checks.stems_expectation(Counter({"ab": 2, "abc": 1}), {"ab": "ab", "abc": "ab"})
        self.assertEqual(got["cr"], 2.0)
        self.assertAlmostEqual(got["anld"], (1 / 3) / 3)

    def test_import_seconds_takes_the_outermost_entries(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        900 |     numpy",
            "import time:        50 |         50 |       numpy.core",
            "import time:        10 |        300 |     scipy.stats._stats_py",
            "import time:        10 |        200 |     scipy.stats._morestats",
            "import time:        10 |        700 |   normeval.downstream",
        ])
        self.assertEqual(import_seconds(log, "numpy"), 900e-6)
        self.assertEqual(import_seconds(log, "scipy.stats"), 500e-6)
        self.assertEqual(import_seconds(log, "requests"), 0.0)


def _downstream(original: float, normalized: float) -> dict:
    side = lambda acc: {"accuracy": acc, "macro_f1": acc}
    delta = normalized - original
    mpd = {"mpd": delta, "p_value": 1.0 if delta == 0 else 0.2, "test": "paired_t",
           "significant": False}
    return {"classifier": "multinomial_nb", "original": side(original),
            "normalized": side(normalized), "mpd_accuracy": dict(mpd),
            "mpd_macro_f1": dict(mpd), "mcnemar_p": 1.0 if delta == 0 else 0.5}


def _entry(name: str, cr: float, anld: float, irs: float, downstream: dict) -> dict:
    return {"normalizer": name, "compression": {"cr": cr}, "irs": {"irs": irs},
            "ses": cr * irs, "verdict": "safe" if anld <= 0.2 else "unsafe",
            "safety_threshold": 0.2, "anld": {"anld": anld}, "downstream": [downstream]}


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.truncate = checks.truncate_expectation([t for t, _ in SAMPLE_ROWS], 3)
        self.payload = {"reports": [
            _entry("identity", 1.0, 0.0, 1.0, _downstream(0.9, 0.9)),
            _entry("truncate-3", self.truncate["cr"], self.truncate["anld"], 0.5,
                   _downstream(0.9, 0.85)),
        ]}
        self.expects = [{"identity": True}, {**self.truncate, "unsafe": True}]

    def problems(self, payload):
        return checks.check_report(payload, self.expects)

    def test_consistent_report_passes(self):
        self.assertEqual(self.problems(self.payload), [[], []])

    def test_rejects_perturbed_cr(self):
        bad = copy.deepcopy(self.payload)
        bad["reports"][1]["compression"]["cr"] *= 1 + 1e-9
        self.assertTrue(self.problems(bad)[1])

    def test_rejects_perturbed_anld(self):
        bad = copy.deepcopy(self.payload)
        bad["reports"][1]["anld"]["anld"] += 1e-9
        self.assertTrue(self.problems(bad)[1])
        bad = copy.deepcopy(self.payload)
        bad["reports"][0]["anld"]["anld"] = 1e-12
        self.assertTrue(self.problems(bad)[0])

    def test_rejects_perturbed_mpd(self):
        for i in (0, 1):
            bad = copy.deepcopy(self.payload)
            bad["reports"][i]["downstream"][0]["mpd_accuracy"]["mpd"] += 1e-9
            self.assertTrue(self.problems(bad)[i])
            self.assertFalse(self.problems(bad)[1 - i])

    def test_rejects_wrong_verdict_and_ses(self):
        bad = copy.deepcopy(self.payload)
        bad["reports"][1]["verdict"] = "safe"
        self.assertTrue(self.problems(bad)[1])
        bad = copy.deepcopy(self.payload)
        bad["reports"][1]["ses"] += 1e-9
        self.assertTrue(self.problems(bad)[1])

    def test_rejects_identity_that_moves_a_classifier(self):
        bad = copy.deepcopy(self.payload)
        bad["reports"][0]["downstream"][0]["mcnemar_p"] = 0.9
        self.assertTrue(self.problems(bad)[0])

    def test_rejects_chance_accuracy(self):
        bad = copy.deepcopy(self.payload)
        bad["reports"][1]["downstream"] = [_downstream(0.9, 0.4)]
        self.assertTrue(self.problems(bad)[1])

    def test_error_entry_fails(self):
        bad = copy.deepcopy(self.payload)
        bad["reports"][1] = {"normalizer": "truncate-3", "error": "boom"}
        self.assertEqual(self.problems(bad)[1], ["error: boom"])

    def test_parse_report_refuses_nan(self):
        text = json.dumps(self.payload)
        self.assertEqual(checks.parse_report(text.encode()), self.payload)
        with self.assertRaises(ValueError):
            checks.parse_report(text.replace("0.9", "NaN", 1).encode())


if __name__ == "__main__":
    unittest.main()

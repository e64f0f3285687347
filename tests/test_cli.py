import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegrowth import cli, freelie
from liegrowth.errors import InputError
from liegrowth.freelie import GeneratorSet, TensorElement
from liegrowth.moore import MooreWedge
from liegrowth.zpmod import GradedModule, ModuleMorphism, RingSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

COMMANDS = {
    "witt": ["witt", "--n", "2", "--max-k", "6"],
    "hall": ["hall", "--n", "2", "--max-k", "4"],
    "lie-dims": ["lie-dims", "--p", "3", "--gens", "x:2,y:1", "--max-weight", "3"],
    "homology": ["homology", "--p", "3", "--deg-x", "2", "--max-weight", "5"],
    "tau-sigma": ["tau-sigma", "--p", "3", "--k", "1"],
    "ineq": ["ineq", "--p", "3", "--max-k", "4"],
    "boundary-growth": ["boundary-growth", "--p", "3", "--max-k", "3"],
    "moore-split": ["moore-split", "--n", "4", "--ell", "12"],
    "moore-smash": ["moore-smash", "--n", "2", "--m", "3", "--p", "3", "--r", "2"],
    "moore-hm": ["moore-hm", "--n", "2", "--m", "2", "--p", "3", "--r", "2",
                 "--max-k", "4"],
    "moore-growth": ["moore-growth", "--n", "2", "--m", "2", "--p", "5", "--r", "2",
                     "--s", "2", "--j", "7", "--K", "12"],
    "growth-analyze": ["growth-analyze", "--points",
                       "26:14336,28:65024,30:255488,32:941568"],
    "selftest": ["selftest", "--trials", "20", "--seed", "0"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSubcommands:
    def test_witt_table(self):
        code, out, _ = run_cli(COMMANDS["witt"])
        assert code == 0
        data = json.loads(out)
        assert data["witt"] == [[1, 2], [2, 1], [3, 2], [4, 3], [5, 6], [6, 9]]

    def test_witt_csv(self):
        code, out, _ = run_cli(["--format", "csv"] + COMMANDS["witt"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,witt"
        assert lines[1] == "1,2"

    def test_hall_counts_match(self):
        code, out, _ = run_cli(COMMANDS["hall"])
        data = json.loads(out)
        for entry in data["weights"]:
            assert entry["count"] == entry["witt"]
            assert len(entry["products"]) == entry["count"]

    def test_homology_table(self):
        code, out, _ = run_cli(COMMANDS["homology"])
        data = json.loads(out)
        totals = {w["weight"]: sum(w["H"].values()) for w in data["weights"]}
        assert totals == {1: 0, 2: 0, 3: 2, 4: 0, 5: 0}

    def test_lie_dims(self):
        code, out, _ = run_cli(COMMANDS["lie-dims"])
        data = json.loads(out)
        assert [w["total"] for w in data["weights"]] == [2, 2, 2]

    def test_tau_sigma(self):
        code, out, _ = run_cli(COMMANDS["tau-sigma"])
        data = json.loads(out)
        assert data["d_tau_is_zero"] and data["d_sigma_is_zero"]
        assert data["tau"] == [{"coeff": 1, "tree": ["x", ["x", "y"]]}]

    def test_ineq_all_hold(self):
        code, out, _ = run_cli(COMMANDS["ineq"])
        data = json.loads(out)
        assert all(r["homology_small"] and r["boundaries_large"]
                   for r in data["rows"])

    def test_moore_split(self):
        code, out, _ = run_cli(COMMANDS["moore-split"])
        data = json.loads(out)
        assert data["wedge"] == [
            {"dim": 4, "p": 2, "r": 2, "mult": 1},
            {"dim": 4, "p": 3, "r": 1, "mult": 1},
        ]

    def test_moore_split_beyond_trial_bound(self):
        for ell, wedge in (
            (10 ** 25, [(2, 25), (5, 25)]),  # smooth, above the primality bound
            (1048583 ** 2, [(1048583, 2)]),  # a prime power above 2^20
        ):
            code, out, _ = run_cli(["moore-split", "--n", "5", "--ell", str(ell)])
            assert code == 0
            assert json.loads(out)["wedge"] == [
                {"dim": 5, "p": p, "r": r, "mult": 1} for p, r in wedge
            ]

    def test_moore_smash_with_json_wedges(self):
        a = json.dumps([{"dim": 2, "p": 3, "r": 1, "mult": 1}])
        b = json.dumps([{"dim": 3, "p": 3, "r": 1, "mult": 2}])
        code, out, _ = run_cli(["moore-smash", "--a", a, "--b", b])
        data = json.loads(out)
        assert data["smash"] == [
            {"dim": 4, "p": 3, "r": 1, "mult": 2},
            {"dim": 5, "p": 3, "r": 1, "mult": 2},
        ]

    def test_moore_smash_rejects_non_integer_json(self):
        # int() would have read dim 2.5 as 2 and mult 1.9 as 1
        b = json.dumps([{"dim": 3, "p": 3, "r": 1, "mult": 2}])
        for bad in ({"dim": 2.5, "p": 3, "r": 1, "mult": 1},
                    {"dim": 2, "p": 3, "r": 1, "mult": 1.9}):
            code, out, err = run_cli(["moore-smash", "--a", json.dumps([bad]), "--b", b])
            assert code == 2 and not out
            assert "must be an integer" in err

    def test_moore_growth_certificate(self):
        code, out, _ = run_cli(COMMANDS["moore-growth"])
        data = json.loads(out)
        by_k = {c["k"]: c for c in data["contributions"]}
        assert by_k[3]["count"] == 8
        assert data["analysis"]["verdict"] == "exponential"

    def test_growth_analyze(self):
        code, out, _ = run_cli(COMMANDS["growth-analyze"])
        data = json.loads(out)
        assert data["verdict"] == "exponential"

    def test_selftest_passes(self):
        code, out, _ = run_cli(COMMANDS["selftest"])
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True

    def test_selftest_stdout_is_pinned(self):
        # suite names, case counts and failure text are CLI output: a faster
        # suite must print the same bytes
        code, out, _ = run_cli(["selftest", "--trials", "120", "--seed", "7"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "867875e83b9a556d0b5413d9c2d250417ed019ee15255a2934775439ff1c409d"
        )

    def test_selftest_failure_exits_1(self, monkeypatch):
        from liegrowth import selfcheck

        def broken(trials=None, seed=None):
            result = selfcheck.SuiteResult("synthetic", 1)
            result.fail("deliberate")
            return [result]

        monkeypatch.setattr(selfcheck, "run_all", broken)
        code, out, err = run_cli(["selftest"])
        assert code == 1
        assert json.loads(out)["ok"] is False
        assert "deliberate" in err


class TestExitCodes:
    def test_unknown_subcommand_usage_exit_2(self):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2
        assert "usage" in err.getvalue()

    def test_invalid_input_is_2(self):
        code, _, err = run_cli(["moore-split", "--n", "4", "--ell", "1"])
        assert code == 2
        assert "invalid input" in err

    def test_composite_p_is_2(self):
        code, _, _ = run_cli(["witt", "--n", "0", "--max-k", "3"])
        assert code == 2

    def test_resource_guard_is_3(self):
        code, _, err = run_cli(["tau-sigma", "--p", "3", "--k", "5"])
        assert code == 3
        assert "resource guard" in err

    def test_moore_hm_has_no_weight_guard(self):
        # weight 40 lists 21322 summands, under the summand guard
        code, out, _ = run_cli(
            ["moore-hm", "--n", "2", "--m", "2", "--p", "3", "--r", "1",
             "--max-k", "40"]
        )
        assert code == 0
        counts = {}
        for f in json.loads(out)["factors"]:
            k = f["k1"] + f["k2"]
            counts[k] = counts.get(k, 0) + f["count"]
        assert counts == {k: freelie.witt(2, k) for k in range(1, 41)}

    def test_bad_growth_window_is_2(self):
        for argv in (
            ["growth-analyze", "--points", "1:2,2:4", "--window", "nan"],
            ["growth-analyze", "--points", "1:2,2:4", "--epsilon", "nan"],
            COMMANDS["moore-growth"] + ["--window", "2"],
            # --K 4 leaves fewer than two points to analyze
            COMMANDS["moore-growth"] + ["--K", "4", "--window", "2"],
        ):
            code, out, err = run_cli(argv)
            assert code == 2 and not out
            assert "invalid input" in err

    def test_moore_split_guard_is_3(self):
        code, out, err = run_cli(
            ["moore-split", "--n", "5", "--ell", str(1821275394067 * 1821275393963)]
        )
        assert code == 3 and not out
        assert "resource guard" in err and "1048576" in err

    def test_word_guard_refuses_before_any_work(self):
        # the top weight is checked before weights 1..max - 1 are computed
        # one block bound for every coefficient exponent u
        # boundary-growth reaches weight deg(x) * max_k = 18 through degree 18
        for argv, weight, words in (
            (["lie-dims", "--p", "3", "--u", "2", "--gens", "x:1,y:1",
              "--max-weight", "15"], 15, 32768),
            (["lie-dims", "--p", "3", "--gens", "x:2,y:1", "--max-weight", "17"], 17, 24310),
            (["homology", "--p", "3", "--deg-x", "2", "--max-weight", "17"], 17, 24310),
            (["ineq", "--p", "3", "--max-k", "17"], 17, 24310),
            (["boundary-growth", "--p", "3", "--max-k", "9"], 18, 48620),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(argv)
            assert time.perf_counter() - start < 1
            assert code == 3 and not out
            assert err == (
                f"resource guard: the widest degree block of weight {weight} has "
                f"{words} words, above the guard of 16384; this guard has no override\n"
            )
        # an invalid coefficient exponent is still invalid input first
        code, _, err = run_cli(["lie-dims", "--p", "3", "--u", "0",
                                "--gens", "x:1,y:1", "--max-weight", "30"])
        assert code == 2 and "s must be >= 1, got 0" in err

    def test_weight_27_cycles_need_no_flag(self):
        code, out, _ = run_cli(["tau-sigma", "--p", "3", "--k", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["weight"] == 27
        assert data["d_tau_is_zero"] and data["d_sigma_is_zero"]

    def test_tau_sigma_k_at_the_boundary(self):
        for k, expected in (("0", 2), ("-1", 2), ("100000000", 3)):
            start = time.perf_counter()
            code, out, err = run_cli(["tau-sigma", "--p", "3", "--k", k])
            assert time.perf_counter() - start < 1
            assert code == expected and not out
        code, _, err = run_cli(["tau-sigma", "--p", "131", "--k", "1"])
        assert code == 3 and "no override" in err

    def test_unbounded_jobs_end_in_a_refusal(self):
        # each of these once ended in a traceback with exit 1
        wedge = json.dumps([{"dim": 3, "p": 3, "r": 1, "mult": 2}])
        for argv, expected, message in (
            (["hall", "--n", "4", "--max-k", "16"], 3,
             "resource guard: the basic products on 4 generators up to weight 10 "
             "number 145338 (max weight 16), above the guard of 65536; "
             "this guard has no override\n"),
            (["moore-hm", "--n", "2", "--m", "2", "--p", "3", "--r", "2",
              "--max-k", "300"], 3,
             "resource guard: the expansion to weight 300 has 8999902 Moore "
             "summands, above the guard of 65536; this guard has no override\n"),
            (COMMANDS["moore-growth"][:-1] + ["518"], 2,
             "invalid input: max_weight 518 is above 517: the certificate prints "
             "4^k / (2k) as a float, which overflows beyond it\n"),
            (["moore-smash", "--a", '[{"dim": 2}]', "--b", wedge], 2,
             "invalid input: a wedge term lacks the key 'p'\n"),
            (["moore-smash", "--a", '{"dim": 2}', "--b", wedge], 2,
             "invalid input: a wedge must be an array, got dict\n"),
            (["moore-smash", "--a", "[3]", "--b", wedge], 2,
             "invalid input: a wedge term must be an object, got int\n"),
            (["moore-smash", "--a", "[" * 5000 + "]" * 5000, "--b", wedge], 2,
             "invalid input: --a nests too deeply\n"),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(argv)
            assert time.perf_counter() - start < 1
            assert (code, out, err) == (expected, "", message)

    def test_huge_r_is_never_raised_to_a_power(self):
        # p^r = 2 is tested as (p, r) == (2, 1); only a printed order needs p^r
        wedge = json.dumps([{"dim": 2, "p": 3, "r": 10 ** 9, "mult": 1}])
        start = time.perf_counter()
        code, out, _ = run_cli(["moore-smash", "--a", wedge, "--b", wedge])
        assert code == 0 and json.loads(out)["smash"][0]["r"] == 10 ** 9
        code, out, _ = run_cli(["moore-growth", "--n", "2", "--m", "2", "--p", "5",
                                "--r", str(10 ** 9), "--s", "2", "--j", "7", "--K", "12"])
        assert code == 0 and json.loads(out)["params"]["r"] == 10 ** 9
        hm = ["moore-hm", "--n", "2", "--m", "2", "--p", "3", "--r", str(10 ** 9),
              "--max-k", "1"]
        code, out, _ = run_cli(hm)
        assert code == 0 and json.loads(out)["r"] == 10 ** 9
        # the CSV wedge column prints P^n(p^r)
        code, out, err = run_cli(["--format", "csv"] + hm)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "invalid input: the order 3^1000000000 is above 2^8192\n"
        # the largest order printed: 2^8192 has 2467 digits
        code, out, _ = run_cli(["--format", "csv", "moore-hm", "--n", "2", "--m", "2",
                                "--p", "2", "--r", "8192", "--max-k", "1"])
        assert code == 0 and out.endswith(f"P^3({2 ** 8192})\n")

    def test_witt_digit_guard(self):
        # about 524546 digits at K = 1863 for n = 2, one per entry for n = 1;
        # W_10(4400) has 4397 digits, more than Python prints
        for argv, expected in (
            (["witt", "--n", "2", "--max-k", "1862"], 0),
            (["witt", "--n", "2", "--max-k", "1863"], 3),
            (["witt", "--n", "1", "--max-k", "524289"], 3),
            (["witt", "--n", "10", "--max-k", "4400"], 3),
            (["witt", "--n", str(10 ** 100), "--max-k", "43"], 3),
            (["witt", "--n", "0", "--max-k", "3"], 2),
        ):
            code, out, err = run_cli(argv)
            assert code == expected, argv
            if expected == 3:
                assert not out and err.endswith("this guard has no override\n")

    def test_one_generator_tables(self):
        code, out, _ = run_cli(["witt", "--n", "1", "--max-k", "3000"])
        assert code == 0
        assert json.loads(out)["witt"] == [[k, int(k == 1)] for k in range(1, 3001)]
        code, out, _ = run_cli(["--format", "csv", "hall", "--n", "1", "--max-k", "3000"])
        assert code == 0
        assert out.splitlines() == ["k,count,witt", "1,1,1"] + [
            f"{k},0,0" for k in range(2, 3001)]
        # one tree in all, but a row per weight
        code, out, err = run_cli(["hall", "--n", "1", "--max-k", "65537"])
        assert (code, out) == (3, "")
        assert err == ("resource guard: the basic products up to weight 65537 span "
                       "more than 65536 weights; this guard has no override\n")

    def test_homology_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, about 10 ms cold
        script = (
            "import contextlib, io, sys\n"
            "from liegrowth import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['homology', '--p', '3', '--deg-x', '2', '--max-weight', '4'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


# Any JSON value, small enough that no reader is slow on it
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3, 12)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def objects(fields):
    """JSON objects holding ``fields`` or, half the time, any subset of them,
    each value valid or junk, among junk keys."""
    broken = st.builds(
        lambda chosen, extra: {**extra, **chosen},
        st.fixed_dictionaries({}, optional={k: v | JUNK for k, v in fields.items()}),
        st.dictionaries(st.text(max_size=3), JUNK, max_size=2),
    )
    return st.fixed_dictionaries(fields) | broken


def arrays(item):
    return st.lists(item | JUNK, max_size=3)


WEDGE_TERM = objects({"dim": st.integers(1, 4), "p": st.sampled_from((3, 5, 4)),
                      "r": st.integers(0, 2), "mult": st.integers(0, 2)})
MODULE = objects({"p": st.sampled_from((3, 5, 4)), "s": st.integers(0, 2),
                  "components": st.dictionaries(st.sampled_from(("0", "1", "x")),
                                                arrays(st.integers(1, 2)), max_size=2)})
F3_MODULE = st.fixed_dictionaries({"p": st.just(3), "s": st.just(1), "components": (
    st.dictionaries(st.sampled_from(("0", "1")), st.lists(st.just(1), max_size=2)))})
MORPHISM = objects({"domain": F3_MODULE | MODULE, "codomain": F3_MODULE | MODULE,
                    "shift": st.integers(-1, 1),
                    "matrices": st.dictionaries(st.sampled_from(("0", "1", "x")),
                                                arrays(arrays(st.integers(0, 9))),
                                                max_size=2)})
TENSOR = arrays(objects({"coeff": st.integers(-2, 2),
                         "word": arrays(st.sampled_from(("x", "y", "z")))}))
GENS = GeneratorSet.build([("x", 1), ("y", 2)], RingSpec(3, 1))


class TestMalformedJson:
    @settings(max_examples=150, deadline=None)
    @given(
        wedge=arrays(WEDGE_TERM) | JUNK,
        module=MODULE | JUNK,
        morphism=MORPHISM | JUNK,
        tensor=TENSOR | JUNK,
    )
    def test_readers_refuse_with_input_error(self, wedge, module, morphism, tensor):
        for read, data in (
            (MooreWedge.from_json, wedge),
            (GradedModule.from_json_dict, module),
            (ModuleMorphism.from_json_dict, morphism),
            (lambda d: TensorElement.from_json(GENS, d), tensor),
        ):
            try:
                read(data)
            except InputError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(a=arrays(WEDGE_TERM) | JUNK, b=arrays(WEDGE_TERM) | JUNK)
    def test_moore_smash_exits_0_or_2(self, a, b):
        code, out, err = run_cli(["moore-smash", "--a", json.dumps(a),
                                  "--b", json.dumps(b)])
        assert code in (0, 2)
        if code == 2:
            assert not out and err.startswith("invalid input: ")
            assert err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_byte_identical_runs(self, name):
        first = run_cli(COMMANDS[name])
        second = run_cli(COMMANDS[name])
        assert first == second
        assert first[1]  # some output was produced

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_byte_identical_csv(self, name):
        argv = ["--format", "csv"] + COMMANDS[name]
        assert run_cli(argv) == run_cli(argv)

import re

from liegrowth import selfcheck


def test_all_suites_pass_quickly():
    results = selfcheck.run_all(trials=40, seed=1)
    assert len(results) == len(selfcheck.DEFAULT_SUITES)
    for result in results:
        assert result.ok(), f"{result.name}: {result.failures[:3]}"
        assert result.cases > 0


def test_result_formatting():
    result = selfcheck.SuiteResult("demo", 3, [])
    assert str(result).startswith("ok ")
    result.fail("boom")
    assert not result.ok()
    assert str(result).startswith("FAIL")


def test_subgroup_structure_reads_orders():
    from liegrowth.zpmod import RingSpec

    ring = RingSpec(3, 2)
    # the subgroup of Z/9 + Z/9 generated by (3, 0) and (0, 1)
    exps = selfcheck.subgroup_structure([(3, 0), (0, 1)], ring, (9, 9))
    assert exps == (2, 1)


def test_seeded_runs_are_reproducible():
    a = selfcheck.check_split_injections(trials=50, seed=9)
    b = selfcheck.check_split_injections(trials=50, seed=9)
    assert (a.cases, a.failures) == (b.cases, b.failures)


def test_saturation_sweep_matches_lattice_oracle():
    # every two-summand case at max_s = 2, against the one-case oracle
    p = 3
    for s1 in (1, 2):
        for s2 in range(s1, 3):
            o1, o2 = p ** s1, p ** s2
            for a1 in range(o1):
                a2, b1, b2, det, full = selfcheck._saturation_chunk(o1, o2, a1)
                assert len(det) == o1 * o2 * o2
                for x2, y1, y2, d, f in zip(a2.tolist(), b1.tolist(), b2.tolist(),
                                            det.tolist(), full.tolist()):
                    cols = [(a1, x2), (y1, y2)]
                    assert (d % p != 0) == selfcheck._lattice_is_full(cols, (p, p))
                    assert f == selfcheck._lattice_is_full(cols, (o1, o2))


def test_saturation_case_count():
    # the count selftest --trials 120 prints
    result = selfcheck.check_saturation(trials=120)
    assert result.ok() and result.cases == 604581


def test_saturation_without_the_order_minor_fails(monkeypatch):
    # without o1 * o2 the gcd can stay above 1 while det(a, b) is a unit
    # mod p: a = (0, 2), b = (2, 0) in Z/3 + Z/3 leaves 4, 6, 0, 0, 6
    minors = selfcheck._pair_minors
    monkeypatch.setattr(selfcheck, "_pair_minors", lambda *args: minors(*args)[:-1])
    result = selfcheck.check_saturation(max_s=2, trials=0)
    assert not result.ok()
    assert re.fullmatch(r"orders \(\d+,\d+\): span\[\(\d+, \d+\), \(\d+, \d+\)\]",
                        result.failures[0])

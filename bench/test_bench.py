"""The benchmark's own test: independent computations against cases worked
by hand, checks that reject wrong output, the tracer, and one checked
round of every workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=out)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- independent computations, worked by hand --------------------------------


def test_downsets_of_small_posets():
    assert oracle.downsets(["a", "b"], []) == [0, 1, 2, 3]
    assert oracle.downsets(["a", "b"], [("a", "b")]) == [0, 1, 3]
    # two points under a third: {}, {a}, {b}, {a,b}, {a,b,c}
    assert oracle.downsets(*oracle.search_frame_poset("vee")) == [0, 1, 2, 3, 7]


def test_comparable_pairs():
    for n in range(2, 7):
        assert oracle.search_frame_comparable(f"order{n}") == n * (n + 1) // 2
    for k in range(1, 4):
        assert oracle.search_frame_comparable(f"cube{k}") == 3 ** k
    # vee: 5 diagonal, {} under 4, {a} and {b} under 2 each, {a,b} under 1
    assert oracle.search_frame_comparable("vee") == 14


def test_search_frames_follow_max_size():
    assert oracle.search_frame_names(4) == ["order2", "order3", "order4",
                                            "cube1", "cube2"]
    assert oracle.search_frame_names(5)[-1] == "vee"
    assert [oracle.search_frame_size(n) for n in oracle.search_frame_names(5)] \
        == [2, 3, 4, 5, 2, 4, 5]


def test_monotone_maps_by_hand():
    chain2 = (["p", "q"], [("p", "q")])
    anti2 = (["x", "y"], [])
    assert oracle.monotone_maps(*chain2, *chain2) == 3
    assert oracle.monotone_maps(*anti2, *anti2) == 4
    assert oracle.monotone_maps(*chain2, *anti2) == 2
    # nondecreasing words of length 3 over 2 letters
    chain3 = (["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert oracle.monotone_maps(*chain3, *chain2) == 4


def _brute_lattice_homs(src, dst) -> int:
    """Bounded lattice homomorphisms between lattices of downsets, by the
    definition: maps keeping empty and full sets, unions and intersections."""
    ls, ld = oracle.downsets(*src), oracle.downsets(*dst)
    count = 0
    for values in product(ld, repeat=len(ls)):
        f = dict(zip(ls, values))
        if (f[ls[0]] == ld[0] and f[ls[-1]] == ld[-1]
                and all(f[a | b] == f[a] | f[b] and f[a & b] == f[a] & f[b]
                        for a in ls for b in ls)):
            count += 1
    return count


def test_birkhoff_count_matches_the_definition():
    frames = oracle.search_frame_names(4)
    for a in frames:
        for b in frames:
            pa, pb = oracle.search_frame_poset(a), oracle.search_frame_poset(b)
            assert oracle.lattice_homs(pa, pb) == _brute_lattice_homs(pa, pb), (a, b)
    # 2x2 into the 3-chain: the atoms go to 0 and 1 in either order
    assert oracle.lattice_homs(oracle.search_frame_poset("cube2"),
                               oracle.search_frame_poset("order3")) == 2


def test_chain_counts_by_hand():
    # omega + 1 with the top reflexive: P[S0].0 < P[S0].1 < B[L1] < P[L1],
    # B[L1] the only limit
    assert oracle.chain_rep_pair_counts(1, {1}) == (4, 9, 10)
    assert oracle.chain_classification(2, {2}) == [
        ("omega", "Prin(S0.n)"), ("point", "Below(L1)"),
        ("omega", "Prin(S1.n)"), ("point", "Below(L2)"), ("point", "Prin(L2)"),
    ]
    assert oracle.chain_describe(2, {2}) == "chain:[S0,L1,S1,L2],R=[L2]"


def test_finite_facts_of_the_diamond():
    doc = {"name": "d", "builder": "finite", "elements": ["1", "b", "a", "0"],
           "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
    facts = workloads.finite_facts(doc)
    assert facts.describe == "finite:0,a,b,1"
    assert len(facts.leq) == 9
    assert facts.join_irreducibles == (["b", "a"], [])
    cube = workloads.finite_facts({"name": "c", "builder": "downsets",
                                   "elements": ["x", "y"], "leq": []})
    assert cube.describe == "finite:{},{x},{y},{x,y}"


# -- the checks reject wrong output -----------------------------------------


def test_collapse_check_rejects_a_wrong_count():
    check = workloads.check_search_collapse(5)
    recs = [{"frame": nm, "verdict": "pass",
             "samples": 2 ** (oracle.search_frame_comparable(nm) - 2)}
            for nm in oracle.search_frame_names(5)]
    assert check("\n".join(json.dumps(r) for r in recs)) == 7
    recs[3]["samples"] += 1
    with pytest.raises(workloads.CheckFailed):
        check("\n".join(json.dumps(r) for r in recs))
    with pytest.raises(workloads.CheckFailed):
        check("\n".join(json.dumps(r) for r in recs[:-1]))


def test_compactify_check_rejects_a_non_principal_ideal():
    facts = workloads.finite_facts({"name": "t", "builder": "finite",
                                    "elements": ["0", "1"], "leq": [["0", "1"]]})
    check = workloads.check_compactify_finite("t", facts)
    doc = {"instance": "t",
           "classification": [{"element": "dn(0)", "sigma": "0"},
                              {"element": "dn(1)", "sigma": "1"}],
           "way_below_on_representatives": [["dn(0)", "dn(0)"], ["dn(0)", "dn(1)"],
                                            ["dn(1)", "dn(1)"]],
           "max_rel_on_representatives": [["dn(0)", "dn(0)"], ["dn(0)", "dn(1)"],
                                          ["dn(1)", "dn(1)"]]}
    assert check(json.dumps(doc)) == 1
    doc["classification"][1]["element"] = "{0,1}"
    with pytest.raises(workloads.CheckFailed):
        check(json.dumps(doc))


def test_laws_check_needs_every_law_to_pass():
    check = workloads.check_laws(["finite:0,1"], {})
    reps = [{"law": law, "instance": "finite:0,1", "verdict": "pass"}
            for law in sorted(workloads.SUITE_LAWS)]
    assert check("\n".join(json.dumps(r) for r in reps)) == 16
    reps[0]["verdict"] = "fail"
    with pytest.raises(workloads.CheckFailed):
        check("\n".join(json.dumps(r) for r in reps))


# -- seeded inputs ------------------------------------------------------------


def test_inputs_depend_only_on_the_seed(workdir):
    def docs(seed):
        return [i.doc for i, _ in workloads.write_inputs("finite-search", seed, workdir, ROOT)]

    assert docs(3) == docs(3)
    assert docs(3) != docs(4)
    sizes = {d["name"]: workloads.finite_facts(d).n for d in docs(5)}
    assert sizes["poset12"] == 12 and sizes["poset24"] == 24 and sizes["cube4"] == 16


# -- the tracer ----------------------------------------------------------------


def test_tracer_rebinds_every_import_and_restores():
    import proxkit.cli
    import proxkit.proximity

    original = proxkit.cli.validate_proximity
    tracer = Tracer()
    tracer.install()
    try:
        assert proxkit.cli.validate_proximity is not original
        assert proxkit.proximity.validate_proximity is proxkit.cli.validate_proximity
        rc, out, err, exc = worker.run_command(proxkit.cli, ["validate", "diamond"])
    finally:
        tracer.uninstall()
    assert proxkit.cli.validate_proximity is original
    assert (rc, exc) == (0, None)
    names = [tracer.names[i] for i in tracer.name_of]
    assert names[0] == "cli.main" and tracer.parent[0] == -1
    assert "proximity.validate_proximity" in names
    s = tracer.summary(0, tracer.span_count)
    assert s["proximity.validate_calls"] == 1 and tracer.validate_accepted == 1
    total = sum(s[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(s["covered_s"], rel=1e-9)
    assert s["covered_s"] == pytest.approx(tracer.end[0] - tracer.start[0])


# -- one checked round of every workload ------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round(workload, workdir):
    import proxkit.cli

    inputs = workloads.write_inputs(workload, 7, workdir, ROOT)
    cmds = workloads.commands(workload, inputs)
    times = [[] for _ in cmds]
    wall, ref, results = worker.run_round(proxkit.cli, cmds, times)
    outcome = worker.Outcome()
    for cmd, res in zip(cmds, results):
        worker.judge(cmd, res, outcome)
    assert outcome.problems == []
    assert outcome.attempted == len(cmds)
    expected_faults = 1 if workload == "finite-search" else 0
    assert outcome.failed == outcome.known_faults == expected_faults
    assert outcome.records > 0 and wall > 0 and ref > 0

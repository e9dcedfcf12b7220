"""The workload generators: deterministic per seed, and the scale family
is parse-exact and resolved exactly by the first rung."""

import scalefam
import workloads

from repro.core.driver import analyze_with_fallback
from repro.corpus.generator import generate
from repro.lang import parse
from repro.lang.build import to_source


def test_scale_rounds_are_deterministic_per_seed():
    first = [p.source for p in scalefam.make_round(7, 0)]
    assert first == [p.source for p in scalefam.make_round(7, 0)]
    assert first != [p.source for p in scalefam.make_round(8, 0)]
    assert first != [p.source for p in scalefam.make_round(7, 1)]


def test_scale_round_is_balanced():
    programs = scalefam.make_round(3, 2)
    assert sorted(p.k for p in programs) == list(scalefam.ROUND_KS)
    kinds = [kind for p in programs for kind in p.kinds]
    assert all(kinds.count(kind) >= 4 for kind in scalefam.KINDS)


def test_scale_programs_round_trip():
    for program in scalefam.make_round(1, 0):
        tree = parse(program.source)
        assert parse(to_source(tree)) == tree


def test_small_scale_programs_resolve_exactly_at_the_first_rung():
    small = [p for p in scalefam.make_round(1, 0) if p.k <= 4]
    for program in small:
        report = analyze_with_fallback(parse(program.source))
        assert report.rung_name == "cartesian"
        assert report.result.confidence == "exact"


def test_corpus_rounds_are_deterministic_and_hold_the_quotas():
    first = workloads.corpus_round(5, 0)
    assert [p.source for p in first] == [p.source for p in workloads.corpus_round(5, 0)]
    other = workloads.corpus_round(6, 0)
    assert [p.source for p in first] != [p.source for p in other]
    assert sorted(p.source for p in first) == sorted(p.source for p in other)
    topologies = [p.topology for p in first]
    assert {t: topologies.count(t) for t in set(topologies)} == workloads.CORPUS_QUOTAS


def test_corpus_quotas_name_every_generator_topology():
    seen = {str(generate(seed).axes["topology"]) for seed in range(400)}
    assert seen == set(workloads.CORPUS_QUOTAS)


def test_stream_plan_is_deterministic_per_seed():
    assert workloads.plan_streams(4, 30) == workloads.plan_streams(4, 30)
    assert workloads.plan_streams(4, 30) != workloads.plan_streams(5, 30)

"""The span tracer: self time, interval cover, and clean patching."""

import time

import layers
import pytest

import repro.lang
import repro.lang.parser
from repro.cgraph.constraint_graph import ConstraintGraph


class Toy:
    def outer(self):
        time.sleep(0.01)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.005)


def test_self_time_is_duration_minus_children():
    tracer = layers.Tracer()
    original = Toy.__dict__["outer"]
    tracer.wrap_method(Toy, "outer", "toy.outer")
    tracer.wrap_method(Toy, "inner", "toy.inner")
    Toy().outer()
    tracer.uninstall()
    assert Toy.__dict__["outer"] is original
    agg = tracer.aggregate()
    assert agg["toy.inner"]["calls"] == 2
    assert agg["toy.outer"]["self"] + agg["toy.inner"]["total"] == pytest.approx(
        agg["toy.outer"]["total"])
    assert agg["toy.outer"]["self"] >= 0.01


def test_nested_call_of_the_same_name_folds_into_the_outer_span():
    class Base:
        def step(self):
            return 1

    class Child(Base):
        def step(self):
            return super().step() + 1

    tracer = layers.Tracer()
    tracer.wrap_method(Base, "step", "toy.step")
    tracer.wrap_method(Child, "step", "toy.step")
    assert Child().step() == 2
    tracer.uninstall()
    assert tracer.aggregate()["toy.step"]["calls"] == 1


def test_covered_is_the_union_of_intervals_clipped_to_the_window():
    intervals = [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (10.0, 11.0)]
    assert layers.covered(intervals, 0.5, 3.5) == pytest.approx(2.0)


def test_install_and_uninstall_restore_every_patched_name():
    before = (repro.lang.parse, repro.lang.parser.parse, ConstraintGraph.__dict__["close"])
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert repro.lang.parse is not before[0]
        assert repro.lang.parser.parse is not before[1]
        repro.lang.parse("x = 1\n")
    finally:
        tracer.uninstall()
    assert (repro.lang.parse, repro.lang.parser.parse,
            ConstraintGraph.__dict__["close"]) == before
    assert tracer.aggregate()["lang.parse"]["calls"] == 1
    assert tracer.overhead_seconds() > 0

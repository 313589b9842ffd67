"""Unit tests for repro.buildsys.hashing (Algorithm 1) and delta sets."""

import hashlib

import pytest

from repro.buildsys.delta import (
    affected_targets,
    delta_names,
    deltas_union,
    equation6_conflict,
)
from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher, dirty_targets
from repro.buildsys.loader import load_build_graph
from repro.buildsys.target import Target


@pytest.fixture
def chain_snapshot():
    return {
        "base/BUILD": "target(name='base', srcs=['base.py'])",
        "base/base.py": "B",
        "mid/BUILD": "target(name='mid', srcs=['mid.py'], deps=['//base:base'])",
        "mid/mid.py": "M",
        "top/BUILD": "target(name='top', srcs=['top.py'], deps=['//mid:mid'])",
        "top/top.py": "T",
        "side/BUILD": "target(name='side', srcs=['side.py'])",
        "side/side.py": "S",
    }


class TestTargetHasher:
    def test_hash_is_deterministic(self, chain_snapshot):
        graph = load_build_graph(chain_snapshot)
        first = TargetHasher(graph, chain_snapshot)
        second = TargetHasher(graph, chain_snapshot)
        assert first.all_hashes()["//top:top"] == second.all_hashes()["//top:top"]

    def test_source_change_ripples_to_dependents(self, chain_snapshot):
        graph = load_build_graph(chain_snapshot)
        before = TargetHasher(graph, chain_snapshot).all_hashes()
        changed = dict(chain_snapshot, **{"base/base.py": "B2"})
        after = TargetHasher(load_build_graph(changed), changed).all_hashes()
        assert before["//base:base"] != after["//base:base"]
        assert before["//mid:mid"] != after["//mid:mid"]
        assert before["//top:top"] != after["//top:top"]
        assert before["//side:side"] == after["//side:side"]

    def test_leaf_change_does_not_affect_deps(self, chain_snapshot):
        graph = load_build_graph(chain_snapshot)
        before = TargetHasher(graph, chain_snapshot).all_hashes()
        changed = dict(chain_snapshot, **{"top/top.py": "T2"})
        after = TargetHasher(load_build_graph(changed), changed).all_hashes()
        assert before["//base:base"] == after["//base:base"]
        assert before["//mid:mid"] == after["//mid:mid"]
        assert before["//top:top"] != after["//top:top"]

    def test_dep_list_change_alters_hash(self):
        files = {"p/x.py": "X", "p/y.py": "Y"}
        a = BuildGraph([Target("//p:t", srcs=("p/x.py",)),
                        Target("//p:u", srcs=("p/y.py",))])
        b = BuildGraph([Target("//p:t", srcs=("p/x.py",), deps=("//p:u",)),
                        Target("//p:u", srcs=("p/y.py",))])
        ha = TargetHasher(a, files).all_hashes()["//p:t"]
        hb = TargetHasher(b, files).all_hashes()["//p:t"]
        assert ha != hb

    def test_missing_source_hashes_differently_from_present(self):
        graph = BuildGraph([Target("//p:t", srcs=("p/x.py",))])
        with_src = TargetHasher(graph, {"p/x.py": ""}).all_hashes()["//p:t"]
        without = TargetHasher(graph, {}).all_hashes()["//p:t"]
        assert with_src != without

    def test_digest_is_the_documented_frame_sequence(self):
        """Pins the Algorithm-1 byte layout: tag, payload size, NUL, payload
        for name, each step, each src + its content (or the absent marker),
        each dep + its digest — fed in that order."""

        def digest(*frames):
            hasher = hashlib.sha256()
            for tag, payload in frames:
                hasher.update(tag + str(len(payload)).encode() + b"\x00" + payload)
            return hasher.hexdigest()

        graph = BuildGraph([
            Target("//p:u", srcs=("p/y.py",)),
            Target("//p:t", srcs=("p/gone.py", "p/x.py"), deps=("//p:u",)),
        ])
        hashes = TargetHasher(graph, {"p/x.py": "héllo", "p/y.py": ""}).all_hashes()
        steps = [(b"step", b"compile"), (b"step", b"unit_test")]
        dep = digest(
            (b"name", b"//p:u"), *steps, (b"src", b"p/y.py"), (b"content", b"")
        )
        assert hashes["//p:u"] == dep
        assert hashes["//p:t"] == digest(
            (b"name", b"//p:t"),
            *steps,
            (b"src", b"p/gone.py"),
            (b"absent", b"<missing>"),
            (b"src", b"p/x.py"),
            (b"content", "héllo".encode("utf-8")),
            (b"dep", b"//p:u"),
            (b"dephash", dep.encode("ascii")),
        )

    def test_dirty_targets_same_graph_is_just_the_owners(self, chain_snapshot):
        graph = load_build_graph(chain_snapshot)
        reloaded = load_build_graph(chain_snapshot)  # equal, not identical
        touched = ["mid/mid.py", "not/owned.txt"]
        assert dirty_targets(graph, graph, touched) == {"//mid:mid"}
        assert dirty_targets(graph, reloaded, touched) == {"//mid:mid"}


class TestAffectedTargets:
    def test_delta_of_base_change(self, chain_snapshot):
        changed = dict(chain_snapshot, **{"mid/mid.py": "M2"})
        delta = affected_targets(chain_snapshot, changed)
        assert delta_names(delta) == {"//mid:mid", "//top:top"}

    def test_delta_of_added_target(self, chain_snapshot):
        changed = dict(chain_snapshot)
        changed["new/BUILD"] = "target(name='new', srcs=['n.py'])"
        changed["new/n.py"] = "N"
        delta = affected_targets(chain_snapshot, changed)
        assert "//new:new" in delta_names(delta)

    def test_no_change_empty_delta(self, chain_snapshot):
        assert affected_targets(chain_snapshot, dict(chain_snapshot)) == frozenset()


class TestEquation6:
    def test_independent_changes_do_not_conflict(self, chain_snapshot):
        a = dict(chain_snapshot, **{"top/top.py": "T2"})
        b = dict(chain_snapshot, **{"side/side.py": "S2"})
        both = dict(chain_snapshot, **{"top/top.py": "T2", "side/side.py": "S2"})
        delta_a = affected_targets(chain_snapshot, a)
        delta_b = affected_targets(chain_snapshot, b)
        delta_ab = affected_targets(chain_snapshot, both)
        assert not equation6_conflict(delta_a, delta_b, delta_ab)

    def test_paper_figure8_example_conflicts(self):
        """Figure 8: C1 touches X (affecting Y); C2 adds a dep Z->Y.

        The affected-name intersection is empty, but composing both
        changes gives Z a hash seen after neither individual change.
        """
        base = {
            "x/BUILD": "target(name='x', srcs=['x.py'])",
            "x/x.py": "X",
            "y/BUILD": "target(name='y', srcs=['y.py'], deps=['//x:x'])",
            "y/y.py": "Y",
            "z/BUILD": "target(name='z', srcs=['z.py'])",
            "z/z.py": "Z",
        }
        with_c1 = dict(base, **{"x/x.py": "X-changed"})
        with_c2 = dict(
            base, **{"z/BUILD": "target(name='z', srcs=['z.py'], deps=['//y:y'])"}
        )
        with_both = dict(with_c1, **{
            "z/BUILD": "target(name='z', srcs=['z.py'], deps=['//y:y'])",
        })
        delta_1 = affected_targets(base, with_c1)
        delta_2 = affected_targets(base, with_c2)
        delta_12 = affected_targets(base, with_both)
        # Names do not intersect...
        assert not (delta_names(delta_1) & delta_names(delta_2))
        # ...but Equation 6 still detects the conflict.
        assert equation6_conflict(delta_1, delta_2, delta_12)

    def test_union_helper(self):
        assert deltas_union(frozenset(), frozenset()) == frozenset()

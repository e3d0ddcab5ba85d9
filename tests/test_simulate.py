"""Monte-Carlo cognacy generation and recovery trials."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from isolect import (
    DomainError,
    SimulationConfig,
    coincidence_from_cognacy,
    recovery_trial,
    simulate_cognacy,
)
from isolect import simulate
from isolect.dendrogram import ChainNode, Dendrogram, Leaf, RootLink
from isolect.lexstat import _coincidence_from_classes
from isolect.simulate import BLOCK, RecoveryReport, _one_trial, _replicate_classes, _workers
from isolect.treeio import load_dendrogram

SIM4_TREE = Path(__file__).resolve().parent.parent / "data" / "sim4_tree.json"


def two_leaf_tree(length):
    return Dendrogram(RootLink(length=length, left=Leaf("x"), right=Leaf("y")))


def nested_tree():
    """Five leaves under a chain root: both attach sides, a zero width, a nested chain."""
    c = ChainNode(id="c", width=3.0, left=Leaf("t"), right=Leaf("u"),
                  left_edge=7.0, right_edge=5.0, attach_side="right")
    b = ChainNode(id="b", width=0.0, left=Leaf("s"), right=c,
                  left_edge=20.0, right_edge=9.0, attach_side="left")
    a = ChainNode(id="a", width=4.0, left=Leaf("p"), right=Leaf("q"),
                  left_edge=15.0, right_edge=15.0, attach_side="right")
    return Dendrogram(ChainNode(id="r", width=8.0, left=a, right=b,
                                left_edge=12.0, right_edge=0.0, attach_side="left"))


def random_tree(seed, k, root_link):
    """Seeded random tree on ``k`` leaves: random edges, widths (some zero) and attach sides."""
    rng = np.random.default_rng(seed)
    nodes = [Leaf(f"L{i}") for i in range(k)]
    for n in range(k - 2 if root_link else k - 1):
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False).tolist())
        right, left = nodes.pop(j), nodes.pop(i)
        width = float(rng.uniform(0.0, 20.0)) if rng.random() < 0.7 else 0.0
        left_edge, right_edge = rng.uniform(0.0, 40.0, size=2).tolist()
        nodes.append(ChainNode(id=f"n{n}", width=width, left=left, right=right,
                               left_edge=left_edge, right_edge=right_edge,
                               attach_side=("left", "right")[int(rng.integers(2))]))
    if root_link:
        return Dendrogram(RootLink(length=float(rng.uniform(0.0, 60.0)),
                                   left=nodes[0], right=nodes[1]))
    return Dendrogram(nodes[0])


def far_deep_caterpillar(k):
    """``k`` leaves; every chain has a leaf on its near side and the rest on its far side."""
    node = Leaf("L0")
    for i in range(1, k):
        node = ChainNode(id=f"c{i}", width=2.0, left=Leaf(f"L{i}"), right=node,
                         left_edge=3.0, right_edge=1.0, attach_side="left")
    return Dendrogram(node)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def partition(classes):
    """Each entry's canonical class: the row of the first leaf that shares its class in its slot.

    Row by row, this is ``np.argmax(c[:, None, :] == c[None, :, :], axis=1)``
    without the k x k x slots temporary. Class tokens only mean something
    within a slot, so pinned digests hash this, not the tokens.
    """
    return np.stack([np.argmax(classes == row, axis=0) for row in classes]).astype("<i8")


class TestSimulateCognacy:
    def test_zero_length_segments_never_replace(self):
        node = ChainNode(id="n", width=0.0, left=Leaf("x"), right=Leaf("y"),
                         left_edge=0.0, right_edge=0.0, attach_side="left")
        cfg = SimulationConfig(tree=Dendrogram(node), slots=500, seed=1)
        table = simulate_cognacy(cfg)
        assert np.array_equal(table.class_ids[0], table.class_ids[1])
        assert coincidence_from_cognacy(table).value("x", "y") == 100.0

    def test_determinism_same_seed(self):
        cfg = SimulationConfig(tree=two_leaf_tree(40.0), slots=2000, seed=99)
        a = simulate_cognacy(cfg)
        b = simulate_cognacy(cfg)
        assert np.array_equal(a.class_ids, b.class_ids)
        assert a.slots == b.slots

    def test_different_seeds_differ(self):
        t = two_leaf_tree(40.0)
        a = simulate_cognacy(SimulationConfig(tree=t, slots=2000, seed=1))
        b = simulate_cognacy(SimulationConfig(tree=t, slots=2000, seed=2))
        assert not np.array_equal(a.class_ids, b.class_ids)

    def test_replicates_independent_of_call_order(self):
        cfg = SimulationConfig(tree=two_leaf_tree(40.0), slots=1000, seed=7, replicates=3)
        direct = simulate_cognacy(cfg, replicate=2)
        _ = simulate_cognacy(cfg, replicate=0)
        again = simulate_cognacy(cfg, replicate=2)
        assert np.array_equal(direct.class_ids, again.class_ids)

    def test_replicate_index_validated(self):
        cfg = SimulationConfig(tree=two_leaf_tree(40.0), slots=10, seed=7, replicates=2)
        with pytest.raises(DomainError):
            simulate_cognacy(cfg, replicate=2)

    def test_unbiased_shared_fraction_large_sample(self):
        # two leaves at 100*ln(2): expected shared fraction one half;
        # binomial three-sigma bound at a million slots is 0.0015
        cfg = SimulationConfig(
            tree=two_leaf_tree(100.0 * math.log(2.0)), slots=10**6, seed=5
        )
        table = simulate_cognacy(cfg)
        shared = coincidence_from_cognacy(table).value("x", "y") / 100.0
        assert shared == pytest.approx(0.5, abs=0.002)

    def test_unbiased_across_replicates(self, two_cherry_tree):
        cfg = SimulationConfig(tree=two_cherry_tree, slots=4000, seed=11, replicates=8)
        pair_values = []
        for r in range(cfg.replicates):
            m = coincidence_from_cognacy(simulate_cognacy(cfg, replicate=r))
            pair_values.append(m.value("alpha", "beta"))
        expected = 100.0 * math.exp(-26.0 / 100.0)
        n = cfg.slots * cfg.replicates
        p = expected / 100.0
        sigma = 100.0 * math.sqrt(p * (1 - p) / n)
        assert np.mean(pair_values) == pytest.approx(expected, abs=3.0 * sigma)

    def test_borrowed_flags_all_clear(self):
        cfg = SimulationConfig(tree=two_leaf_tree(30.0), slots=100, seed=3)
        table = simulate_cognacy(cfg)
        assert not table.borrowed.any()

    def test_class_ids_pinned(self):
        # digest of the class matrix's per-slot partition, pinned on the
        # int64 fresh ids the simulator numbered before it stepped segment
        # tags for every caller; guards the RNG stream
        cfg = SimulationConfig(tree=nested_tree(), slots=5000, seed=31, replicates=2)
        table = simulate_cognacy(cfg, replicate=1)
        assert table.languages == ("p", "q", "s", "t", "u")
        assert table.slots[0] == "s0000" and table.slots[-1] == "s4999"
        assert sha256(partition(table.class_ids).tobytes()) == (
            "8e147baed56743180afcc13f99ecb34455ce9bd001aa75107f334c50fd63ebc2"
        )

    @pytest.mark.parametrize("root_link,digest", [
        (False, "83c6dedb0ae1a5679e94ad82e73d43f14ae0345fb500597322d2231fd58fb13c"),
        (True, "e5af3c522fb83cc7017e73979297b9f6d0bb2477abf416eaa1ec92d3efcacd37"),
    ], ids=["chain-root", "root-link"])
    def test_class_ids_pinned_random_trees(self, root_link, digest):
        # one digest over the partitions of seeded random trees with 2 to 30
        # leaves; pinned on the int64 fresh ids
        h = hashlib.sha256()
        for k in range(2, 31):
            cfg = SimulationConfig(tree=random_tree(k, k, root_link), slots=300, seed=100 + k)
            table = simulate_cognacy(cfg)
            h.update(repr(table.languages).encode())
            h.update(partition(table.class_ids).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("root_link,pinned", [
        (False, {
            86: ("30497a249ff0b55d466156eca51601f16a2d4bd03b5de36515826abb1cc4334d", "L74", "L70"),
            87: ("5fe1c0f2e2a7c1a6dc78723f6eae563ceca14f41998abf516ca12d10b64c3214", "L40", "L30"),
        }),
        (True, {
            86: ("95eb6c5e39379de0ea328f8b992f5a1698379d41f493865fcfa88fa64351984d", "L64", "L38"),
            87: ("aa53459e75e1f265b40cc88adb2ea993267d6c36fb9bb89489eaa37e23b996cd", "L31", "L38"),
        }),
    ], ids=["chain-root", "root-link"])
    def test_partitions_pinned_at_the_tag_dtype_boundary(self, root_link, pinned):
        # 86 leaves step at most 255 segments, 87 more (uint16 tags); at 300
        # slots each tree has a pair that shares no class. Pinned on the
        # int64 fresh ids
        for k, (digest, a, b) in pinned.items():
            cfg = SimulationConfig(tree=random_tree(k, k, root_link), slots=300, seed=100 + k)
            languages, classes = _replicate_classes(cfg, 0)
            assert classes.dtype == (np.uint16 if k == 87 else np.uint8)
            assert sha256(partition(classes).tobytes()) == digest
            with pytest.raises(DomainError, match=rf"^pair \({a}, {b}\) shares no cognate"):
                _coincidence_from_classes(languages, classes)

    def test_partition_pinned_over_several_blocks(self):
        # 120 leaves under a root link step 356 segments (uint16 tags) over
        # two blocks of slots; pinned on the int64 fresh ids
        cfg = SimulationConfig(tree=random_tree(120, 120, True), slots=70000, seed=220)
        _, classes = _replicate_classes(cfg, 0)
        assert cfg.slots > BLOCK and classes.dtype == np.uint16
        assert sha256(partition(classes).tobytes()) == (
            "49e4ec34868168131a262f0cb6d3cefed95dce3972a4b4119a302bfbf9a75bca"
        )

    def test_class_arrays_freed_on_deep_far_sides(self):
        # one-byte tags: the uniforms take 8 bytes per slot, and a traversal
        # that keeps one class array per level of depth (as plain recursion
        # does) would hold about 30 more
        slots = 10**5
        cfg = SimulationConfig(tree=far_deep_caterpillar(31), slots=slots, seed=3)
        tracemalloc.start()
        try:
            _, tags = _replicate_classes(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tags.dtype == np.uint8
        assert peak <= tags.nbytes + 16 * slots

    def test_single_leaf_tree(self):
        table = simulate_cognacy(SimulationConfig(tree=Dendrogram(Leaf("solo")), slots=5, seed=1))
        assert table.languages == ("solo",)
        assert table.class_ids.tolist() == [[0, 0, 0, 0, 0]]

    def test_config_validation(self, two_cherry_tree):
        with pytest.raises(DomainError):
            SimulationConfig(tree=two_cherry_tree, slots=0, seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(tree=two_cherry_tree, slots=10, seed=1, replicates=0)

    @pytest.mark.parametrize("field, value", [
        ("slots", 10.0), ("slots", np.float64(10)), ("seed", True), ("replicates", "2"),
    ])
    def test_config_rejects_non_integers(self, two_cherry_tree, field, value):
        counts = {"slots": 10, "seed": 1, "replicates": 2, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SimulationConfig(tree=two_cherry_tree, **counts)

    def test_config_takes_numpy_integers_as_ints(self, two_cherry_tree):
        cfg = SimulationConfig(tree=two_cherry_tree, slots=np.int32(10), seed=np.uint64(1),
                               replicates=np.int64(2))
        assert (cfg.slots, cfg.seed, cfg.replicates) == (10, 1, 2)
        assert all(type(v) is int for v in (cfg.slots, cfg.seed, cfg.replicates))


class TestRecoveryTrial:
    def test_analytic_recovery_exact(self, two_cherry_tree):
        cfg = SimulationConfig(tree=two_cherry_tree, slots=10000, seed=20260301)
        report = recovery_trial(cfg, analytic=True)
        assert report.analytic
        assert report.all_topologies_match
        assert report.worst_length_error <= 1e-6
        assert report.worst_path_error <= 1e-6

    def test_sampled_recovery_topology_and_lengths(self, two_cherry_tree):
        cfg = SimulationConfig(tree=two_cherry_tree, slots=10000, seed=20260301)
        report = recovery_trial(cfg)
        assert report.all_topologies_match
        assert report.worst_length_error <= 2.0
        assert report.worst_path_error <= 2.0

    def test_two_leaf_root_length_close(self):
        cfg = SimulationConfig(tree=two_leaf_tree(25.0), slots=10000, seed=13)
        report = recovery_trial(cfg)
        assert report.all_topologies_match
        assert report.worst_length_error <= 1.0

    def test_deterministic_report(self, two_cherry_tree):
        cfg = SimulationConfig(tree=two_cherry_tree, slots=3000, seed=17, replicates=2)
        assert recovery_trial(cfg) == recovery_trial(cfg)

    def test_single_leaf_rejected(self):
        cfg = SimulationConfig(tree=Dendrogram(Leaf("solo")), slots=10, seed=1)
        with pytest.raises(DomainError):
            recovery_trial(cfg)


def report_through_tables(cfg):
    """Recovery report built from named tables, the way the CLI sees the data."""
    results = tuple(
        _one_trial(cfg, coincidence_from_cognacy(simulate_cognacy(cfg, r)), replicate=r)
        for r in range(cfg.replicates)
    )
    return RecoveryReport(
        analytic=False,
        replicates=results,
        all_topologies_match=all(r.topology_match for r in results),
        worst_length_error=max(r.max_length_error for r in results),
        worst_path_error=max(r.max_path_error for r in results),
    )


class TestClassMatrixPath:
    """``recovery_trial`` counts from the class matrix; tables must agree."""

    @pytest.mark.parametrize("seed,replicates", [(3, 1), (17, 2), (20260301, 3)])
    def test_two_cherry_tree(self, two_cherry_tree, seed, replicates):
        cfg = SimulationConfig(tree=two_cherry_tree, slots=3000, seed=seed, replicates=replicates)
        assert repr(recovery_trial(cfg)) == repr(report_through_tables(cfg))

    @pytest.mark.parametrize("replicates", [1, 2, 3])
    def test_sim4_tree(self, replicates):
        cfg = SimulationConfig(
            tree=load_dendrogram(SIM4_TREE), slots=10000, seed=20260301, replicates=replicates
        )
        assert repr(recovery_trial(cfg)) == repr(report_through_tables(cfg))

    def test_nested_tree(self):
        cfg = SimulationConfig(tree=nested_tree(), slots=4000, seed=5, replicates=2)
        assert repr(recovery_trial(cfg)) == repr(report_through_tables(cfg))

    def test_tags_are_stepping_indices(self):
        # every slot is replaced on both halves of the root link: the left
        # half is the first segment stepped, the right half the second
        cfg = SimulationConfig(tree=two_leaf_tree(1e5), slots=50, seed=1)
        languages, tags = _replicate_classes(cfg, 0)
        assert languages == ("x", "y")
        assert tags.tolist() == [[1] * 50, [2] * 50]

    def test_report_pinned(self):
        # repr digest of the report as computed when every replicate went
        # through a named CognacyTable
        cfg = SimulationConfig(
            tree=load_dendrogram(SIM4_TREE), slots=20000, seed=2026, replicates=3
        )
        assert sha256(repr(recovery_trial(cfg)).encode()) == (
            "096b0ada24f1bc9dcbaa8b44fb0227e582b41d43448ab28e826e47d15261866b"
        )


class TestBlockedDraws:
    """Each segment draws its uniforms ``BLOCK`` slots at a time, as one call would."""

    @pytest.mark.parametrize("slots", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7],
                             ids=lambda slots: f"tags-{slots}")
    def test_blocks_match_one_call_per_segment(self, monkeypatch, slots):
        for tree in (nested_tree(), random_tree(9, 9, True)):
            cfg = SimulationConfig(tree=tree, slots=slots, seed=slots % 101, replicates=2)
            languages, blocked = _replicate_classes(cfg, 1)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "BLOCK", 1 << 62)  # one block: a call over all slots
                again, whole = _replicate_classes(cfg, 1)
            assert again == languages
            assert blocked.dtype == whole.dtype == np.uint8
            assert blocked.tobytes() == whole.tobytes()


def clamping_config(slots=BLOCK + 4464, replicates=3):
    """k = 20 with a root link: every replicate's build clamps some joins."""
    return SimulationConfig(tree=random_tree(20, 20, True), slots=slots, seed=3,
                            replicates=replicates)


def trial_and_warnings(cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = recovery_trial(cfg)
    return repr(report), [(w.category, str(w.message)) for w in caught]


class TestReplicatePool:
    """Replicates are sampled on a thread pool; reports and warnings do not show it."""

    def test_pooled_equals_caller_thread(self, monkeypatch):
        cfg = clamping_config()
        threads = []
        sample = simulate._sample

        def recording(*args):
            threads.append(threading.get_ident())
            return sample(*args)

        monkeypatch.setattr(simulate, "_sample", recording)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        assert _workers(cfg) == 1
        serial = trial_and_warnings(cfg)
        assert set(threads) == {threading.get_ident()}
        threads.clear()
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)
        assert _workers(cfg) == 3
        pooled = trial_and_warnings(cfg)
        assert threading.get_ident() not in threads and len(threads) == 3
        assert len(serial[1]) >= 3  # the config clamps
        assert pooled == serial

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        assert _workers(clamping_config(slots=BLOCK - 1)) == 1
        assert _workers(clamping_config(slots=BLOCK)) == 2
        assert _workers(clamping_config(slots=BLOCK, replicates=1)) == 1
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        assert _workers(clamping_config(slots=10 * BLOCK)) == 1

    @pytest.mark.parametrize("cpus", [1, 3], ids=["caller-thread", "pooled"])
    def test_sampling_error_in_replicate_one(self, monkeypatch, cpus):
        # replicate 1's first two leaves share no class, so counting it fails
        replicate_classes = simulate._replicate_classes

        def disjoint(cfg, replicate):
            languages, classes = replicate_classes(cfg, replicate)
            if replicate == 1:
                classes[0], classes[1] = 0, 1
            return languages, classes

        monkeypatch.setattr(simulate, "_replicate_classes", disjoint)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        cfg = clamping_config()
        assert _workers(cfg) == cpus
        languages = cfg.tree.leaves()
        with pytest.raises(DomainError) as raised, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recovery_trial(cfg)
        assert str(raised.value) == (
            f"pair ({languages[0]}, {languages[1]}) shares no cognate classes; "
            "coincidence of 0 has no finite distance"
        )

    def test_import_and_cli_trial_leave_the_pool_unloaded(self, data_dir, tmp_path):
        # the CLI's 10^4-slot trial is below one block and samples on the caller's thread
        src = str(Path(simulate.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, warnings, isolect, isolect.cli\n"
            "warnings.simplefilter('ignore')\n"
            "loaded = 'concurrent.futures' in sys.modules\n"
            "assert isolect.cli.main(['simulate', '--input', sys.argv[1], '--out-dir', sys.argv[2]]) == 0\n"
            "print(loaded, 'concurrent.futures' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(data_dir / "sim4_config.json"), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == "False False"

"""Forward Monte-Carlo generator of cognacy data on a known dendrogram.

Each basic-list slot evolves independently down the tree: along any segment
of length l swadesh the slot's cognate class is replaced by a globally fresh
class with probability 1 - exp(-l/100), so the expected shared fraction of
two leaves at path distance L is exp(-L/100). Chains are crossed as
segments of their width. Runs are deterministic given the seed: replicate
sub-seeds come from a fixed splittable scheme, segments are visited in a
canonical pre-order, and a segment's uniforms are drawn in slot order, so a
config and replicate index give the same class matrix bit for bit on every
run, whichever other replicates are run.

A replicate is stepped one block of ``BLOCK`` slots at a time: for each
block, one walk of the tree steps every segment over that block alone. The
segment with tag ``t`` draws slot ``j``'s uniform at offset
``(t - 1) * slots + j`` of the replicate's one PCG64 stream, which is where
one ``Generator.random`` call per segment over all slots would draw it, and
the generator jumps there with ``advance`` in O(log n) steps. So the
blocks draw the same numbers as an unblocked walk, and a replicate holds
O(k * BLOCK) bytes of classes and uniforms however many slots it has.
``simulate_cognacy`` writes each block's tags in place into the full
(k, slots) table; a recovery trial adds each block's pair counts into one
k x k count and reuses one (k, BLOCK) buffer.

A recovery trial samples its replicates (tags and pair counts) on a pool of
threads, one per usable CPU up to the replicate count; the draws and the
ufuncs release the GIL. Each replicate reads only its own generator, so
thread timing cannot change a draw, and the reconstruction and comparison
run on the caller's thread in replicate order, so reports and warnings come
out as they do serially. Below one block of slots the work is mostly Python
overhead under the GIL, and the replicates are sampled on the caller's
thread.

A slot's class is encoded as a segment tag: the 1-based stepping index of
the last segment that replaced it, or 0 if none did since the origin, in the
narrowest unsigned dtype that holds the segment count (one byte up to 255
segments). Tags are handed out in stepping order and never reused, so two
leaves share a class in a slot exactly when the same segment replaced it
last or neither was replaced. Tags only mean something within a slot, as
cognacy tokens do: ``simulate_cognacy`` writes tag ``N`` as class ``cN``.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dendrogram import Dendrogram, Leaf, RootLink, _leaf_positions, _paths, theoretical_matrix
from .errors import DomainError
from .lexstat import CognacyTable, _check_integer, _check_labels, _coincidence_from_counts
from .reconstruct import build_dendrogram, redistribute_residuals

__all__ = [
    "RecoveryReport",
    "ReplicateRecovery",
    "SimulationConfig",
    "recovery_trial",
    "simulate_cognacy",
]

# slots per draw: 2**16 float64 uniforms fill 512 KB, about one L2 cache
BLOCK = 1 << 16


@dataclass(frozen=True)
class SimulationConfig:
    """Ground-truth tree, list size, master seed, and replicate count.

    The leaf labels become the languages of the simulated table, so they
    must be labels that its files can carry.
    """

    tree: Dendrogram
    slots: int
    seed: int
    replicates: int = 1

    def __post_init__(self):
        _check_labels(self.tree.leaves())
        for name, least in (("slots", 1), ("replicates", 1), ("seed", 0)):
            value = getattr(self, name)
            if _check_integer(value, name) < least:
                raise DomainError(f"{name} must be >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))


def _tag_dtype(cfg: SimulationConfig):
    """The narrowest unsigned dtype that holds every segment tag of ``cfg.tree``."""
    root = cfg.tree.root
    return np.min_scalar_type(3 * len(cfg.tree.chain_nodes()) + 2 * isinstance(root, RootLink))


def _replicate_classes(cfg: SimulationConfig, replicate: int):
    """Evolve all slots for one replicate: ``(languages, classes)``.

    ``classes`` is the (k, slots) matrix of segment tags (see the module
    docstring), rows in ``tree.leaves()`` order, each block of slots written
    into it in place.
    """
    classes = np.empty((cfg.tree.k, cfg.slots), dtype=_tag_dtype(cfg))
    for _ in _tag_blocks(cfg, replicate, classes):
        pass
    return cfg.tree.leaves(), classes


def _tag_blocks(cfg: SimulationConfig, replicate: int, out):
    """Step one replicate ``BLOCK`` slots at a time; yield each block's tags.

    ``out`` is either the (k, slots) matrix, whose columns the blocks fill
    in turn, or a (k, BLOCK) buffer that every block fills from its first
    column; rows are in ``tree.leaves()`` order. Each yielded view of ``out``
    holds one block's segment tags until the next block is stepped.

    For each block one stack walk steps every segment. Each stack entry holds
    a node, the block's classes at the point above it and the segment lengths
    from that point down to the node's attach endpoint. A chain's near child
    is stepped before its chain width and far side, and a root link is
    crossed as two half-length verticals from one origin, left before right,
    which preserves every leaf-to-leaf path. A point's class array lives
    only in the entries that still need it. Each segment jumps the
    generator to its block's stream offset (see the module docstring).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(replicate,))
    )
    rows = {label: i for i, label in enumerate(cfg.tree.leaves())}
    root = cfg.tree.root
    whole = out.shape[1] == cfg.slots
    uniforms = np.empty(min(cfg.slots, BLOCK))
    drawn = 0  # the stream offset of the next uniform
    for start in range(0, cfg.slots, BLOCK):
        size = min(BLOCK, cfg.slots - start)
        tags = out[:, start : start + size] if whole else out[:, :size]
        origin = np.zeros(size, dtype=out.dtype)
        if isinstance(root, RootLink):
            half = (root.length / 2.0,)
            stack = [(root.right, origin, half), (root.left, origin, half)]
        else:
            stack = [(root, origin, ())]
        del origin
        tag = 0
        while stack:
            node, classes, lengths = stack.pop()
            for length in lengths:
                at = tag * cfg.slots + start
                rng.bit_generator.advance((at - drawn) % 2**128)  # a jump back wraps the period
                drawn = at + size
                tag += 1
                draws = rng.random(out=uniforms[:size])
                classes = _kernels.evolve_slots(classes, draws, 1.0 - math.exp(-length / 100.0), tag)
            if isinstance(node, Leaf):
                tags[rows[node.label]] = classes
            elif node.attach_side == "left":
                stack.append((node.right, classes, (node.width, node.right_edge)))
                stack.append((node.left, classes, (node.left_edge,)))
            else:
                stack.append((node.left, classes, (node.width, node.left_edge)))
                stack.append((node.right, classes, (node.right_edge,)))
        yield tags


def simulate_cognacy(cfg: SimulationConfig, replicate: int = 0) -> CognacyTable:
    """Simulated cognacy table for one replicate (default: the first)."""
    if not 0 <= replicate < cfg.replicates:
        raise DomainError(
            f"replicate index {replicate} outside [0, {cfg.replicates})"
        )
    languages, classes = _replicate_classes(cfg, replicate)
    width = len(str(cfg.slots - 1))
    slots = tuple(f"s{j:0{width}d}" for j in range(cfg.slots))
    return CognacyTable(languages, slots, classes, np.broadcast_to(False, classes.shape))


@dataclass(frozen=True)
class ReplicateRecovery:
    """Reconstruction quality for one simulated replicate."""

    replicate: int
    topology_match: bool
    max_length_error: float
    max_path_error: float


@dataclass(frozen=True)
class RecoveryReport:
    """Aggregate of true-vs-reconstructed comparisons across replicates."""

    analytic: bool
    replicates: tuple
    all_topologies_match: bool
    worst_length_error: float
    worst_path_error: float


def _compare_lengths(truth: Dendrogram, recon: Dendrogram, chains: dict) -> float:
    """Max absolute difference of matched free lengths (requires same topology).

    ``chains`` maps each clade of ``recon`` to its chain node, and truth's
    chain nodes are matched by their clades; verticals are compared as
    sorted pairs because the builder may mirror left and right.
    """
    worst = 0.0
    for clade, tn in zip(truth.clades().values(), truth.chain_nodes()):
        rn = chains[clade]
        edges = zip(sorted((tn.left_edge, tn.right_edge)), sorted((rn.left_edge, rn.right_edge)))
        worst = max(worst, abs(tn.width - rn.width), *(abs(tv - rv) for tv, rv in edges))
    if isinstance(truth.root, RootLink) and isinstance(recon.root, RootLink):
        worst = max(worst, abs(truth.root.length - recon.root.length))
    return worst


def _max_path_error(truth: Dendrogram, recon: Dendrogram) -> float:
    at = _leaf_positions(recon, truth.leaves())
    return float(np.max(np.abs(_paths(truth)[1] - _paths(recon)[1][at][:, at])))


def recovery_trial(cfg: SimulationConfig, analytic: bool = False) -> RecoveryReport:
    """Simulate, reconstruct, and compare against the ground truth.

    With ``analytic`` the sampling step is bypassed and the reconstruction
    runs on the tree's exact coincidence matrix (a noise-free sanity check,
    one pseudo-replicate). Sampled replicates are counted block by block
    from the simulated tags; no slot names, ``CognacyTable`` or (k, slots)
    matrix are built.
    They are sampled on ``_workers(cfg)`` threads (see the module
    docstring), and each is reconstructed on this thread, in replicate order.
    """
    if cfg.tree.k < 2:
        raise DomainError("ground-truth tree needs at least 2 leaves")
    trial, sample = functools.partial(_one_trial, cfg), functools.partial(_sample, cfg)
    replicates = range(cfg.replicates)
    workers = _workers(cfg)
    if analytic:
        results = (trial(theoretical_matrix(cfg.tree, list_size=cfg.slots), 0),)
    elif workers == 1:
        results = tuple(map(trial, map(sample, replicates), replicates))
    else:
        from concurrent.futures import ThreadPoolExecutor  # not at import: it costs 9 ms

        with ThreadPoolExecutor(workers) as pool:
            results = tuple(map(trial, pool.map(sample, replicates), replicates))
    return RecoveryReport(
        analytic=analytic,
        replicates=results,
        all_topologies_match=all(r.topology_match for r in results),
        worst_length_error=max(r.max_length_error for r in results),
        worst_path_error=max(r.max_path_error for r in results),
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(cfg: SimulationConfig) -> int:
    """Threads that sample the replicates: one below a block of slots."""
    return 1 if cfg.slots < BLOCK else min(cfg.replicates, _usable_cpus())


def _sample(cfg: SimulationConfig, replicate: int):
    """Coincidence matrix of one replicate, counted block by block in one reused buffer."""
    k = cfg.tree.k
    buffer = np.empty((k, min(cfg.slots, BLOCK)), dtype=_tag_dtype(cfg))
    counts = np.zeros((k, k), dtype=np.int64)
    for tags in _tag_blocks(cfg, replicate, buffer):
        counts += _kernels.pair_shared_counts(tags)
    return _coincidence_from_counts(cfg.tree.leaves(), counts, cfg.slots)


def _one_trial(cfg: SimulationConfig, measured, replicate: int) -> ReplicateRecovery:
    tree, _ = build_dendrogram(measured)
    tree = redistribute_residuals(tree, measured)
    # equal sets of rooted clades are equal topologies (Robinson & Foulds 1981)
    chains = dict(zip(tree.clades().values(), tree.chain_nodes()))
    match = chains.keys() == set(cfg.tree.clades().values())
    length_error = _compare_lengths(cfg.tree, tree, chains) if match else math.inf
    return ReplicateRecovery(
        replicate=replicate,
        topology_match=match,
        max_length_error=length_error,
        max_path_error=_max_path_error(cfg.tree, tree),
    )

"""Forward Monte-Carlo generator of cognacy data on a known dendrogram.

Each basic-list slot evolves independently down the tree: along any segment
of length l swadesh the slot's cognate class is replaced by a globally fresh
class with probability 1 - exp(-l/100), so the expected shared fraction of
two leaves at path distance L is exp(-L/100). Chains are crossed as
segments of their width. Runs are deterministic given the seed: replicate
sub-seeds come from a fixed splittable scheme, segments are visited in a
canonical pre-order, and all uniforms for a segment are drawn in one call,
so a config and replicate index give the same class matrix bit for bit on
every run, whichever other replicates are run.

Only ``simulate_cognacy`` numbers fresh classes, as int64 ids. A recovery
trial only asks whether two leaves share a class in a slot, so it steps
segment tags instead: a slot holds the 1-based stepping index of the last
segment that replaced it, or 0 if none did, in one byte per slot up to 255
segments. Fresh ids are never reused and lie above the origin ids, so two
leaves hold the same id in a slot exactly when the same segment replaced it
last or neither was replaced: the tags give the same pair counts from the
same draws.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dendrogram import Dendrogram, Leaf, RootLink, _leaf_positions, _paths, theoretical_matrix
from .errors import DomainError
from .lexstat import CognacyTable, _coincidence_from_classes
from .reconstruct import build_dendrogram, redistribute_residuals

__all__ = [
    "RecoveryReport",
    "ReplicateRecovery",
    "SimulationConfig",
    "recovery_trial",
    "simulate_cognacy",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Ground-truth tree, list size, master seed, and replicate count."""

    tree: Dendrogram
    slots: int
    seed: int
    replicates: int = 1

    def __post_init__(self):
        if int(self.slots) < 1:
            raise DomainError(f"slots must be >= 1, got {self.slots!r}")
        if int(self.replicates) < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates!r}")
        if int(self.seed) < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed!r}")
        object.__setattr__(self, "slots", int(self.slots))
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", int(self.seed))


def _replicate_classes(cfg: SimulationConfig, replicate: int, tags: bool = False):
    """Evolve all slots for one replicate: ``(languages, classes)``.

    ``classes`` is the (k, slots) class matrix, rows in ``tree.leaves()``
    order: int64 class ids (slot ``j`` starts in class ``j``), or with
    ``tags`` segment tags (see the module docstring) in the narrowest
    unsigned dtype that holds the segment count. Both come from the same
    draws and give the same pair counts.

    Each stack entry holds a node, the classes of the point above it and the
    segment lengths from that point down to the node's attach endpoint. A
    chain's near child is stepped before its chain width and far side, and a
    root link is crossed as two half-length verticals from one origin, left
    before right, which preserves every leaf-to-leaf path. A point's class
    array lives only in the entries that still need it.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(replicate,))
    )
    languages = cfg.tree.leaves()
    rows = {label: i for i, label in enumerate(languages)}
    root = cfg.tree.root
    if tags:
        segments = 3 * len(cfg.tree.chain_nodes()) + 2 * isinstance(root, RootLink)
        origin = np.zeros(cfg.slots, dtype=np.min_scalar_type(segments))
        next_id = 1
    else:
        origin = np.arange(cfg.slots, dtype=np.int64)
        next_id = cfg.slots
    matrix = np.empty((len(languages), cfg.slots), dtype=origin.dtype)
    if isinstance(root, RootLink):
        half = (root.length / 2.0,)
        stack = [(root.right, origin, half), (root.left, origin, half)]
    else:
        stack = [(root, origin, ())]
    del origin
    uniforms = np.empty(cfg.slots)
    while stack:
        node, classes, lengths = stack.pop()
        for length in lengths:
            classes, next_id = _kernels.evolve_slots(
                classes, rng.random(out=uniforms), 1.0 - math.exp(-length / 100.0), next_id, tags
            )
        if isinstance(node, Leaf):
            matrix[rows[node.label]] = classes
        elif node.attach_side == "left":
            stack.append((node.right, classes, (node.width, node.right_edge)))
            stack.append((node.left, classes, (node.left_edge,)))
        else:
            stack.append((node.left, classes, (node.width, node.left_edge)))
            stack.append((node.right, classes, (node.right_edge,)))
    return languages, matrix


def simulate_cognacy(cfg: SimulationConfig, replicate: int = 0) -> CognacyTable:
    """Simulated cognacy table for one replicate (default: the first)."""
    if not 0 <= replicate < cfg.replicates:
        raise DomainError(
            f"replicate index {replicate} outside [0, {cfg.replicates})"
        )
    languages, ids = _replicate_classes(cfg, replicate)
    width = len(str(cfg.slots - 1))
    slots = tuple(f"s{j:0{width}d}" for j in range(cfg.slots))
    return CognacyTable(languages, slots, ids, np.zeros_like(ids, dtype=bool))


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


def _compare_lengths(truth: Dendrogram, recon: Dendrogram) -> float:
    """Max absolute difference of matched free lengths (requires same topology).

    Chain nodes are matched by their leaf clades; verticals are compared as
    sorted pairs because the builder may mirror left and right.
    """
    recon_by_clade = dict(zip(recon.clades().values(), recon.chain_nodes()))
    worst = 0.0
    for clade, tn in zip(truth.clades().values(), truth.chain_nodes()):
        rn = recon_by_clade[clade]
        worst = max(worst, abs(tn.width - rn.width))
        for tv, rv in zip(
            sorted((tn.left_edge, tn.right_edge)),
            sorted((rn.left_edge, rn.right_edge)),
        ):
            worst = max(worst, abs(tv - rv))
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
    one pseudo-replicate). Sampled replicates are counted straight from the
    simulated class matrix; no slot names or ``CognacyTable`` are built.
    """
    if cfg.tree.k < 2:
        raise DomainError("ground-truth tree needs at least 2 leaves")
    results = []
    if analytic:
        measured = theoretical_matrix(cfg.tree, list_size=cfg.slots)
        results.append(_one_trial(cfg, measured, replicate=0))
    else:
        for replicate in range(cfg.replicates):
            measured = _coincidence_from_classes(*_replicate_classes(cfg, replicate, tags=True))
            results.append(_one_trial(cfg, measured, replicate=replicate))
    results = tuple(results)
    return RecoveryReport(
        analytic=analytic,
        replicates=results,
        all_topologies_match=all(r.topology_match for r in results),
        worst_length_error=max(r.max_length_error for r in results),
        worst_path_error=max(r.max_path_error for r in results),
    )


def _one_trial(cfg: SimulationConfig, measured, replicate: int) -> ReplicateRecovery:
    tree, _ = build_dendrogram(measured)
    tree = redistribute_residuals(tree, measured)
    match = tree.topology_signature() == cfg.tree.topology_signature()
    length_error = _compare_lengths(cfg.tree, tree) if match else math.inf
    return ReplicateRecovery(
        replicate=replicate,
        topology_match=match,
        max_length_error=length_error,
        max_path_error=_max_path_error(cfg.tree, tree),
    )

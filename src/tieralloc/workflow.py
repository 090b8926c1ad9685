"""Workflows as composition trees and the QoS algebra over them.

A workflow is a tree of Seq / And / Xor / Loop nodes over function leaves.
Each leaf occurrence gets a service assignment and so a QoS triple (price,
power, delay); fold_qos, the one fold that composes QoS, folds the triples
into the workflow total:

    Seq   componentwise sum over children
    And   sum of price and power, max of delay (parallel branches)
    Xor   componentwise max over branches (worst case path)
    Loop  child total scaled by the iteration count

fold_of compiles each workflow shape into one Python function once, so
fold_qos and the plan evaluators fold plain floats without walking the
tree, and the array evaluator folds arrays with np.maximum for max. A
leaf's cost may depend on its Seq predecessor's service (the inter-cloud
hop); outline() is the only code that resolves that predecessor, in the
same walk that finds the shape the fold is keyed by.

Normalization rescales each dimension into [0, 1] against extrema so that
lower raw cost maps to higher normalized value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .errors import (ExtremaMismatch, IncompletePlan, InvalidWorkflow,
                     NoRealizingService)

DIMS = ("price", "power", "delay")


@dataclass(frozen=True, slots=True)
class QoSTriple:
    """Non-negative (price USD, power mJ, delay ms) vector.

    Numbers are validated where they enter: the public constructor rejects
    a negative or non-finite component, and candidate cost rows, kept as
    plain (price, power, delay) tuples, pass the same rule in the array
    pass that costs them (allocation.CostMemo). The arithmetic below
    (sums, scaling, componentwise min/max) and fold_qos / normalize_qos
    build their results with trusted_qos, which skips the check: their
    inputs already passed it.
    """

    price: float
    power: float
    delay: float

    def __post_init__(self):
        for dim in DIMS:
            v = getattr(self, dim)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{dim} must be finite and >= 0, got {v}")

    def __add__(self, other: "QoSTriple") -> "QoSTriple":
        return trusted_qos(self.price + other.price,
                           self.power + other.power,
                           self.delay + other.delay)

    def scale(self, k: float) -> "QoSTriple":
        return trusted_qos(self.price * k, self.power * k, self.delay * k)

    def emax(self, other: "QoSTriple") -> "QoSTriple":
        return trusted_qos(max(self.price, other.price),
                           max(self.power, other.power),
                           max(self.delay, other.delay))

    def emin(self, other: "QoSTriple") -> "QoSTriple":
        return trusted_qos(min(self.price, other.price),
                           min(self.power, other.power),
                           min(self.delay, other.delay))

    def get(self, dim: str) -> float:
        if dim not in DIMS:
            raise KeyError(f"unknown QoS dimension {dim!r}")
        return getattr(self, dim)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.price, self.power, self.delay)

    def total(self) -> float:
        """Euclidean length of the vector."""
        return math.sqrt(self.price ** 2 + self.power ** 2 + self.delay ** 2)


_new_triple = object.__new__
_set_price = QoSTriple.price.__set__
_set_power = QoSTriple.power.__set__
_set_delay = QoSTriple.delay.__set__


def trusted_qos(price: float, power: float, delay: float) -> QoSTriple:
    """A QoSTriple built without the entry check, for arithmetic on
    triples that already passed it. Writes the slots directly."""
    q = _new_triple(QoSTriple)
    _set_price(q, price)
    _set_power(q, power)
    _set_delay(q, delay)
    return q


ZERO_QOS = QoSTriple(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class QoSExtrema:
    """Per-dimension [lo, hi] envelope used for normalization."""

    lo: QoSTriple
    hi: QoSTriple

    def __post_init__(self):
        for dim in DIMS:
            if self.lo.get(dim) > self.hi.get(dim):
                raise ValueError(f"extrema inverted on {dim}")


# --- workflow tree -----------------------------------------------------------

@dataclass(frozen=True)
class FunctionNode:
    """A function invocation moving input_kb of data."""

    function_id: str
    input_kb: float

    def __post_init__(self):
        if not self.function_id:
            raise InvalidWorkflow("function id must be non-empty")
        if self.input_kb <= 0:
            raise InvalidWorkflow(f"data size must be positive, got {self.input_kb}")


class WorkflowNode:
    """Base marker for workflow tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(WorkflowNode):
    fn: FunctionNode


@dataclass(frozen=True)
class Seq(WorkflowNode):
    children: tuple[WorkflowNode, ...]

    def __post_init__(self):
        if not self.children:
            raise InvalidWorkflow("Seq needs at least one child")


@dataclass(frozen=True)
class And(WorkflowNode):
    children: tuple[WorkflowNode, ...]

    def __post_init__(self):
        if not self.children:
            raise InvalidWorkflow("And needs at least one child")


@dataclass(frozen=True)
class Xor(WorkflowNode):
    children: tuple[WorkflowNode, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise InvalidWorkflow("Xor needs at least two branches")


@dataclass(frozen=True)
class Loop(WorkflowNode):
    child: WorkflowNode
    count: int

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise InvalidWorkflow(f"loop count must be an int >= 1, got {self.count}")


def seq(*children: WorkflowNode) -> Seq:
    return Seq(tuple(children))


def par(*children: WorkflowNode) -> And:
    return And(tuple(children))


def xor(*children: WorkflowNode) -> Xor:
    return Xor(tuple(children))


def leaf(function_id: str, input_kb: float) -> Leaf:
    return Leaf(FunctionNode(function_id, input_kb))


@dataclass(frozen=True)
class Occurrence:
    """One leaf position in a workflow: preorder index, its function, and the
    occurrence index of the preceding leaf in its Seq chain (None when the
    data arrives from the user or across an And/Xor boundary)."""

    index: int
    fn: FunctionNode
    prev: Optional[int]


def outline(node: WorkflowNode) -> tuple[list[Occurrence], tuple]:
    """Leaf occurrences in preorder with their Seq predecessors, and the
    tree's shape, from one walk.

    This is the only code that threads predecessors: Seq hands the exit of
    each child to the next, And/Xor fan the incoming predecessor out to
    every branch and expose no exit, Loop passes through its child's exit.

    The shape is what fold_qos depends on: the node kinds, the child counts
    and the Loop counts, without the data sizes. Trees of one shape fold
    alike, so the shape keys the compiled folds (see fold_of).
    """
    out: list[Occurrence] = []
    return out, _walk(node, 0, None, out)[2]


def _walk(n: WorkflowNode, idx: int, prev: Optional[int],
          out: list[Occurrence]) -> tuple[int, Optional[int], tuple]:
    """outline's walk below node n, whose first leaf has preorder index idx
    and whose data comes from occurrence prev: appends n's occurrences to
    out and returns the next index, n's exit and n's shape. A module
    function, not a closure over itself, so a call leaves no reference
    cycle behind."""
    if isinstance(n, Leaf):
        out.append(Occurrence(idx, n.fn, prev))
        return idx + 1, idx, ()
    if isinstance(n, Seq):
        shape: list = ["seq"]
        cur = prev
        for child in n.children:
            idx, cur, kid = _walk(child, idx, cur, out)
            shape.append(kid)
        return idx, cur, tuple(shape)
    if isinstance(n, (And, Xor)):
        shape = ["and" if isinstance(n, And) else "xor"]
        for child in n.children:
            idx, _, kid = _walk(child, idx, prev, out)
            shape.append(kid)
        return idx, None, tuple(shape)
    if isinstance(n, Loop):
        idx, cur, kid = _walk(n.child, idx, prev, out)
        return idx, cur, ("loop", n.count, kid)
    raise InvalidWorkflow(f"unknown node type {type(n).__name__}")


def occurrences(node: WorkflowNode) -> list[Occurrence]:
    """Leaf occurrences in preorder with their Seq predecessors (see
    outline)."""
    return outline(node)[0]


LeafCost = tuple[float, float, float]
FoldFn = Callable[[Sequence[LeafCost]], LeafCost]

# compiled folds by (shape, maximum), filled as shapes are first folded
_FOLDS: dict[tuple[tuple, Callable], FoldFn] = {}


def _fold_source(shape: tuple) -> str:
    """Python source of the fold of one shape: one statement per composite
    node, each accumulator starting at 0.0 and taking its children in
    order, so every float operation is the one the rules define."""
    lines: list[str] = []
    leaves = itertools.count()
    p, w, d = _emit(shape, lines, leaves)
    n_leaves = next(leaves)
    unpack = "".join(f"(p{i}, w{i}, d{i}), " for i in range(n_leaves))
    return "\n".join(["def fold(leaves):", f"    {unpack}= leaves", *lines,
                      f"    return ({p}, {w}, {d})"]) + "\n"


def _emit(s: tuple, lines: list[str], leaves: Iterator[int]
          ) -> tuple[str, str, str]:
    """_fold_source's statements for shape s, appended to lines, and the
    names of s's price, power and delay; leaves numbers the leaves in
    preorder. A module function, like _walk, so it leaves no cycle."""
    if not s:
        i = next(leaves)
        return f"p{i}", f"w{i}", f"d{i}"
    if s[0] == "loop":
        dims = [f"{x} * {s[1]}" for x in _emit(s[2], lines, leaves)]
    else:
        kids = [_emit(k, lines, leaves) for k in s[1:]]
        dims = []
        for dim in range(3):
            acc = "0.0"
            for kid in kids:
                if s[0] == "xor" or (s[0] == "and" and dim == 2):
                    acc = f"max({acc}, {kid[dim]})"
                else:
                    acc = f"{acc} + {kid[dim]}"
            dims.append(acc)
    t = len(lines)
    lines.append(f"    P{t}, W{t}, D{t} = {dims[0]}, {dims[1]}, {dims[2]}")
    return f"P{t}", f"W{t}", f"D{t}"


def fold_of(shape: tuple, maximum: Callable = max) -> FoldFn:
    """The fold of one shape (see outline) as one compiled function: it
    maps per-leaf (price, power, delay) tuples, one per leaf in preorder,
    to the workflow total. The fold calls maximum for max: the builtin
    folds floats, np.maximum arrays of plans, element by element alike
    (allocation.PlanArrays). This is the one fold compiler; each (shape,
    maximum) compiles once, on its first fold."""
    fold = _FOLDS.get((shape, maximum))
    if fold is None:
        namespace: dict = {"max": maximum}
        exec(_fold_source(shape), namespace)
        fold = _FOLDS[(shape, maximum)] = namespace["fold"]
    return fold


def fold_qos(node: WorkflowNode, leaf_qos: Sequence[QoSTriple]) -> QoSTriple:
    """Fold per-occurrence QoS triples, one per leaf in preorder, into the
    workflow total (Seq sum, And sum/max, Xor max, Loop scale).

    The fold runs compiled per workflow shape (see fold_of):
    accumulators start at 0.0, Seq sums, And sums price and power and takes
    max(delay, q), Xor takes max(acc, q) per dimension, Loop scales by its
    count.
    """
    return trusted_qos(*fold_of(outline(node)[1])(
        [(q.price, q.power, q.delay) for q in leaf_qos]))


CostFn = Callable[[int, int, FunctionNode, Optional[int]], QoSTriple]


def aggregate_qos(node: WorkflowNode, plan: Mapping[int, int], cost_fn: CostFn) -> QoSTriple:
    """Workflow total of a plan under a per-occurrence cost function.

    plan maps leaf occurrence index (preorder) to a service id. cost_fn is
    called in preorder as cost_fn(service_id, occurrence_index, function,
    prev_service_id), prev_service_id being the assignment of the preceding
    leaf in the same Seq chain, or None.
    """
    leaf_qos = []
    for occ in occurrences(node):
        if occ.index not in plan:
            raise IncompletePlan(f"no assignment for occurrence {occ.index} "
                                 f"({occ.fn.function_id})")
        prev = None if occ.prev is None else plan[occ.prev]
        leaf_qos.append(cost_fn(plan[occ.index], occ.index, occ.fn, prev))
    return fold_qos(node, leaf_qos)


# --- location-time workflows -------------------------------------------------

@dataclass(frozen=True)
class LTWEntry:
    """A workflow requested at a grid cell during a time window."""

    cell_id: int
    window_s: float
    workflow: WorkflowNode
    template: Optional[str] = None

    def __post_init__(self):
        if self.window_s <= 0:
            raise InvalidWorkflow(f"time window must be positive, got {self.window_s}")


@dataclass(frozen=True)
class LTW:
    """Location-time workflow: the requests one user issues along its path."""

    entries: tuple[LTWEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidWorkflow("location-time workflow has no entries")

    def __len__(self) -> int:
        return len(self.entries)


# --- normalization -----------------------------------------------------------

DimBounds = tuple[float, float, float, float, float]


def dim_bounds(lo: float, hi: float) -> DimBounds:
    """What normalizing one dimension against [lo, hi] needs: (lo, hi,
    span, lowest and highest accepted value). Values may stray outside
    [lo, hi] by a relative float slack of 1e-9."""
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    return lo, hi, hi - lo, lo - slack, hi + slack


def normalize_within(value: float, bounds: DimBounds, what: str) -> float:
    """value mapped into [0, 1] against dim_bounds(lo, hi), higher meaning
    lower cost; 1.0 when the span is 0. Raises ExtremaMismatch beyond the
    slack."""
    lo, hi, span, low, high = bounds
    if span == 0:
        return 1.0
    if value < low or value > high:
        raise ExtremaMismatch(f"{what}={value} outside [{lo}, {hi}]")
    return min(1.0, max(0.0, (hi - value) / span))


def normalize_qos(raw: QoSTriple, extrema: QoSExtrema) -> QoSTriple:
    """Map raw QoS into [0, 1] per dimension, higher meaning better."""
    return trusted_qos(*(normalize_within(
        raw.get(d), dim_bounds(extrema.lo.get(d), extrema.hi.get(d)), d)
        for d in DIMS))


def normalize_service(raw: QoSTriple, extrema: QoSExtrema) -> tuple[QoSTriple, float]:
    """Normalized per-dimension QoS of one service and its total length.

    The total is the Euclidean norm of the normalized vector, in [0, sqrt(3)].
    """
    n = normalize_qos(raw, extrema)
    return n, n.total()


# --- extrema through the algebra ---------------------------------------------

def workflow_extrema(node: WorkflowNode,
                     per_occurrence: Mapping[int, QoSExtrema]) -> QoSExtrema:
    """Aggregate per-occurrence envelopes into workflow-level extrema.

    Every aggregation rule is monotone in each dimension, so folding the hi
    (resp. lo) triples through the tree yields the per-dimension max (resp.
    min) any plan can reach.
    """
    occs = occurrences(node)
    hi = fold_qos(node, [per_occurrence[o.index].hi for o in occs])
    lo = fold_qos(node, [per_occurrence[o.index].lo for o in occs])
    return QoSExtrema(lo=lo, hi=hi)


def candidate_services(function_id: str, user, directory) -> list[int]:
    """Ids of all services realizing a function for this user: the user's
    own on-device services plus every cloud-hosted instance in the registry.

    Raises NoRealizingService when the union is empty.
    """
    ids = set(directory.cloud_services_for(function_id))
    ids.update(directory.device_services_for(user.id, function_id))
    if not ids:
        raise NoRealizingService(f"no service realizes {function_id!r}")
    return sorted(ids)

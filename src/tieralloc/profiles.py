"""Measured cost tables and the per-invocation delay / power / price model.

Transfer and compute costs are linear in data size and tabulated per 100 KB.
Binary units throughout: 1 MB = 1024 KB, 1 GB = 1024 MB. The default link
tables are anchored so the measured 2 MB (2048 KB) reference points come out
exactly, e.g. 10.7421875 ms/100KB * 2048 KB = 220 ms.

Delay of one invocation = compute time + link transfer. A sequence step
whose predecessor ran on a different cloud also pays an inter-cloud hop
(intercloud_hop_ms), charged by the plan evaluator.
Power is what the device battery spends: on-device compute energy, or the
radio energy of the transfer. Price combines time-billed cloud rates with
per-GB traffic charges; local clouds are user-owned and bill nothing, while
any 3G transfer pays the cellular data plan rate.

Costing has two steps: _rates resolves what one (tier, link, compute
profile) charges per unit into a plain tuple, and _costs applies resolved
rates to a data size. Every cost goes through that pair, so a planning
table can resolve each service once and still get the same floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterable, Mapping, Optional, Sequence

from .model import LOCAL, PUBLIC, THREEG, WIFI, CloudNode, LocationMap, Service
from .workflow import LeafCost, QoSTriple

KB_PER_MB = 1024.0
KB_PER_GB = 1024.0 * 1024.0
MS_PER_HOUR = 3.6e6

DEVICE = "device"

BILL_COMPUTE = "compute"
BILL_STREAMING = "streaming"
BILL_STORAGE = "storage"


@dataclass(frozen=True)
class LinkProfile:
    """Transfer cost of one link type, per 100 KB moved."""

    delay_ms_per_100kb: float
    energy_mj_per_100kb: float = 0.0


@dataclass(frozen=True)
class ComputeProfile:
    """Processing cost of a service, per 100 KB of input.

    energy is only spent when the host is the user's own device; billing
    selects which public-cloud rate applies to the compute time.
    """

    delay_ms_per_100kb: float
    energy_mj_per_100kb: float = 0.0
    billing: str = BILL_COMPUTE

    def __post_init__(self):
        if self.billing not in _BILLING:
            raise ValueError(f"unknown billing class {self.billing!r}")


_BILLING = (BILL_COMPUTE, BILL_STREAMING, BILL_STORAGE)


@dataclass(frozen=True)
class PriceBook:
    """Published rates: instance-hours, storage, transfer, streaming, cellular."""

    public_compute_usd_per_hour: float = 0.52
    storage_usd_per_gb: float = 0.14
    transfer_usd_per_gb: float = 0.10
    streaming_usd_per_hour: float = 0.15
    cellular_usd_per_gb: float = 20.0


# per-100KB values chosen so 2048 KB reproduces the measured 2 MB figures
_DEFAULT_LINKS = {
    (WIFI, LOCAL): LinkProfile(10.7421875, 753.662109375),      # 220 ms, 15435 mJ
    (WIFI, PUBLIC): LinkProfile(11.71875, 944.580078125),       # 240 ms, 19345 mJ
    (THREEG, LOCAL): LinkProfile(216.11328125, 1277.1484375),   # 4426 ms, 26156 mJ
    (THREEG, PUBLIC): LinkProfile(250.390625, 1335.205078125),  # 5128 ms, 27345 mJ
}

# cloud-to-cloud forwarding, the public-vs-local WiFi delta (20 ms at 2 MB)
_DEFAULT_INTERCLOUD = LinkProfile(0.9765625, 0.0)

_DEFAULT_COMPUTE = {
    "none": ComputeProfile(0.0),
    "device": ComputeProfile(80.0, 80.0),
    "local": ComputeProfile(10.0),
    "public": ComputeProfile(10.0),
}


@dataclass
class ProfileSet:
    """All cost tables used to score an invocation."""

    links: dict[tuple[str, str], LinkProfile] = field(
        default_factory=lambda: dict(_DEFAULT_LINKS))
    intercloud: LinkProfile = _DEFAULT_INTERCLOUD
    compute: dict[str, ComputeProfile] = field(
        default_factory=lambda: dict(_DEFAULT_COMPUTE))
    price: PriceBook = field(default_factory=PriceBook)

    @classmethod
    def defaults(cls) -> "ProfileSet":
        return cls()

    def compute_profile(self, ref: str) -> ComputeProfile:
        try:
            return self.compute[ref]
        except KeyError:
            raise KeyError(f"unknown compute profile {ref!r}") from None

    def to_dict(self) -> dict:
        return {
            "links": {f"{link}_{tier}": asdict(p)
                      for (link, tier), p in sorted(self.links.items())},
            "intercloud": asdict(self.intercloud),
            "compute": {ref: asdict(p) for ref, p in sorted(self.compute.items())},
            "price": asdict(self.price),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProfileSet":
        """Defaults overridden by the given (partial) table dict.

        Its sections are links (keyed link_tier), intercloud, compute (only
        the none, device, local and public profiles: services are built
        from them) and price; each row overrides fields of one table.
        Raises KeyError for an unknown section, link or compute profile,
        and ValueError for a section or row that is not a mapping, an
        unknown field, a rate that is not a finite number >= 0 or an
        unknown billing class.
        """
        unknown = sorted(set(data) - {"links", "intercloud", "compute",
                                      "price"})
        if unknown:
            raise KeyError(f"unknown section {unknown[0]!r}")
        for section in ("links", "compute"):
            if not isinstance(data.get(section, {}), Mapping):
                raise ValueError(f"{section} must be a mapping")
        ps = cls.defaults()
        for key, row in data.get("links", {}).items():
            link, _, tier = key.partition("_")
            if (link, tier) not in ps.links:
                raise KeyError(f"unknown link profile {key!r}")
            ps.links[(link, tier)] = _override(ps.links[(link, tier)], row,
                                               f"links.{key}")
        if "intercloud" in data:
            ps.intercloud = _override(ps.intercloud, data["intercloud"],
                                      "intercloud")
        for ref, row in data.get("compute", {}).items():
            if ref not in _DEFAULT_COMPUTE:
                raise KeyError(f"unknown compute profile {ref!r}: services "
                               f"read none, device, local and public")
            ps.compute[ref] = _override(ps.compute[ref], row, f"compute.{ref}")
        if "price" in data:
            ps.price = _override(ps.price, data["price"], "price")
        return ps


def _override(table, row, where: str):
    """The table with the fields in row replaced. Raises ValueError, naming
    where and the field, unless row maps known fields to finite rates >= 0
    (not bools) or, for billing, to a billing class."""
    if not isinstance(row, Mapping):
        raise ValueError(f"{where} must be a field mapping")
    known = {f.name for f in fields(table)}
    for key, v in row.items():
        if key not in known:
            raise ValueError(f"{where}: unknown field {key!r}")
        if key == "billing":
            if v not in _BILLING:
                raise ValueError(f"{where}.billing: unknown billing class "
                                 f"{v!r}")
        elif not (isinstance(v, numbers.Real) and not isinstance(v, bool)
                  and math.isfinite(v) and v >= 0):
            raise ValueError(f"{where}.{key} must be a finite number >= 0")
    return replace(table, **row)


@dataclass(frozen=True)
class InvocationContext:
    """Everything needed to cost one service invocation.

    link is None for on-device execution. The link must match coverage:
    WiFi only exists where an access point covers the user's cell (build
    contexts via invocation_context).
    """

    user_cell: int
    host_tier: str
    host_node: Optional[int]
    link: Optional[str]
    data_kb: float
    compute_ref: str = "none"

    def __post_init__(self):
        if self.host_tier not in (DEVICE, LOCAL, PUBLIC):
            raise ValueError(f"unknown host tier {self.host_tier!r}")
        if (self.host_tier == DEVICE) != (self.link is None):
            raise ValueError("on-device runs use no link, cloud runs need one")
        if self.link is not None and self.link not in (WIFI, THREEG):
            raise ValueError(f"unknown link {self.link!r}")
        if self.data_kb < 0:
            raise ValueError("data size must be >= 0")


def _route(service: Service, covered_by: Optional[int],
           clouds: Mapping[int, CloudNode]
           ) -> tuple[str, Optional[int], Optional[str]]:
    """Host tier, host cloud and link of running service from a cell whose
    WiFi access point belongs to cloud covered_by (None: no coverage)."""
    if service.on_device:
        return DEVICE, None, None
    node = service.host_cloud
    tier = clouds[node].tier
    if tier == LOCAL:
        return tier, node, WIFI if covered_by == node else THREEG
    return tier, node, WIFI if covered_by is not None else THREEG


def invocation_context(service: Service, user_cell: int, data_kb: float,
                       grid: LocationMap, clouds: Mapping[int, CloudNode]
                       ) -> InvocationContext:
    """Build the costing context for running service at the user's cell.

    Link choice: WiFi to a local cloud requires the cell to be covered by
    that cloud's own access point; WiFi to the public cloud requires any
    coverage; 3G is the fallback everywhere.
    """
    tier, node, link = _route(service, grid.cell(user_cell).wifi_covered_by,
                              clouds)
    return InvocationContext(user_cell=user_cell, host_tier=tier, host_node=node,
                             link=link, data_kb=data_kb,
                             compute_ref=service.compute_ref)


# A resolved cost, what the costing formula needs of one (tier, link,
# compute profile): (compute ms per 100 KB, energy mJ per 100 KB -- the
# device's compute energy or the link's radio energy --, link ms per 100 KB
# or None on the device, hourly USD rate on compute time or None, per-GB USD
# rates in the order they are added)
Rates = tuple[float, float, Optional[float], Optional[float],
              tuple[float, ...]]


def _rates(tier: str, link: Optional[str], compute_ref: str,
           profiles: ProfileSet) -> Rates:
    """The resolve step of the costing formula (see _costs).

    Public clouds bill their hourly rate on compute time plus per-GB
    transfer (storage-class services add the storage rate). Local clouds
    are user-owned and bill nothing. Any 3G transfer additionally pays the
    cellular plan rate per GB. On-device runs are free.
    """
    comp = profiles.compute_profile(compute_ref)
    if tier == DEVICE:
        return (comp.delay_ms_per_100kb, comp.energy_mj_per_100kb, None, None,
                ())
    transfer = profiles.links[(link, tier)]
    book = profiles.price
    hourly = None
    per_gb: list[float] = []
    if tier == PUBLIC:
        hourly = (book.streaming_usd_per_hour if comp.billing == BILL_STREAMING
                  else book.public_compute_usd_per_hour)
        per_gb.append(book.transfer_usd_per_gb)
        if comp.billing == BILL_STORAGE:
            per_gb.append(book.storage_usd_per_gb)
    if link == THREEG:
        per_gb.append(book.cellular_usd_per_gb)
    return (comp.delay_ms_per_100kb, transfer.energy_mj_per_100kb,
            transfer.delay_ms_per_100kb, hourly, tuple(per_gb))


def service_rates(service: Service, covered_by: Optional[int],
                  clouds: Mapping[int, CloudNode],
                  profiles: ProfileSet) -> Rates:
    """Resolved cost of running service from a cell whose WiFi access point
    belongs to cloud covered_by (None: no coverage)."""
    tier, _, link = _route(service, covered_by, clouds)
    return _rates(tier, link, service.compute_ref, profiles)


def _costs(rates: Iterable[Rates], kb: float) -> list[LeafCost]:
    """(price, power, delay) of one invocation on kb per resolved cost; the
    arithmetic step of the only costing formula (see _rates).

    Delay is compute time plus link transfer. Power is on-device compute
    energy, or the radio energy of the transfer. Price starts at 0.0 and
    adds the hourly rate times the compute hours, then each per-GB rate
    times the GB moved, in order. Per-100 KB tables scale as rate * kb /
    100.0.
    """
    gb = kb / KB_PER_GB
    out = []
    for comp_ms, energy, link_ms, hourly, per_gb in rates:
        compute_ms = comp_ms * kb / 100.0
        if link_ms is None:
            out.append((0.0, energy * kb / 100.0, compute_ms))
            continue
        price = 0.0
        if hourly is not None:
            price += hourly * (compute_ms / MS_PER_HOUR)
        for rate in per_gb:
            price += rate * gb
        out.append((price, energy * kb / 100.0,
                    compute_ms + link_ms * kb / 100.0))
    return out


def candidate_rows(rates: Sequence[Rates], kb: float
                   ) -> tuple[list[LeafCost], tuple[tuple[float, ...], ...]]:
    """(price, power, delay) of running each resolved cost on kb, as plain
    float triples (the same floats service_qos gives for each invocation's
    context), and the same numbers as (prices, powers, delays) columns.

    The rows are checked where they enter, as one occurrence: when every
    component is finite and none is negative they are returned without a
    per-row check; otherwise each row goes through the QoSTriple
    constructor, so the first bad row raises its ValueError.
    """
    rows = _costs(rates, kb)
    columns = tuple(zip(*rows))
    prices, powers, delays = columns
    # a NaN or an infinity makes the sum non-finite (so can an overflow of
    # finite values, which then only costs the per-row check); without
    # them min is exact
    if not (math.isfinite(sum(prices) + sum(powers) + sum(delays))
            and min(prices) >= 0 and min(powers) >= 0 and min(delays) >= 0):
        for row in rows:
            QoSTriple(*row)
    return rows, columns


def _context_cost(ctx: InvocationContext, profiles: ProfileSet) -> LeafCost:
    """(price, power, delay) of one invocation (see _rates and _costs)."""
    return _costs((_rates(ctx.host_tier, ctx.link, ctx.compute_ref,
                          profiles),), ctx.data_kb)[0]


def service_qos(ctx: InvocationContext, profiles: ProfileSet) -> QoSTriple:
    """(price, power, delay) of one invocation under the given tables."""
    return QoSTriple(*_context_cost(ctx, profiles))


def service_price(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Monetary cost in USD of one invocation."""
    return _context_cost(ctx, profiles)[0]


def service_power(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Device battery energy in mJ: radio transfer or on-device compute."""
    return _context_cost(ctx, profiles)[1]


def service_delay(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Total delay in ms: compute + link transfer."""
    return _context_cost(ctx, profiles)[2]


def intercloud_hop_ms(node: Optional[int], prev_node: Optional[int], kb: float,
                      profiles: ProfileSet) -> float:
    """Cloud-to-cloud forwarding delay of kb between consecutive steps.

    node and prev_node are the host clouds of a step and of its predecessor
    (None when on the device). Only a hop between two different clouds
    costs anything.
    """
    if node is None or prev_node is None or node == prev_node:
        return 0.0
    return intercloud_ms(kb, profiles)


def intercloud_ms(kb: float, profiles: ProfileSet) -> float:
    """Delay of forwarding kb from one cloud to a different one."""
    return profiles.intercloud.delay_ms_per_100kb * kb / 100.0

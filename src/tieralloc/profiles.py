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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Optional

from .model import LOCAL, PUBLIC, THREEG, WIFI, CloudNode, LocationMap, Service
from .workflow import QoSTriple

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
        if self.billing not in (BILL_COMPUTE, BILL_STREAMING, BILL_STORAGE):
            raise ValueError(f"unknown billing class {self.billing!r}")


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
        """Defaults overridden by the given (partial) table dict."""
        ps = cls.defaults()
        for key, row in data.get("links", {}).items():
            link, _, tier = key.partition("_")
            if (link, tier) not in ps.links:
                raise KeyError(f"unknown link profile {key!r}")
            ps.links[(link, tier)] = replace(ps.links[(link, tier)], **row)
        if "intercloud" in data:
            ps.intercloud = replace(ps.intercloud, **data["intercloud"])
        for ref, row in data.get("compute", {}).items():
            base = ps.compute.get(ref, ComputeProfile(0.0))
            ps.compute[ref] = replace(base, **row)
        if "price" in data:
            ps.price = replace(ps.price, **data["price"])
        return ps


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


def invocation_context(service: Service, user_cell: int, data_kb: float,
                       grid: LocationMap, clouds: Mapping[int, CloudNode]
                       ) -> InvocationContext:
    """Build the costing context for running service at the user's cell.

    Link choice: WiFi to a local cloud requires the cell to be covered by
    that cloud's own access point; WiFi to the public cloud requires any
    coverage; 3G is the fallback everywhere.
    """
    covered_by = grid.cell(user_cell).wifi_covered_by
    if service.on_device:
        tier, node, link = DEVICE, None, None
    else:
        node = service.host_cloud
        tier = clouds[node].tier
        if tier == LOCAL:
            link = WIFI if covered_by == node else THREEG
        else:
            link = WIFI if covered_by is not None else THREEG
    return InvocationContext(user_cell=user_cell, host_tier=tier, host_node=node,
                             link=link, data_kb=data_kb,
                             compute_ref=service.compute_ref)


def _per100(rate: float, kb: float) -> float:
    return rate * kb / 100.0


def compute_delay_ms(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Processing time of the invocation on its host."""
    return _per100(profiles.compute_profile(ctx.compute_ref).delay_ms_per_100kb,
                   ctx.data_kb)


def service_delay(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Total delay in ms: compute + link transfer."""
    delay = compute_delay_ms(ctx, profiles)
    if ctx.link is not None:
        delay += _per100(profiles.links[(ctx.link, ctx.host_tier)].delay_ms_per_100kb,
                         ctx.data_kb)
    return delay


def intercloud_hop_ms(node: Optional[int], prev_node: Optional[int], kb: float,
                      profiles: ProfileSet) -> float:
    """Cloud-to-cloud forwarding delay of kb between consecutive steps.

    node and prev_node are the host clouds of a step and of its predecessor
    (None when on the device). Only a hop between two different clouds
    costs anything.
    """
    if node is None or prev_node is None or node == prev_node:
        return 0.0
    return _per100(profiles.intercloud.delay_ms_per_100kb, kb)


def service_power(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Device battery energy in mJ: radio transfer or on-device compute."""
    if ctx.link is None:
        return _per100(profiles.compute_profile(ctx.compute_ref).energy_mj_per_100kb,
                       ctx.data_kb)
    return _per100(profiles.links[(ctx.link, ctx.host_tier)].energy_mj_per_100kb,
                   ctx.data_kb)


def service_price(ctx: InvocationContext, profiles: ProfileSet) -> float:
    """Monetary cost in USD of one invocation.

    On-device is free. Public clouds bill their rate on compute time plus
    per-GB transfer (storage-class services add the storage rate). Local
    clouds are user-owned and bill nothing. Any 3G transfer additionally
    pays the cellular plan rate per GB.
    """
    if ctx.host_tier == DEVICE:
        return 0.0
    price = 0.0
    gb = ctx.data_kb / KB_PER_GB
    comp = profiles.compute_profile(ctx.compute_ref)
    if ctx.host_tier == PUBLIC:
        hours = compute_delay_ms(ctx, profiles) / MS_PER_HOUR
        rate = (profiles.price.streaming_usd_per_hour
                if comp.billing == BILL_STREAMING
                else profiles.price.public_compute_usd_per_hour)
        price += rate * hours
        price += profiles.price.transfer_usd_per_gb * gb
        if comp.billing == BILL_STORAGE:
            price += profiles.price.storage_usd_per_gb * gb
    if ctx.link == THREEG:
        price += profiles.price.cellular_usd_per_gb * gb
    return price


def service_qos(ctx: InvocationContext, profiles: ProfileSet) -> QoSTriple:
    """(price, power, delay) of one invocation under the given tables."""
    return QoSTriple(price=service_price(ctx, profiles),
                     power=service_power(ctx, profiles),
                     delay=service_delay(ctx, profiles))

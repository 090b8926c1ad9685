"""Cost tables: delay, device energy, and pricing of single invocations."""

import math

import pytest

from tieralloc import (LOCAL, PUBLIC, THREEG, WIFI, CloudNode,
                       ComputeProfile, InvocationContext, LinkProfile,
                       LocationMap, PriceBook, ProfileSet, Service,
                       intercloud_hop_ms, invocation_context, service_delay,
                       service_power, service_price, service_qos)

TWO_MB = 2048.0


def _xfer(link, tier, kb=TWO_MB):
    """Pure-transfer context (no compute cost)."""
    return InvocationContext(user_cell=0, host_tier=tier, host_node=1,
                             link=link, data_kb=kb, compute_ref="none")


# --- measured 2 MB reference points, exact -----------------------------------------

def test_two_mb_transfer_points_are_exact():
    ps = ProfileSet.defaults()
    assert service_delay(_xfer(WIFI, LOCAL), ps) == 220.0
    assert service_power(_xfer(WIFI, LOCAL), ps) == 15435.0
    assert service_delay(_xfer(WIFI, PUBLIC), ps) == 240.0
    assert service_power(_xfer(WIFI, PUBLIC), ps) == 19345.0
    assert service_delay(_xfer(THREEG, LOCAL), ps) == 4426.0
    assert service_power(_xfer(THREEG, LOCAL), ps) == 26156.0
    assert service_delay(_xfer(THREEG, PUBLIC), ps) == 5128.0
    assert service_power(_xfer(THREEG, PUBLIC), ps) == 27345.0


def test_transfer_cost_is_linear_in_data_size():
    ps = ProfileSet.defaults()
    one = service_delay(_xfer(WIFI, LOCAL, kb=100.0), ps)
    assert service_delay(_xfer(WIFI, LOCAL, kb=700.0), ps) == pytest.approx(7 * one)
    assert service_delay(_xfer(WIFI, LOCAL, kb=0.0), ps) == 0.0
    assert service_power(_xfer(THREEG, PUBLIC, kb=0.0), ps) == 0.0
    assert service_price(_xfer(THREEG, PUBLIC, kb=0.0), ps) == 0.0


def test_slower_link_and_farther_tier_never_cost_less():
    ps = ProfileSet.defaults()
    for tier in (LOCAL, PUBLIC):
        assert (service_delay(_xfer(THREEG, tier), ps)
                >= service_delay(_xfer(WIFI, tier), ps))
        assert (service_power(_xfer(THREEG, tier), ps)
                >= service_power(_xfer(WIFI, tier), ps))
    for link in (WIFI, THREEG):
        assert (service_delay(_xfer(link, PUBLIC), ps)
                >= service_delay(_xfer(link, LOCAL), ps))


def test_intercloud_hop_charged_only_across_cloud_nodes():
    ps = ProfileSet.defaults()
    assert intercloud_hop_ms(2, 1, TWO_MB, ps) == 20.0  # 0.9765625 ms/100KB
    assert intercloud_hop_ms(1, 1, TWO_MB, ps) == 0.0  # same cloud
    assert intercloud_hop_ms(None, 1, TWO_MB, ps) == 0.0  # step on the device
    assert intercloud_hop_ms(1, None, TWO_MB, ps) == 0.0  # predecessor on it
    assert intercloud_hop_ms(2, 1, 0.0, ps) == 0.0
    slow = ProfileSet.from_dict({"intercloud": {"delay_ms_per_100kb": 400.0}})
    assert intercloud_hop_ms(2, 1, 100.0, slow) == 400.0


# --- pricing -----------------------------------------------------------------------

def test_cellular_data_charge_is_exact_per_gb():
    ps = ProfileSet.defaults()
    # 2048 KB at $20/GB with 1 GB = 1024*1024 KB: 20 * 2048 / 2**20
    assert service_price(_xfer(THREEG, LOCAL), ps) == 0.0390625
    assert service_price(_xfer(WIFI, LOCAL), ps) == 0.0


def test_public_compute_hour_bills_instance_rate_plus_transfer():
    ps = ProfileSet.defaults()
    # one full hour of compute over a 2 MB payload
    ps.compute["heavy"] = ComputeProfile(delay_ms_per_100kb=175781.25)
    ctx = InvocationContext(user_cell=0, host_tier=PUBLIC, host_node=9,
                            link=WIFI, data_kb=TWO_MB, compute_ref="heavy")
    price = service_price(ctx, ps)
    assert math.isclose(price, 0.52, rel_tol=1e-3)
    assert price == pytest.approx(0.52 + 0.10 * TWO_MB / 2**20, rel=1e-12)


def test_billing_classes_select_their_rates():
    ps = ProfileSet.defaults()
    ps.compute["stream"] = ComputeProfile(175781.25, billing="streaming")
    ps.compute["store"] = ComputeProfile(0.0, billing="storage")
    stream = InvocationContext(user_cell=0, host_tier=PUBLIC, host_node=9,
                               link=WIFI, data_kb=TWO_MB, compute_ref="stream")
    assert service_price(stream, ps) == pytest.approx(
        0.15 + 0.10 * TWO_MB / 2**20, rel=1e-12)
    store = InvocationContext(user_cell=0, host_tier=PUBLIC, host_node=9,
                              link=WIFI, data_kb=TWO_MB, compute_ref="store")
    assert service_price(store, ps) == pytest.approx(
        (0.10 + 0.14) * TWO_MB / 2**20, rel=1e-12)
    with pytest.raises(ValueError):
        ComputeProfile(1.0, billing="peering")


def test_local_clouds_and_devices_bill_nothing_without_cellular():
    ps = ProfileSet.defaults()
    dev = InvocationContext(user_cell=0, host_tier="device", host_node=None,
                            link=None, data_kb=TWO_MB, compute_ref="device")
    assert service_price(dev, ps) == 0.0
    assert service_price(_xfer(WIFI, LOCAL), ps) == 0.0
    # 3G to a public host pays cellular on top of transfer billing
    pub3g = service_price(_xfer(THREEG, PUBLIC), ps)
    assert pub3g == pytest.approx((20.0 + 0.10) * TWO_MB / 2**20, rel=1e-12)


def test_on_device_run_spends_battery_on_compute():
    ps = ProfileSet.defaults()
    dev = InvocationContext(user_cell=0, host_tier="device", host_node=None,
                            link=None, data_kb=200.0, compute_ref="device")
    assert service_delay(dev, ps) == 160.0  # 80 ms per 100 KB
    assert service_power(dev, ps) == 160.0  # 80 mJ per 100 KB
    q = service_qos(dev, ps)
    assert (q.price, q.power, q.delay) == (0.0, 160.0, 160.0)


# --- context construction and validation -------------------------------------------

def test_context_rules_reject_impossible_combinations():
    with pytest.raises(ValueError):
        InvocationContext(0, "device", None, WIFI, 1.0)  # device has no link
    with pytest.raises(ValueError):
        InvocationContext(0, LOCAL, 1, None, 1.0)  # cloud run needs a link
    with pytest.raises(ValueError):
        InvocationContext(0, "fog", 1, WIFI, 1.0)
    with pytest.raises(ValueError):
        InvocationContext(0, LOCAL, 1, "bluetooth", 1.0)
    with pytest.raises(ValueError):
        InvocationContext(0, LOCAL, 1, WIFI, -1.0)


def test_link_selection_follows_wifi_coverage():
    grid = LocationMap(3, 1, 100.0, wifi={0: 1, 1: 3})
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=5),
              3: CloudNode(3, LOCAL, location=1, capacity=5),
              9: CloudNode(9, PUBLIC)}
    near = Service(0, "f", host_cloud=1)
    pub = Service(1, "f", host_cloud=9)
    dev = Service(2, "f", host_user=4)

    own_ap = invocation_context(near, 0, 10.0, grid, clouds)
    assert (own_ap.host_tier, own_ap.link) == (LOCAL, WIFI)
    other_ap = invocation_context(near, 1, 10.0, grid, clouds)
    assert other_ap.link == THREEG  # covered, but by a different cloud's AP
    no_ap = invocation_context(near, 2, 10.0, grid, clouds)
    assert no_ap.link == THREEG

    assert invocation_context(pub, 0, 10.0, grid, clouds).link == WIFI
    assert invocation_context(pub, 1, 10.0, grid, clouds).link == WIFI
    assert invocation_context(pub, 2, 10.0, grid, clouds).link == THREEG

    on_dev = invocation_context(dev, 2, 10.0, grid, clouds)
    assert (on_dev.host_tier, on_dev.host_node, on_dev.link) == ("device", None, None)


# --- table overrides ----------------------------------------------------------------

def test_profile_tables_round_trip_and_merge_partial_overrides():
    ps = ProfileSet.defaults()
    data = ps.to_dict()
    clone = ProfileSet.from_dict(data)
    assert clone.to_dict() == data

    tweaked = ProfileSet.from_dict({
        "links": {"wifi_local": {"delay_ms_per_100kb": 5.0}},
        "intercloud": {"delay_ms_per_100kb": 400.0},
        "compute": {"local": {"delay_ms_per_100kb": 2.0}},
        "price": {"cellular_usd_per_gb": 8.0},
    })
    assert tweaked.links[(WIFI, LOCAL)].delay_ms_per_100kb == 5.0
    # untouched fields keep their defaults
    assert tweaked.links[(WIFI, LOCAL)].energy_mj_per_100kb == 753.662109375
    assert tweaked.links[(THREEG, PUBLIC)].delay_ms_per_100kb == 250.390625
    assert tweaked.intercloud.delay_ms_per_100kb == 400.0
    assert tweaked.compute["local"].delay_ms_per_100kb == 2.0
    assert tweaked.price.cellular_usd_per_gb == 8.0
    assert tweaked.price.transfer_usd_per_gb == 0.10

    with pytest.raises(KeyError):
        ProfileSet.from_dict({"links": {"lte_local": {"delay_ms_per_100kb": 1.0}}})
    with pytest.raises(KeyError):
        ps.compute_profile("missing")


def test_price_book_defaults_match_published_rates():
    book = PriceBook()
    assert book.public_compute_usd_per_hour == 0.52
    assert book.storage_usd_per_gb == 0.14
    assert book.transfer_usd_per_gb == 0.10
    assert book.streaming_usd_per_hour == 0.15
    assert book.cellular_usd_per_gb == 20.0

"""
Invocation cost tables: delay, device energy, and price
=======================================================

Every service invocation is costed from an InvocationContext: where the
user stands, which tier hosts the service, which link carries the data,
and how many kilobytes move. The default tables are calibrated so that a
2 MB transfer lands on round reference numbers.
"""

from tieralloc import (LOCAL, PUBLIC, THREEG, WIFI, ComputeProfile,
                       InvocationContext, ProfileSet, intercloud_hop_ms,
                       service_delay, service_power, service_price)

ps = ProfileSet.defaults()
TWO_MB = 2048.0


def transfer(link, tier, kb=TWO_MB):
    return InvocationContext(user_cell=0, host_tier=tier, host_node=1,
                             link=link, data_kb=kb, compute_ref="none")


# The 2 MB matrix over links and tiers. WiFi to the local cloud is the
# cheapest corner; 3G to the public cloud the most expensive.
print("2 MB transfer, by link and tier:")
print(f"{'':14}{'delay ms':>10}  {'device mJ':>10}")
for link in (WIFI, THREEG):
    for tier in (LOCAL, PUBLIC):
        ctx = transfer(link, tier)
        print(f"{link}-{tier:<8}{service_delay(ctx, ps):>10.0f}"
              f"  {service_power(ctx, ps):>10.0f}")

# Costs are linear in data size and vanish at zero bytes.
print(f"\n200 KB over wifi-local: {service_delay(transfer(WIFI, LOCAL, 200.0), ps):.1f} ms")
print(f"0 KB over 3g-public:    {service_delay(transfer(THREEG, PUBLIC, 0.0), ps):.1f} ms")

# When consecutive workflow steps run on different cloud nodes, the
# receiving step pays an inter-cloud hop on top of its access link. The
# hop is free on the same node and whenever either step runs on the device.
wifi_local = service_delay(transfer(WIFI, LOCAL), ps)
print(f"\nwifi-local 2 MB, previous step on the same node: "
      f"{wifi_local + intercloud_hop_ms(1, 1, TWO_MB, ps):.1f} ms")
print(f"wifi-local 2 MB, previous step on another node:  "
      f"{wifi_local + intercloud_hop_ms(1, 2, TWO_MB, ps):.1f} ms")

# Price has three parts: metered compute time, a billing class (storage
# and streaming services bill per GB or per hour), and cellular data.
# A pure 2 MB transfer over 3G costs exactly the cellular charge.
cell_price = service_price(transfer(THREEG, PUBLIC), ps)
print(f"\n2 MB over 3G, transfer only: {cell_price:.6f} USD "
      f"(the 20 USD/GB cellular charge dominates)")
wifi_price = service_price(transfer(WIFI, PUBLIC), ps)
print(f"2 MB over WiFi, no compute:  {wifi_price:.6f} USD "
      f"(provider transfer charge only)")

# Attach a compute profile and the hourly rate starts to matter. An
# artificial profile that takes one hour per 2 MB shows the full rate.
ps.compute["hour-per-2mb"] = ComputeProfile(delay_ms_per_100kb=175781.25)
busy = InvocationContext(user_cell=0, host_tier=PUBLIC, host_node=1,
                         link=WIFI, data_kb=TWO_MB,
                         compute_ref="hour-per-2mb")
print(f"\none compute-hour on the public tier: "
      f"{service_price(busy, ps):.4f} USD "
      f"(rate {ps.price.public_compute_usd_per_hour} USD/h plus transfer)")

# The whole table set serializes to a plain dict, so scenarios can
# override any profile from JSON.
print(f"\nprofile tables: {sorted(ps.to_dict().keys())}")
print(f"intercloud delay per 100 KB: "
      f"{ps.to_dict()['intercloud']['delay_ms_per_100kb']} ms")

"""Stress the guarantee: a flash crowd, a degraded node, and a NIC outage
in one run — and the reservations still hold.

Timeline (packet fidelity, 3 RPNs):

- t=0      steady state: two subscribers inside their reservations,
           one best-effort bulk site;
- t=3      flash crowd: bulk's load ramps 8x in one second;
- t=6      rpn0's CPU degrades to half speed (thermal throttling) and
           the operator updates the node scheduler's capacity view;
- t=9      rpn2's NIC goes down for one second (cable pull) — TCP
           retransmission and the least-load dispatcher ride it out.

Run:  python examples/overload_storm.py
"""

from repro import Environment, GageCluster, Subscriber
from repro.workload import LoadProfile, ProfiledWorkload

DURATION = 15.0


def main():
    env = Environment()
    profiles = {
        "shop.example.com": LoadProfile.constant(60.0),
        "api.example.com": LoadProfile.constant(35.0),
        "bulk.example.com": LoadProfile.flash_crowd(
            base_rate=15.0, peak_rate=120.0, start_s=3.0,
            ramp_s=1.0, hold_s=9.0, decay_s=1.0,
        ),
    }
    workload = ProfiledWorkload(profiles, duration_s=DURATION, seed=7)
    subscribers = [
        Subscriber("shop.example.com", 70, queue_capacity=128),
        Subscriber("api.example.com", 40, queue_capacity=128,
                   delay_target_s=0.5),  # response-time bound extension
        Subscriber("bulk.example.com", 20, queue_capacity=128),
    ]
    cluster = GageCluster(
        env,
        subscribers,
        {name: workload.site_files(name) for name in profiles},
        num_rpns=3,
        fidelity="packet",
        workers_per_site=6,
    )
    cluster.prewarm_caches()
    cluster.load_trace(workload.generate())

    def storm(env):
        yield env.timeout(6.0)
        cluster.machines[0].cpu.speed = 0.5
        # The operator (or a monitoring agent) tells the RDN about the
        # degraded node so least-load dispatch sizes it correctly.
        from repro.core import default_rpn_capacity

        cluster.rdn.node_scheduler.set_capacity(
            "rpn0", default_rpn_capacity(cpu_speed=0.5)
        )
        print("t= 6.0s  !! rpn0 CPU throttled to half speed (scheduler notified)")
        yield env.timeout(3.0)
        cluster.machines[2].nic.iface.up = False
        print("t= 9.0s  !! rpn2 NIC down (cable pull)")
        yield env.timeout(1.0)
        cluster.machines[2].nic.iface.up = True
        print("t=10.0s  !! rpn2 NIC restored")

    env.process(storm(env))
    print("running {}s packet-fidelity storm ...".format(DURATION))
    cluster.run(DURATION + 3.0)

    print()
    print("service during the storm window [6s, {:.0f}s):".format(DURATION))
    print("{:<20} {:>11} {:>9} {:>9} {:>9}".format(
        "subscriber", "reservation", "offered", "served", "dropped"))
    for report in cluster.all_reports(6.0, DURATION):
        print("{:<20} {:>11.0f} {:>9.1f} {:>9.1f} {:>9.1f}".format(
            report.subscriber.split(".")[0],
            report.reservation_grps,
            report.input_rate,
            report.served_rate,
            report.dropped_rate,
        ))
    stats = cluster.fleet.stats
    print()
    print("clients: {} issued, {} completed, {} failed, mean latency {:.0f}ms".format(
        stats.issued, stats.completed, stats.failed, 1000 * stats.mean_latency_s))
    drops = sum(m.nic.iface.dropped_loss for m in cluster.machines)
    print("frames blackholed during the outage: {}".format(drops))
    print()
    print("shop and api stay at their offered loads through the flash crowd,")
    print("the slow node, and the outage; bulk absorbs what spare remains.")


if __name__ == "__main__":
    main()

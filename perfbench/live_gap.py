"""Reproduce why the live transport has no workload in this benchmark.

    python3 perfbench/live_gap.py

Stands up one ``AuthoritativeServer`` on an ``AioNetwork`` (real UDP on
127.0.0.1) and sends it one query from a plain socket outside the
program, the way a load generator in another process would.  The
server receives the datagram, but ``_dispatch_udp`` hands it the raw
``(ip, port)`` of the foreign sender as the source, and ``send`` has no
socket for that logical endpoint, so the reply is counted as
unreachable and never leaves.  Prints the outcome and exits 1 while the
gap exists, 0 once the server answers.
"""

import socket
import sys
from pathlib import Path

ZONE = """\
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 900 604800 300
@    IN NS  ns1
ns1  IN A   10.1.0.1
www  IN A   10.0.0.10
"""


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.dnslib import RRType, make_query
    from repro.net import AioNetwork, Host, LiveClock
    from repro.server import AuthoritativeServer
    from repro.zone import load_zone

    clock = LiveClock()
    network = AioNetwork(clock)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        AuthoritativeServer(Host(network, "10.1.0.1"), [load_zone(ZONE)])
        # The real port behind the server's logical endpoint; the
        # transport has no public accessor for it.
        real = network._real_udp_for(("10.1.0.1", 53))
        client.settimeout(0.5)
        client.sendto(make_query("www.example.com", RRType.A).to_wire(), real)
        clock.run_for(0.3)
        try:
            client.recvfrom(4096)
            answered = True
        except socket.timeout:
            answered = False
        stats = network.stats
        print(f"answered={answered} delivered={stats.datagrams_delivered} "
              f"sent={stats.datagrams_sent} "
              f"unreachable={stats.datagrams_unreachable}")
    finally:
        client.close()
        network.close()
        clock.loop.close()
    return 0 if answered else 1


if __name__ == "__main__":
    sys.exit(main())

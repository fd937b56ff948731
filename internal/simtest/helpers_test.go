package simtest

import (
	"net/netip"

	"vini/internal/fib"
	"vini/internal/packet"
)

// leakPacketForTest obtains a pooled packet and deliberately drops it
// on the floor — the exact bug class invariant 3 exists to catch.
func leakPacketForTest() { _ = packet.Get() }

// installLoopForTest aims nodes a and b at each other for dst: a
// two-node forwarding loop injected straight into the FIBs, bypassing
// the control plane, so the loop walker has something real to catch.
func installLoopForTest(sc *scenario, a, b int, dst netip.Addr) {
	pfx := netip.PrefixFrom(dst, 32)
	sc.vnode[a].FIB.Add(fib.Route{
		Prefix: pfx, NextHop: sc.vnode[b].Interfaces()[0].Addr,
		OutPort: outPortEncap, Metric: 1, Owner: "mutation", Proto: "static",
	})
	sc.vnode[b].FIB.Add(fib.Route{
		Prefix: pfx, NextHop: sc.vnode[a].Interfaces()[0].Addr,
		OutPort: outPortEncap, Metric: 1, Owner: "mutation", Proto: "static",
	})
}

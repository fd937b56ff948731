package netem

import "time"

// Profile is the host cost model. Every constant is derived from a number
// the paper reports, so the microbenchmark shapes (Tables 2-6) emerge
// from the model rather than being scripted:
//
//   - SyscallCost = 5µs is the paper's strace estimate (§5.1.1): "Click
//     calls poll, recvfrom, and sendto once, and gettimeofday three
//     times, with an estimated cost of 5µs per call".
//   - SyscallsPerPacket = 6 accordingly.
//   - CopyCostPerByte is solved from Table 2: the DETER forwarder
//     saturates one 2.8 GHz Xeon (99% CPU) at 195 Mb/s of MSS-sized
//     segments plus the reverse ACK stream, giving ≈9.5 ns/byte for
//     copy+classify+checksum work.
//   - KernelForwardCost is solved from Table 2's native row: 940 Mb/s
//     bidirectional with the Fwdr CPU 48% busy gives ≈6µs per packet.
//   - StackCost covers local socket delivery/injection.
type Profile struct {
	Name string
	// SyscallCost is the cost of one system call.
	SyscallCost time.Duration
	// SyscallsPerPacket is how many syscalls the user-space forwarder
	// spends per packet (poll + recvfrom + sendto + 3× gettimeofday).
	SyscallsPerPacket int
	// CopyCostPerByte is user-space per-byte handling cost.
	CopyCostPerByte time.Duration
	// PerPacketOverhead is fixed per-packet user-space cost beyond
	// syscalls and copying (Click element graph traversal).
	PerPacketOverhead time.Duration
	// KernelForwardCost is per-packet in-kernel IP forwarding latency
	// (and CPU) on this host.
	KernelForwardCost time.Duration
	// StackCost is the kernel cost to deliver to / accept from a local
	// socket.
	StackCost time.Duration
	// SocketBuf is the UDP receive buffer in bytes (Linux default-era
	// ~128 KiB); overflowing it while the forwarder waits for the CPU is
	// the loss mechanism behind Figure 6(a).
	SocketBuf int
	// Speed scales all CPU costs (1.0 = DETER's 2.8 GHz Xeon).
	Speed float64
}

// scaled applies the Speed factor.
func (p Profile) scaled(d time.Duration) time.Duration {
	if p.Speed == 0 {
		return d
	}
	return time.Duration(float64(d) * p.Speed)
}

// userPacketCost is the CPU consumed by the user-space forwarder to
// receive, process, and retransmit one packet of n bytes.
func (p Profile) userPacketCost(n int) time.Duration {
	c := time.Duration(p.SyscallsPerPacket)*p.SyscallCost +
		time.Duration(n)*p.CopyCostPerByte +
		p.PerPacketOverhead
	return p.scaled(c)
}

// DETERProfile models the paper's DETER machines: pc2800 2.8 GHz Xeons
// with Gigabit Ethernet (§5.1.1).
func DETERProfile() Profile {
	return Profile{
		Name:              "deter-pc2800",
		SyscallCost:       5 * time.Microsecond,
		SyscallsPerPacket: 6,
		CopyCostPerByte:   10 * time.Nanosecond, // ≈9.5 ns/B solved from Table 2, rounded to the ns tick
		PerPacketOverhead: 1 * time.Microsecond,
		KernelForwardCost: 4 * time.Microsecond,
		StackCost:         10 * time.Microsecond,
		SocketBuf:         128 << 10,
		Speed:             1.0,
	}
}

// PlanetLabProfile models the paper's PlanetLab nodes at Abilene PoPs:
// 1.2-1.4 GHz Pentium III machines (§5.1.2). The P-III's per-clock
// efficiency well exceeds the NetBurst Xeon's, so per-packet costs scale
// down despite half the clock rate; Table 4 — 86 Mb/s forwarded with CPU
// to spare under a 25% reservation — pins the factor at ≈0.7.
func PlanetLabProfile() Profile {
	p := DETERProfile()
	p.Name = "planetlab-piii"
	p.Speed = 0.7
	return p
}

// Package packet implements the wire formats VINI forwards: IPv4, UDP,
// TCP, ICMP, plus the IIAS UDP-tunnel encapsulation. Headers
// decode from and serialize to byte slices in the gopacket style — decode
// into caller-owned structs, no hidden allocation — because the data plane
// (internal/click) handles every packet as raw bytes exactly as the Click
// software router does.
//
// Packets use a Click-style headroom layout: Data is a window into a
// larger backing buffer, so encapsulation (Extend) and decapsulation (Pull)
// on the forwarding fast path are pointer arithmetic, not copy-allocate.
// A sync.Pool (Get/Release) recycles packet buffers so the steady-state
// IIAS forwarding path runs at zero allocations per packet.
package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// IP protocol numbers used by IIAS.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoOSPF = 89
)

// Header sizes in bytes.
const (
	IPv4HeaderLen = 20 // without options; IIAS never emits options
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20 // without options
	ICMPHeaderLen = 8
)

// defaultHeadroom is the front reserve on owned buffers: two rounds of
// IPv4+UDP tunnel encapsulation (2×28) fit without sliding the payload.
const defaultHeadroom = 64

// poolBufSize is the backing-array size for pooled packets: headroom plus
// an encapsulated MTU-sized datagram with slack.
const poolBufSize = defaultHeadroom + 2048

// Packet is the unit every data-plane component exchanges: a byte buffer
// plus out-of-band annotations, mirroring Click's packet annotations.
// Data begins at the outermost header currently meaningful to the holder
// (an IPv4 datagram inside the forwarder, a UDP-encapsulated datagram on
// a tunnel).
//
// Ownership: a packet has exactly one owner at a time. Pushing a packet
// into an element or transport transfers ownership; an owner that drops a
// packet, or has lent its bytes to a consumer for the length of a call,
// calls Release. See DESIGN.md "Packet lifecycle & ownership".
type Packet struct {
	Data []byte
	Anno Annotations

	// buf is the backing storage Data points into when own is set.
	// Pooled packets keep buf across Release/Get cycles.
	buf []byte
	// off is the index of Data[0] within buf (valid only when own).
	off int
	// own records that Data == buf[off:off+len(Data)], enabling the
	// headroom fast path in Extend/Pull.
	own bool
	// pooled marks packets obtained from Get or GetControl; only these
	// return to the pool on Release.
	pooled bool
	// control marks packets obtained from GetControl: Release credits
	// the control ledger instead of the data ledger.
	control bool
	// released guards against double Release and use-after-release.
	released bool
}

// Annotations carries per-packet metadata that never appears on the wire.
type Annotations struct {
	// Timestamp is when the packet entered the system (virtual time in
	// simulation, wall-clock offset in live mode).
	Timestamp time.Duration
	// InPort is the element-local input identifier (e.g. tunnel index).
	InPort int
	// SliceID identifies the experiment slice owning the packet, used by
	// the VNET-style demultiplexer to isolate simultaneous experiments.
	SliceID int
	// Paint is a free-form mark; telemetry.TracePaint marks a packet for
	// the life-of-a-packet timeline.
	Paint int
	// NextHop is the virtual next-hop address selected by the FIB lookup,
	// consumed by the encapsulation-table lookup (Click's dst_ip
	// annotation).
	NextHop netip.Addr
	// Hops counts virtual-node traversals, for life-of-a-packet traces.
	Hops int
	// MigClone marks a duplicate sent to a migration shadow during the
	// make-before-break cutover window. Receivers always suppress marked
	// clones on the data path (the original, unmarked copy is the one
	// that counts), so double-delivery can never turn into duplicate
	// delivery. See core.Migrate and the click DupSuppress element.
	MigClone bool
}

// New returns a packet wrapping data (not copied). The packet does not
// own headroom; the first Extend migrates it onto an owned buffer.
func New(data []byte) *Packet { return &Packet{Data: data} }

var pktPool = sync.Pool{
	New: func() any { return &Packet{buf: make([]byte, poolBufSize)} },
}

// Pool accounting: one pool, two ledgers. A packet leaves the pool
// through Get (the data ledger) or GetControl (the control ledger) and
// comes back through Release, which credits the ledger it was drawn
// from. The deterministic simulation tests assert Gets == Releases at
// every quiescent point (packet conservation) and the control ledger's
// balance once a world is torn down; see internal/simtest. Routing
// messages flow forever, so they stay off the data ledger, whose
// zero-in-flight instants are what those tests wait for.
var poolGets, poolReleases, ctlGets, ctlReleases atomic.Uint64

// PoolStats is a snapshot of both pooled-packet ledgers.
type PoolStats struct {
	// Gets counts packets obtained from Get (including Clone).
	Gets uint64
	// Releases counts data packets returned to the pool with Release.
	Releases uint64
	// Escapes is always 0 — delivery lends the buffer, nothing leaves the
	// ledger — and stays only because the benchmark module reports it.
	Escapes uint64
	// ControlGets counts packets obtained from GetControl.
	ControlGets uint64
	// ControlReleases counts control packets returned with Release.
	ControlReleases uint64
}

// InFlight is the number of pooled data packets currently owned by
// someone: taken from the pool with Get and not yet released. Control
// packets are not counted; see ControlInFlight.
func (s PoolStats) InFlight() int64 {
	return int64(s.Gets) - int64(s.Releases)
}

// ControlInFlight is InFlight for the control ledger: routing messages
// taken with GetControl and not yet released.
func (s PoolStats) ControlInFlight() int64 {
	return int64(s.ControlGets) - int64(s.ControlReleases)
}

// Sub returns the per-counter difference s - t, for delta accounting
// across a test region.
func (s PoolStats) Sub(t PoolStats) PoolStats {
	return PoolStats{Gets: s.Gets - t.Gets, Releases: s.Releases - t.Releases,
		ControlGets: s.ControlGets - t.ControlGets, ControlReleases: s.ControlReleases - t.ControlReleases}
}

// Stats snapshots both pool ledgers.
func Stats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Releases: poolReleases.Load(),
		ControlGets: ctlGets.Load(), ControlReleases: ctlReleases.Load()}
}

// poisonOnRelease makes Release overwrite the backing buffer with 0xDE, so
// a consumer that kept a borrowed slice past its call reads garbage, not
// plausible stale bytes. Test binaries switch it on in TestMain.
var poisonOnRelease atomic.Bool

// PoisonOnReleaseForTest sets release-time poisoning; it returns the
// previous setting.
func PoisonOnReleaseForTest(on bool) (was bool) { return poisonOnRelease.Swap(on) }

// Get returns an empty pooled packet with defaultHeadroom reserved,
// counted on the data ledger. The caller owns it until it is handed off
// or Released.
func Get() *Packet {
	poolGets.Add(1)
	return get(false)
}

// GetControl is Get for a routing message: the packet holds a copy of
// payload behind defaultHeadroom and is counted on the control ledger,
// which Release credits when the message is done.
func GetControl(payload []byte) *Packet {
	ctlGets.Add(1)
	p := get(true)
	p.Append(payload)
	return p
}

// get is the body Get and GetControl share; control stamps the ledger
// Release will credit.
func get(control bool) *Packet {
	p := pktPool.Get().(*Packet)
	p.off = defaultHeadroom
	p.Data = p.buf[p.off:p.off]
	p.own = true
	p.pooled = true
	p.control = control
	p.released = false
	p.Anno = Annotations{}
	return p
}

// Release returns a pooled packet to the pool and credits the ledger it
// was drawn from. Releasing a wrapped (non-pooled) packet is a no-op —
// the garbage collector reclaims it — so drop paths may call Release
// unconditionally. Releasing the same pooled packet twice panics: it
// means two owners believed they held it.
func (p *Packet) Release() {
	if !p.pooled {
		return
	}
	if p.released {
		panic("packet: double release (two owners dropped the same packet)")
	}
	p.released = true
	p.Data = nil
	if poisonOnRelease.Load() {
		for i := range p.buf {
			p.buf[i] = 0xDE
		}
	}
	if p.control {
		ctlReleases.Add(1)
	} else {
		poolReleases.Add(1)
	}
	pktPool.Put(p)
}

// Released reports whether a pooled packet has been returned to the pool.
// The data plane uses it as a cheap use-after-release guard.
func (p *Packet) Released() bool { return p.released }

// Clone deep-copies the packet, as Tee does in Click. The clone is a
// pooled packet on the data ledger with fresh headroom; the caller owns
// it.
func (p *Packet) Clone() *Packet {
	q := Get()
	q.Append(p.Data)
	q.Anno = p.Anno
	return q
}

// Len returns the current buffer length.
func (p *Packet) Len() int { return len(p.Data) }

// Pull removes n bytes from the front (decapsulation). On owned buffers
// the removed region becomes headroom for a later Extend. It panics if the
// buffer is shorter than n; callers validate with header parsing first.
func (p *Packet) Pull(n int) {
	p.Data = p.Data[n:]
	if p.own {
		p.off += n
	}
}

// Trim shortens the packet to its first n bytes (e.g. dropping padding
// beyond an inner datagram after decapsulation).
func (p *Packet) Trim(n int) { p.Data = p.Data[:n] }

// Extend prepends n uninitialized bytes and returns the new data slice,
// whose first n bytes are the caller's to fill (in-place header
// serialization). When headroom is available this is pointer arithmetic.
func (p *Packet) Extend(n int) []byte {
	if p.own && p.off >= n {
		p.off -= n
		p.Data = p.buf[p.off : p.off+n+len(p.Data)]
		return p.Data
	}
	p.grow(n)
	return p.Data
}

// Append copies b onto the end of the packet's data, as Click's put
// does: on an empty pooled packet b lands behind defaultHeadroom. The
// owned buffer is reallocated only when b does not fit.
func (p *Packet) Append(b []byte) {
	if !p.own {
		p.grow(0)
	}
	n := len(p.Data)
	if need := p.off + n + len(b); need > len(p.buf) {
		buf := make([]byte, need)
		copy(buf[p.off:], p.Data)
		p.buf = buf
	}
	p.Data = p.buf[p.off : p.off+n+len(b)]
	copy(p.Data[n:], b)
}

// SetData replaces the packet's contents with b (not copied). Ownership
// of the backing buffer's layout is dropped; a later Extend re-establishes
// it by migrating the data into the owned buffer with fresh headroom.
func (p *Packet) SetData(b []byte) {
	p.Data = b
	p.own = false
}

// grow re-homes the data into the owned buffer (reused when large
// enough, reallocated otherwise) leaving defaultHeadroom plus n bytes of
// front space, with the first n exposed in Data.
func (p *Packet) grow(n int) {
	old := len(p.Data)
	need := defaultHeadroom + n + old
	buf := p.buf
	if cap(buf) < need {
		c := 2 * cap(buf)
		if c < need {
			c = need
		}
		buf = make([]byte, c)
	}
	buf = buf[:cap(buf)]
	copy(buf[defaultHeadroom+n:], p.Data) // memmove: may overlap p.buf
	p.buf = buf
	p.off = defaultHeadroom
	p.Data = buf[defaultHeadroom : defaultHeadroom+n+old]
	p.own = true
}

// csumAdd folds v into a running 64-bit ones-complement sum with
// end-around carry.
func csumAdd(sum, v uint64) uint64 {
	sum += v
	if sum < v {
		sum++
	}
	return sum
}

// csumWords adds b to sum as a sequence of big-endian 16-bit words (RFC
// 1071 permits any accumulator width; the end-around carry keeps
// ones-complement semantics). An odd trailing byte is padded with zero.
//
// Whole 64-byte blocks are read as little-endian 64-bit words. By RFC
// 1071 §2(B) the sum of byte-swapped words is the byte-swapped sum, so
// their sum, folded to 16 bits and byte-swapped, is the big-endian sum
// bit for bit; little-endian loads are what amd64 and arm64 load
// natively. The words go to two independent carry chains so that
// consecutive adds do not wait on each other's carry; each chain's carry
// is added back on its next add (end-around), and the chains meet once
// after the last block. Explicit loads rather than unsafe or assembly
// keep every GOARCH on this code. The bytes after the last block, and
// inputs shorter than one (an IPv4 header), are summed 8 bytes at a time
// big-endian, which is faster there than a fold and a swap. The function
// makes no call, so short inputs pay for no stack check.
func csumWords(sum uint64, b []byte) uint64 {
	if len(b) >= 64 {
		var s0, s1, c0, c1 uint64
		for ; len(b) >= 64; b = b[64:] {
			w := b[:64]
			s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(w[0:]), c0)
			s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(w[8:]), c1)
			s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(w[16:]), c0)
			s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(w[24:]), c1)
			s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(w[32:]), c0)
			s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(w[40:]), c1)
			s0, c0 = bits.Add64(s0, binary.LittleEndian.Uint64(w[48:]), c0)
			s1, c1 = bits.Add64(s1, binary.LittleEndian.Uint64(w[56:]), c1)
		}
		s, c := bits.Add64(s0, s1, c0)
		s, c = bits.Add64(s, c1, c)
		s += c // c is 1 only if s wrapped to at most 1
		sum = csumAdd(sum, uint64(bits.ReverseBytes16(csumFold(s))))
	}
	for len(b) >= 8 {
		sum = csumAdd(sum, binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) >= 4 {
		sum = csumAdd(sum, uint64(binary.BigEndian.Uint32(b))<<32)
		b = b[4:]
	}
	if len(b) >= 2 {
		sum = csumAdd(sum, uint64(binary.BigEndian.Uint16(b))<<48)
		b = b[2:]
	}
	if len(b) == 1 {
		sum = csumAdd(sum, uint64(b[0])<<56)
	}
	return sum
}

// csumFold reduces a 64-bit ones-complement sum to 16 bits.
func csumFold(sum uint64) uint16 {
	sum = (sum >> 32) + (sum & 0xffffffff)
	sum = (sum >> 32) + (sum & 0xffffffff)
	sum = (sum >> 16) + (sum & 0xffff)
	sum = (sum >> 16) + (sum & 0xffff)
	return uint16(sum)
}

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	return ^csumFold(csumWords(0, b))
}

// pseudoHeaderSum computes the IPv4 pseudo-header partial sum used by UDP
// and TCP checksums.
func pseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint64 {
	var sum uint64
	s, d := src.As4(), dst.As4()
	sum = csumAdd(sum, uint64(binary.BigEndian.Uint32(s[:])))
	sum = csumAdd(sum, uint64(binary.BigEndian.Uint32(d[:])))
	sum = csumAdd(sum, uint64(proto))
	sum = csumAdd(sum, uint64(uint16(length)))
	return sum
}

// transportChecksum computes a UDP/TCP checksum including pseudo-header.
func transportChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	return ^csumFold(csumWords(sum, segment))
}

// parseError describes a malformed header.
type parseError struct {
	Layer string
	Msg   string
}

func (e *parseError) Error() string { return fmt.Sprintf("packet: bad %s: %s", e.Layer, e.Msg) }

func parseErr(layer, format string, args ...any) error {
	return &parseError{Layer: layer, Msg: fmt.Sprintf(format, args...)}
}

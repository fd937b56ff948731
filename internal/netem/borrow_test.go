package netem

import (
	"bytes"
	"testing"
	"time"

	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/sim"
)

// TestRetainingStackHandlerIsCaught is the negative for the borrowed-
// slice rule: a stack handler that keeps its datagram past the call is
// holding a pooled buffer the kernel has already released. With the
// release poison on (as simtest and experiment run), what it kept reads
// 0xDE instead of the bytes it was shown — which is how a retaining
// consumer moves a digest or a golden.
func TestRetainingStackHandlerIsCaught(t *testing.T) {
	defer packet.PoisonOnReleaseForTest(packet.PoisonOnReleaseForTest(true))
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	var kept, copied []byte
	if err := dst.StackListenUDP(7000, func(d []byte) {
		kept = d
		copied = append([]byte(nil), d...)
	}); err != nil {
		t.Fatal(err)
	}
	base := packet.Stats()
	// Built in place in a pooled packet, as the traffic tools do.
	p := packet.Get()
	copy(p.Extend(5), "hello")
	packet.EncapUDP(p, src.Addr(), dst.Addr(), 5000, 7000)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src.Addr(), Dst: dst.Addr()})
	src.StackSendPacket(p)
	w.Run(10 * time.Millisecond)
	if copied == nil {
		t.Fatal("datagram not delivered")
	}
	if !bytes.HasSuffix(copied, []byte("hello")) {
		t.Fatalf("handler saw %x during the call", copied)
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDE}, len(kept))) {
		t.Fatalf("retained slice still reads %x after the call: retention went unnoticed", kept)
	}
	if d := packet.Stats().Sub(base); d.InFlight() != 0 || d.Escapes != 0 {
		t.Fatalf("delivery left the ledger unbalanced: %+v", d)
	}
}

// TestSocketQueueIsARing drives a socket queue through growth, wrap and
// teardown: service order stays FIFO, a popped slot no longer pins its
// packet, the array stops growing once it fits the peak, and Close
// leaves every slot nil with the ledger balanced.
func TestSocketQueueIsARing(t *testing.T) {
	loop := sim.NewLoop(1)
	w := New(loop)
	n, err := w.AddNode("n", addr("192.168.1.1"), DETERProfile(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proc := n.NewProcess(ProcessConfig{Name: "click", Share: 0.5})
	var got []int
	s, err := proc.OpenUDP(33000, func(p *packet.Packet) {
		got = append(got, p.Anno.Paint)
		p.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	base := packet.Stats()
	next := 0
	enqueue := func(k int) {
		for i := 0; i < k; i++ {
			p := packet.Get()
			p.Extend(100)
			p.Anno.Paint = next
			p.Anno.Timestamp = loop.Now()
			next++
			s.enqueue(p)
		}
	}
	proc.Task().SetSuspended(true)
	enqueue(20) // grows 8 -> 16 -> 32
	if len(s.buf) != 32 || s.queued != 20 {
		t.Fatalf("after 20 enqueues: ring %d, queued %d", len(s.buf), s.queued)
	}
	proc.Task().SetSuspended(false)
	for round := 0; round < 10; round++ { // head laps the ring several times
		loop.Run(loop.Now() + time.Millisecond)
		enqueue(12)
	}
	loop.Run(loop.Now() + 50*time.Millisecond)
	if len(got) != next {
		t.Fatalf("delivered %d of %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carried packet %d: not FIFO", i, v)
		}
	}
	if len(s.buf) != 32 {
		t.Fatalf("ring grew to %d although the queue never exceeded 32", len(s.buf))
	}
	for i, p := range s.buf {
		if p != nil {
			t.Fatalf("drained ring still pins a packet in slot %d", i)
		}
	}
	proc.Task().SetSuspended(true)
	enqueue(5)
	proc.Close()
	for i, p := range s.buf {
		if p != nil {
			t.Fatalf("closed socket still pins a packet in slot %d", i)
		}
	}
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("%d packets in flight after Close", f)
	}
}

// TestStackSendCopiesTheDatagram: StackSend takes a copy of the caller's
// datagram, so the caller may reuse its buffer as soon as the call
// returns. A packet still aliasing that buffer while it crosses a
// delayed link would deliver whatever the caller wrote there next.
func TestStackSendCopiesTheDatagram(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	var got []byte
	if err := dst.StackListenUDP(7000, func(d []byte) { got = append([]byte(nil), d...) }); err != nil {
		t.Fatal(err)
	}
	base := packet.Stats()
	d := packet.BuildUDP(src.Addr(), dst.Addr(), 5000, 7000, 64, []byte("original"))
	want := append([]byte(nil), d...)
	src.StackSend(d)
	copy(d[len(d)-len("original"):], "mutated!")
	w.Run(10 * time.Millisecond)
	if got == nil {
		t.Fatal("datagram not delivered")
	}
	var ip packet.IPv4
	seg, err := ip.Parse(got)
	if err != nil {
		t.Fatalf("listener read %x: %v", got, err)
	}
	if !bytes.Equal(seg, want[packet.IPv4HeaderLen:]) {
		t.Fatalf("listener read %x, sender wrote %x", seg, want[packet.IPv4HeaderLen:])
	}
	if d := packet.Stats().Sub(base); d.Gets == 0 || d.InFlight() != 0 {
		t.Fatalf("StackSend's packet is not on the balanced ledger: %+v", d)
	}
}

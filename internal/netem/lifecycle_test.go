package netem

import (
	"testing"
	"time"

	"vini/internal/packet"
)

// sendTo emits one UDP datagram from src to dst at the given port.
func sendTo(src, dst *Node, port uint16) {
	d := packet.BuildUDP(src.Addr(), dst.Addr(), 5000, port, 64, []byte("x"))
	src.StackSend(d)
}

func TestProcessCloseReleasesEverything(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	base := packet.Stats()
	proc := dst.NewProcess(ProcessConfig{Name: "click", Share: 0.5})
	delivered := 0
	if _, err := proc.OpenUDP(33000, func(p *packet.Packet) {
		delivered++
		p.Release()
	}); err != nil {
		t.Fatal(err)
	}
	sendTo(src, dst, 33000)
	w.Run(10 * time.Millisecond)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	proc.Close()
	if !proc.closed {
		t.Fatal("Closed() false after Close")
	}
	// The port is free again and packets to it no longer reach the
	// handler (the node answers port-unreachable instead).
	sendTo(src, dst, 33000)
	w.Run(20 * time.Millisecond)
	if delivered != 1 {
		t.Fatalf("closed socket delivered: %d", delivered)
	}
	if _, busy := dst.udpPorts[33000]; busy {
		t.Fatal("port still bound after Close")
	}
	if len(dst.procs) != 0 {
		t.Fatalf("proc list has %d entries after Close", len(dst.procs))
	}
	// Rebinding the port must succeed.
	p2 := dst.NewProcess(ProcessConfig{Name: "click2", Share: 0.5})
	if _, err := p2.OpenUDP(33000, func(p *packet.Packet) { p.Release() }); err != nil {
		t.Fatalf("rebind after Close: %v", err)
	}
	p2.Close()
	proc.Close() // idempotent
	w.Run(30 * time.Millisecond)
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("pool ledger unbalanced after Close: %d in flight", f)
	}
}

func TestProcessCloseReleasesBufferedPackets(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	base := packet.Stats()
	proc := dst.NewProcess(ProcessConfig{Name: "click", Share: 0.5})
	if _, err := proc.OpenUDP(33000, func(p *packet.Packet) { p.Release() }); err != nil {
		t.Fatal(err)
	}
	// Park the scheduler task so packets pile up in the socket buffer,
	// then close with the buffer full.
	proc.Task().SetSuspended(true)
	for i := 0; i < 8; i++ {
		sendTo(src, dst, 33000)
	}
	w.Run(10 * time.Millisecond)
	proc.Close()
	w.Run(20 * time.Millisecond)
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("buffered packets leaked: %d in flight", f)
	}
}

func TestProcessPauseDropsAndResumeDelivers(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	proc := dst.NewProcess(ProcessConfig{Name: "click", Share: 0.5})
	delivered := 0
	s, err := proc.OpenUDP(33000, func(p *packet.Packet) {
		delivered++
		p.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	proc.SetPaused(true)
	sendTo(src, dst, 33000)
	w.Run(10 * time.Millisecond)
	if delivered != 0 {
		t.Fatalf("paused process delivered: %d", delivered)
	}
	if s.Drops != 1 {
		t.Fatalf("paused socket Drops = %d, want 1", s.Drops)
	}
	proc.SetPaused(false)
	sendTo(src, dst, 33000)
	w.Run(20 * time.Millisecond)
	if delivered != 1 {
		t.Fatalf("resumed process delivered = %d, want 1", delivered)
	}
}

func TestRemoveAddrDropsDeterministically(t *testing.T) {
	w, src, _, dst := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	alias := addr("10.5.0.1")
	dst.AddAddr(alias)
	w.ComputeRoutes()
	got := 0
	if err := dst.StackListenUDP(7000, func(d []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	d := packet.BuildUDP(src.Addr(), alias, 5000, 7000, 64, []byte("x"))
	src.StackSend(append([]byte(nil), d...))
	w.Run(10 * time.Millisecond)
	if got != 1 {
		t.Fatalf("alias delivery = %d, want 1", got)
	}
	dst.RemoveAddr(alias)
	drops := dst.Drops
	src.StackSend(d)
	w.Run(20 * time.Millisecond)
	if got != 1 {
		t.Fatalf("removed alias still delivered: %d", got)
	}
	if dst.Drops <= drops {
		t.Fatal("packet to removed alias did not drop at the owner")
	}
	// The primary address refuses removal.
	dst.RemoveAddr(dst.Addr())
	if !dst.HasAddr(dst.Addr()) {
		t.Fatal("primary address removed")
	}
}

func TestLinkEventUnsubscribe(t *testing.T) {
	w, _, _, _ := threeNodeNet(t, DETERProfile(), 1e9, 100*time.Microsecond)
	var a, b int
	idA := w.OnLinkEvent(func(ev LinkEvent) { a++ })
	idB := w.OnLinkEvent(func(ev LinkEvent) { b++ })
	if err := w.FailLink("src", "fwdr", 0); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatalf("upcalls = %d,%d, want 1,1", a, b)
	}
	w.Unsubscribe(idA)
	if err := w.RestoreLink("src", "fwdr", 0); err != nil {
		t.Fatal(err)
	}
	if a != 1 {
		t.Fatalf("unsubscribed upcall fired: %d", a)
	}
	if b != 2 {
		t.Fatalf("surviving upcall = %d, want 2", b)
	}
	_ = idB
	w.Unsubscribe(99) // out of range: no-op
}

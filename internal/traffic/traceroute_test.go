package traffic

import (
	"testing"
	"time"
)

func TestTracerouteDiscoversChain(t *testing.T) {
	w, src, dst := gigChain(t)
	h := NewICMPHost(src)
	tr := h.StartTraceroute(TracerouteConfig{Src: src.Addr(), Dst: dst.Addr()})
	w.Run(5 * time.Second)
	if !tr.Done {
		t.Fatalf("trace did not finish: Done=%v", tr.Done)
	}
	if len(tr.Hops) != 2 {
		t.Fatalf("hops = %d, want 2 for src--fwdr--dst", len(tr.Hops))
	}
	fwdr, _ := w.Node("fwdr")
	if tr.Hops[0].TTL != 1 || tr.Hops[0].Addr != fwdr.Addr() {
		t.Fatalf("hop 1 = %+v, want TTL 1 from %s (time exceeded)", tr.Hops[0], fwdr.Addr())
	}
	if tr.Hops[1].TTL != 2 || tr.Hops[1].Addr != dst.Addr() {
		t.Fatalf("hop 2 = %+v, want TTL 2 from %s (port unreachable)", tr.Hops[1], dst.Addr())
	}
	// Each hop adds propagation; the second RTT must exceed the first.
	if tr.Hops[0].RTT <= 0 || tr.Hops[1].RTT <= tr.Hops[0].RTT {
		t.Fatalf("RTTs not increasing along the path: %v then %v",
			tr.Hops[0].RTT, tr.Hops[1].RTT)
	}
}

// TestTracerouteDemuxWithPing runs a flood ping and a traceroute through
// the same host dispatcher: echo replies must route by identifier to the
// ping client while ICMP errors route to the trace, with neither
// consuming the other's responses.
func TestTracerouteDemuxWithPing(t *testing.T) {
	w, src, dst := gigChain(t)
	NewICMPHost(dst)
	h := NewICMPHost(src)
	p := h.StartPing(PingConfig{Src: src.Addr(), Dst: dst.Addr(),
		Interval: 10 * time.Millisecond, Count: 50})
	tr := h.StartTraceroute(TracerouteConfig{Src: src.Addr(), Dst: dst.Addr()})
	w.Run(5 * time.Second)
	if !tr.Done || len(tr.Hops) != 2 {
		t.Fatalf("trace beside ping: Done=%v hops=%d, want 2", tr.Done, len(tr.Hops))
	}
	if p.Sent != 50 || p.Lost != 0 {
		t.Fatalf("ping beside trace: sent=%d lost=%d, want 50 sent 0 lost", p.Sent, p.Lost)
	}
}

func TestTracerouteTimeoutHops(t *testing.T) {
	w, src, dst := gigChain(t)
	l := w.Links()[0] // src-fwdr
	l.SetDown(true)
	h := NewICMPHost(src)
	tr := h.StartTraceroute(TracerouteConfig{Src: src.Addr(), Dst: dst.Addr(),
		maxTTL: 3, timeout: 200 * time.Millisecond})
	w.Run(2 * time.Second)
	if !tr.Done {
		t.Fatal("trace across a dead link never gave up")
	}
	if len(tr.Hops) != 3 {
		t.Fatalf("hops = %d, want maxTTL=3 timeout entries", len(tr.Hops))
	}
	for i, hop := range tr.Hops {
		if hop.TTL != i+1 || hop.Addr.IsValid() || hop.RTT != 0 {
			t.Fatalf("hop %d = %+v, want a bare * * * timeout entry", i+1, hop)
		}
	}
	// Timeout probes expire their own timers; nothing may stay scheduled.
	if n := w.Loop().Pending(); n != 0 {
		t.Fatalf("%d events still pending after a timed-out trace", n)
	}
}

// TestTracerouteStopAndClose covers the teardown path: Stop cancels the
// pending probe timeout (the domain heap drains) and Close detaches the
// trace from the host dispatcher.
func TestTracerouteStopAndClose(t *testing.T) {
	w, src, dst := gigChain(t)
	l := w.Links()[0] // src-fwdr
	l.SetDown(true)
	h := NewICMPHost(src)
	tr := h.StartTraceroute(TracerouteConfig{Src: src.Addr(), Dst: dst.Addr(),
		timeout: 10 * time.Second})
	w.Run(100 * time.Millisecond)
	if tr.Done {
		t.Fatal("trace finished with its probe still outstanding")
	}
	tr.stop()
	if n := w.Loop().Pending(); n != 0 {
		t.Fatalf("%d events still pending after Stop", n)
	}
	if got := len(h.traces); got != 1 {
		t.Fatalf("stopped trace left %d dispatcher entries, want 1 until Close", got)
	}
	tr.Close()
	if got := len(h.traces); got != 0 {
		t.Fatalf("%d traces still attached after Close", got)
	}
}

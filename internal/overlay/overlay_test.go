package overlay

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vini/internal/packet"
)

// buildLine stands up a live a—b—c overlay on loopback with fast OSPF
// timers and returns the three nodes.
func buildLine(t *testing.T) (a, b, c *Node) {
	t.Helper()
	mk := func(name, tap string) *Node {
		n, err := NewNode(Config{
			Name: name, Listen: "127.0.0.1:0",
			TapAddr: netip.MustParseAddr(tap),
			Hello:   200 * time.Millisecond, Dead: 600 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a = mk("a", "10.99.0.1")
	b = mk("b", "10.99.0.2")
	c = mk("c", "10.99.0.3")
	t.Cleanup(func() { a.Close(); b.Close(); c.Close() })
	link := func(x, y *Node, subnet byte, cost uint32) {
		px := netip.AddrFrom4([4]byte{10, 99, subnet, 1})
		py := netip.AddrFrom4([4]byte{10, 99, subnet, 2})
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 99, subnet, 0}), 30)
		if err := x.AddPeer(PeerConfig{Remote: y.LocalAddr(), LocalIf: px, PeerIf: py, Prefix: prefix, Cost: cost}); err != nil {
			t.Fatal(err)
		}
		if err := y.AddPeer(PeerConfig{Remote: x.LocalAddr(), LocalIf: py, PeerIf: px, Prefix: prefix, Cost: cost}); err != nil {
			t.Fatal(err)
		}
	}
	link(a, b, 10, 5)
	link(b, c, 11, 7)
	return a, b, c
}

// waitFor polls cond up to timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func hasRoute(n *Node, prefix string) bool {
	p := netip.MustParsePrefix(prefix)
	for _, r := range n.Routes() {
		if r.Prefix == p {
			return true
		}
	}
	return false
}

func TestLiveOverlayConvergesAndForwards(t *testing.T) {
	a, b, c := buildLine(t)
	var delivered atomic.Int64
	var lastPayload atomic.Value
	c.OnDeliver(func(d []byte) {
		var ip packet.IPv4
		body, err := ip.Parse(d)
		if err == nil && ip.Proto == packet.ProtoUDP {
			var u packet.UDP
			if pay, err := u.Parse(body); err == nil {
				lastPayload.Store(string(pay))
				delivered.Add(1)
			}
		}
	})
	for _, n := range []*Node{a, b, c} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Real OSPF over real sockets: a learns c's tap /32 transitively.
	waitFor(t, 15*time.Second, func() bool {
		return hasRoute(a, "10.99.0.3/32") && hasRoute(c, "10.99.0.1/32")
	}, "OSPF convergence")
	// Forward a real packet a -> c through b.
	dgram := packet.BuildUDP(a.TapAddr(), c.TapAddr(), 1234, 5678, 64, []byte("in vini veritas"))
	waitFor(t, 10*time.Second, func() bool {
		a.Send(dgram)
		return delivered.Load() > 0
	}, "end-to-end delivery")
	if got := lastPayload.Load().(string); got != "in vini veritas" {
		t.Fatalf("payload = %q", got)
	}
	// TTL decremented by the transit Click at b: verify via a second
	// delivery check isn't needed; adjacency state is enough here.
	if nbs := b.Neighbors(); len(nbs) != 2 {
		t.Fatalf("b neighbors = %+v", nbs)
	}
}

func TestLiveFailureReroutesOrIsolates(t *testing.T) {
	a, b, c := buildLine(t)
	for _, n := range []*Node{a, b, c} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		return hasRoute(a, "10.99.0.3/32")
	}, "initial convergence")
	// Fail the a-b tunnel inside Click on both ends: OSPF adjacencies
	// die within the dead interval and a loses the route to c.
	a.FailTunnel(0, true)
	b.FailTunnel(0, true)
	waitFor(t, 15*time.Second, func() bool {
		return !hasRoute(a, "10.99.0.3/32")
	}, "route withdrawal after live failure")
	// Restore: the route comes back.
	a.FailTunnel(0, false)
	b.FailTunnel(0, false)
	waitFor(t, 20*time.Second, func() bool {
		return hasRoute(a, "10.99.0.3/32")
	}, "route restoration")
}

// TestMetricsEndpoint converges the live overlay, forwards a packet,
// and scrapes the HTTP telemetry surface: the Prometheus exposition
// must carry the Click element counters and the scrape-time gauges, the
// JSON snapshot must parse, and /healthz must answer.
func TestMetricsEndpoint(t *testing.T) {
	a, b, c := buildLine(t)
	var delivered atomic.Int64
	c.OnDeliver(func([]byte) { delivered.Add(1) })
	for _, n := range []*Node{a, b, c} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		return hasRoute(a, "10.99.0.3/32") && hasRoute(c, "10.99.0.1/32")
	}, "OSPF convergence")
	dgram := packet.BuildUDP(a.TapAddr(), c.TapAddr(), 1234, 5678, 64, []byte("scrape me"))
	waitFor(t, 10*time.Second, func() bool {
		a.Send(dgram)
		return delivered.Load() > 0
	}, "end-to-end delivery")

	srv := httptest.NewServer(c.MetricsHandler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`slice="live"`, `node="c"`,
		"vini_fib_routes", "vini_ospf_neighbors_full", "vini_tap_delivered",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// The gauges are refreshed at scrape time from live protocol state.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "vini_ospf_neighbors_full") && strings.HasSuffix(line, " 0") {
			t.Fatalf("neighbors_full gauge not refreshed: %q", line)
		}
	}

	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var snap []map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v\n%s", err, body)
	}
	if len(snap) == 0 {
		t.Fatal("/metrics.json empty")
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("invalid tap address accepted")
	}
	if _, err := NewNode(Config{Listen: "not-an-address", TapAddr: netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	n, err := NewNode(Config{Listen: "127.0.0.1:0", TapAddr: netip.MustParseAddr("10.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	if err := n.AddPeer(PeerConfig{Remote: "127.0.0.1:9"}); err == nil {
		t.Fatal("AddPeer after Start accepted")
	}
}

// TestCloseStopsRouting: Close runs the OSPF stop on the actor before the
// actor exits, whichever of the two its select would have picked (a stop
// merely posted alongside the exit signal is skipped about every other
// time: run with -count=20). After Close the router reports stopped and
// the peer's socket hears nothing more.
func TestCloseStopsRouting(t *testing.T) {
	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	const hello = 50 * time.Millisecond
	n, err := NewNode(Config{
		Name: "a", Listen: "127.0.0.1:0", TapAddr: netip.MustParseAddr("10.99.0.1"),
		Hello: hello, Dead: 4 * hello,
		Peers: []PeerConfig{{
			Remote:  peer.LocalAddr().String(),
			LocalIf: netip.MustParseAddr("10.99.10.1"), PeerIf: netip.MustParseAddr("10.99.10.2"),
			Prefix: netip.MustParsePrefix("10.99.10.0/30"), Cost: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := peer.ReadFrom(buf); err != nil {
		t.Fatalf("no hello from a started node: %v", err)
	}
	n.Close()
	if n.fw.OSPF.Started() {
		t.Error("Close returned with the OSPF process still started")
	}
	// Drain what was already in the socket at Close, then listen.
	peer.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	for err == nil {
		_, _, err = peer.ReadFrom(buf)
	}
	peer.SetReadDeadline(time.Now().Add(2 * hello))
	if sz, _, err := peer.ReadFrom(buf); err == nil {
		t.Errorf("a %d-byte datagram arrived after Close", sz)
	}
}

// TestCloseFromActorReturns: Close called on the actor (what an
// OnDeliver callback runs on) cannot wait for itself; it must give up
// like every other actor round trip and not deadlock.
func TestCloseFromActorReturns(t *testing.T) {
	n, err := NewNode(Config{Name: "a", Listen: "127.0.0.1:0", TapAddr: netip.MustParseAddr("10.99.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	n.post(func() {
		n.Close()
		close(returned)
	})
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Close called on the actor never returned")
	}
}

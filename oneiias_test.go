package vini_test

// One IIAS router: the virtual node the simulator forwards through and
// the node iiasd runs over real sockets are the same Click graph, built
// by the same code from the same configuration text.

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"vini/internal/click"
	"vini/internal/core"
	"vini/internal/overlay"
)

// graph lists a router's elements as "name :: Class" in declaration order.
func graph(t *testing.T, r *click.Router) []string {
	t.Helper()
	var out []string
	for _, name := range r.Elements() {
		e, ok := r.Element(name)
		if !ok {
			t.Fatalf("element %q listed but not found", name)
		}
		out = append(out, name+" :: "+e.Class())
	}
	return out
}

func TestOneIIASRouter(t *testing.T) {
	// Simulated: the middle node of the three-node line has two interfaces.
	v := core.New(2)
	lineWorld(t, v, time.Second)
	s, _ := v.Slice("iias")
	vn, _ := s.VirtualNode("fwdr")
	if got := len(vn.Interfaces()); got != 2 {
		t.Fatalf("fwdr has %d interfaces, want 2", got)
	}

	// Live: one node with two peers (never started, so the peers need not
	// exist).
	peer := func(subnet byte, remote string) overlay.PeerConfig {
		return overlay.PeerConfig{
			Remote:  remote,
			LocalIf: netip.AddrFrom4([4]byte{10, 99, subnet, 1}),
			PeerIf:  netip.AddrFrom4([4]byte{10, 99, subnet, 2}),
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 99, subnet, 0}), 30),
			Cost:    1,
		}
	}
	n, err := overlay.NewNode(overlay.Config{
		Name: "live", Listen: "127.0.0.1:0", TapAddr: netip.MustParseAddr("10.99.0.1"),
		Peers: []overlay.PeerConfig{peer(10, "127.0.0.1:9"), peer(11, "127.0.0.1:10")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	sim, live := graph(t, vn.Router), graph(t, n.Router())
	if strings.Join(sim, "\n") != strings.Join(live, "\n") {
		t.Errorf("the simulated and the live IIAS router are different graphs\nsimulated:\n  %s\nlive:\n  %s",
			strings.Join(sim, "\n  "), strings.Join(live, "\n  "))
	}

	// One assembly: the base configuration and the per-tunnel element
	// names are each written down in exactly one source file.
	for _, needle := range []string{"LookupIPRoute(NOROUTE", "fail%d", "shape%d", "tun%d"} {
		if files := sourceFilesContaining(t, needle, "internal", "cmd"); len(files) != 1 {
			t.Errorf("%q is written in %d non-test source files, want exactly 1: %v", needle, len(files), files)
		}
	}
}

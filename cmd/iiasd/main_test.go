package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"vini/internal/overlay"
)

func TestPeerListSet(t *testing.T) {
	var p peerList
	if err := p.Set("127.0.0.1:7002,10.99.1.1,10.99.1.2,10.99.1.0/30,10"); err != nil {
		t.Fatalf("valid peer rejected: %v", err)
	}
	if len(p) != 1 {
		t.Fatalf("peer count = %d, want 1", len(p))
	}
	got := p[0]
	want := overlay.PeerConfig{
		Remote:  "127.0.0.1:7002",
		LocalIf: netip.MustParseAddr("10.99.1.1"),
		PeerIf:  netip.MustParseAddr("10.99.1.2"),
		Prefix:  netip.MustParsePrefix("10.99.1.0/30"),
		Cost:    10,
	}
	if got != want {
		t.Fatalf("parsed peer = %+v, want %+v", got, want)
	}
	if s := p.String(); s != "1 peers" {
		t.Fatalf("String() = %q", s)
	}

	bad := []string{
		"",                                     // empty
		"127.0.0.1:7002,10.99.1.1,10.99.1.2",   // too few fields
		"r,x,10.99.1.2,10.99.1.0/30,10",        // bad localIf
		"r,10.99.1.1,x,10.99.1.0/30,10",        // bad peerIf
		"r,10.99.1.1,10.99.1.2,not/prefix,10",  // bad prefix
		"r,10.99.1.1,10.99.1.2,10.99.1.0/30,x", // bad cost
	}
	for _, s := range bad {
		if err := p.Set(s); err == nil {
			t.Errorf("Set(%q) accepted", s)
		}
	}
	if len(p) != 1 {
		t.Fatalf("failed Sets appended peers: %d", len(p))
	}
}

// TestMetricsEndpointServing stands up one overlay node the way main()
// does and drives the handler iiasd mounts behind -metrics.
func TestMetricsEndpointServing(t *testing.T) {
	node, err := overlay.NewNode(overlay.Config{
		Name: "d0", Listen: "127.0.0.1:0",
		TapAddr: netip.MustParseAddr("10.99.7.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(node.MetricsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	// A peerless node still exposes its registry: the scrape-time gauges
	// and the Click element counters registered at build time.
	for _, want := range []string{`node="d0"`, "vini_fib_routes", "vini_ospf_neighbors"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
	}
}

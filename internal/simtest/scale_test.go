package simtest

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
)

// TestScaleAddrCeiling pins where the scale regime's 40 000-node ceiling
// comes from: scaleAddr hands out that many distinct, usable host
// addresses and RunScale refuses to number a larger substrate.
func TestScaleAddrCeiling(t *testing.T) {
	block := netip.MustParsePrefix("198.18.0.0/16")
	seen := make(map[netip.Addr]int, maxScaleNodes)
	for i := 0; i < maxScaleNodes; i++ {
		a := scaleAddr(i, "")
		if j, dup := seen[a]; dup {
			t.Fatalf("nodes %d and %d share %v", j, i, a)
		}
		seen[a] = i
		if host := a.As4()[3]; host == 0 || host == 255 || !block.Contains(a) {
			t.Fatalf("node %d gets %v, want a host of %v that is neither .0 nor .255", i, a, block)
		}
		// The formula the substrate loop carried before it had a name.
		if old := netip.AddrFrom4([4]byte{198, byte(18 + i/40000), byte(1 + (i/200)%200), byte(1 + i%200)}); a != old {
			t.Fatalf("node %d gets %v, the digests were recorded with %v", i, a, old)
		}
	}

	var graph strings.Builder
	fmt.Fprintf(&graph, "NODES %d\nlabel x y\n", maxScaleNodes+1)
	for i := 0; i <= maxScaleNodes; i++ {
		fmt.Fprintf(&graph, "n%d 0 0\n", i)
	}
	graph.WriteString("EDGES 0\nlabel src dest weight bw delay\n")
	_, err := RunScale(ScaleOptions{Seed: 1, GraphText: graph.String(), DemandsText: "DEMANDS 0\nlabel src dest bw\n"})
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxScaleNodes)) {
		t.Fatalf("RunScale on %d nodes: %v, want an error naming the limit of %d", maxScaleNodes+1, err, maxScaleNodes)
	}
}

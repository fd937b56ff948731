package rcc

import (
	"strings"
	"testing"
	"time"

	"vini/internal/topology"
)

const sampleConfig = `
hostname dnvr
!
interface so-0/0/0
 description "to kscy"
 ip address 10.9.1.1/30
 ip ospf cost 639
 delay 5.5ms
 bandwidth 10000000000
!
interface so-0/1/0
 description "to snva"
 ip address 10.9.1.5/30
 ip ospf cost 1295
!
router ospf
 hello-interval 5
 dead-interval 10
`

func TestParseSample(t *testing.T) {
	rc, err := Parse(sampleConfig)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Hostname != "dnvr" {
		t.Fatalf("hostname = %q", rc.Hostname)
	}
	if len(rc.Interfaces) != 2 {
		t.Fatalf("interfaces = %d", len(rc.Interfaces))
	}
	i0 := rc.Interfaces[0]
	if i0.Name != "so-0/0/0" || i0.Description != "to kscy" ||
		i0.OSPFCost != 639 || i0.Delay != 5500*time.Microsecond ||
		i0.Addr.String() != "10.9.1.1" || i0.Prefix.String() != "10.9.1.0/30" ||
		i0.Bandwidth != 10e9 {
		t.Fatalf("iface 0 = %+v", i0)
	}
	if rc.HelloInterval != 5 || rc.DeadInterval != 10 {
		t.Fatalf("timers = %d/%d", rc.HelloInterval, rc.DeadInterval)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"interface x\n ip address banana",
		"hostname a\ninterface x\n ip ospf cost zero",
		"hostname a\n description \"orphan\"",
		"hostname a\nfrobnicate",
		"interface x\n ip address 10.0.0.1/30", // no hostname
		"hostname a\ninterface x\n delay -5ms",
		"hostname a\nrouter ospf\n hello-interval x",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("config %q parsed without error", c)
		}
	}
}

func TestCheckFindsFaults(t *testing.T) {
	a, _ := Parse("hostname a\ninterface i\n ip address 10.9.0.1/30\n ip ospf cost 5")
	b, _ := Parse("hostname b\ninterface i\n ip address 10.9.0.2/30\n ip ospf cost 7")
	probs := Check([]*RouterConfig{a, b})
	found := false
	for _, p := range probs {
		if strings.Contains(p.Msg, "asymmetric") {
			found = true
		}
	}
	if !found {
		t.Fatalf("asymmetric cost not detected: %v", probs)
	}

	// Dangling link.
	c, _ := Parse("hostname c\ninterface i\n ip address 10.9.9.1/30\n ip ospf cost 5")
	probs = Check([]*RouterConfig{c})
	if len(probs) == 0 || !strings.Contains(probs[0].Msg, "dangling") {
		t.Fatalf("dangling link not detected: %v", probs)
	}

	// Duplicate address.
	d1, _ := Parse("hostname d1\ninterface i\n ip address 10.9.8.1/30\n ip ospf cost 5")
	d2, _ := Parse("hostname d2\ninterface i\n ip address 10.9.8.1/30\n ip ospf cost 5")
	probs = Check([]*RouterConfig{d1, d2})
	dup := false
	for _, p := range probs {
		if strings.Contains(p.Msg, "also configured") {
			dup = true
		}
	}
	if !dup {
		t.Fatalf("duplicate address not detected: %v", probs)
	}
}

func TestAbileneConfigsRoundTrip(t *testing.T) {
	files := AbileneConfigs()
	configs, err := ParseAbilene()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 11 || len(configs) != 11 {
		t.Fatalf("%d files parsed into %d configs, want 11 of each", len(files), len(configs))
	}
	for i, rc := range configs {
		if _, ok := files[rc.Hostname]; !ok {
			t.Fatalf("hostname %q names no config file", rc.Hostname)
		}
		if i > 0 && configs[i-1].Hostname >= rc.Hostname {
			t.Fatalf("configs out of router-code order: %q before %q", configs[i-1].Hostname, rc.Hostname)
		}
	}
	if probs := Check(configs); len(probs) != 0 {
		t.Fatalf("generated configs have faults: %v", probs)
	}
	g, err := BuildTopology(configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Links()) != 14 || len(g.Nodes()) != 11 {
		t.Fatalf("rebuilt topology: %d nodes %d links", len(g.Nodes()), len(g.Links()))
	}
	// Shortest paths across the rebuilt graph must match the reference
	// topology exactly (translating codes back to PoP names).
	ref := topology.Abilene()
	for _, srcPop := range ref.Nodes() {
		src := topology.AbileneRouterCode[srcPop]
		refPaths := ref.ShortestPaths(srcPop, nil)
		gotPaths := g.ShortestPaths(src, nil)
		for _, dstPop := range ref.Nodes() {
			if dstPop == srcPop {
				continue
			}
			dst := topology.AbileneRouterCode[dstPop]
			if gotPaths[dst].Cost != refPaths[dstPop].Cost {
				t.Fatalf("%s->%s cost %d, want %d", src, dst,
					gotPaths[dst].Cost, refPaths[dstPop].Cost)
			}
			if gotPaths[dst].Delay != refPaths[dstPop].Delay {
				t.Fatalf("%s->%s delay %v, want %v", src, dst,
					gotPaths[dst].Delay, refPaths[dstPop].Delay)
			}
		}
	}
	h, d, err := Timers(configs)
	if err != nil || h != 5*time.Second || d != 10*time.Second {
		t.Fatalf("timers = %v/%v err=%v", h, d, err)
	}
}

func TestBuildTopologyRejectsFaulty(t *testing.T) {
	a, _ := Parse("hostname a\ninterface i\n ip address 10.9.0.1/30\n ip ospf cost 5")
	if _, err := BuildTopology([]*RouterConfig{a}); err == nil {
		t.Fatal("faulty configs accepted")
	}
}

func TestTimersInconsistent(t *testing.T) {
	a, _ := Parse("hostname a\nrouter ospf\n hello-interval 5")
	b, _ := Parse("hostname b\nrouter ospf\n hello-interval 10")
	if _, _, err := Timers([]*RouterConfig{a, b}); err == nil {
		t.Fatal("inconsistent timers accepted")
	}
}

func TestPopForCode(t *testing.T) {
	pop, ok := PopForCode("dnvr")
	if !ok || pop != topology.Denver {
		t.Fatalf("PopForCode(dnvr) = %q, %v", pop, ok)
	}
	if _, ok := PopForCode("zzzz"); ok {
		t.Fatal("unknown code resolved")
	}
}

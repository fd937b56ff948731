package experiment

import (
	"math"
	"testing"
)

// FuzzParseSpec throws arbitrary text at the experiment-specification
// parser, which must return a spec or an error — never panic. (This
// target originally surfaced index panics on bare "duration", "warmup",
// and "seed" directive lines.)
func FuzzParseSpec(f *testing.F) {
	f.Add(`# Abilene convergence experiment
topology abilene
slice iias reservation 0.25 rt
ospf hello 5s dead 10s
ping washington seattle interval 200ms
iperf-tcp washington seattle window 16384
udp-cbr washington seattle rate 10M
at 10s fail-virtual denver kansas-city
at 34s restore-virtual denver kansas-city
duration 50s
warmup 30s
seed 7
`)
	f.Add("topology line a b c\nrip update 10s\n")
	f.Add("topology star hub leaf1 leaf2\nslice s expose-failures\n")
	f.Add("duration") // bare directives used to panic
	f.Add("warmup")
	f.Add("seed")
	f.Add("spare")
	f.Add("at 10s fail-virtual a") // wrong arity
	f.Add("ping a")                // missing dst
	f.Add("slice s share nope\n")
	f.Add("udp-cbr a b rate 10Q\n")
	// Migration action arity and argument malformations: each must
	// parse-error, never panic.
	f.Add("at 1s migrate")
	f.Add("at 1s migrate a")
	f.Add("at 1s migrate a b c")
	f.Add("at nonsense migrate a b")
	f.Add("topology line a b c\nspare c\nat 5s migrate b c\n")
	// Adaptive flows and runtime rate retargets: arity and rate-syntax
	// malformations must parse-error, never panic.
	f.Add("topology line a b\nadaptive a b rate 200k\nat 5s rate a b 2M\n")
	f.Add("adaptive a")
	f.Add("adaptive a b rate bogus")
	f.Add("at 1s rate")
	f.Add("at 1s rate a b")
	f.Add("at 1s rate a b 10Q")
	f.Add("at 1s rate a b 1M extra")
	// A key without its value: each used to parse with the default kept.
	f.Add("ping washington seattle interval")
	f.Add("iperf-tcp a b window 16384 streams")
	f.Add("ospf hello 5s dead")
	f.Add("rip update")
	// Non-finite rates and shares: each used to parse, and a rate of Inf
	// hung the run.
	f.Add("udp-cbr a b rate Inf")
	f.Add("udp-cbr a b rate NaN")
	f.Add("adaptive a b rate NaN")
	f.Add("at 1s rate a b inf")
	f.Add("slice x share NaN")
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(text)
		if err != nil {
			return
		}
		if sp.Duration < 0 || sp.Warmup < 0 {
			t.Fatalf("ParseSpec accepted negative times: %+v", sp)
		}
		if s := sp.Slice.CPUShare; !(s >= 0 && s <= 1) {
			t.Fatalf("ParseSpec accepted CPU share %v", s)
		}
		checkRate := func(r float64) {
			if !(r > 0) || math.IsInf(r, 0) {
				t.Fatalf("ParseSpec accepted rate %v", r)
			}
		}
		for _, ts := range sp.Traffic {
			checkRate(ts.RateBps)
		}
		for _, ev := range sp.Events {
			if ev.Action == "rate" {
				checkRate(ev.Rate)
			}
		}
	})
}

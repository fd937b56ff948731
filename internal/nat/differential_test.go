package nat

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"vini/internal/packet"
)

// TestTranslateDifferential pins the zero-allocation in-place NAPT path
// (TranslateOutbound/TranslateInbound, RFC 1624 incremental checksums)
// byte-for-byte against the allocating reference path
// (Outbound/Inbound, full reserialization) across UDP, TCP, and ICMP.
func TestTranslateDifferential(t *testing.T) {
	ext := netip.MustParseAddr("198.32.154.226")
	inside := netip.MustParseAddr("10.1.0.9")
	remote := netip.MustParseAddr("128.112.139.43")
	tbl := New(Config{External: ext, Timeout: time.Minute}, func() time.Duration { return 0 })

	cases := map[string][]byte{
		"udp": packet.BuildUDP(inside, remote, 4321, 53, 64, []byte("query")),
		"tcp": func() []byte {
			h := packet.TCP{SrcPort: 4321, DstPort: 80, Seq: 7, Flags: packet.TCPSyn, Window: 1024}
			seg := h.Marshal(inside, remote, []byte("GET /"))
			ip := packet.IPv4{TTL: 64, Proto: packet.ProtoTCP, Src: inside, Dst: remote}
			return ip.Marshal(seg)
		}(),
		"icmp": func() []byte {
			h := packet.ICMP{Type: packet.ICMPEcho, ID: 4321, Seq: 3}
			ip := packet.IPv4{TTL: 64, Proto: packet.ProtoICMP, Src: inside, Dst: remote}
			return ip.Marshal(h.Marshal([]byte("ping")))
		}(),
	}
	for name, dgram := range cases {
		t.Run(name, func(t *testing.T) {
			// Outbound: the reference allocates a fresh datagram, the
			// fast path rewrites a copy in place; the flow is identical
			// so both hit the same binding.
			want, err := tbl.outbound(dgram)
			if err != nil {
				t.Fatalf("reference Outbound: %v", err)
			}
			got := append([]byte(nil), dgram...)
			if err := tbl.TranslateOutbound(got); err != nil {
				t.Fatalf("TranslateOutbound: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("outbound divergence:\nfast %x\nref  %x", got, want)
			}
			// The translated datagram must still carry valid checksums.
			var ip packet.IPv4
			if _, err := ip.Parse(got); err != nil {
				t.Fatalf("translated datagram no longer parses: %v", err)
			}

			// Inbound: build the external host's reply by swapping the
			// translated flow, then compare both return paths.
			reply := buildReply(t, got)
			wantBack, ok, err := tbl.inbound(reply)
			if err != nil || !ok {
				t.Fatalf("reference Inbound: ok=%v err=%v", ok, err)
			}
			gotBack := append([]byte(nil), reply...)
			ok, err = tbl.TranslateInbound(gotBack)
			if err != nil || !ok {
				t.Fatalf("TranslateInbound: ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(gotBack, wantBack) {
				t.Fatalf("inbound divergence:\nfast %x\nref  %x", gotBack, wantBack)
			}
		})
	}
}

// TestTranslateUDPZeroChecksum checks the RFC 768 corner: a zero UDP
// checksum means "not computed" and must stay zero through in-place
// translation, not be incrementally updated into garbage.
func TestTranslateUDPZeroChecksum(t *testing.T) {
	ext := netip.MustParseAddr("198.32.154.226")
	tbl := New(Config{External: ext, Timeout: time.Minute}, func() time.Duration { return 0 })
	dgram := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"),
		netip.MustParseAddr("128.112.139.43"), 4321, 53, 64, []byte("q"))
	// Zero the UDP checksum and fix the IP header untouched (UDP csum
	// is not covered by the IP header checksum).
	dgram[26], dgram[27] = 0, 0
	want, err := tbl.outbound(dgram)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), dgram...)
	if err := tbl.TranslateOutbound(got); err != nil {
		t.Fatal(err)
	}
	if got[26] != 0 || got[27] != 0 {
		t.Fatalf("zero UDP checksum was rewritten to %x", got[26:28])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("zero-checksum divergence:\nfast %x\nref  %x", got, want)
	}
}

// buildReply swaps a translated outbound datagram into the reply the
// external host would send: src/dst addresses and ports (or ICMP ID
// kept, type flipped to echo-reply), checksums recomputed from scratch.
func buildReply(t *testing.T, out []byte) []byte {
	t.Helper()
	var ip packet.IPv4
	seg, err := ip.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	rip := packet.IPv4{TTL: 64, Proto: ip.Proto, Src: ip.Dst, Dst: ip.Src}
	switch ip.Proto {
	case packet.ProtoUDP:
		var u packet.UDP
		payload, err := u.Parse(seg)
		if err != nil {
			t.Fatal(err)
		}
		r := packet.UDP{SrcPort: u.DstPort, DstPort: u.SrcPort}
		return rip.Marshal(r.Marshal(rip.Src, rip.Dst, payload))
	case packet.ProtoTCP:
		var h packet.TCP
		payload, err := h.Parse(seg)
		if err != nil {
			t.Fatal(err)
		}
		r := packet.TCP{SrcPort: h.DstPort, DstPort: h.SrcPort,
			Seq: 100, Ack: h.Seq + 1, Flags: packet.TCPSyn | packet.TCPAck, Window: 1024}
		return rip.Marshal(r.Marshal(rip.Src, rip.Dst, payload))
	case packet.ProtoICMP:
		var h packet.ICMP
		payload, err := h.Parse(seg)
		if err != nil {
			t.Fatal(err)
		}
		r := packet.ICMP{Type: packet.ICMPEchoReply, ID: h.ID, Seq: h.Seq}
		return rip.Marshal(r.Marshal(payload))
	}
	t.Fatalf("unhandled proto %d", ip.Proto)
	return nil
}

package sim

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

func TestWireFrameRoundTrips(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		b := appendHello(nil, 3)
		typ, p, rest, err := splitFrame(b)
		if err != nil || typ != frameHello || len(rest) != 0 {
			t.Fatalf("splitFrame: typ=%d rest=%d err=%v", typ, len(rest), err)
		}
		proto, shard, err := decodeHello(p)
		if err != nil || proto != wireProto || shard != 3 {
			t.Fatalf("decodeHello: proto=%d shard=%d err=%v", proto, shard, err)
		}
	})

	t.Run("welcome", func(t *testing.T) {
		b := appendWelcome(nil, 4, 2, []byte("scenario"))
		_, p, _, err := splitFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		shards, shard, payload, err := decodeWelcome(p)
		if err != nil || shards != 4 || shard != 2 || string(payload) != "scenario" {
			t.Fatalf("decodeWelcome: %d %d %q %v", shards, shard, payload, err)
		}
	})

	t.Run("trains", func(t *testing.T) {
		msgs := []wireMsg{
			{DstDom: 5, At: 123 * time.Millisecond, Dom: 2, Seq: 99, HID: 7, Arg: []byte{1, 2, 3}},
			{DstDom: 1, At: time.Second, Dom: 9, Seq: 1 << 40, HID: 0, Arg: nil},
		}
		b := appendTrains(nil, 42, msgs)
		_, p, _, err := splitFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		step, got, err := decodeTrains(p)
		if err != nil || step != 42 || len(got) != 2 {
			t.Fatalf("decodeTrains: step=%d n=%d err=%v", step, len(got), err)
		}
		for i := range msgs {
			if got[i].DstDom != msgs[i].DstDom || got[i].At != msgs[i].At ||
				got[i].Dom != msgs[i].Dom || got[i].Seq != msgs[i].Seq ||
				got[i].HID != msgs[i].HID || !bytes.Equal(got[i].Arg, msgs[i].Arg) {
				t.Fatalf("msg %d mismatch: %+v vs %+v", i, got[i], msgs[i])
			}
		}
		if b2 := appendTrains(nil, step, got); !bytes.Equal(b, b2) {
			t.Fatal("re-encode not byte-identical")
		}
	})

	t.Run("vote-grant", func(t *testing.T) {
		v := Vote{Key: EventKey{At: 7 * time.Millisecond, Dom: 3, Seq: 11}, Delta: 5, EpochRan: true}
		b := appendVote(nil, 9, v)
		_, p, _, err := splitFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		step, gv, err := decodeVote(p)
		if err != nil || step != 9 || gv != v {
			t.Fatalf("decodeVote: %d %+v %v", step, gv, err)
		}
		d := Decision{NodeNext: time.Second, Fallback: true,
			FallbackKey: EventKey{At: time.Second, Dom: 1, Seq: 2}}
		b = appendGrant(nil, 9, d)
		_, p, _, err = splitFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		step, gd, err := decodeGrant(p)
		if err != nil || step != 9 || gd != d {
			t.Fatalf("decodeGrant: %d %+v %v", step, gd, err)
		}
	})

	t.Run("report", func(t *testing.T) {
		b := appendReport(nil, []uint64{1, 2, 3}, []byte("tel"))
		_, p, _, err := splitFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		digests, payload, err := decodeReport(p)
		if err != nil || len(digests) != 3 || digests[2] != 3 || string(payload) != "tel" {
			t.Fatalf("decodeReport: %v %q %v", digests, payload, err)
		}
	})

	t.Run("bye-fail", func(t *testing.T) {
		typ, p, _, err := splitFrame(appendBye(nil))
		if err != nil || typ != frameBye || len(p) != 0 {
			t.Fatalf("bye: %d %d %v", typ, len(p), err)
		}
		typ, p, _, err = splitFrame(appendFail(nil, "boom"))
		if err != nil || typ != frameFail || decodeFail(p) != "boom" {
			t.Fatalf("fail: %d %q %v", typ, p, err)
		}
	})
}

func TestWireDecodeRejectsMalformed(t *testing.T) {
	// Truncated header.
	if _, _, _, err := splitFrame([]byte{1, 0}); err == nil {
		t.Fatal("short header accepted")
	}
	// Length beyond the buffer.
	if _, _, _, err := splitFrame([]byte{200, 0, 0, 0, frameMark}); err == nil {
		t.Fatal("overlong frame accepted")
	}
	// Oversized length prefix.
	huge := binary.LittleEndian.AppendUint32(nil, maxWireFrame+1)
	if _, _, _, err := splitFrame(append(huge, frameMark)); err == nil {
		t.Fatal("huge frame accepted")
	}
	// Trailing bytes in a fixed-size payload.
	b := appendMark(nil, 7)
	b = append(b, 0xff)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	_, p, _, err := splitFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMark(p); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Train count larger than the payload can hold must not allocate or
	// crash.
	tb := binary.LittleEndian.AppendUint64(nil, 1)        // step
	tb = binary.LittleEndian.AppendUint32(tb, 0xffffffff) // count
	if _, _, err := decodeTrains(tb); err == nil {
		t.Fatal("absurd train count accepted")
	}
}

// FuzzWireCodec pins the two wire-codec properties the distributed
// protocol depends on: decoding arbitrary bytes never panics, and
// encode(decode(encode(x))) is byte-identical to encode(x) for every
// frame type (the encoding is canonical).
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendHello(nil, 1))
	f.Add(appendWelcome(nil, 3, 1, []byte("spec")))
	f.Add(appendTrains(nil, 2, []wireMsg{{DstDom: 1, At: time.Millisecond, Dom: 2, Seq: 3, HID: 0, Arg: []byte{9}}}))
	f.Add(appendMark(nil, 5))
	f.Add(appendVote(nil, 5, Vote{Key: EventKey{At: 1, Dom: 2, Seq: 3}, Delta: 4, EpochRan: true}))
	f.Add(appendGrant(nil, 5, Decision{NodeNext: 9, Fallback: true, FallbackKey: EventKey{At: 9, Dom: 1, Seq: 1}}))
	f.Add(appendReport(nil, []uint64{1, 2}, []byte("t")))
	f.Add(appendBye(nil))
	f.Add(appendFail(nil, "x"))
	f.Add([]byte{3, 0, 0, 0, frameTrains, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Property 1: framing and every payload decoder survive
		// arbitrary input.
		rest := b
		for len(rest) > 0 {
			typ, payload, r, err := splitFrame(rest)
			if err != nil {
				break
			}
			_ = decodeAnyFrame(typ, payload)
			rest = r
		}

		// Property 2: canonical round-trip for structured frames derived
		// from the fuzz input.
		var msgs []wireMsg
		for i := 0; i+8 <= len(b) && len(msgs) < 16; i += 8 {
			argN := int(b[i]) % 9
			end := i + 8 + argN
			if end > len(b) {
				end = len(b)
			}
			msgs = append(msgs, wireMsg{
				DstDom: int32(b[i+1]),
				At:     time.Duration(binary.LittleEndian.Uint32(b[i : i+4])),
				Dom:    int32(b[i+5]),
				Seq:    binary.LittleEndian.Uint64(b[i : i+8]),
				HID:    uint32(b[i+6]),
				Arg:    b[i+8 : end],
			})
		}
		var step uint64 = 77
		if len(b) >= 8 {
			step = binary.LittleEndian.Uint64(b)
		}
		enc := appendTrains(nil, step, msgs)
		typ, payload, rest, err := splitFrame(enc)
		if err != nil || typ != frameTrains || len(rest) != 0 {
			t.Fatalf("self-encoded trains frame did not split: typ=%d err=%v", typ, err)
		}
		step2, msgs2, err := decodeTrains(payload)
		if err != nil || step2 != step || len(msgs2) != len(msgs) {
			t.Fatalf("self-encoded trains frame did not decode: %v", err)
		}
		if enc2 := appendTrains(nil, step2, msgs2); !bytes.Equal(enc, enc2) {
			t.Fatal("trains re-encode not byte-identical")
		}

		v := Vote{Key: EventKey{At: time.Duration(step), Dom: int32(step >> 32), Seq: step ^ 0xabc},
			Delta: step % 1000, EpochRan: step%2 == 0}
		ev := appendVote(nil, step, v)
		_, payload, _, err = splitFrame(ev)
		if err != nil {
			t.Fatalf("vote split: %v", err)
		}
		_, v2, err := decodeVote(payload)
		if err != nil || v2 != v {
			t.Fatalf("vote decode: %+v %v", v2, err)
		}
		if ev2 := appendVote(nil, step, v2); !bytes.Equal(ev, ev2) {
			t.Fatal("vote re-encode not byte-identical")
		}
	})
}

package vpn

import (
	"bytes"
	"testing"
	"testing/quick"
)

func pair(t *testing.T) (*Codec, *Codec) {
	t.Helper()
	key := bytes.Repeat([]byte{7}, keySize)
	a, err := NewCodec(key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCodec(key)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSealOpenRoundTrip(t *testing.T) {
	a, b := pair(t)
	msg := []byte("inner ip datagram")
	frame := a.Seal(msg)
	if len(frame) != len(msg)+overhead {
		t.Fatalf("frame len = %d, want %d", len(frame), len(msg)+overhead)
	}
	got, err := b.Open(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestTamperRejected(t *testing.T) {
	a, b := pair(t)
	frame := a.Seal([]byte("payload"))
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 1
		if _, err := b.Open(bad); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	a, b := pair(t)
	f1 := a.Seal([]byte("one"))
	if _, err := b.Open(f1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(f1); err == nil {
		t.Fatal("replay accepted")
	}
}

func TestOutOfOrderWithinWindow(t *testing.T) {
	a, b := pair(t)
	var frames [][]byte
	for i := 0; i < 10; i++ {
		frames = append(frames, a.Seal([]byte{byte(i)}))
	}
	// Deliver 9 first, then the earlier ones (reordered but not replayed).
	if _, err := b.Open(frames[9]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := b.Open(frames[i]); err != nil {
			t.Fatalf("in-window frame %d rejected: %v", i, err)
		}
	}
	// Now every one of them is a replay.
	for i := range frames {
		if _, err := b.Open(frames[i]); err == nil {
			t.Fatalf("late replay %d accepted", i)
		}
	}
}

func TestAncientFrameRejected(t *testing.T) {
	a, b := pair(t)
	old := a.Seal([]byte("old"))
	for i := 0; i < 100; i++ {
		f := a.Seal([]byte("new"))
		if _, err := b.Open(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Open(old); err == nil {
		t.Fatal("frame far outside window accepted")
	}
}

func TestWrongKeyFails(t *testing.T) {
	a, _ := pair(t)
	other, _ := NewCodec(bytes.Repeat([]byte{9}, keySize))
	if _, err := other.Open(a.Seal([]byte("x"))); err == nil {
		t.Fatal("cross-key frame accepted")
	}
}

func TestBadKeySize(t *testing.T) {
	if _, err := NewCodec([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		a, b := pair(&testing.T{})
		for _, p := range payloads {
			if len(p) > 1500 {
				p = p[:1500]
			}
			got, err := b.Open(a.Seal(p))
			if err != nil || !bytes.Equal(got, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

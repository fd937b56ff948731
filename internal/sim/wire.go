package sim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Wire protocol for the socket transport: length-prefixed binary
// frames, fixed little-endian integer widths, no varints — the encoding
// of a value is canonical, so encode(decode(frame)) is byte-identical
// to the frame, which the fuzz round-trip pins.
//
//	frame  := u32 length | u8 type | payload
//	length := len(type byte + payload)
//
// Frame types (payload layouts in the encode/decode pairs below):
//
//	HELLO   worker -> coordinator: protocol version, claimed shard id.
//	WELCOME coordinator -> worker: shard count, confirmed shard id, and
//	        an opaque application payload (the scenario/spec the worker
//	        must replicate).
//	TRAINS  both directions, once per superstep: the cross-shard typed
//	        messages collected at this exchange barrier.
//	MARK    end-of-exchange marker carrying the superstep counter; a
//	        mismatch means the peers desynchronized.
//	VOTE    worker -> coordinator: local minimum pending merge key plus
//	        the previous epoch's progress delta.
//	GRANT   coordinator -> worker: the agreed Decision.
//	REPORT  worker -> coordinator: per-domain schedule digests plus an
//	        opaque application payload (telemetry snapshot).
//	BYE     coordinator -> worker: clean shutdown.
//	FAIL    either direction: the sender is aborting; payload is the
//	        reason, surfaced in the peer's TransportError.
const (
	frameHello byte = iota + 1
	frameWelcome
	frameTrains
	frameMark
	frameVote
	frameGrant
	frameReport
	frameBye
	frameFail
)

// wireProto is the protocol version carried in HELLO; peers with
// different versions refuse to pair.
const wireProto uint32 = 1

// maxWireFrame bounds a frame's length prefix (64 MiB): a corrupt or
// hostile length cannot make the reader allocate unbounded memory.
const maxWireFrame = 1 << 26

var (
	errWireShort    = errors.New("sim: wire frame truncated")
	errWireTrailing = errors.New("sim: wire frame has trailing bytes")
	errWireHuge     = errors.New("sim: wire frame exceeds size limit")
)

// wireCursor is a bounds-checked little-endian reader over one frame
// payload. All reads after the first failure return zero values; the
// caller checks err once at the end. Decoding never panics on malformed
// input — the property the fuzz target pins.
type wireCursor struct {
	b   []byte
	err error
}

func (c *wireCursor) fail() {
	if c.err == nil {
		c.err = errWireShort
	}
}

func (c *wireCursor) u8() byte {
	if c.err != nil || len(c.b) < 1 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *wireCursor) u32() uint32 {
	if c.err != nil || len(c.b) < 4 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *wireCursor) u64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// bytes returns the next length-prefixed byte string (aliasing the
// frame buffer, valid until the next frame is read into it).
func (c *wireCursor) bytes() []byte {
	n := c.u32()
	if c.err != nil || uint64(n) > uint64(len(c.b)) {
		c.fail()
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// done rejects trailing bytes, keeping the encoding canonical.
func (c *wireCursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return errWireTrailing
	}
	return nil
}

// appendFrameHeader reserves the length prefix and writes the type
// byte; finishFrame backfills the length once the payload is appended.
func appendFrameHeader(dst []byte, typ byte) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	return dst, start
}

func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// splitFrame splits one frame off the front of b, returning its type,
// payload, and the remaining bytes. Pure function over bytes (the fuzz
// entry point); the socket path uses readFrame instead.
func splitFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, b, errWireShort
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxWireFrame {
		return 0, nil, b, errWireHuge
	}
	if n < 1 || uint64(len(b)-4) < uint64(n) {
		return 0, nil, b, errWireShort
	}
	body := b[4 : 4+n]
	return body[0], body[1:], b[4+n:], nil
}

// readFrame reads one frame from r into buf (grown as needed),
// returning the type, the payload (aliasing buf), and the possibly
// regrown buffer.
func readFrame(r *bufio.Reader, buf []byte) (typ byte, payload, nbuf []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxWireFrame {
		return 0, nil, buf, errWireHuge
	}
	if n < 1 {
		return 0, nil, buf, errWireShort
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

func appendHello(dst []byte, shard int32) []byte {
	dst, start := appendFrameHeader(dst, frameHello)
	dst = binary.LittleEndian.AppendUint32(dst, wireProto)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shard))
	return finishFrame(dst, start)
}

func decodeHello(p []byte) (proto uint32, shard int32, err error) {
	c := wireCursor{b: p}
	proto = c.u32()
	shard = int32(c.u32())
	return proto, shard, c.done()
}

func appendWelcome(dst []byte, shards, shard int32, payload []byte) []byte {
	dst, start := appendFrameHeader(dst, frameWelcome)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shards))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shard))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return finishFrame(dst, start)
}

func decodeWelcome(p []byte) (shards, shard int32, payload []byte, err error) {
	c := wireCursor{b: p}
	shards = int32(c.u32())
	shard = int32(c.u32())
	payload = c.bytes()
	return shards, shard, payload, c.done()
}

func appendTrains(dst []byte, step uint64, msgs []wireMsg) []byte {
	dst, start := appendFrameHeader(dst, frameTrains)
	dst = binary.LittleEndian.AppendUint64(dst, step)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.DstDom))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.At))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Dom))
		dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, m.HID)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Arg)))
		dst = append(dst, m.Arg...)
	}
	return finishFrame(dst, start)
}

func decodeTrains(p []byte) (step uint64, msgs []wireMsg, err error) {
	c := wireCursor{b: p}
	step = c.u64()
	n := c.u32()
	// Each message costs at least 28 payload bytes; reject counts the
	// payload cannot hold before allocating.
	if c.err == nil && uint64(n)*28 > uint64(len(c.b)) {
		return step, nil, errWireShort
	}
	if n > 0 && c.err == nil {
		msgs = make([]wireMsg, 0, n)
	}
	for i := uint32(0); i < n && c.err == nil; i++ {
		var m wireMsg
		m.DstDom = int32(c.u32())
		m.At = time.Duration(c.u64())
		m.Dom = int32(c.u32())
		m.Seq = c.u64()
		m.HID = c.u32()
		m.Arg = c.bytes()
		msgs = append(msgs, m)
	}
	return step, msgs, c.done()
}

func appendMark(dst []byte, step uint64) []byte {
	dst, start := appendFrameHeader(dst, frameMark)
	dst = binary.LittleEndian.AppendUint64(dst, step)
	return finishFrame(dst, start)
}

func decodeMark(p []byte) (step uint64, err error) {
	c := wireCursor{b: p}
	step = c.u64()
	return step, c.done()
}

func appendVote(dst []byte, step uint64, v Vote) []byte {
	dst, start := appendFrameHeader(dst, frameVote)
	dst = binary.LittleEndian.AppendUint64(dst, step)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Key.At))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Key.Dom))
	dst = binary.LittleEndian.AppendUint64(dst, v.Key.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, v.Delta)
	if v.EpochRan {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return finishFrame(dst, start)
}

func decodeVote(p []byte) (step uint64, v Vote, err error) {
	c := wireCursor{b: p}
	step = c.u64()
	v.Key.At = time.Duration(c.u64())
	v.Key.Dom = int32(c.u32())
	v.Key.Seq = c.u64()
	v.Delta = c.u64()
	v.EpochRan = c.u8() != 0
	return step, v, c.done()
}

func appendGrant(dst []byte, step uint64, d Decision) []byte {
	dst, start := appendFrameHeader(dst, frameGrant)
	dst = binary.LittleEndian.AppendUint64(dst, step)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.NodeNext))
	if d.Fallback {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.FallbackKey.At))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.FallbackKey.Dom))
	dst = binary.LittleEndian.AppendUint64(dst, d.FallbackKey.Seq)
	return finishFrame(dst, start)
}

func decodeGrant(p []byte) (step uint64, d Decision, err error) {
	c := wireCursor{b: p}
	step = c.u64()
	d.NodeNext = time.Duration(c.u64())
	d.Fallback = c.u8() != 0
	d.FallbackKey.At = time.Duration(c.u64())
	d.FallbackKey.Dom = int32(c.u32())
	d.FallbackKey.Seq = c.u64()
	return step, d, c.done()
}

func appendReport(dst []byte, digests []uint64, payload []byte) []byte {
	dst, start := appendFrameHeader(dst, frameReport)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(digests)))
	for _, d := range digests {
		dst = binary.LittleEndian.AppendUint64(dst, d)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return finishFrame(dst, start)
}

func decodeReport(p []byte) (digests []uint64, payload []byte, err error) {
	c := wireCursor{b: p}
	n := c.u32()
	if c.err == nil && uint64(n)*8 > uint64(len(c.b)) {
		return nil, nil, errWireShort
	}
	if n > 0 && c.err == nil {
		digests = make([]uint64, 0, n)
	}
	for i := uint32(0); i < n && c.err == nil; i++ {
		digests = append(digests, c.u64())
	}
	payload = c.bytes()
	return digests, payload, c.done()
}

func appendBye(dst []byte) []byte {
	dst, start := appendFrameHeader(dst, frameBye)
	return finishFrame(dst, start)
}

func appendFail(dst []byte, msg string) []byte {
	dst, start := appendFrameHeader(dst, frameFail)
	dst = append(dst, msg...)
	return finishFrame(dst, start)
}

func decodeFail(p []byte) string { return string(p) }

// decodeAnyFrame dispatches a frame to its payload decoder, discarding
// the result. It exists for the fuzz target: every decoder must survive
// arbitrary bytes without panicking.
func decodeAnyFrame(typ byte, payload []byte) error {
	switch typ {
	case frameHello:
		_, _, err := decodeHello(payload)
		return err
	case frameWelcome:
		_, _, _, err := decodeWelcome(payload)
		return err
	case frameTrains:
		_, _, err := decodeTrains(payload)
		return err
	case frameMark:
		_, err := decodeMark(payload)
		return err
	case frameVote:
		_, _, err := decodeVote(payload)
		return err
	case frameGrant:
		_, _, err := decodeGrant(payload)
		return err
	case frameReport:
		_, _, err := decodeReport(payload)
		return err
	case frameBye:
		if len(payload) != 0 {
			return errWireTrailing
		}
		return nil
	case frameFail:
		return nil
	default:
		return fmt.Errorf("sim: unknown wire frame type %d", typ)
	}
}

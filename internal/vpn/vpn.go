// Package vpn implements the OpenVPN-style opt-in ingress of Section
// 4.2.3: an end host runs a client that captures its outgoing packets on
// a tun device and tunnels them, encrypted, over UDP to a VPN server on
// a designated IIAS ingress node; the server decrypts and hands the inner
// packets to the slice's Click forwarder. Framing is AES-256-GCM with a
// pre-shared key, a 64-bit nonce counter, and a sliding replay window.
package vpn

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// keySize is the pre-shared key length (AES-256).
const keySize = 32

// overhead is the per-packet expansion: 8-byte counter + GCM tag.
const overhead = 8 + 16

// Codec seals and opens VPN frames in one direction each. Use one Codec
// per endpoint; the send counter and receive replay window are
// independent.
type Codec struct {
	aead    cipher.AEAD
	sendCtr uint64
	// Replay window over received counters.
	maxSeen uint64
	window  uint64 // bitmap of the 64 counters below maxSeen
}

// NewCodec builds a codec from a 32-byte pre-shared key.
func NewCodec(key []byte) (*Codec, error) {
	if len(key) != keySize {
		return nil, fmt.Errorf("vpn: key must be %d bytes, got %d", keySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Codec{aead: aead}, nil
}

func nonceFor(ctr uint64) []byte {
	n := make([]byte, 12)
	binary.BigEndian.PutUint64(n[4:], ctr)
	return n
}

// Seal encrypts an inner IP datagram into a VPN frame.
func (c *Codec) Seal(plain []byte) []byte {
	c.sendCtr++
	out := make([]byte, 8, 8+len(plain)+16)
	binary.BigEndian.PutUint64(out, c.sendCtr)
	return c.aead.Seal(out, nonceFor(c.sendCtr), plain, out[:8])
}

// Open decrypts a VPN frame, rejecting tampered and replayed packets.
func (c *Codec) Open(frame []byte) ([]byte, error) {
	if len(frame) < overhead {
		return nil, fmt.Errorf("vpn: frame too short")
	}
	ctr := binary.BigEndian.Uint64(frame[:8])
	if ctr == 0 {
		return nil, fmt.Errorf("vpn: zero counter")
	}
	if !c.replayOK(ctr) {
		return nil, fmt.Errorf("vpn: replayed counter %d", ctr)
	}
	plain, err := c.aead.Open(nil, nonceFor(ctr), frame[8:], frame[:8])
	if err != nil {
		return nil, fmt.Errorf("vpn: authentication failed: %w", err)
	}
	c.accept(ctr)
	return plain, nil
}

// replayOK checks the counter against the sliding window without
// mutating state (state updates only after authentication succeeds).
func (c *Codec) replayOK(ctr uint64) bool {
	switch {
	case ctr > c.maxSeen:
		return true
	case c.maxSeen-ctr >= 64:
		return false // too old
	default:
		return c.window&(1<<(c.maxSeen-ctr)) == 0
	}
}

func (c *Codec) accept(ctr uint64) {
	if ctr > c.maxSeen {
		shift := ctr - c.maxSeen
		if shift >= 64 {
			c.window = 0
		} else {
			c.window <<= shift
		}
		c.window |= 1 // previous maxSeen slot... bit 0 is current
		c.maxSeen = ctr
		return
	}
	c.window |= 1 << (c.maxSeen - ctr)
}

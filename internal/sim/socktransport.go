package sim

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// defaultWireTimeout bounds every blocking socket operation in the
// shard protocol (handshake, superstep reads and writes, shutdown).
// A peer that dies mid-epoch surfaces as a typed TransportError within
// this deadline instead of a hang.
const defaultWireTimeout = 30 * time.Second

// shardConn is one framed peer connection with per-connection reuse
// buffers (frames alias rbuf until the next read on the same
// connection).
type shardConn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
	wbuf []byte
}

func newShardConn(c net.Conn) *shardConn {
	return &shardConn{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}
}

// write sends pre-encoded frames and flushes, under a deadline.
func (sc *shardConn) write(timeout time.Duration, frames []byte) error {
	if err := sc.c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := sc.bw.Write(frames); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// read returns the next frame under a deadline. A FAIL frame decodes
// into an error carrying the peer's reason.
func (sc *shardConn) read(timeout time.Duration) (byte, []byte, error) {
	if err := sc.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	typ, payload, buf, err := readFrame(sc.br, sc.rbuf)
	sc.rbuf = buf
	if err != nil {
		return 0, nil, err
	}
	if typ == frameFail {
		return typ, nil, fmt.Errorf("peer aborted: %s", decodeFail(payload))
	}
	return typ, payload, nil
}

func (sc *shardConn) close() {
	if sc != nil && sc.c != nil {
		sc.c.Close()
	}
}

// expect reads a frame and checks its type and superstep counter
// (parsed by parse, which returns the step it found).
func expectStep(got, want uint64) error {
	if got != want {
		return fmt.Errorf("superstep desync: got %d, want %d", got, want)
	}
	return nil
}

// SockWorker is the DomainTransport for a worker shard: it pairs with a
// SockCoordinator over one stream connection and follows the star
// superstep protocol (send TRAINS+MARK, receive TRAINS+MARK; send VOTE,
// receive GRANT).
type SockWorker struct {
	shard   int
	shards  int
	timeout time.Duration
	conn    *shardConn
	step    uint64
	scratch []wireMsg
	payload []byte
}

// DialCoordinator connects to a coordinator, performs the
// HELLO/WELCOME handshake claiming the given shard id, and returns the
// transport plus the coordinator's opaque application payload (the
// scenario the worker must replicate). timeout <= 0 selects
// defaultWireTimeout.
func DialCoordinator(addr string, shard int, timeout time.Duration) (*SockWorker, []byte, error) {
	if timeout <= 0 {
		timeout = defaultWireTimeout
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, &TransportError{Shard: 0, Op: "dial", Err: err}
	}
	return attachWorker(c, shard, timeout)
}

func attachWorker(c net.Conn, shard int, timeout time.Duration) (*SockWorker, []byte, error) {
	sc := newShardConn(c)
	if err := sc.write(timeout, appendHello(nil, int32(shard))); err != nil {
		sc.close()
		return nil, nil, &TransportError{Shard: 0, Op: "hello", Err: err}
	}
	typ, p, err := sc.read(timeout)
	if err == nil && typ != frameWelcome {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		sc.close()
		return nil, nil, &TransportError{Shard: 0, Op: "welcome", Err: err}
	}
	shards, confirmed, payload, err := decodeWelcome(p)
	if err == nil && int(confirmed) != shard {
		err = fmt.Errorf("coordinator assigned shard %d, claimed %d", confirmed, shard)
	}
	if err != nil {
		sc.close()
		return nil, nil, &TransportError{Shard: 0, Op: "welcome", Err: err}
	}
	pl := append([]byte(nil), payload...)
	return &SockWorker{shard: shard, shards: int(shards), timeout: timeout,
		conn: sc, payload: pl}, pl, nil
}

// Shards returns the total shard count announced by the coordinator.
func (t *SockWorker) Shards() int { return t.shards }

// Close tears the connection down.
func (t *SockWorker) Close() { t.conn.close() }

// abort sends a best-effort FAIL to the coordinator and returns the
// typed error.
func (t *SockWorker) abort(op string, err error) error {
	_ = t.conn.write(t.timeout, appendFail(t.conn.wbuf[:0], err.Error()))
	return &TransportError{Shard: 0, Op: op, Err: err}
}

// Exchange implements DomainTransport: ship locally collected
// cross-shard messages to the coordinator (which routes them to their
// owners) and inject the batch routed here.
func (t *SockWorker) Exchange(x *Executor) error {
	t.step++
	out, err := x.collectRemote(t.scratch[:0])
	t.scratch = out[:0]
	if err != nil {
		return t.abort("collect", err)
	}
	b := appendTrains(t.conn.wbuf[:0], t.step, out)
	b = appendMark(b, t.step)
	t.conn.wbuf = b
	if err := t.conn.write(t.timeout, b); err != nil {
		return &TransportError{Shard: 0, Op: "send trains", Err: err}
	}
	typ, p, err := t.conn.read(t.timeout)
	if err == nil && typ != frameTrains {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		return &TransportError{Shard: 0, Op: "recv trains", Err: err}
	}
	step, msgs, err := decodeTrains(p)
	if err == nil {
		err = expectStep(step, t.step)
	}
	if err != nil {
		return t.abort("recv trains", err)
	}
	for i := range msgs {
		if err := x.injectWire(msgs[i]); err != nil {
			return t.abort("inject", err)
		}
	}
	typ, p, err = t.conn.read(t.timeout)
	if err == nil && typ != frameMark {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err == nil {
		var step uint64
		if step, err = decodeMark(p); err == nil {
			err = expectStep(step, t.step)
		}
	}
	if err != nil {
		return &TransportError{Shard: 0, Op: "recv mark", Err: err}
	}
	return nil
}

// Agree implements DomainTransport: send the local vote, receive the
// coordinator's decision.
func (t *SockWorker) Agree(x *Executor, v Vote) (Decision, error) {
	b := appendVote(t.conn.wbuf[:0], t.step, v)
	t.conn.wbuf = b
	if err := t.conn.write(t.timeout, b); err != nil {
		return Decision{}, &TransportError{Shard: 0, Op: "send vote", Err: err}
	}
	typ, p, err := t.conn.read(t.timeout)
	if err == nil && typ != frameGrant {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		return Decision{}, &TransportError{Shard: 0, Op: "recv grant", Err: err}
	}
	step, dec, err := decodeGrant(p)
	if err == nil {
		err = expectStep(step, t.step)
	}
	if err != nil {
		return Decision{}, t.abort("recv grant", err)
	}
	return dec, nil
}

// Report sends this shard's per-domain schedule digests and an opaque
// application payload (e.g. a telemetry snapshot) to the coordinator,
// then waits for the BYE acknowledging the run.
func (t *SockWorker) Report(digests []uint64, payload []byte) error {
	b := appendReport(t.conn.wbuf[:0], digests, payload)
	t.conn.wbuf = b
	if err := t.conn.write(t.timeout, b); err != nil {
		return &TransportError{Shard: 0, Op: "send report", Err: err}
	}
	typ, _, err := t.conn.read(t.timeout)
	if err == nil && typ != frameBye {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		return &TransportError{Shard: 0, Op: "recv bye", Err: err}
	}
	return nil
}

// ShardReport is one worker's end-of-run report gathered by the
// coordinator.
type ShardReport struct {
	Shard   int
	Digests []uint64
	Payload []byte
}

// SockCoordinator is the DomainTransport for shard 0. It is also the
// relay hub: workers never talk to each other, so each superstep is one
// inbound and one outbound frame batch per worker.
type SockCoordinator struct {
	shards  int
	timeout time.Duration
	peers   []*shardConn // index by shard id; [0] is nil
	step    uint64
	outbox  [][]wireMsg
	scratch []wireMsg
}

// AcceptWorkers accepts shards-1 worker connections on ln, validates
// each HELLO (protocol version, unique claimed shard in
// [1, shards-1]), and replies with WELCOME frames carrying payload.
// timeout <= 0 selects defaultWireTimeout; it bounds the whole
// handshake as well as every later superstep operation.
func AcceptWorkers(ln net.Listener, shards int, payload []byte, timeout time.Duration) (*SockCoordinator, error) {
	if shards < 2 {
		return nil, errors.New("sim: AcceptWorkers needs at least 2 shards")
	}
	if timeout <= 0 {
		timeout = defaultWireTimeout
	}
	t := &SockCoordinator{shards: shards, timeout: timeout,
		peers:  make([]*shardConn, shards),
		outbox: make([][]wireMsg, shards)}
	type deadliner interface{ SetDeadline(time.Time) error }
	if dl, ok := ln.(deadliner); ok {
		_ = dl.SetDeadline(time.Now().Add(timeout))
	}
	for n := 1; n < shards; n++ {
		c, err := ln.Accept()
		if err != nil {
			t.Close()
			return nil, &TransportError{Shard: -1, Op: "accept", Err: err}
		}
		if err := t.admit(newShardConn(c), payload); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// admit runs the coordinator side of one worker handshake.
func (t *SockCoordinator) admit(sc *shardConn, payload []byte) error {
	typ, p, err := sc.read(t.timeout)
	if err == nil && typ != frameHello {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		sc.close()
		return &TransportError{Shard: -1, Op: "hello", Err: err}
	}
	proto, shard, err := decodeHello(p)
	if err == nil && proto != wireProto {
		err = fmt.Errorf("protocol version %d, want %d", proto, wireProto)
	}
	if err == nil && (shard < 1 || int(shard) >= t.shards) {
		err = fmt.Errorf("claimed shard %d out of range [1,%d]", shard, t.shards-1)
	}
	if err == nil && t.peers[shard] != nil {
		err = fmt.Errorf("shard %d already connected", shard)
	}
	if err != nil {
		_ = sc.write(t.timeout, appendFail(nil, err.Error()))
		sc.close()
		return &TransportError{Shard: int(shard), Op: "hello", Err: err}
	}
	if err := sc.write(t.timeout, appendWelcome(nil, int32(t.shards), shard, payload)); err != nil {
		sc.close()
		return &TransportError{Shard: int(shard), Op: "welcome", Err: err}
	}
	t.peers[shard] = sc
	return nil
}

// Close tears down every worker connection.
func (t *SockCoordinator) Close() {
	for _, sc := range t.peers {
		sc.close()
	}
}

// abort broadcasts a best-effort FAIL to every worker (so they fail
// fast instead of waiting out their deadlines) and returns the typed
// error.
func (t *SockCoordinator) abort(shard int, op string, err error) error {
	msg := appendFail(nil, err.Error())
	for s, sc := range t.peers {
		if sc != nil && s != shard {
			_ = sc.write(t.timeout, msg)
		}
	}
	return &TransportError{Shard: shard, Op: op, Err: err}
}

// route delivers one in-transit message to its owner: locally via
// injectWire for shard 0, or into the outbox staged for the owning
// worker.
func (t *SockCoordinator) route(x *Executor, m wireMsg) error {
	owner := OwnerShard(m.DstDom, t.shards)
	if owner == 0 {
		return x.injectWire(m)
	}
	t.outbox[owner] = append(t.outbox[owner], m)
	return nil
}

// Exchange implements DomainTransport for the hub: collect local
// cross-shard messages, read every worker's TRAINS, route everything by
// owner, and write each worker its batch.
func (t *SockCoordinator) Exchange(x *Executor) error {
	t.step++
	for s := range t.outbox {
		t.outbox[s] = t.outbox[s][:0]
	}
	local, err := x.collectRemote(t.scratch[:0])
	t.scratch = local[:0]
	if err != nil {
		return t.abort(0, "collect", err)
	}
	for i := range local {
		if err := t.route(x, local[i]); err != nil {
			return t.abort(0, "route", err)
		}
	}
	for s := 1; s < t.shards; s++ {
		sc := t.peers[s]
		typ, p, err := sc.read(t.timeout)
		if err == nil && typ != frameTrains {
			err = fmt.Errorf("unexpected frame type %d", typ)
		}
		if err != nil {
			return t.abort(s, "recv trains", err)
		}
		step, msgs, err := decodeTrains(p)
		if err == nil {
			err = expectStep(step, t.step)
		}
		if err != nil {
			return t.abort(s, "recv trains", err)
		}
		for i := range msgs {
			if err := t.route(x, msgs[i]); err != nil {
				return t.abort(s, "route", err)
			}
		}
		typ, p, err = sc.read(t.timeout)
		if err == nil && typ != frameMark {
			err = fmt.Errorf("unexpected frame type %d", typ)
		}
		if err == nil {
			var step uint64
			if step, err = decodeMark(p); err == nil {
				err = expectStep(step, t.step)
			}
		}
		if err != nil {
			return t.abort(s, "recv mark", err)
		}
	}
	for s := 1; s < t.shards; s++ {
		sc := t.peers[s]
		b := appendTrains(sc.wbuf[:0], t.step, t.outbox[s])
		b = appendMark(b, t.step)
		sc.wbuf = b
		if err := sc.write(t.timeout, b); err != nil {
			return t.abort(s, "send trains", err)
		}
	}
	return nil
}

// Agree implements DomainTransport for the hub: fold every worker's
// vote into the global decision and grant it back. The fallback
// decision needs the epoch deltas from all shards (progress anywhere
// means no fallback); the EpochRan flags must agree — the loop branches
// are a pure function of replicated state, so a mismatch means a peer
// desynchronized.
func (t *SockCoordinator) Agree(x *Executor, v Vote) (Decision, error) {
	best := v.Key
	sum := v.Delta
	epochRan := v.EpochRan
	for s := 1; s < t.shards; s++ {
		sc := t.peers[s]
		typ, p, err := sc.read(t.timeout)
		if err == nil && typ != frameVote {
			err = fmt.Errorf("unexpected frame type %d", typ)
		}
		if err != nil {
			return Decision{}, t.abort(s, "recv vote", err)
		}
		step, vs, err := decodeVote(p)
		if err == nil {
			err = expectStep(step, t.step)
		}
		if err == nil && vs.EpochRan != epochRan {
			err = fmt.Errorf("epoch phase desync: shard %d ran=%v, coordinator ran=%v",
				s, vs.EpochRan, epochRan)
		}
		if err != nil {
			return Decision{}, t.abort(s, "recv vote", err)
		}
		sum += vs.Delta
		if keyLess(vs.Key, best) {
			best = vs.Key
		}
	}
	dec := Decision{NodeNext: best.At, Fallback: epochRan && sum == 0, FallbackKey: best}
	for s := 1; s < t.shards; s++ {
		sc := t.peers[s]
		b := appendGrant(sc.wbuf[:0], t.step, dec)
		sc.wbuf = b
		if err := sc.write(t.timeout, b); err != nil {
			return Decision{}, t.abort(s, "send grant", err)
		}
	}
	return dec, nil
}

// Gather collects every worker's end-of-run report and releases the
// workers with BYE frames. Reports are indexed by shard id (entry 0 is
// absent — the coordinator's own state needs no report).
func (t *SockCoordinator) Gather() ([]ShardReport, error) {
	reports := make([]ShardReport, 0, t.shards-1)
	for s := 1; s < t.shards; s++ {
		sc := t.peers[s]
		typ, p, err := sc.read(t.timeout)
		if err == nil && typ != frameReport {
			err = fmt.Errorf("unexpected frame type %d", typ)
		}
		if err != nil {
			return nil, t.abort(s, "recv report", err)
		}
		digests, payload, err := decodeReport(p)
		if err != nil {
			return nil, t.abort(s, "recv report", err)
		}
		reports = append(reports, ShardReport{Shard: s, Digests: digests,
			Payload: append([]byte(nil), payload...)})
	}
	for s := 1; s < t.shards; s++ {
		if err := t.peers[s].write(t.timeout, appendBye(nil)); err != nil {
			return nil, &TransportError{Shard: s, Op: "send bye", Err: err}
		}
	}
	return reports, nil
}

// Package faultconn wraps net.Listener / net.Conn with seeded,
// deterministic fault injection for chaos-testing the cluster runtime. It
// reproduces the failure modes of the paper's shared 10-node cluster (§6.1)
// — slow links, stalled workers, connections dropped mid-message, and
// flipped bytes — without any real network misbehaviour.
//
// Faults are drawn from a per-connection PRNG seeded with
// Options.Seed + connection index, so a given seed always produces the same
// fault schedule on the i-th accepted connection regardless of goroutine
// interleaving elsewhere. Each Read/Write call draws one decision:
//
//   - delay:   the call sleeps Options.Delay, then proceeds normally;
//   - hang:    the call blocks until the connection is closed or its
//     deadline expires (a stalled worker);
//   - close:   a write ships only half its bytes and then closes the
//     connection (a mid-message crash); a read closes immediately;
//   - corrupt: one byte of the payload is flipped (a dirty link).
//
// With Options.SpareHeaders the corrupt fault reads the stream as the
// durable frames the cluster speaks and flips only a payload byte, never a
// frame's length or checksum: the peer then sees a checksum failure with
// the stream still in sync, the fault a dirty link produces under a
// checksummed framing, rather than a misread length.
//
// Besides the probabilistic faults, Options.ReadDelay / Options.WriteDelay
// inject a fixed latency on *every* read or write after the SkipOps warmup
// — a deterministic slow-peer (slow-reader / slow-writer) mode for
// straggler tests, where the victim must be reliably slow rather than
// randomly unlucky. Per-op delays compose with the probabilistic faults:
// the delay is applied first, then the fault decision is drawn as usual.
//
// Deadlines set on the wrapped connection are honoured even while a hang or
// an injected delay is in progress, which is exactly what the coordinator's
// TaskTimeout relies on.
package faultconn

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"time"

	"mce/internal/durable"
)

// Options configures an injector. All probabilities are per Read/Write call
// and are evaluated in the order Hang, Close, Corrupt, Delay; at most one
// fault fires per call.
type Options struct {
	// Seed makes the fault schedule reproducible. Connection i draws from
	// a PRNG seeded with Seed+int64(i).
	Seed int64
	// HangProb is the probability that a call blocks until the connection
	// is closed or its deadline expires.
	HangProb float64
	// CloseProb is the probability that a call closes the connection
	// mid-message.
	CloseProb float64
	// CorruptProb is the probability that one byte of the call's payload
	// is flipped.
	CorruptProb float64
	// SpareHeaders confines corrupt faults to the payload bytes of the
	// durable frames the stream carries; a call that carries none of them
	// corrupts nothing.
	SpareHeaders bool
	// DelayProb is the probability that a call is delayed by Delay.
	DelayProb float64
	// Delay is the extra latency applied when a delay fault fires.
	Delay time.Duration
	// ReadDelay is a deterministic latency applied to every Read after the
	// SkipOps warmup — a slow-reader peer. Zero disables it.
	ReadDelay time.Duration
	// WriteDelay is a deterministic latency applied to every Write after
	// the SkipOps warmup — a slow-writer peer. Zero disables it.
	WriteDelay time.Duration
	// SkipOps exempts the first n Read/Write calls of every connection
	// from fault injection, letting the handshake complete before chaos
	// starts.
	SkipOps int
}

// Listener wraps ln so every accepted connection injects faults according
// to opts.
func Listener(ln net.Listener, opts Options) net.Listener {
	return &listener{Listener: ln, opts: opts}
}

type listener struct {
	net.Listener
	opts Options
	mu   sync.Mutex
	next int64
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.next
	l.next++
	l.mu.Unlock()
	return Conn(c, l.opts, l.opts.Seed+i), nil
}

// Conn wraps c with fault injection drawing from a PRNG seeded with seed.
func Conn(c net.Conn, opts Options, seed int64) net.Conn {
	return &conn{
		Conn:   c,
		opts:   opts,
		rng:    rand.New(rand.NewSource(seed)),
		closed: make(chan struct{}),
	}
}

type conn struct {
	net.Conn
	opts Options

	mu   sync.Mutex // guards rng, ops, deadlines, the frame cursors
	rng  *rand.Rand
	ops  int
	rdDL time.Time
	wrDL time.Time
	// rdFrames and wrFrames follow the frames of each direction, for
	// SpareHeaders.
	rdFrames, wrFrames frameCursor

	closeOnce sync.Once
	closed    chan struct{}
}

// fault kinds.
const (
	faultNone = iota
	faultHang
	faultClose
	faultCorrupt
	faultDelay
)

// decide draws one fault decision and, for corrupt faults, the byte offset
// to flip within a payload of length n. warm reports whether the SkipOps
// warmup is over, i.e. whether deterministic per-op delays apply.
func (c *conn) decide(n int) (kind, offset int, warm bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.ops <= c.opts.SkipOps {
		return faultNone, 0, false
	}
	p := c.rng.Float64()
	switch {
	case p < c.opts.HangProb:
		return faultHang, 0, true
	case p < c.opts.HangProb+c.opts.CloseProb:
		return faultClose, 0, true
	case p < c.opts.HangProb+c.opts.CloseProb+c.opts.CorruptProb:
		if n > 0 {
			offset = c.rng.Intn(n)
		}
		return faultCorrupt, offset, true
	case p < c.opts.HangProb+c.opts.CloseProb+c.opts.CorruptProb+c.opts.DelayProb:
		return faultDelay, 0, true
	}
	return faultNone, 0, true
}

func (c *conn) Read(p []byte) (int, error) {
	kind, off, warm := c.decide(len(p))
	if warm {
		// Slow-reader mode: every read pays the deterministic latency. The
		// sleep wakes on close, and an expired deadline still fails the
		// underlying read immediately afterwards.
		c.sleep(c.opts.ReadDelay)
	}
	switch kind {
	case faultHang:
		if err := c.hang(c.deadline(false)); err != nil {
			return 0, err
		}
	case faultClose:
		c.Close()
		return 0, net.ErrClosed
	case faultDelay:
		c.sleep(c.opts.Delay)
	}
	n, err := c.Conn.Read(p)
	if i, ok := c.corruptAt(&c.rdFrames, p[:n], kind, off); ok {
		p[i] ^= 0x40
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	kind, off, warm := c.decide(len(p))
	if warm {
		// Slow-writer mode: see the Read-side comment.
		c.sleep(c.opts.WriteDelay)
	}
	i, flip := c.corruptAt(&c.wrFrames, p, kind, off)
	switch kind {
	case faultHang:
		if err := c.hang(c.deadline(true)); err != nil {
			return 0, err
		}
	case faultClose:
		// Ship a truncated message, then die: the peer sees a partial gob
		// frame followed by EOF.
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Close()
		return n, net.ErrClosed
	case faultCorrupt:
		if flip {
			cp := make([]byte, len(p))
			copy(cp, p)
			cp[i] ^= 0x40
			return c.Conn.Write(cp)
		}
	case faultDelay:
		c.sleep(c.opts.Delay)
	}
	return c.Conn.Write(p)
}

// corruptAt advances the direction's frame cursor over p, the stream's
// next bytes, and says which byte of p a corrupt fault drawn at offset off
// flips: off itself, or with SpareHeaders the off-th payload byte among
// them, wrapping. ok is false when kind is not a corrupt fault or there is
// no byte to flip.
func (c *conn) corruptAt(fc *frameCursor, p []byte, kind, off int) (i int, ok bool) {
	if !c.opts.SpareHeaders {
		if kind != faultCorrupt || len(p) == 0 {
			return 0, false
		}
		return off % len(p), true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := fc.payload(p)
	if kind != faultCorrupt {
		return 0, false
	}
	total := 0
	for _, sp := range spans {
		total += sp.end - sp.start
	}
	if total == 0 {
		return 0, false
	}
	k := off % total
	for _, sp := range spans {
		if k < sp.end-sp.start {
			return sp.start + k, true
		}
		k -= sp.end - sp.start
	}
	panic("unreachable")
}

// frameCursor follows one direction of a stream of durable frames: a
// header of FrameHeaderLen bytes (length u32le, CRC-32), then as many
// payload bytes as the length says.
type frameCursor struct {
	hdr  [durable.FrameHeaderLen]byte
	have int    // header bytes of the current frame seen so far
	left uint32 // payload bytes of the current frame still to come
}

// span is the payload bytes p[start:end] of one frame.
type span struct{ start, end int }

// payload advances the cursor over p and returns where the payload bytes
// in it are.
func (fc *frameCursor) payload(p []byte) []span {
	var spans []span
	for i := 0; i < len(p); {
		if fc.left == 0 {
			fc.hdr[fc.have] = p[i]
			fc.have++
			i++
			if fc.have == len(fc.hdr) {
				fc.left, fc.have = binary.LittleEndian.Uint32(fc.hdr[:4]), 0
			}
			continue
		}
		n := min(int(fc.left), len(p)-i)
		spans = append(spans, span{i, i + n})
		fc.left -= uint32(n)
		i += n
	}
	return spans
}

// hang blocks until the connection is closed or dl (the operation's
// deadline) passes. A zero deadline blocks until close.
func (c *conn) hang(dl time.Time) error {
	var timeout <-chan time.Time
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return timeoutError{}
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-timeout:
		return timeoutError{}
	}
}

// sleep pauses for d but wakes early if the connection is closed.
func (c *conn) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closed:
	case <-t.C:
	}
}

func (c *conn) deadline(write bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if write {
		return c.wrDL
	}
	return c.rdDL
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdDL, c.wrDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wrDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// timeoutError mimics the net package's deadline errors so callers that
// check net.Error.Timeout() treat an expired hang like any other timeout.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultconn: injected hang timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

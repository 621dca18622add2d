package faultconn

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"mce/internal/durable"
)

// pipePair returns a wrapped client->server byte pipe over localhost TCP:
// writes on the returned conn arrive at srv.
func pipePair(t *testing.T, opts Options) (wrapped net.Conn, srv net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { raw.Close(); srv.Close() })
	return Conn(raw, opts, opts.Seed), srv
}

func TestPassThroughWithoutFaults(t *testing.T) {
	c, srv := pipePair(t, Options{Seed: 1})
	msg := []byte("hello cluster")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("payload changed: %q", buf)
	}
}

func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	c, srv := pipePair(t, Options{Seed: 7, CorruptProb: 1})
	msg := bytes.Repeat([]byte{0x55}, 64)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	n, err := srv.Read(buf)
	if err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	flipped := 0
	for i := range msg {
		if buf[i] != msg[i] {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("%d bytes flipped, want 1", flipped)
	}
	// The caller's buffer must not be mutated by a corrupt write.
	for _, b := range msg {
		if b != 0x55 {
			t.Fatal("corrupt write mutated the caller's buffer")
		}
	}
}

func TestCloseTruncatesWrite(t *testing.T) {
	c, srv := pipePair(t, Options{Seed: 3, CloseProb: 1})
	msg := bytes.Repeat([]byte{0xAA}, 100)
	if _, err := c.Write(msg); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v, want net.ErrClosed", err)
	}
	// The peer sees the truncated prefix then EOF.
	buf := make([]byte, 200)
	total := 0
	for {
		n, err := srv.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	if total != len(msg)/2 {
		t.Fatalf("peer received %d bytes, want %d", total, len(msg)/2)
	}
}

func TestHangHonoursDeadline(t *testing.T) {
	c, _ := pipePair(t, Options{Seed: 5, HangProb: 1})
	if err := c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err := c.Write([]byte("x"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("hang outlived deadline: %v", d)
	}
}

func TestHangUnblocksOnClose(t *testing.T) {
	c, _ := pipePair(t, Options{Seed: 5, HangProb: 1})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("x"))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not unblock on close")
	}
}

func TestSkipOpsExemptsHandshake(t *testing.T) {
	c, srv := pipePair(t, Options{Seed: 9, CloseProb: 1, SkipOps: 2})
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatalf("op %d faulted despite SkipOps: %v", i, err)
		}
		buf := make([]byte, 2)
		if _, err := srv.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write([]byte("boom")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("op 3 err = %v, want net.ErrClosed", err)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	// Two connections with the same seed draw the same fault sequence.
	run := func() []bool {
		c := &conn{opts: Options{Seed: 42, CloseProb: 0.5}, closed: make(chan struct{})}
		c.rng = rand.New(rand.NewSource(42))
		var kinds []bool
		for i := 0; i < 32; i++ {
			k, _, _ := c.decide(8)
			kinds = append(kinds, k == faultClose)
		}
		return kinds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
	}
}

func TestWriteDelaySlowsEveryOp(t *testing.T) {
	const d = 30 * time.Millisecond
	c, srv := pipePair(t, Options{Seed: 13, WriteDelay: d})
	buf := make([]byte, 2)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Read(buf); err != nil {
			t.Fatal(err)
		}
		if e := time.Since(t0); e < d {
			t.Fatalf("write %d took %v, want ≥ %v", i, e, d)
		}
	}
}

func TestReadDelaySlowsEveryOp(t *testing.T) {
	const d = 30 * time.Millisecond
	c, srv := pipePair(t, Options{Seed: 13, ReadDelay: d})
	if _, err := srv.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	t0 := time.Now()
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(t0); e < d {
		t.Fatalf("read took %v, want ≥ %v", e, d)
	}
}

func TestPerOpDelayRespectsSkipOps(t *testing.T) {
	// The warmup ops must be full speed even in slow-writer mode.
	c, srv := pipePair(t, Options{Seed: 13, WriteDelay: 500 * time.Millisecond, SkipOps: 2})
	buf := make([]byte, 2)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Read(buf); err != nil {
			t.Fatal(err)
		}
		if e := time.Since(t0); e > 250*time.Millisecond {
			t.Fatalf("warmup op %d took %v, want fast", i, e)
		}
	}
}

func TestPerOpDelayUnblocksOnClose(t *testing.T) {
	c, _ := pipePair(t, Options{Seed: 13, WriteDelay: time.Hour})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("x"))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case <-errc:
		// Any result is fine; the delay must simply not block for an hour.
	case <-time.After(2 * time.Second):
		t.Fatal("per-op delay did not unblock on close")
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Listener(raw, Options{Seed: 11, CorruptProb: 1})
	defer ln.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		c.Write(bytes.Repeat([]byte{0x11}, 32))
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 32)
	n, err := c.Read(buf) // corrupt fires on the wrapped read
	if err != nil || n == 0 {
		t.Fatalf("read %d, %v", n, err)
	}
	diff := 0
	for i := 0; i < n; i++ {
		if buf[i] != 0x11 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want 1 (accepted conn not wrapped?)", diff)
	}
}

// TestSpareHeadersFlipsOnlyPayload: with SpareHeaders every corrupt fault
// lands in a frame's payload, never in a length or a checksum — over
// writes that end on a frame, inside a payload and inside a header.
func TestSpareHeadersFlipsOnlyPayload(t *testing.T) {
	var stream []byte
	var header []bool // header[i]: byte i of the stream is a header byte
	for i := 1; i <= 5; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 7*i)
		stream = durable.AppendFrame(stream, payload)
		for len(header) < len(stream) {
			header = append(header, len(header) < len(stream)-len(payload))
		}
	}
	cuts := []int{15, 37, 60, 70, 90, len(stream)} // 15 and 37 end frames, 70 is in a header
	for seed := int64(1); seed <= 12; seed++ {
		c, srv := pipePair(t, Options{Seed: seed, CorruptProb: 1, SpareHeaders: true})
		go func() {
			from := 0
			for _, cut := range cuts {
				if _, err := c.Write(stream[from:cut]); err != nil {
					return
				}
				from = cut
			}
		}()
		got := make([]byte, len(stream))
		if _, err := io.ReadFull(srv, got); err != nil {
			t.Fatal(err)
		}
		flipped := 0
		for i := range got {
			if got[i] != stream[i] {
				if header[i] {
					t.Fatalf("seed %d: header byte %d flipped", seed, i)
				}
				flipped++
			}
		}
		if flipped == 0 {
			t.Fatalf("seed %d: no byte flipped", seed)
		}
	}
}

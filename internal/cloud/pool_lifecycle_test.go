package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"
)

// TestAddAfterCloseErrors pins the Close contract: Close is idempotent,
// Add fails afterwards, and the Results channel of a closed empty pool
// closes immediately.
func TestAddAfterCloseErrors(t *testing.T) {
	p := NewPool(nil)
	p.Close()
	p.Close() // idempotent
	if err := p.Add(Job{ID: 1}); err == nil {
		t.Fatal("Add after Close should fail")
	}
	select {
	case _, ok := <-p.Results():
		if ok {
			t.Fatal("closed empty pool delivered a result")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Results never closed on a closed empty pool")
	}
}

// TestCloseDrainsResults is the coordinator's loop: enqueue, serve,
// Close, then range Results until the channel closes with every result
// delivered.
func TestCloseDrainsResults(t *testing.T) {
	p := NewPool(makeJobs(8))
	addr, stop := startPool(t, p)
	defer stop()
	if _, err := RunWorker(context.Background(), addr, "w", echoHandler); err != nil {
		t.Fatal(err)
	}
	p.Close()
	got := map[uint64]bool{}
	for r := range p.Results() {
		got[r.JobID] = true
	}
	if len(got) != 8 {
		t.Fatalf("drained %d results, want 8", len(got))
	}
}

// TestLosslessResultsBeyondCapacity pushes far more jobs through Add
// than the results channel's construction capacity (len(jobs)+16 = 16
// for an initially-empty pool) with nobody consuming until the end.
// Before the internal buffer, record dropped every result past the
// channel capacity.
func TestLosslessResultsBeyondCapacity(t *testing.T) {
	const jobs = 100
	p := NewPool(nil)
	for i := 1; i <= jobs; i++ {
		if err := p.Add(Job{ID: uint64(i), Payload: make([]byte, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	addr, stop := startPool(t, p)
	defer stop()
	if n, err := RunWorker(context.Background(), addr, "w", echoHandler); err != nil || n != jobs {
		t.Fatalf("worker: n=%d err=%v, want %d nil", n, err, jobs)
	}
	p.Close()
	got := map[uint64]bool{}
	for r := range p.Results() {
		if got[r.JobID] {
			t.Fatalf("job %d delivered twice", r.JobID)
		}
		got[r.JobID] = true
	}
	if len(got) != jobs {
		t.Fatalf("received %d results, want every one of %d", len(got), jobs)
	}
}

// TestStalledWorkerPastLease is the getwork-wait bug end to end: one
// worker takes a job and stalls past its lease with the connection
// open; the healthy worker drains the rest and must NOT be dropped
// with a premature nojob while that lease is outstanding — it waits,
// the lease lapses, and it completes every job.
func TestStalledWorkerPastLease(t *testing.T) {
	p := NewPool(makeJobs(4))
	p.SetLeaseDuration(60 * time.Millisecond)
	addr, stop := startPool(t, p)
	defer stop()

	// Staller speaking the raw protocol: takes a job, never answers,
	// keeps the connection open so no disconnect path can requeue it.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	if err := enc.Encode(message{Type: "hello", Worker: "staller"}); err != nil {
		t.Fatal(err)
	}
	var m message
	if err := dec.Decode(&m); err != nil || m.Type != "ack" {
		t.Fatal("handshake failed")
	}
	if err := enc.Encode(message{Type: "getwork"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&m); err != nil || m.Type != "job" {
		t.Fatal("no job issued to the staller")
	}

	n, err := RunWorker(context.Background(), addr, "healthy", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("healthy worker completed %d jobs, want all 4 (including the stalled one)", n)
	}
	s := p.Stats()
	if s.JobsDone != 4 || s.JobsExpired != 1 {
		t.Fatalf("stats = %+v, want 4 done with 1 expired lease", s)
	}
}

// TestReapWithoutGetwork pins the timer-independent reap paths: leases
// lapse via Stats and via record even when no worker ever asks for
// more work.
func TestReapWithoutGetwork(t *testing.T) {
	p := NewPool(makeJobs(2))
	p.SetLeaseDuration(time.Minute)
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	j1, ok := p.next()
	if !ok {
		t.Fatal("no job")
	}
	j2, ok := p.next()
	if !ok {
		t.Fatal("no job")
	}
	now = now.Add(2 * time.Minute)

	// record must (a) credit the arriving result even though its own
	// lease just lapsed, and (b) reap the other expired lease.
	p.record(Result{JobID: j1.ID, Worker: "w"})
	s := p.Stats()
	if s.JobsDone != 1 {
		t.Fatalf("done = %d, want the late-but-first result credited", s.JobsDone)
	}
	if s.JobsExpired != 1 {
		t.Fatalf("expired = %d, want exactly the unanswered lease reaped", s.JobsExpired)
	}
	if p.Remaining() != 1 {
		t.Fatalf("remaining = %d, want the reaped job back in pending", p.Remaining())
	}

	// Stats alone reaps too: re-issue, lapse, snapshot.
	j3, ok := p.next()
	if !ok || j3.ID != j2.ID {
		t.Fatalf("expected job %d re-issued, got %d ok=%v", j2.ID, j3.ID, ok)
	}
	now = now.Add(2 * time.Minute)
	if s := p.Stats(); s.JobsExpired != 2 {
		t.Fatalf("expired = %d after Stats, want 2 (Stats must reap)", s.JobsExpired)
	}
}

// TestUnexpectedDisconnect pins satellite 5: a coordinator that dies
// mid-protocol must not look like a clean drain. Only the explicit
// nojob is a clean exit; a dropped connection surfaces as
// ErrUnexpectedDisconnect.
func TestUnexpectedDisconnect(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		dec := json.NewDecoder(conn)
		enc := json.NewEncoder(conn)
		var m message
		if err := dec.Decode(&m); err != nil || m.Type != "hello" {
			conn.Close()
			return
		}
		//lint:ignore droppederr test double; the worker under test sees the close either way
		_ = enc.Encode(message{Type: "ack"})
		_ = dec.Decode(&m) // getwork
		conn.Close()       // coordinator "crashes" instead of answering
	}()

	n, err := RunWorker(context.Background(), l.Addr().String(), "w", echoHandler)
	if !errors.Is(err, ErrUnexpectedDisconnect) {
		t.Fatalf("err = %v, want ErrUnexpectedDisconnect", err)
	}
	if n != 0 {
		t.Fatalf("completed = %d, want 0", n)
	}
}

// TestOversizedFrameDropsWorker: a raw-protocol worker whose result
// frame exceeds the pool's cap is disconnected instead of acked, and
// the pool never buffers the frame; its leased job is requeued and a
// healthy worker completes every job.
func TestOversizedFrameDropsWorker(t *testing.T) {
	p := NewPool(makeJobs(3))
	p.maxFrame = 4 << 10
	p.SetLeaseDuration(50 * time.Millisecond)
	addr, stop := startPool(t, p)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	if err := enc.Encode(message{Type: "hello", Worker: "bloated"}); err != nil {
		t.Fatal(err)
	}
	var m message
	if err := dec.Decode(&m); err != nil || m.Type != "ack" {
		t.Fatal("handshake failed")
	}
	if err := enc.Encode(message{Type: "getwork"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&m); err != nil || m.Type != "job" {
		t.Fatal("no job issued")
	}
	big := Result{JobID: m.Job.ID, Output: make([]byte, 64<<10)}
	// The pool may drop the connection mid-write; the read below is
	// the assertion.
	_ = enc.Encode(message{Type: "result", Result: &big})
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	err = dec.Decode(&m)
	var ne net.Error
	switch {
	case err == nil:
		t.Fatalf("pool answered an oversized frame with %q", m.Type)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("pool kept the connection open after an oversized frame")
	}

	n, err := RunWorker(context.Background(), addr, "healthy", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("healthy worker completed %d jobs, want all 3", n)
	}
	s := p.Stats()
	if s.JobsDone != 3 || s.JobsRequeued != 1 || s.WorkerResults["bloated"] != 0 {
		t.Fatalf("stats = %+v, want 3 done, 1 requeued, none from the bloated worker", s)
	}
}

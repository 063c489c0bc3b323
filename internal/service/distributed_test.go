package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/obs"
)

// distRequest is a real bitcoin sweep with enough geometries to split
// into several chunks at small chunk sizes.
func distRequest(t *testing.T) *Request {
	t.Helper()
	var req Request
	err := json.Unmarshal([]byte(
		`{"app":"bitcoin","sweep":{"voltages_v":[0.55,0.6],"silicon_per_lane_mm2":[30,50,70],"chips_per_lane":[1,2]}}`,
	), &req)
	if err != nil {
		t.Fatal(err)
	}
	return &req
}

// startCoordinator runs RunCoordinator against a fresh loopback
// listener and returns the pool address plus a channel carrying the
// rendered result bytes.
func startCoordinator(t *testing.T, ctx context.Context, req *Request, opts CoordinatorOptions) (string, <-chan []byte, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		b, err := RunCoordinator(ctx, req, ln, obs.NewRecorder(), opts)
		out <- b
		errc <- err
	}()
	return ln.Addr().String(), out, errc
}

// TestDistributedMatchesRunOnce is the tentpole acceptance check in
// process form: a coordinator fanning chunks out to a three-worker
// fleet renders byte-identical result JSON to the single-process run,
// with an explicit chunk size and with the fleet-sized default.
func TestDistributedMatchesRunOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := distRequest(t)
	want, err := RunOnce(ctx, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, size := range []int{2, 0} {
		addr, out, errc := startCoordinator(t, ctx, req, CoordinatorOptions{ChunkSize: size})
		// Three workers, each with its own engine — separate
		// thermal-plan caches, as separate processes would have. Each
		// worker's first chunk waits until all three hold one, so no
		// worker can drain the sweep before the others have dialed in.
		var wg, joined sync.WaitGroup
		joined.Add(3)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				inner := NewChunkHandler(core.NewEngine(nil), nil, nil)
				var once sync.Once
				h := func(j cloud.Job) ([]byte, error) {
					once.Do(func() { joined.Done(); joined.Wait() })
					return inner(j)
				}
				if _, err := cloud.RunWorker(ctx, addr, "w", h); err != nil {
					t.Errorf("chunk size %d, worker %d: %v", size, id, err)
				}
			}(w)
		}
		wg.Wait()
		got := <-out
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("chunk size %d: distributed result differs from single-process run:\nonce: %s\ndist: %s", size, want, got)
		}
	}
}

// TestDistributedSurvivesWorkerDeath kills a worker that is sitting on
// a chunk; the lease expires, the chunk is requeued to the healthy
// fleet, and the final bytes still match the single-process run.
func TestDistributedSurvivesWorkerDeath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := distRequest(t)
	want, err := RunOnce(ctx, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	addr, out, errc := startCoordinator(t, ctx, req, CoordinatorOptions{
		ChunkSize:     2,
		LeaseDuration: 50 * time.Millisecond,
	})

	// The doomed worker takes one chunk and hangs until "killed" (its
	// context canceled closes the connection mid-hold).
	grabbed := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	doomedCtx, kill := context.WithCancel(ctx)
	defer kill()
	go func() {
		_, _ = cloud.RunWorker(doomedCtx, addr, "doomed", func(cloud.Job) ([]byte, error) {
			close(grabbed)
			<-release
			return nil, errors.New("stalled")
		})
	}()
	select {
	case <-grabbed:
	case <-ctx.Done():
		t.Fatal("doomed worker never received a chunk")
	}
	kill()

	if _, err := cloud.RunFleet(ctx, addr, "healthy", 2, NewChunkHandler(core.NewEngine(nil), nil, nil)); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}
	got := <-out
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("result after worker death differs from single-process run")
	}
}

// TestChunkHandlerRejectsHashMismatch: a worker whose canonicalization
// disagrees with the coordinator's hash must refuse the chunk rather
// than contribute to the merge.
func TestChunkHandlerRejectsHashMismatch(t *testing.T) {
	req := distRequest(t)
	payload, err := json.Marshal(chunkPayload{
		Request:     *req,
		RequestHash: "sha256:not-the-real-hash",
		ChunkSize:   2,
		Chunk:       0,
		NumChunks:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	_, err = h(cloud.Job{ID: 1, Payload: payload})
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("want hash mismatch error, got %v", err)
	}
}

// TestChunkHandlerRejectsGarbage covers the two remaining refusal
// paths: an undecodable payload and an out-of-range chunk index.
func TestChunkHandlerRejectsGarbage(t *testing.T) {
	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	if _, err := h(cloud.Job{ID: 1, Payload: []byte("not json")}); err == nil {
		t.Error("garbage payload should fail")
	}

	req := distRequest(t)
	can, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(chunkPayload{
		Request:     *req,
		RequestHash: can.Hash(),
		ChunkSize:   2,
		Chunk:       10000,
		NumChunks:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h(cloud.Job{ID: 1, Payload: payload}); err == nil {
		t.Error("out-of-range chunk should fail")
	}
}

// TestChunkHandlerRejectsChunkCountMismatch: a payload whose num_chunks
// disagrees with the worker's own plan of the same request is refused,
// not evaluated.
func TestChunkHandlerRejectsChunkCountMismatch(t *testing.T) {
	req := distRequest(t)
	can, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(chunkPayload{
		Request:     *req,
		RequestHash: can.Hash(),
		ChunkSize:   2,
		Chunk:       0,
		NumChunks:   4, // the plan has 3 chunks of 2 geometries
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	_, err = h(cloud.Job{ID: 1, Payload: payload})
	if err == nil || !strings.Contains(err.Error(), "chunk count mismatch") {
		t.Errorf("want chunk count mismatch error, got %v", err)
	}
}

// TestCoordinatorRejectsMisaddressedChunk: a result whose chunk index
// is not its job's, or whose chunk count is not the plan's, fails the
// run with an error naming the chunk and the worker instead of merging
// as the wrong part of the sweep; so does one the merger finds
// malformed.
func TestCoordinatorRejectsMisaddressedChunk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alter func(*core.ChunkResult)
		want  string
	}{
		{"chunk", func(cr *core.ChunkResult) { cr.Chunk = (cr.Chunk + 1) % cr.NumChunks }, "answered chunk"},
		{"num_chunks", func(cr *core.ChunkResult) { cr.NumChunks++ }, "answered chunk"},
		{"geometry", func(cr *core.ChunkResult) {
			for i := range cr.Points {
				cr.Points[i].Geom = -1
			}
		}, "malformed result for chunk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			addr, out, errc := startCoordinator(t, ctx, distRequest(t), CoordinatorOptions{ChunkSize: 2})
			inner := NewChunkHandler(core.NewEngine(nil), nil, nil)
			liar := func(j cloud.Job) ([]byte, error) {
				b, err := inner(j)
				if err != nil {
					return nil, err
				}
				var cr core.ChunkResult
				if err := json.Unmarshal(b, &cr); err != nil {
					return nil, err
				}
				tc.alter(&cr)
				return json.Marshal(cr)
			}
			// The coordinator aborts and tears the pool down, so the
			// worker's exit is either a drain or a disconnect.
			_, _ = cloud.RunWorker(ctx, addr, "liar", liar)
			<-out
			err := <-errc
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "liar") {
				t.Errorf("want an error naming the chunk and worker liar, got %v", err)
			}
		})
	}
}

// TestCoordinatorSurfacesChunkFailure: a handler error on any chunk
// aborts the run with a descriptive error instead of hanging or
// silently dropping the chunk.
func TestCoordinatorSurfacesChunkFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr, out, errc := startCoordinator(t, ctx, distRequest(t), CoordinatorOptions{ChunkSize: 2})

	// The coordinator aborts on the first failed chunk and tears the
	// pool down, so the worker may see either a clean drain or an
	// unexpected disconnect — ignore its exit.
	broken := func(cloud.Job) ([]byte, error) { return nil, errors.New("solder bridge") }
	_, _ = cloud.RunWorker(ctx, addr, "broken", broken)
	<-out
	err := <-errc
	if err == nil || !strings.Contains(err.Error(), "solder bridge") {
		t.Errorf("want chunk failure surfaced, got %v", err)
	}
}

// TestCoordinatorRejectsBadRequest: request validation fails before any
// pool machinery spins up.
func TestCoordinatorRejectsBadRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var req Request
	req.App = "no-such-app"
	if _, err := RunCoordinator(context.Background(), &req, ln, nil, CoordinatorOptions{}); err == nil {
		t.Error("unknown app should fail")
	}
}

// TestPlanForPartition sanity-checks the helper tests and CLIs use to
// inspect the partition a request resolves to.
func TestPlanForPartition(t *testing.T) {
	plan, _, _, err := planFor(distRequest(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Geometries() != 6 {
		t.Errorf("geometries = %d, want 6", plan.Geometries())
	}
	if plan.NumChunks() != 3 {
		t.Errorf("chunks = %d, want 3", plan.NumChunks())
	}
}

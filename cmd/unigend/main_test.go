package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"unigen"
	"unigen/internal/faultpoint"
)

// TestSIGTERMDrain delivers a real SIGTERM to a busy daemon and
// verifies the drain contract: run returns within the drain deadline
// even though an in-flight request is stalled inside the solver (its
// SAT search is interrupted and it answers 503), and requests arriving
// after the signal are rejected rather than accepted.
func TestSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("delivers a process-wide signal")
	}
	t.Cleanup(faultpoint.Reset)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	const drainDeadline = 2 * time.Second
	opts := unigen.ServiceOptions{
		Workers:     1,
		CacheSize:   4,
		MaxInFlight: 2,
		MaxQueue:    2,
	}
	runDone := make(chan error, 1)
	go func() { runDone <- run(ctx, opts, ln, 0, drainDeadline) }()

	// Stall the in-flight request inside its preparation flight, far
	// beyond the drain deadline — only a solver interrupt can free it.
	faultpoint.Arm(faultpoint.PrepareSlow, faultpoint.Fault{Delay: time.Minute})

	type reply struct {
		status int
		err    error
	}
	inFlight := make(chan reply, 1)
	go func() {
		status, err := postSample(base, "c ind 1 2 3 0\np cnf 4 1\n1 2 3 4 0\n")
		inFlight <- reply{status, err}
	}()

	// Wait until the stalled request is actually admitted before
	// signalling, so the drain genuinely has a straggler to interrupt.
	waitForInFlight(t, base, 1)

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(drainDeadline + 5*time.Second):
		t.Fatal("run did not return within the drain deadline after SIGTERM")
	}
	if elapsed := time.Since(start); elapsed > drainDeadline+3*time.Second {
		t.Fatalf("drain took %v, deadline was %v", elapsed, drainDeadline)
	}

	r := <-inFlight
	// The straggler was interrupted: either a clean 503 (drain beat the
	// connection teardown) or a transport error from the closing server.
	if r.err == nil && r.status != http.StatusServiceUnavailable {
		t.Fatalf("stalled request: status %d, want 503 or connection error", r.status)
	}

	// The listener is closed: post-signal requests cannot be accepted.
	if _, err := postSample(base, "p cnf 1 1\n1 0\n"); err == nil {
		t.Fatal("request after drain completed should fail, got success")
	}
}

// TestStoreWarmRestartDaemon runs two full daemon lifetimes over one
// persistent store directory: the second must serve the formula from
// disk (one store hit, zero RAM hits) with witnesses bit-identical to
// the first lifetime's cold answer.
func TestStoreWarmRestartDaemon(t *testing.T) {
	const fixture = "c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 1\n11 12 0\n"
	dir := t.TempDir()

	lifetime := func(t *testing.T, wantStoreHits int64) []string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + ln.Addr().String()
		ctx, cancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		opts := unigen.ServiceOptions{Workers: 1, StoreDir: dir}
		go func() { runDone <- run(ctx, opts, ln, 0, 10*time.Second) }()

		body, _ := json.Marshal(map[string]any{"formula": fixture, "n": 4, "seed": 2014})
		resp, err := http.Post(base+"/sample", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Witnesses []string `json:"witnesses"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("sample: status %d err %v", resp.StatusCode, err)
		}

		sresp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Hits  int64 `json:"hits"`
			Store struct {
				Enabled bool  `json:"enabled"`
				Hits    int64 `json:"hits"`
				Entries int   `json:"entries"`
			} `json:"store"`
		}
		err = json.NewDecoder(sresp.Body).Decode(&st)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Store.Enabled {
			t.Fatal("/stats reports the store disabled")
		}
		if st.Hits != 0 {
			t.Fatalf("RAM hits = %d, want 0", st.Hits)
		}
		if st.Store.Hits != wantStoreHits {
			t.Fatalf("store hits = %d, want %d", st.Store.Hits, wantStoreHits)
		}

		cancel() // drain: flushes the write-behind queue
		select {
		case err := <-runDone:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
		}
		return out.Witnesses
	}

	var cold, warm []string
	t.Run("cold", func(t *testing.T) { cold = lifetime(t, 0) })
	t.Run("warm", func(t *testing.T) { warm = lifetime(t, 1) })
	if len(cold) == 0 || !equalStrings(cold, warm) {
		t.Fatalf("witnesses diverged across restart:\n cold: %v\n warm: %v", cold, warm)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func postSample(base, formula string) (int, error) {
	body, _ := json.Marshal(map[string]any{"formula": formula, "n": 1, "seed": 7})
	resp, err := http.Post(base+"/sample", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// waitForInFlight polls /stats until the admission gate reports at
// least n requests in flight.
func waitForInFlight(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/stats")
		if err == nil {
			var st struct {
				Admission struct {
					InFlight int `json:"in_flight"`
				} `json:"admission"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Admission.InFlight >= n {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no request reached the admission gate within 5s")
}

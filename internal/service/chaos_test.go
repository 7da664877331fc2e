package service_test

// The chaos suite: every robustness claim of DESIGN §9, exercised under
// injected faults (internal/faultpoint) and the race detector. Faults
// are process-global, so none of these tests may call t.Parallel; each
// resets the registry on cleanup.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"unigen/internal/faultpoint"
	"unigen/internal/parallel"
	"unigen/internal/service"
)

var errInjectedUnsat = errors.New("injected spurious unsat")

// checkGoroutines snapshots the goroutine count and returns a func that
// fails the test if the count has not returned to (near) the baseline —
// the drain/overload paths must not strand workers, watchers, or
// abandoned preparation flights.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			now := runtime.NumGoroutine()
			if now <= before+2 { // slack for runtime/test plumbing
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// waitInFlight polls until the admission gate reports exactly n
// admitted requests (requires MaxInFlight > 0).
func waitInFlight(t *testing.T, svc *service.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Admission.InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("admission gate never reached %d in flight: %+v", n, svc.Stats().Admission)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosOverload is the acceptance scenario: 4× capacity of
// concurrent clients against a gated service with slow preparations and
// stalling solver calls. The service must shed the excess as
// ErrOverloaded, keep the queue within its bound, serve the survivors
// witnesses bit-identical to an unloaded run, and recover fully once
// the faults clear.
func TestChaosOverload(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	leak := checkGoroutines(t)

	// Unloaded reference, one per client seed, on a pristine service.
	const clients = 16
	refSvc := newService(t, service.Config{})
	refs := make([][]string, clients)
	for i := range refs {
		res, err := refSvc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = projectAll(t, res)
	}

	svc := newService(t, service.Config{
		MaxInFlight: 2,
		MaxQueue:    2,
		QueueWait:   250 * time.Millisecond,
	})
	// Slow the cold path (one single-flight preparation all survivors
	// share) and every solver call; neither fault changes results, only
	// timing, so the bit-identical contract must hold.
	faultpoint.Arm(faultpoint.PrepareSlow, faultpoint.Fault{Delay: 300 * time.Millisecond})
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Millisecond})

	start := make(chan struct{})
	results := make([]*service.SampleResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = svc.Sample(context.Background(), service.SampleRequest{
				Formula: hardFormula(),
				N:       2,
				Seed:    uint64(i),
			})
		}(i)
	}
	close(start)
	wg.Wait()

	ok, shed := 0, 0
	for i := range errs {
		switch {
		case errs[i] == nil:
			ok++
			if !reflect.DeepEqual(projectAll(t, results[i]), refs[i]) {
				t.Errorf("client %d survived overload but its witnesses differ from the unloaded run", i)
			}
		case errors.Is(errs[i], service.ErrOverloaded):
			shed++
		default:
			t.Errorf("client %d: unexpected error %v", i, errs[i])
		}
	}
	if ok == 0 || shed == 0 || ok+shed != clients {
		t.Fatalf("outcomes ok=%d shed=%d of %d: overload must shed some and serve some", ok, shed, clients)
	}

	st := svc.Stats()
	if st.Admission.MaxQueued > 2 {
		t.Fatalf("queue depth high-water %d exceeded the bound 2", st.Admission.MaxQueued)
	}
	if st.Outcomes.OK != int64(ok) || st.Outcomes.Shed != int64(shed) {
		t.Fatalf("outcome counters %+v disagree with observed ok=%d shed=%d", st.Outcomes, ok, shed)
	}

	// Faults cleared: the node serves again, bit-identically, and
	// reports ok health.
	faultpoint.Reset()
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: 3})
	if err != nil || !reflect.DeepEqual(projectAll(t, res), refs[3]) {
		t.Fatalf("post-chaos request: err=%v, witnesses must match the unloaded run", err)
	}
	if h := svc.Health(); h != service.HealthOK {
		t.Fatalf("health after recovery = %q, want ok", h)
	}
	leak()
}

// TestChaosServerDeadline: a solver stall far beyond DefaultTimeout
// must be cut short by the server budget — the request fails with
// ErrDeadline (503: the server's policy, not the client's fault) and
// stops consuming CPU, and the service stays usable.
func TestChaosServerDeadline(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	// Generous enough for the (unstalled) warm-up preparation even under
	// the race detector; the minute-long stall below still dwarfs it.
	svc := newService(t, service.Config{DefaultTimeout: 2 * time.Second})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err) // warm: the deadline must land mid-sampling, not mid-prepare
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	start := time.Now()
	_, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 5, Seed: 2})
	if !errors.Is(err, service.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline-struck request took %v to return", elapsed)
	}
	if o := svc.Stats().Outcomes; o.Timeout == 0 {
		t.Fatalf("outcomes %+v recorded no timeout", o)
	}
	faultpoint.Reset()
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 3}); err != nil {
		t.Fatalf("service unusable after deadline strike: %v", err)
	}
}

// TestChaosClientTimeout: the same stall against the request's OWN
// deadline yields ErrClientTimeout — the budget the client supplied ran
// out, a 422, not a 503.
func TestChaosClientTimeout(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	_, err := svc.Sample(context.Background(), service.SampleRequest{
		Formula: hardFormula(), N: 5, Seed: 2, Timeout: 150 * time.Millisecond,
	})
	if !errors.Is(err, service.ErrClientTimeout) {
		t.Fatalf("err = %v, want ErrClientTimeout", err)
	}
	if errors.Is(err, service.ErrDeadline) {
		t.Fatal("client timeout misattributed to the server deadline")
	}
}

// TestChaosPrepareTimeout: PrepareTimeout caps a stalled preparation —
// the flight's solver interrupt fires at the deadline, the flight fails
// with ErrDeadline, and nothing is cached.
func TestChaosPrepareTimeout(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{PrepareTimeout: 100 * time.Millisecond})
	faultpoint.Arm(faultpoint.PrepareSlow, faultpoint.Fault{Delay: time.Minute})
	start := time.Now()
	_, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1})
	if !errors.Is(err, service.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("capped preparation took %v to fail", elapsed)
	}
	if st := svc.Stats(); st.Size != 0 {
		t.Fatalf("timed-out preparation was cached: %+v", st.CacheStats)
	}
	// The service stays usable: a preparation that fits the cap (the
	// easy case runs no ApproxMC) succeeds after the fault clears.
	faultpoint.Reset()
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: easyFormula(5), N: 1, Seed: 1})
	if err != nil || res.CacheHit {
		t.Fatalf("preparation after timeout strike: err=%v hit=%v", err, res != nil && res.CacheHit)
	}
}

// TestChaosPreparePanicIsolated: a preparation crash must fail the
// initiating request AND every single-flight co-waiter with ErrPanic,
// leave the cache unpoisoned, and let the next request re-prepare
// cleanly.
func TestChaosPreparePanicIsolated(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	leak := checkGoroutines(t)
	svc := newService(t, service.Config{})
	faultpoint.Arm(faultpoint.PreparePanic, faultpoint.Fault{Panic: "injected prepare crash"})

	const clients = 4
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: uint64(i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, service.ErrPanic) {
			t.Fatalf("client %d: err = %v, want ErrPanic", i, err)
		}
	}
	if st := svc.Stats(); st.Size != 0 {
		t.Fatalf("panicking preparation was cached: %+v", st.CacheStats)
	}
	if o := svc.Stats().Outcomes; o.Panic != clients {
		t.Fatalf("outcomes %+v, want %d panics", o, clients)
	}

	faultpoint.Reset()
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 0})
	if err != nil || res.CacheHit {
		t.Fatalf("recovery request: err=%v hit=%v, want clean re-preparation", err, res != nil && res.CacheHit)
	}
	leak()
}

// TestChaosRoundPanic: a panic inside one sampling round (below the
// worker pool) must fail that request with ErrRoundPanic — not kill the
// process, not deadlock the collector — and must not disturb the cached
// setup.
func TestChaosRoundPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{Workers: 2})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.RoundPanic, faultpoint.Fault{Panic: "injected round crash", Count: 1})
	_, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 2})
	if !errors.Is(err, parallel.ErrRoundPanic) {
		t.Fatalf("err = %v, want ErrRoundPanic (recovered round crash)", err)
	}
	// The fault is exhausted (Count: 1); the cached setup must serve the
	// retry untouched.
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 2})
	if err != nil || !res.CacheHit || len(res.Witnesses) != 4 {
		t.Fatalf("retry after round panic: err=%v hit=%v n=%d", err, res != nil && res.CacheHit, len(res.Witnesses))
	}
	if o := svc.Stats().Outcomes; o.Panic != 1 {
		t.Fatalf("outcomes %+v, want exactly 1 panic", o)
	}
}

// TestChaosSpuriousUnsat: a solver call that spuriously reports an
// empty cell must read as one ⊥ round — the request retries further
// rounds and still succeeds.
func TestChaosSpuriousUnsat(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverUnsat, faultpoint.Fault{Err: errInjectedUnsat, Count: 1})
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 3, Seed: 2})
	if err != nil || len(res.Witnesses) != 3 {
		t.Fatalf("request under spurious unsat: err=%v n=%d, want 3 witnesses", err, len(res.Witnesses))
	}
	if faultpoint.Fired(faultpoint.SolverUnsat) != 1 {
		t.Fatal("the spurious-unsat fault never fired; the test asserted nothing")
	}
}

// TestChaosRequestPanic: the request-boundary recover converts a crash
// at the top of Sample into ErrPanic (the HTTP 500 path) without
// touching the cache.
func TestChaosRequestPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{})
	faultpoint.Arm(faultpoint.RequestPanic, faultpoint.Fault{Panic: "injected request crash", Count: 1})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: easyFormula(0), N: 1, Seed: 1}); !errors.Is(err, service.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: easyFormula(0), N: 1, Seed: 1}); err != nil {
		t.Fatalf("service unusable after request panic: %v", err)
	}
}

// TestChaosTenantQuota: one tenant monopolizing the node is shed at its
// quota while the gate still has capacity for others.
func TestChaosTenantQuota(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	leak := checkGoroutines(t)
	svc := newService(t, service.Config{MaxInFlight: 4, TenantQuota: 1})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	stalled := make(chan error, 1)
	go func() {
		_, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 2, Tenant: "acme"})
		stalled <- err
	}()
	waitInFlight(t, svc, 1)

	_, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 3, Tenant: "acme"})
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("second acme request: err = %v, want ErrOverloaded (quota)", err)
	}
	if st := svc.Stats().Admission; st.ShedTenant != 1 {
		t.Fatalf("admission %+v, want 1 tenant shed", st)
	}

	cancel()
	if err := <-stalled; !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled acme request: err = %v, want context.Canceled", err)
	}
	leak()
}

// TestChaosHealthOverloaded: /healthz must degrade to "overloaded" once
// the wait queue is half full — before shedding starts — and return to
// "ok" when the pressure clears.
func TestChaosHealthOverloaded(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	leak := checkGoroutines(t)
	svc := newService(t, service.Config{
		MaxInFlight: 1,
		MaxQueue:    2,
		QueueWait:   time.Minute,
	})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if h := svc.Health(); h != service.HealthOK {
		t.Fatalf("idle health = %q, want ok", h)
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	for i := 0; i < 2; i++ { // one admitted + stalled, one queued
		go func(seed uint64) {
			_, _ = svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: seed})
			done <- struct{}{}
		}(uint64(i + 2))
	}

	deadline := time.Now().Add(10 * time.Second)
	for svc.Health() != service.HealthOverloaded {
		if time.Now().After(deadline) {
			t.Fatalf("health never degraded to overloaded: %+v", svc.Stats().Admission)
		}
		time.Sleep(2 * time.Millisecond)
	}

	cancel()
	<-done
	<-done
	deadline = time.Now().Add(10 * time.Second)
	for svc.Health() != service.HealthOK {
		if time.Now().After(deadline) {
			t.Fatalf("health stuck at %q after pressure cleared", svc.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	leak()
}

// TestChaosDrain: Close under load. In-flight requests stalled far past
// the drain deadline must be interrupted and fail with ErrDraining,
// Close must return promptly with ctx.Err(), new requests must be
// rejected, and nothing may leak.
func TestChaosDrain(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	leak := checkGoroutines(t)
	svc := newService(t, service.Config{MaxInFlight: 4})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})

	const stragglers = 3
	errCh := make(chan error, stragglers)
	for i := 0; i < stragglers; i++ {
		go func(seed uint64) {
			_, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: seed})
			errCh <- err
		}(uint64(i + 2))
	}
	waitInFlight(t, svc, stragglers)

	dctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := svc.Close(dctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want DeadlineExceeded (stragglers were interrupted)", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("Close took %v against a 200ms deadline", elapsed)
	}
	for i := 0; i < stragglers; i++ {
		if err := <-errCh; !errors.Is(err, service.ErrDraining) {
			t.Fatalf("straggler %d: err = %v, want ErrDraining", i, err)
		}
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 9}); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("post-drain request: err = %v, want ErrDraining", err)
	}
	if h := svc.Health(); h != service.HealthDraining {
		t.Fatalf("health = %q, want draining", h)
	}
	if o := svc.Stats().Outcomes; o.Drained < stragglers {
		t.Fatalf("outcomes %+v, want at least %d drained", o, stragglers)
	}
	leak()
}

// TestChaosCleanDrain: with nothing in flight, Close returns nil
// immediately; a second Close is a harmless no-op.
func TestChaosCleanDrain(t *testing.T) {
	svc := newService(t, service.Config{})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: easyFormula(0), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := svc.Close(ctx); err != nil {
			t.Fatalf("Close #%d = %v, want nil (idle drain)", i+1, err)
		}
		cancel()
	}
}

// TestChaosStallInterruptExactness pins the mechanism the other tests
// rely on: an injected stall must honor the solver interrupt within
// milliseconds of it being raised (via a cancelled request), exactly as
// a real interrupted search would.
func TestChaosStallInterruptExactness(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("interrupting a stalled solver call took %v", elapsed)
	}
	if fired := faultpoint.Fired(faultpoint.SolverStall); fired == 0 {
		t.Fatal("the stall never fired; the test asserted nothing")
	}
}

// TestChaosOutcomeAccounting drives one request of each class through a
// single service and checks the per-outcome totals add up — the /stats
// numbers operators will alert on.
func TestChaosOutcomeAccounting(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{MaxInFlight: 1, MaxQueue: 0, TenantQuota: 1})
	ctx := context.Background()

	if _, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err) // ok += 1
	}
	if _, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 0, Seed: 1}); err == nil {
		t.Fatal("n=0 accepted") // invalid += 1
	}
	faultpoint.Arm(faultpoint.RequestPanic, faultpoint.Fault{Panic: "crash", Count: 1})
	if _, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); !errors.Is(err, service.ErrPanic) {
		t.Fatalf("panic request: %v", err) // panic += 1
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	if _, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 2, Timeout: 100 * time.Millisecond}); !errors.Is(err, service.ErrClientTimeout) {
		t.Fatalf("timeout request: %v", err) // timeout += 1
	}
	faultpoint.Reset()

	want := service.OutcomeStats{OK: 1, Invalid: 1, Panic: 1, Timeout: 1}
	if got := svc.Stats().Outcomes; got != want {
		t.Fatalf("outcomes %+v, want %+v", got, want)
	}
}

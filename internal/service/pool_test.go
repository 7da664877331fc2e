package service

import (
	"sync/atomic"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/randx"
)

// TestPoolCheckinScrubsSession: whatever interrupt and assumptions a
// borrower leaves on a session, the pool parks it with neither, and
// retires a doomed one instead of parking it.
func TestPoolCheckinScrubsSession(t *testing.T) {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	su, err := core.NewSetup(f, randx.New(1), core.Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	var tot poolTotals
	p := newSessionPool(su, 8, &tot)
	ss := p.Checkout(2)
	var raised atomic.Bool
	raised.Store(true)
	for _, sess := range ss {
		if sess.Interrupt() != nil {
			t.Fatal("a freshly built pooled session polls an interrupt flag")
		}
		sess.SetAssumptions([]cnf.Lit{cnf.FromDIMACS(1), cnf.FromDIMACS(-2)})
		sess.SetInterrupt(&raised)
	}
	p.Checkin(ss, []bool{false, true})
	if len(p.idle) != 1 || p.idle[0] != ss[0] || tot.retired.Load() != 1 {
		t.Fatalf("%d idle, %d retired; want the first session parked and the doomed one retired", len(p.idle), tot.retired.Load())
	}
	if sess := p.idle[0]; sess.Interrupt() != nil || len(sess.Assumptions()) != 0 {
		t.Fatalf("checked-in session keeps interrupt %p and assumptions %v", sess.Interrupt(), sess.Assumptions())
	}
}

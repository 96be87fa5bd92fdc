package main

import (
	"math"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/sim"
)

func TestLinkMatcherPairsSendsInOrderAndExcludesLossyLinks(t *testing.T) {
	lossy := map[sim.NodeID]bool{}
	lm := newLinkMatcher(func(id sim.NodeID) bool { return lossy[id] })
	lm.sent(1, 2, stamp{at: 10, span: 1, trace: 1})
	lm.sent(1, 2, stamp{at: 20, span: 2, trace: 1})
	if st, ok := lm.received(1, 2, 25); !ok || st.span != 1 {
		t.Fatalf("first receipt matched %+v, %v; want span 1", st, ok)
	}
	if st, ok := lm.received(1, 2, 32); !ok || st.span != 2 {
		t.Fatalf("second receipt matched %+v, %v; want span 2", st, ok)
	}

	// Node 3's engine loses the first of two messages to node 2 and
	// counts the drop: the receipt of the second would pair with the
	// first send, so the link is left out.
	lm.sent(3, 2, stamp{at: 5, span: 3})
	lm.sent(3, 2, stamp{at: 40, span: 4})
	lossy[3] = true
	if _, ok := lm.received(3, 2, 50); ok {
		t.Error("transit recorded on a link whose sender dropped a message")
	}
	// A receipt with no send pending excludes its link too.
	if _, ok := lm.received(4, 2, 60); ok {
		t.Error("a receipt with no pending send matched")
	}

	if n := lm.excludedLinks(); n != 2 {
		t.Errorf("excluded %d links, want 2 (the lossy one and the unmatched one)", n)
	}
	if n := lm.transit.count(); n != 2 {
		t.Fatalf("%d transit times recorded, want the 2 of link 1→2", n)
	}
	if lo, _ := lm.transit.percentile(0); lo != 12 {
		t.Errorf("shortest transit %d, want 12", lo)
	}
	if hi, _ := lm.transit.percentile(1); hi != 15 {
		t.Errorf("longest transit %d, want 15", hi)
	}
}

func TestHistogramPercentileWithinBucketResolution(t *testing.T) {
	var h histogram
	samples := make([]int64, 0, 100_000)
	for v := int64(1); v <= 100_000; v++ {
		h.add(v * 37)
		samples = append(samples, v*37)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact, _ := percentile(samples, p)
		got, ok := h.percentile(p)
		if !ok || math.Abs(float64(got-exact)) > float64(exact)/(1<<subBits) {
			t.Errorf("p%.0f: histogram %d (valid %v), exact %d", p*100, got, ok, exact)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // descending: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n     int
		p     float64
		value int64
		valid bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.value || ok != c.valid {
			t.Errorf("p%.0f of 1..%d = %d (valid %v), want %d (valid %v)", c.p*100, c.n, v, ok, c.value, c.valid)
		}
	}
}

func TestOpenLoopStallRaisesLatencyOfLaterRequests(t *testing.T) {
	r := newRun(false, "")
	const (
		every = 2 * time.Millisecond
		count = 60
		stall = 20
	)
	pause := 40 * time.Millisecond
	ops := fixedRate(nil, r.now()+int64(time.Millisecond), every, count, opPublish, 0)
	done := make([]int64, count)
	late := openLoop(r, ops, func(i int, _ op) {
		if i == stall {
			time.Sleep(pause)
		}
		done[i] = r.now()
	})
	latency := func(i int) time.Duration { return time.Duration(done[i] - ops[i].due) }
	// Requests due while the stall blocked the generator are sent late,
	// and timed from when they were due, their latency carries the wait.
	for i := stall + 1; i <= stall+5; i++ {
		if want := pause - time.Duration(i-stall)*every - every; latency(i) < want {
			t.Errorf("request %d: latency %v, want at least %v", i, latency(i), want)
		}
		if time.Duration(late[i]) < pause/2 {
			t.Errorf("request %d: generator lateness %v not reported", i, time.Duration(late[i]))
		}
	}
	if latency(stall-1) >= pause/2 {
		t.Errorf("request before the stall: latency %v", latency(stall-1))
	}
}

func TestSettleWindowJudgesOnlyUnchangedSubscriptions(t *testing.T) {
	h := newSubHistory()
	change := int64(10 * time.Second)
	h.change(1, change)
	ms := int64(time.Millisecond)
	for _, c := range []struct {
		publish int64
		settled bool
	}{
		// The subscription must hold from settleBefore before the
		// publish until settleAfter after it.
		{change - int64(settleAfter) - ms, true},
		{change - int64(settleAfter) + ms, false},
		{change, false},
		{change + int64(settleBefore) - ms, false},
		{change + int64(settleBefore) + ms, true},
	} {
		if got := h.settled(1, c.publish); got != c.settled {
			t.Errorf("publish %v after the change: settled %v, want %v",
				time.Duration(c.publish-change), got, c.settled)
		}
	}
	if !h.settled(2, change) {
		t.Error("a node that never changed its subscriptions is not settled")
	}
}

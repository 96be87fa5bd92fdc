package main

import (
	"math/rand"
	"sort"
	"time"
)

// opKind is what a scheduled request does.
type opKind uint8

const (
	opPublish opKind = iota
	opMove           // a player changes zone: unsubscribe, then subscribe
	opPoll           // once-per-step check of joins in flight
)

// op is one scheduled request of an open-loop workload.
type op struct {
	due   int64 // run clock, ns
	kind  opKind
	phase int
}

// fixedRate appends count ops due every interval from start.
func fixedRate(ops []op, start int64, interval time.Duration, count int, kind opKind, phase int) []op {
	for i := 0; i < count; i++ {
		ops = append(ops, op{due: start + int64(i)*int64(interval), kind: kind, phase: phase})
	}
	return ops
}

// poissonOps appends ops arriving at the given mean rate (per second)
// from start until end, with exponential gaps drawn from rng: the
// requests of independent users. Evenly spaced requests would not do:
// the runtime wakes a sleeping goroutine on a millisecond grid here, so
// a spacing that is a whole number of milliseconds puts every request at
// the same, random, phase of that grid, and every latency of a run
// shifts by up to a millisecond against the next run.
func poissonOps(ops []op, rng *rand.Rand, start, end int64, rate float64, kind opKind, phase int) []op {
	mean := float64(time.Second) / rate
	for at := start + int64(rng.ExpFloat64()*mean); at < end; at += int64(rng.ExpFloat64() * mean) {
		ops = append(ops, op{due: at, kind: kind, phase: phase})
	}
	return ops
}

// sortOps orders merged schedules by due time, stable so that ops due at
// the same instant keep their order.
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
}

// openLoop issues ops at their due times from one goroutine. It never
// holds an op back for the system to catch up: a call that blocks delays
// the ops behind it, and since every op is timed from when it was due,
// the stall shows in their latency. It returns each op's lateness, the
// time from due to issue.
func openLoop(r *run, ops []op, fire func(i int, o op)) []int64 {
	late := make([]int64, len(ops))
	for i, o := range ops {
		if wait := o.due - r.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		late[i] = r.now() - o.due
		fire(i, o)
	}
	return late
}

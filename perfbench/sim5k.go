package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/workload"
)

// sim-5k: the cycle engine at 5,000 nodes, Workload2, 2 subscriptions per
// node, the paper's event rate (one event every 10 steps) for a fixed
// measured time. Workers are fixed at 2, not the CPU count, so the
// numbers compare across machines. Set-up steps at the live engines'
// tick, as a deployment would, so setup_s is the protocol time set-up
// takes plus any step that overran its tick; the measured phase steps
// as fast as the engine can.
const (
	simNodes      = 5000
	simPerNode    = 2
	simWorkers    = 2
	simEventEvery = 10 // steps
)

func runSim5k(o options) (*result, error) {
	spec := workload.Workload2()
	res, err := setUp(o, population{engine: "sim", nodes: simNodes, perNode: simPerNode, batch: simNodes / 100, spec: spec,
		newCluster: func(r *run) (cluster, error) { return newSimCluster(r, populationSeed, simWorkers), nil }})
	if err != nil {
		return nil, err
	}
	d, r := res.d, res.d.r
	c := d.c.(*simCluster)
	over := 0
	for _, st := range c.steps {
		if st > int64(tickEvery) {
			over++
		}
	}
	res.report = append(res.report, fmt.Sprintf("last setup: %d steps due every %v, %.3f s of them spent stepping, %d steps longer than that",
		len(c.steps), tickEvery, float64(sum(c.steps))/1e9, over))
	c.pace = 0 // the measured phase is a batch job

	gen := workload.MustGenerator(spec, o.seed^0x5eed)
	rng := rand.New(rand.NewSource(o.seed ^ 0x9b1d))
	before, err := d.totals()
	if err != nil {
		return nil, err
	}
	var pubs []pub
	var late []int64
	nextID := core.EventID(1)
	c.steps = c.steps[:0]
	var busyBefore int64
	if r.tracer != nil {
		busyBefore = r.tracer.nodeBusy()
	}
	start, cpu := time.Now(), cpuSeconds()
	end := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(end) {
		// The event is due when the engine is ready for its step, that is
		// when the previous step returned.
		due := r.now()
		n := d.nodes[rng.Intn(len(d.nodes))]
		p := pub{id: nextID, ev: gen.Event(), due: due}
		nextID++
		p.at = r.now()
		late = append(late, p.at-due)
		_ = d.publish(n, p.id, p.ev) // an error is counted by exec
		pubs = append(pubs, p)
		c.wait(simEventEvery)
	}
	wall := time.Since(start).Seconds()
	res.addCPU(cpuSeconds()-cpu, len(pubs))
	res.steps = append([]int64(nil), c.steps...)
	if r.tracer != nil {
		res.stepsNodeBusy = r.tracer.nodeBusy() - busyBefore
	}
	if err := d.settle(100); err != nil {
		return nil, err
	}
	after, err := d.totals()
	if err != nil {
		return nil, err
	}
	v, err := judge(d, pubs, 1, nil)
	if err != nil {
		return nil, err
	}
	res.addTraffic(v, after.minus(before), late, pubs)
	res.e2e.addPct("lat_p50_ms", v.lat[0], 0.50, 1e6, "ms")
	res.e2e.addPct("lat_p99_ms", v.lat[0], 0.99, 1e6, "ms")
	res.e2e.add("steps_per_sec", float64(len(res.steps))/wall, "steps/s")
	res.report = append(res.report, fmt.Sprintf("measured: %d steps, %d events (one every %d steps) on %d workers in %.2f s",
		len(res.steps), len(pubs), simEventEvery, simWorkers, wall))
	return res, res.finish()
}

package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/workload"
)

// repeats is how many times a run sets its population up; setup_s is
// the median, and the last population is the one measured.
const repeats = 3

// population is what a workload sets up before it measures.
type population struct {
	engine                string // tcpnet, livenet or sim
	nodes, perNode, batch int    // batch: subscriptions issued per step
	spec                  workload.Spec
	newCluster            func(r *run) (cluster, error)
}

// setUp builds the population repeats times, each on a fresh engine,
// and returns the result around the last one; the caller closes its
// engine. The set-up time and the state sizes are medians over the
// populations built.
func setUp(o options, p population) (*result, error) {
	var d *deployment
	var times, cpus []float64
	var states []stateStats
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.c.close()
			d = nil // let the population go before building the next
		}
		r := newRun(o.traced, p.engine)
		start, cpu := time.Now(), cpuSeconds()
		c, err := p.newCluster(r)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		next, err := deploy(r, c, p.nodes)
		if err == nil {
			err = next.bootstrap(workload.MustGenerator(p.spec, populationSeed), p.perNode, p.batch)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu)
		d = next
		st, err := d.state()
		if err != nil {
			c.close()
			return nil, err
		}
		states = append(states, st)
	}
	res := newResult(d, times)
	res.report = append(res.report, fmt.Sprintf("setup CPU: %v s", cpus))
	res.state = medianState(states)
	return res, nil
}

// medianState takes the median of each state size over populations.
func medianState(states []stateStats) stateStats {
	field := func(f func(stateStats) float64) float64 {
		var xs []float64
		for _, st := range states {
			xs = append(xs, f(st))
		}
		return median(xs)
	}
	return stateStats{
		routingBytes: field(func(st stateStats) float64 { return st.routingBytes }),
		groups:       field(func(st stateStats) float64 { return st.groups }),
		viewEntries:  field(func(st stateStats) float64 { return st.viewEntries }),
		heapBytes:    field(func(st stateStats) float64 { return st.heapBytes }),
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is everything one untraced or traced pass of a workload
// measured.
type result struct {
	d      *deployment
	state  stateStats
	e2e    metrics
	layers metrics
	report []string

	attempted, failed int64
	falsePairs        int
	problems          []string

	late   []int64        // generator lateness, ns
	events []filter.Event // a sample of the published events
	steps  []int64        // cycle engine: wall time per measured step, ns

	// Cycle engine, traced: the time nodes were busy in the measured
	// steps, summed over nodes.
	stepsNodeBusy int64

	// Over the measured population's whole life (setup and measured
	// phase), taken by finish.
	life      totals
	lifeWall  int64   // ns
	lifeCPU   float64 // process CPU seconds
	selfTimes []string
}

func newResult(d *deployment, setups []float64) *result {
	res := &result{d: d}
	res.e2e.list = append(res.e2e.list, metric{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups), Valid: true})
	res.report = append(res.report, fmt.Sprintf("setup: %d nodes, %v s per setup", len(d.nodes), setups))
	return res
}

// addTraffic records the judged delivery of the measured phase.
func (res *result) addTraffic(v verdict, delta totals, late []int64, pubs []pub) {
	res.late = late
	for i := 0; i < len(pubs) && i < eventSample; i++ {
		res.events = append(res.events, pubs[i].ev)
	}
	res.falsePairs += v.falsePairs
	res.problems = append(res.problems, v.problems...)
	res.e2e.add("delivered_ratio", ratio(float64(v.hit), float64(v.expected)), "ratio")
	res.e2e.add("msgs_per_delivery", ratio(float64(delta.sent()), float64(v.delivered)), "ratio")
	res.e2e.add("false_contact_ratio", ratio(float64(delta.falseContacts), float64(delta.contacts)), "ratio")
	res.e2e.add("routing_bytes_per_node", res.state.routingBytes, "bytes")
	res.e2e.add("heap_bytes_per_node", res.state.heapBytes, "bytes")
	res.report = append(res.report, fmt.Sprintf("pairs judged in the measured phase: %d expected, %d delivered, %d missed; %d delivered in all",
		v.expected, v.hit, v.missed, v.delivered))
	var sent [nSubsystems]int64
	for ty := 1; ty < nTypes; ty++ {
		sent[subsystemOf(core.MsgType(ty))] += delta.out[ty]
	}
	res.report = append(res.report, fmt.Sprintf("messages sent in the measured phase: %d membership, %d dissemination, %d repair",
		sent[subMembership], sent[subDissemination], sent[subRepair]))
	l50, _ := percentile(append([]int64(nil), late...), 0.50)
	l99, ok := percentile(append([]int64(nil), late...), 0.99)
	res.report = append(res.report, fmt.Sprintf("generator lateness: p50 %.3f ms, p99 %.3f ms (n=%d, p99 valid %v)",
		float64(l50)/1e6, float64(l99)/1e6, len(late), ok))
}

// judgeRest reports the pairs that all judged beyond part, the verdict
// addTraffic took.
func (res *result) judgeRest(all, part verdict) {
	res.report = append(res.report, fmt.Sprintf("pairs judged beyond those: %d expected, %d missed",
		all.expected-part.expected, all.missed-part.missed))
	if all.falsePairs > part.falsePairs {
		res.falsePairs += all.falsePairs - part.falsePairs
		res.problems = append(res.problems, all.problems...)
	}
}

// addCPU reports the process CPU time the measured phase took per event
// published in it.
func (res *result) addCPU(cpu float64, events int) {
	res.e2e.add("cpu_ms_per_event", 1e3*ratio(cpu, float64(events)), "ms")
}

// eventSample is how many published events the filter replay uses.
const eventSample = 256

// finish counts API calls, their errors and engine drops into the
// operation totals and takes the life-long counters. It runs before the
// engine stops. Missed pairs are not failed operations: they are what
// delivered_ratio measures.
func (res *result) finish() error {
	d := res.d
	life, err := d.totals()
	if err != nil {
		return err
	}
	res.life = life
	res.lifeWall = d.r.now()
	res.lifeCPU = cpuSeconds() - d.r.cpuStart
	res.attempted += d.calls
	res.failed += d.callErrs + life.dropped
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

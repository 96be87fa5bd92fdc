package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
)

// layerMetrics computes the per-layer metrics of a traced pass; plain is
// the untraced pass of the same workload, against which the tracing
// overhead is taken. Counts and timings cover the measured population's
// whole life: its setup and its measured phase.
func layerMetrics(res, plain *result) metrics {
	var m metrics
	t := res.d.r.tracer
	life := res.life
	var tot nodeTrace // every node's counters added up
	for _, nt := range t.nodes {
		for s := range tot.handled {
			tot.handled[s] += nt.handled[s]
			tot.handleBusy[s] += nt.handleBusy[s]
			tot.handleSend[s] += nt.handleSend[s]
		}
		for c := range tot.calls {
			tot.calls[c] += nt.calls[c]
			tot.callBusy[c] += nt.callBusy[c]
			tot.callSend[c] += nt.callSend[c]
		}
		tot.ticks += nt.ticks
		tot.tickBusy += nt.tickBusy
		tot.tickSend += nt.tickSend
		tot.sends += nt.sends
		tot.sendBusy += nt.sendBusy
	}

	m.addPct("loadgen.late_p99_ms", append([]int64(nil), res.late...), 0.99, 1e6, "ms")
	m.add("loadgen.sent", float64(len(res.late)), "count")

	for s := subMembership; s < nSubsystems; s++ {
		name := "core." + subsystemNames[s]
		var in, out int64
		for ty := 1; ty < nTypes; ty++ {
			if subsystemOf(core.MsgType(ty)) == s {
				in += life.in[ty]
				out += life.out[ty]
			}
		}
		m.add(name+".msgs_in", float64(in), "count")
		m.add(name+".msgs_out", float64(out), "count")
		m.add(name+".handle_busy_s", float64(tot.handleBusy[s])/1e9, "s")
		m.addHist(name+".handle_p50_us", &t.handle[s], 0.50, 1e3, "us")
		m.addHist(name+".handle_p99_us", &t.handle[s], 0.99, 1e3, "us")
		if s == subMembership {
			m.addHist("core.subscribe.p50_us", &t.subscribe, 0.50, 1e3, "us")
		}
	}
	m.add("core.tick.busy_s", float64(tot.tickBusy)/1e9, "s")
	m.addHist("core.tick.p50_us", &t.tick, 0.50, 1e3, "us")
	m.addHist("core.tick.p99_us", &t.tick, 0.99, 1e3, "us")
	for ty := 1; ty < nTypes; ty++ {
		m.add("core.msgs_in."+core.MsgType(ty).String(), float64(life.in[ty]), "count")
	}
	for ty := 1; ty < nTypes; ty++ {
		m.add("core.msgs_out."+core.MsgType(ty).String(), float64(life.out[ty]), "count")
	}
	m.add("core.groups_per_node", res.state.groups, "count")
	m.add("core.view_entries_per_node", res.state.viewEntries, "count")

	replayFilters(&m, res)
	replayCodec(&m, res)

	var nodeBusy int64 // time inside the nodes, sends included
	for s := range tot.handleBusy {
		nodeBusy += tot.handleBusy[s]
	}
	for c := range tot.callBusy {
		nodeBusy += tot.callBusy[c]
	}
	nodeBusy += tot.tickBusy
	m.addHist("engine.send_p50_us", &t.send, 0.50, 1e3, "us")
	m.addHist("engine.send_p99_us", &t.send, 0.99, 1e3, "us")
	m.addHist("engine.transit_p50_us", &t.links.transit, 0.50, 1e3, "us")
	m.addHist("engine.transit_p99_us", &t.links.transit, 0.99, 1e3, "us")
	m.addHist("engine.tick_late_p99_ms", &t.late, 0.99, 1e6, "ms")
	m.add("engine.dropped", float64(life.dropped), "count")
	m.add("engine.excluded_links", float64(t.links.excludedLinks()), "count")
	m.add("engine.node_busy_share", ratio(float64(nodeBusy), float64(res.lifeWall)*float64(runtime.GOMAXPROCS(0))), "ratio")

	for _, name := range overheadOf {
		a, _ := res.e2e.get(name)
		b, _ := plain.e2e.get(name)
		m.add("trace.overhead."+name, a.Value-b.Value, a.Unit)
	}

	res.selfTimes = selfTimes(res, tot, nodeBusy)
	return m
}

// selfTimes tabulates, per layer, how many spans it had, the time they
// covered and their self time: the time not covered by child spans.
func selfTimes(res *result, tot nodeTrace, nodeBusy int64) []string {
	type row struct {
		layer      string
		spans      int64
		busy, self int64
	}
	var rows []row
	for s := subMembership; s < nSubsystems; s++ {
		rows = append(rows, row{"core." + subsystemNames[s], tot.handled[s], tot.handleBusy[s], tot.handleBusy[s] - tot.handleSend[s]})
	}
	rows = append(rows, row{"core.tick", tot.ticks, tot.tickBusy, tot.tickBusy - tot.tickSend})
	for c := spanName(0); c < nCalls; c++ {
		rows = append(rows, row{"core." + callNames[c], tot.calls[c], tot.callBusy[c], tot.callBusy[c] - tot.callSend[c]})
	}
	rows = append(rows, row{res.d.r.tracer.engine + ".send", tot.sends, tot.sendBusy, tot.sendBusy})
	cpu := int64(res.lifeCPU * 1e9)
	rows = append(rows, row{"outside the nodes (engine, runtime, benchmark)", 0, cpu, cpu - nodeBusy})
	if len(res.steps) > 0 {
		// The cycle engine's steps in the measured phase, per worker: the
		// part of a step no node accounts for is the engine's own work.
		steps := sum(res.steps)
		rows = append(rows, row{"sim.step (measured phase, per worker)", int64(len(res.steps)), steps, steps - res.stepsNodeBusy/simWorkers})
	}
	out := []string{fmt.Sprintf("  %-48s %10s %12s %12s", "layer", "spans", "busy_s", "self_s")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("  %-48s %10d %12.4f %12.4f", r.layer, r.spans, float64(r.busy)/1e9, float64(r.self)/1e9))
	}
	out = append(out, "  (busy is wall time inside the layer's spans, summed over nodes; the outside row is process CPU time)")
	if len(res.steps) > 0 {
		p50, ok := percentile(append([]int64(nil), res.steps...), 0.50)
		out = append(out, fmt.Sprintf("  sim.step p50 %.3f ms (n=%d, valid %v)", float64(p50)/1e6, len(res.steps), ok))
	}
	return out
}

func printSelfTimes(res *result) {
	fmt.Println("per-layer self time (traced pass):")
	for _, l := range res.selfTimes {
		fmt.Println(l)
	}
}

// replayBudget is how long each replay loop runs at least.
const replayBudget = 100 * time.Millisecond

// timeLoop runs body (which performs ops operations) until replayBudget
// has passed and returns ns per operation.
func timeLoop(ops int, body func()) float64 {
	if ops == 0 {
		return 0
	}
	start := time.Now()
	rounds := 0
	for time.Since(start) < replayBudget {
		body()
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*ops)
}

// allocsPer reports heap allocations per operation of one body run.
func allocsPer(ops int, body func()) float64 {
	if ops == 0 {
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	body()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(ops)
}

// sink keeps the replay loops' results alive.
var sink int

// replaySubs bounds the subscriptions the filter replay uses.
const replaySubs = 512

// replayFilters times filter matching of the workload's own events
// against its own subscriptions, and inclusion among its subscriptions'
// attribute filters.
func replayFilters(m *metrics, res *result) {
	var subs []filter.Subscription
	var afs []filter.AttrFilter
	for _, n := range res.d.nodes {
		for _, s := range n.subs {
			if len(subs) == replaySubs {
				break
			}
			subs = append(subs, s)
			if fs, err := filter.SubscriptionFilters(s); err == nil {
				afs = append(afs, fs[0])
			}
		}
	}
	evs := res.events
	match := func() {
		for _, ev := range evs {
			for _, s := range subs {
				if s.Matches(ev) {
					sink++
				}
			}
		}
	}
	incl := func() {
		for _, f := range afs {
			for _, g := range afs {
				if f.Includes(g) {
					sink++
				}
			}
		}
	}
	m.add("filter.match_ns", timeLoop(len(evs)*len(subs), match), "ns")
	m.add("filter.match_allocs", allocsPer(len(evs)*len(subs), match), "count")
	m.add("filter.includes_ns", timeLoop(len(afs)*len(afs), incl), "ns")
}

// replayCodec times the wire codec on the sample of messages the traced
// pass sent.
func replayCodec(m *metrics, res *result) {
	msgs := res.d.r.tracer.captured
	var frames [][]byte
	var bytes int
	for _, msg := range msgs {
		b, err := core.AppendMessage(nil, msg)
		if err != nil {
			continue
		}
		frames = append(frames, b)
		bytes += len(b)
	}
	buf := make([]byte, 0, 1<<12)
	enc := func() {
		for _, msg := range msgs {
			buf, _ = core.AppendMessage(buf[:0], msg)
		}
	}
	dec := func() {
		for _, f := range frames {
			if _, err := core.DecodeMessage(f); err == nil {
				sink++
			}
		}
	}
	perMsg := ratio(float64(bytes), float64(len(frames)))
	mpd, _ := res.e2e.get("msgs_per_delivery")
	m.add("codec.encode_ns", timeLoop(len(msgs), enc), "ns")
	m.add("codec.decode_ns", timeLoop(len(frames), dec), "ns")
	m.add("codec.decode_allocs", allocsPer(len(frames), dec), "count")
	m.add("codec.bytes_per_msg", perMsg, "bytes")
	m.add("codec.bytes_per_delivery", perMsg*mpd.Value, "bytes")
}

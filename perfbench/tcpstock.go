package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/workload"
)

// tcp-stock: 32 tcpnet nodes on loopback, Workload1 (stock quotes:
// selective filters, string prefixes), 2 subscriptions per node, a static
// population, open-loop publishes from random nodes at a nominal mean
// rate, then a loaded one, then up a short ladder of rates.
const (
	stockNodes   = 32
	stockPerNode = 2
	// stockLimitMS is the latency limit on p99 that a ladder rung must
	// meet to count as sustained.
	stockLimitMS = 10.0
)

// Rates in events/s, placed from the measured saturation of this
// workload, 4,000 to 6,000 events/s (EVIDENCE.md): the nominal rate is an
// eighth of its lower end, where latency is still flat, the loaded rate
// half of it, and the ladder brackets it so that max_rate_ok lands on an
// interior rung.
var (
	stockNominal = 500.0
	stockLoaded  = 2000.0
	stockLadder  = []float64{2000, 3000, 4000, 5000, 6000}
)

// Share of the measured time each part of the run gets.
const (
	stockNominalShare = 0.40
	stockLoadedShare  = 0.25
	stockLadderShare  = 0.35
)

func runTCPStock(o options) (*result, error) {
	spec := workload.Workload1()
	res, err := setUp(o, population{engine: "tcpnet", nodes: stockNodes, perNode: stockPerNode, batch: 25, spec: spec,
		newCluster: func(r *run) (cluster, error) { return newTCPCluster(r, populationSeed) }})
	if err != nil {
		return nil, err
	}
	d, r := res.d, res.d.r
	defer d.c.close()

	events := workload.MustGenerator(spec, o.seed^0x5eed)
	rng := rand.New(rand.NewSource(o.seed ^ 0x9b1d))
	var pubs []pub
	var late []int64
	nextID := core.EventID(1)
	phase := func(rate, secs float64, idx int) []pub {
		from := r.now() + int64(time.Millisecond)
		ops := poissonOps(nil, rng, from, from+int64(secs*float64(time.Second)), rate, opPublish, idx)
		start := len(pubs)
		late = append(late, openLoop(r, ops, func(_ int, op op) {
			n := d.nodes[rng.Intn(len(d.nodes))]
			p := pub{id: nextID, ev: events.Event(), due: op.due, phase: idx}
			nextID++
			p.at = r.now()
			_ = d.publish(n, p.id, p.ev) // an error is counted by exec
			pubs = append(pubs, p)
		})...)
		return pubs[start:]
	}

	before, err := d.totals()
	if err != nil {
		return nil, err
	}
	secs := o.seconds
	cpu := cpuSeconds()
	phase(stockNominal, secs*stockNominalShare, 0)
	phase(stockLoaded, secs*stockLoadedShare, 1)
	res.addCPU(cpuSeconds()-cpu, len(pubs))
	if err := d.settle(100); err != nil {
		return nil, err
	}
	// Costs per delivery are taken over the fixed-rate phases only: how
	// far the ladder climbs varies, and with it the share of background
	// traffic in its time.
	after, err := d.totals()
	if err != nil {
		return nil, err
	}
	fixed, err := judge(d, pubs, 2, nil)
	if err != nil {
		return nil, err
	}
	rungSecs := secs * stockLadderShare / float64(len(stockLadder))
	maxOK := 0.0
	for i, rate := range stockLadder {
		rungPubs := phase(rate, rungSecs, 2)
		if err := d.settle(100); err != nil {
			return nil, err
		}
		v, err := judge(d, rungPubs, 3, nil)
		if err != nil {
			return nil, err
		}
		ok, line := rungVerdict(rate, v, v.lat[2], stockLimitMS)
		res.report = append(res.report, line)
		if !ok {
			break
		}
		maxOK = rate
		if i == len(stockLadder)-1 {
			res.report = append(res.report, "ladder: every rung sustained; max_rate_ok is the top rung, not an interior one")
		}
	}
	if err := d.settle(300); err != nil {
		return nil, err
	}
	all, err := judge(d, pubs, 3, nil)
	if err != nil {
		return nil, err
	}
	res.addTraffic(fixed, after.minus(before), late, pubs)
	res.judgeRest(all, fixed)
	res.e2e.addPct("lat_p50_ms", fixed.lat[0], 0.50, 1e6, "ms")
	res.e2e.addPct("lat_p99_ms", fixed.lat[0], 0.99, 1e6, "ms")
	res.e2e.addPct("loaded_lat_p50_ms", fixed.lat[1], 0.50, 1e6, "ms")
	res.e2e.addPct("loaded_lat_p99_ms", fixed.lat[1], 0.99, 1e6, "ms")
	res.e2e.add("max_rate_ok", maxOK, "events/s")
	res.report = append(res.report, fmt.Sprintf("rates: nominal %.0f/s, loaded %.0f/s, ladder %v/s at %.2fs a rung, p99 limit %.0f ms",
		stockNominal, stockLoaded, stockLadder, rungSecs, stockLimitMS))
	return res, res.finish()
}

// rungVerdict decides whether one ladder rung was sustained: every
// expected pair delivered, p99 within the limit, and no growing backlog —
// the last quarter of the rung's publishes no slower at the median than
// the first quarter, beyond timer noise.
func rungVerdict(rate float64, v verdict, lat []int64, limitMS float64) (bool, string) {
	n := len(lat)
	if n < 8 {
		return false, fmt.Sprintf("ladder %6.0f/s: only %d samples", rate, n)
	}
	first := append([]int64(nil), lat[:n/4]...)
	last := append([]int64(nil), lat[n-n/4:]...)
	f50, _ := percentile(first, 0.5)
	l50, _ := percentile(last, 0.5)
	p99, valid := percentile(append([]int64(nil), lat...), 0.99)
	growing := float64(l50) > 1.5*float64(f50)+float64(time.Millisecond)
	ok := v.missed == 0 && v.falsePairs == 0 && valid && float64(p99)/1e6 <= limitMS && !growing
	return ok, fmt.Sprintf("ladder %6.0f/s: p99 %.3f ms (n=%d), median first/last quarter %.3f/%.3f ms, missed %d, sustained %v",
		rate, float64(p99)/1e6, n, float64(f50)/1e6, float64(l50)/1e6, v.missed, ok)
}

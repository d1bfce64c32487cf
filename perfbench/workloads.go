package main

// workloads.go owns the benchmark's traffic: the three workload
// definitions, their scenario specs for workload.Synthesize, and the
// wire-encoded request bodies the program under test receives.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why the workload exists, with its durability mode and node count.
	why string
	// jobTasks draws each job's task count.
	jobTasks workload.DistSpec
	// rate is the open-loop offered load in events per wall second; 0
	// selects a closed ingest loop.
	rate float64
	// closedRate sizes a closed loop: events = closedRate × seconds, about
	// one run's worth at this path's measured capacity.
	closedRate float64
	// wal serves through a nodes-node cluster.Recover root with
	// zero-valued wal.Options (fsync per append); otherwise one WAL-less
	// serve.Server serves.
	nodes int
	wal   bool
}

// queryRate is the query prober's fixed wall rate (probes per second),
// queryTasks the tasks asked per probe and queryWindow how many of the
// most recently registered jobs it cycles through, on every workload.
const (
	queryRate   = 500
	queryTasks  = 4
	queryWindow = 6
)

// An open-loop request carries the frames due within one openPeriod and
// is due at the period's start; a closed-loop request carries closedBatch
// frames.
const (
	openPeriod  = 2 * time.Millisecond
	closedBatch = 32
)

// maxLateness bounds the generator's own p99 lateness (send time minus
// the later of due time and the lane becoming free). A run above it is
// invalid: the generator fell behind its schedule, so the server was not
// offered the stated load.
const maxLateness = 10 * time.Millisecond

// warmup is the start of each run whose requests are sent but not timed:
// the heap, the refit workers and the connections settle first.
const warmup = 2 * time.Second

// rateMargin bounds how far an open loop's achieved ingest rate may fall
// below the offered rate before the run counts as backlogged.
const rateMargin = 0.05

var steadyTasks = workload.DistSpec{Dist: workload.DistLogNormal, Mu: math.Log(60), Sigma: 0.1, Min: 45, Max: 80}

var workloads = []workloadDef{
	{
		name:     "steady-http",
		why:      "open loop at ~1/5 of capacity, ~60-task jobs, 1 node, no WAL: fits run in the background, so ingest latency is HTTP + wire decode + event apply",
		jobTasks: steadyTasks,
		rate:     5600,
		nodes:    1,
	},
	{
		name:       "fit-saturate",
		why:        "closed loop with 250-300-task jobs, 1 node, no WAL: scratch refits bound throughput, so a fitting change shows here and a WAL change does not",
		jobTasks:   workload.DistSpec{Dist: workload.DistUniform, Min: 250, Max: 300},
		closedRate: 22000,
		nodes:      1,
	},
	{
		name:     "durable-cluster",
		why:      "open loop below capacity on 3 nodes with zero-valued wal.Options (fsync per ack): fsync sets ingest latency; the restart times WAL recovery",
		jobTasks: steadyTasks,
		rate:     1400,
		nodes:    3,
		wal:      true,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// spec is the workload's scenario: one job arriving every virtual second,
// each running six virtual seconds, so about six jobs stream at once and
// the mix of fits overlapping ingest is the same in every stretch of a run
// and on every seed. Every job has feature-visible stragglers (the "far"
// profile), so macro F1 guards the served verdicts instead of varying with
// the seed's share of feature-ambiguous jobs.
func (d *workloadDef) spec(seed uint64, duration float64) *workload.WorkloadSpec {
	return &workload.WorkloadSpec{
		Name:     d.name,
		Seed:     seed,
		Duration: duration,
		Trace:    "google",
		Clients: []workload.ClientSpec{{
			Name:        d.name,
			Arrival:     workload.ArrivalSpec{Process: workload.ArrivalConstant, Rate: 1},
			JobTasks:    d.jobTasks,
			JobDuration: workload.DistSpec{Dist: workload.DistConstant, Value: 6},
			FarFraction: 1,
		}},
	}
}

// targetEvents is how many events one run sends.
func (d *workloadDef) targetEvents(seconds float64) int {
	if d.rate > 0 {
		return int(d.rate * seconds)
	}
	return int(d.closedRate * seconds)
}

// traffic is a synthesized, truncated workload ready to send.
type traffic struct {
	wl     *workload.Workload
	events int
	jobs   []serve.JobSpec // registration order
}

// synthesize builds the run's traffic from the seed: the first jobs (in
// arrival order) whose events reach the target count. Open loops are then
// paced uniformly at d.rate.
func (d *workloadDef) synthesize(seed uint64, seconds float64) (*traffic, error) {
	target := d.targetEvents(seconds)
	if target < 1 {
		return nil, fmt.Errorf("run of %gs sends no events", seconds)
	}
	duration := 10.0
	for {
		wl, err := workload.Synthesize(d.spec(seed, duration))
		if err != nil {
			return nil, err
		}
		if wl.Events >= target {
			return d.truncate(wl, target), nil
		}
		// Grow the arrival window in proportion to the shortfall.
		duration *= 1.2 * float64(target) / float64(wl.Events+1)
	}
}

func (d *workloadDef) truncate(wl *workload.Workload, target int) *traffic {
	perJob := map[uint64]int{}
	for i := range wl.Items {
		if ev := wl.Items[i].Event; ev != nil {
			perJob[ev.JobID]++
		}
	}
	// Job IDs are arrival ranks: keep IDs 1..last.
	var last uint64
	for n := 0; n < target; {
		last++
		n += perJob[last]
	}
	tr := &traffic{wl: wl}
	kept := wl.Items[:0]
	for _, it := range wl.Items {
		switch {
		case it.Spec != nil && it.Spec.JobID <= last:
			tr.jobs = append(tr.jobs, *it.Spec)
		case it.Event != nil && it.Event.JobID <= last:
			tr.events++
		default:
			continue
		}
		kept = append(kept, it)
	}
	for id := range wl.Truth {
		if id > last {
			delete(wl.Truth, id)
		}
	}
	wl.Items, wl.Jobs, wl.Events = kept, len(tr.jobs), tr.events
	wl.Span = kept[len(kept)-1].At
	return tr
}

// request is one prepared ingest body.
type request struct {
	due    time.Duration // from run start (open loop only)
	body   []byte
	events int
	specs  int
}

// requests wire-encodes the traffic into ingest bodies, frames in timeline
// order. An open loop paces the frames uniformly so events go out at
// exactly rate per second, as the merged feed of many monitored jobs
// arrives, and sends each openPeriod's frames as one request; a closed
// loop sends closedBatch frames per request.
func (tr *traffic) requests(rate float64) ([]request, error) {
	items := tr.wl.Items
	var reqs []request
	for i := range items {
		it := &items[i]
		var due time.Duration
		if rate > 0 {
			// Specs ride between events: the whole stream spans
			// events/rate seconds.
			due = time.Duration(float64(i) / float64(len(items)) * float64(tr.events) / rate * float64(time.Second))
			due -= due % openPeriod
		}
		n := len(reqs)
		if n == 0 || (rate > 0 && due != reqs[n-1].due) || (rate == 0 && reqs[n-1].events+reqs[n-1].specs >= closedBatch) {
			reqs = append(reqs, request{due: due, body: serve.AppendHeader(nil)})
			n++
		}
		r := &reqs[n-1]
		var err error
		if r.body, err = workload.AppendItemWire(r.body, it, false); err != nil {
			return nil, err
		}
		if it.Spec != nil {
			r.specs++
		} else {
			r.events++
		}
	}
	return reqs, nil
}

package main

// check.go holds the correctness checks every run makes: served verdicts
// against ground truth (macro F1), a sample of jobs against an in-process
// sequential replay of the same events, and the restarted stack against
// the state it had before the restart.

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"reflect"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// macroF1 averages per-job F1 of the served verdicts against ground truth,
// summing in job order so equal verdicts give a bit-identical result.
func macroF1(reps map[uint64]*serve.JobReport, truth map[uint64][]bool) float64 {
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for _, id := range sortedIDs(reps) {
		sum += reps[id].Confusion(truth[id]).F1()
	}
	return sum / float64(len(truth))
}

// verdictDigest hashes every job's flagged tasks (ID → checkpoint), in job
// order, so two runs' verdicts compare as one number.
func verdictDigest(reps map[uint64]*serve.JobReport) uint64 {
	h := fnv.New64a()
	for _, id := range sortedIDs(reps) {
		tasks := make([]int, 0, len(reps[id].PredictedAt))
		for t := range reps[id].PredictedAt {
			tasks = append(tasks, t)
		}
		sort.Ints(tasks)
		fmt.Fprintf(h, "job %d:", id)
		for _, t := range tasks {
			fmt.Fprintf(h, " %d@%d", t, reps[id].PredictedAt[t])
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

func sortedIDs(reps map[uint64]*serve.JobReport) []uint64 {
	ids := make([]uint64, 0, len(reps))
	for id := range reps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkDone requires every job's report, each closed normally.
func checkDone(reps map[uint64]*serve.JobReport, jobs []serve.JobSpec) error {
	if len(reps) != len(jobs) {
		return fmt.Errorf("%d reports for %d jobs", len(reps), len(jobs))
	}
	for _, sp := range jobs {
		r := reps[sp.JobID]
		if !r.Done || r.Failed {
			return fmt.Errorf("job %d: done=%v failed=%v", sp.JobID, r.Done, r.Failed)
		}
	}
	return nil
}

// replay feeds the given items (specs and events, in timeline order) to a
// fresh in-process server one at a time and returns the drained reports:
// the sequential reference the served verdicts must equal.
func replay(items []workload.Item) (map[uint64]*serve.JobReport, error) {
	sv := serve.NewServer(serve.DefaultConfig())
	var ids []uint64
	for i := range items {
		it := &items[i]
		var err error
		if it.Spec != nil {
			err = sv.StartJob(*it.Spec, nil)
			ids = append(ids, it.Spec.JobID)
		} else {
			err = sv.Ingest(*it.Event)
		}
		if err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
	}
	s := &stack{node: sv}
	if err := s.drain(2 * time.Minute); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	out := make(map[uint64]*serve.JobReport, len(ids))
	for _, id := range ids {
		rep, err := sv.Report(id)
		if err != nil {
			return nil, err
		}
		out[id] = rep
	}
	return out, nil
}

// sampleJobs picks up to n job IDs spread evenly over the registration
// order.
func sampleJobs(jobs []serve.JobSpec, n int) map[uint64]bool {
	out := map[uint64]bool{}
	for i := 0; i < n && i < len(jobs); i++ {
		out[jobs[i*len(jobs)/min(n, len(jobs))].JobID] = true
	}
	return out
}

// itemsOf returns the items of the chosen jobs, in timeline order.
func itemsOf(items []workload.Item, ids map[uint64]bool) []workload.Item {
	var out []workload.Item
	for _, it := range items {
		id := uint64(0)
		if it.Spec != nil {
			id = it.Spec.JobID
		} else {
			id = it.Event.JobID
		}
		if ids[id] {
			out = append(out, it)
		}
	}
	return out
}

// checkReference compares the served verdicts of the reference jobs with
// their sequential replay.
func checkReference(served, ref map[uint64]*serve.JobReport) error {
	for id, want := range ref {
		got := served[id]
		if !reflect.DeepEqual(got.PredictedAt, want.PredictedAt) {
			return fmt.Errorf("job %d: served verdicts %v differ from the sequential replay's %v",
				id, got.PredictedAt, want.PredictedAt)
		}
	}
	return nil
}

// state is what a restart must preserve.
type state struct {
	jobs                  []uint64
	events, droppedEvents uint64
	reports               map[uint64]*serve.JobReport
}

func (s *stack) state(c *http.Client, jobs []serve.JobSpec) (*state, error) {
	reps, err := fetchReports(c, s.url, jobs)
	if err != nil {
		return nil, err
	}
	for _, r := range reps {
		// Fit durations are measured, not state.
		r.RefitTotal, r.RefitMax = 0, 0
	}
	st := s.stats()
	return &state{jobs: s.jobIDs(), events: st.Events, droppedEvents: st.DroppedEvents, reports: reps}, nil
}

// checkRestart requires the restarted stack to hold exactly the state the
// stack had before it.
func checkRestart(before, after *state) error {
	if !reflect.DeepEqual(before.jobs, after.jobs) {
		return fmt.Errorf("restart: job IDs %v, want %v", after.jobs, before.jobs)
	}
	if before.events != after.events || before.droppedEvents != after.droppedEvents {
		return fmt.Errorf("restart: %d events (%d dropped), want %d (%d dropped)",
			after.events, after.droppedEvents, before.events, before.droppedEvents)
	}
	for _, id := range sortedIDs(before.reports) {
		if !reflect.DeepEqual(before.reports[id], after.reports[id]) {
			return fmt.Errorf("restart: job %d report %+v, want %+v", id, after.reports[id], before.reports[id])
		}
	}
	return nil
}

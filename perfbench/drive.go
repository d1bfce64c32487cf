package main

// drive.go is the load generator: one ingest connection sending the
// prepared requests (open loop on their due times, or closed loop back to
// back) and one query connection probing verdicts open loop at queryRate.
// Every latency is measured from the request's due time, less the
// generator's own lateness (how long after the later of the due time and
// the lane's previous response it actually sent), and kept as a raw
// sample. The lateness is recorded apart, and bounded (maxLateness).
// Requests due in the first warmup of a run are sent but not timed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
)

// newClient returns a client that holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// load is what one run of the generator observed.
type load struct {
	ingestLat, queryLat, lateness []int64 // nanoseconds
	ingestReqs, queries           int
	failed                        int
	firstErr                      string
	ackedEvents, ackedSpecs       int
	shed, lost                    int
	start                         time.Time
	wall                          time.Duration // first due time to last ingest response
}

func (l *load) fail(format string, args ...any) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf(format, args...)
	}
}

// drive sends reqs to s and probes queries until the last ingest
// response. jobs lists the specs in registration order; the prober asks
// only about jobs whose registration has been acknowledged.
func drive(s *stack, reqs []request, open bool, jobs []serve.JobSpec, ingest, query *http.Client) *load {
	start := time.Now()
	l := &load{start: start}
	var registered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ql load
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe(s.url, query, jobs, &registered, start, stop, &ql)
	}()

	free := start
	for i := range reqs {
		r := &reqs[i]
		due := free // a closed loop sends as soon as the lane is free
		if open {
			due = start.Add(r.due)
			sleepUntil(due)
		}
		sent := time.Now()
		late := sent.Sub(later(due, free))
		res, status, err := post(ingest, s.url, r.body)
		free = time.Now()
		if due.Sub(start) >= warmup {
			l.ingestLat = append(l.ingestLat, int64(free.Sub(due)-late))
			if open {
				l.lateness = append(l.lateness, int64(late))
			}
		}
		l.ingestReqs++
		if err != nil {
			l.fail("ingest: %v", err)
			continue
		}
		l.ackedEvents += res.Events
		l.ackedSpecs += res.Specs
		l.shed += res.Shed
		if lost := r.events - res.Events - res.Shed; lost > 0 {
			l.lost += lost
		}
		if status != http.StatusOK || res.Specs != r.specs || res.Events != r.events {
			l.fail("ingest: status %d, %d/%d specs and %d/%d events applied: %s",
				status, res.Specs, r.specs, res.Events, r.events, res.Error)
		}
		registered.Store(int64(l.ackedSpecs))
	}
	l.wall = time.Since(start)
	close(stop)
	wg.Wait()
	l.queryLat, l.queries = ql.queryLat, ql.queries
	l.failed += ql.failed
	if l.firstErr == "" {
		l.firstErr = ql.firstErr
	}
	return l
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func post(c *http.Client, url string, body []byte) (servehttp.IngestResult, int, error) {
	var res servehttp.IngestResult
	resp, err := c.Post(url+"/ingest", "application/x-nurd-wire", bytes.NewReader(body))
	if err != nil {
		return res, 0, err
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return res, 0, err
	}
	if err := json.Unmarshal(msg, &res); err != nil {
		return res, resp.StatusCode, fmt.Errorf("decode ingest response: %w", err)
	}
	return res, resp.StatusCode, nil
}

// probe runs the open-loop query lane until stop closes: one verdict query
// every 1/queryRate seconds, round-robin over the queryWindow most
// recently registered jobs (the ones still streaming) and their tasks,
// timed from its due time.
func probe(url string, c *http.Client, jobs []serve.JobSpec, registered *atomic.Int64, start time.Time, stop <-chan struct{}, l *load) {
	period := time.Second / queryRate
	due, free := start, start
	for n := 0; ; n++ {
		due = due.Add(period)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		late := time.Since(later(due, free))
		reg := int(registered.Load())
		if reg == 0 {
			free = time.Now()
			continue
		}
		job := jobs[reg-1-n%min(reg, queryWindow)]
		ids := make([]string, queryTasks)
		for i := range ids {
			ids[i] = strconv.Itoa((n*queryTasks + i) % job.NumTasks)
		}
		resp, err := c.Get(fmt.Sprintf("%s/query?job=%d&tasks=%s", url, job.JobID, strings.Join(ids, ",")))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		free = time.Now()
		if due.Sub(start) >= warmup {
			l.queryLat = append(l.queryLat, int64(free.Sub(due)-late))
		}
		l.queries++
		if err != nil {
			l.fail("query: %v", err)
			continue
		}
		var vs []serve.TaskVerdict
		if resp.StatusCode != http.StatusOK {
			l.fail("query job %d: status %d: %s", job.JobID, resp.StatusCode, body)
		} else if err := json.Unmarshal(body, &vs); err != nil || len(vs) != queryTasks {
			l.fail("query job %d: %d verdicts for %d tasks (%v)", job.JobID, len(vs), queryTasks, err)
		}
	}
}

// fetchReports reads every job's report over the front.
func fetchReports(c *http.Client, url string, jobs []serve.JobSpec) (map[uint64]*serve.JobReport, error) {
	out := make(map[uint64]*serve.JobReport, len(jobs))
	for _, sp := range jobs {
		resp, err := c.Get(fmt.Sprintf("%s/report?job=%d", url, sp.JobID))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("report job %d: status %d: %s", sp.JobID, resp.StatusCode, body)
		}
		var rep serve.JobReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, fmt.Errorf("report job %d: %w", sp.JobID, err)
		}
		out[sp.JobID] = &rep
	}
	return out, nil
}

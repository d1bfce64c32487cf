package main

// layers.go turns a traced run's spans and sampled counters into the
// per-layer metrics. A metric whose layer is absent on the workload (the
// WAL without one, a percentile without ten samples beyond it) reads 0.

import "time"

// layers computes the per-layer metrics. Spans between runStart and runEnd
// (the load and its drain) belong to the measured run; WAL reads after restartStart to recovery.
func layers(spans []span, runStart, runEnd, restartStart int64, wt *watcher,
	nodeEvents []uint64, records int, l *load) map[string]float64 {
	self := selfTimes(spans)
	byKind := [numKinds][]span{}
	for _, s := range spans {
		inRun := s.start >= runStart && s.end <= runEnd
		if inRun || (s.kind == kWALRead && s.start >= restartStart) {
			byKind[s.kind] = append(byKind[s.kind], s)
		}
	}
	m := map[string]float64{}
	dur := func(k spanKind, unit time.Duration) samples {
		ns := make([]int64, len(byKind[k]))
		for i, s := range byKind[k] {
			ns[i] = s.dur()
		}
		return durations(ns, unit)
	}
	selfOf := func(k spanKind) samples {
		ns := make([]int64, len(byKind[k]))
		for i, s := range byKind[k] {
			ns[i] = self[s.id]
		}
		return durations(ns, time.Microsecond)
	}
	busy := func(k spanKind) float64 { return dur(k, time.Second).sum() }
	args := func(k spanKind) samples {
		out := make(samples, len(byKind[k]))
		for i, s := range byKind[k] {
			out[i] = float64(s.arg)
		}
		return out
	}
	pct := func(name string, s samples, q float64) {
		if v, ok := s.quantile(q); ok {
			m[name] = v
		} else {
			m[name] = 0
		}
	}

	pct("servehttp.ingest.p50_us", dur(kHTTPIngest, time.Microsecond), 0.50)
	pct("servehttp.ingest.p99_us", dur(kHTTPIngest, time.Microsecond), 0.99)
	pct("servehttp.ingest.self_us_p50", selfOf(kHTTPIngest), 0.50)
	pct("servehttp.query.p50_us", dur(kHTTPQuery, time.Microsecond), 0.50)

	m["serve.ingest.calls"] = float64(len(byKind[kServeIngest]))
	m["serve.ingest.busy_s"] = busy(kServeIngest)
	pct("serve.ingest.p50_us", dur(kServeIngest, time.Microsecond), 0.50)
	pct("serve.ingest.p99_us", dur(kServeIngest, time.Microsecond), 0.99)
	pct("serve.ingest.self_us_p50", selfOf(kServeIngest), 0.50)
	pct("serve.query.p50_us", dur(kServeQuery, time.Microsecond), 0.50)
	pct("serve.query.p99_us", dur(kServeQuery, time.Microsecond), 0.99)
	pct("serve.startjob.p50_us", dur(kServeStartJob, time.Microsecond), 0.50)

	m["serve.refit_queue_max"] = float64(wt.refitQueueMax)
	m["serve.refit_lag_max"] = float64(wt.refitLagMax)
	m["serve.inline_refits"] = float64(wt.inlineRefits)
	m["serve.shed"] = float64(wt.shed)

	m["nurd.fit.calls"] = float64(len(byKind[kFit]))
	m["nurd.fit.busy_s"] = busy(kFit)
	pct("nurd.fit.p50_ms", dur(kFit, time.Millisecond), 0.50)
	pct("nurd.fit.p90_ms", dur(kFit, time.Millisecond), 0.90)
	m["nurd.fit.rows_mean"] = args(kFit).mean()

	m["wal.write.calls"] = float64(len(byKind[kWALWrite]))
	m["wal.write.bytes"] = args(kWALWrite).sum()
	m["wal.write.busy_s"] = busy(kWALWrite)
	m["wal.sync.calls"] = float64(len(byKind[kWALSync]))
	pct("wal.sync.p50_us", dur(kWALSync, time.Microsecond), 0.50)
	pct("wal.sync.p99_us", dur(kWALSync, time.Microsecond), 0.99)
	m["wal.sync.busy_s"] = busy(kWALSync)
	if l.ackedEvents > 0 {
		m["wal.syncs_per_event"] = m["wal.sync.calls"] / float64(l.ackedEvents)
		m["wal.bytes_per_event"] = m["wal.write.bytes"] / float64(l.ackedEvents)
	}
	m["wal.read.bytes"] = args(kWALRead).sum()
	m["wal.read.busy_s"] = busy(kWALRead)

	var total, most uint64
	for _, n := range nodeEvents {
		total += n
		most = max(most, n)
	}
	if total > 0 {
		m["cluster.node_events_max_over_mean"] = float64(most) / (float64(total) / float64(len(nodeEvents)))
	}
	m["cluster.recover.records"] = float64(records)
	pct("loadgen.lateness_p99_ms", durations(l.lateness, time.Millisecond), 0.99)
	return m
}

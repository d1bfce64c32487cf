// Command perfbench is the serving benchmark: it runs one workload against
// the real HTTP front (servehttp.NewHandler on a loopback listener), checks
// the served outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is made twice in child processes, untraced and traced, and the
// metrics are the per-layer ones from the traced run plus the tracing
// overhead (traced ÷ untraced) of each end-to-end metric.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload steady-http --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"
)

// setupReps is how many times a run builds the stack to time its set-up;
// setup_s is their median.
const setupReps = 15

// referenceJobs is how many jobs per run are replayed sequentially
// in-process as the reference for the served verdicts.
const referenceJobs = 6

// buildDir holds everything a run writes, relative to the working
// directory (the repository root).
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: steady-http, fit-saturate or durable-cluster")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 15, "how long the run sends traffic")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		child   = flag.String("child", "", "run once, untraced or traced, and print the raw result (used by --trace 1)")
	)
	flag.Parse()
	def, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	switch {
	case *child != "":
		out, err := runOnce(def, *seed, *seconds, *child == "traced", os.Stderr)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fatal(err)
		}
	case *traced == 1:
		if err := traceMode(def, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		out, err := runOnce(def, *seed, *seconds, false, os.Stdout)
		if err != nil {
			fatal(err)
		}
		printResult(out.correct(), out.Attempted, out.Failed, out.Metrics, endToEnd)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runOut is one run's raw result.
type runOut struct {
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    uint64             `json:"digest"`
}

func (o *runOut) correct() bool { return len(o.Problems) == 0 && o.Failed == 0 }

func (o *runOut) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// runOnce makes one run of the workload and reports what it measured;
// human-readable lines go to w. An error means the run could not be made
// at all (no result is printed); failed checks are Problems.
func runOnce(def *workloadDef, seed uint64, seconds float64, traced bool, w io.Writer) (*runOut, error) {
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	open := def.rate > 0
	out := &runOut{Metrics: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// mark is the trace clock (0 untraced): it splits spans by phase.
	mark := func() int64 {
		if tr == nil {
			return 0
		}
		return tr.now()
	}
	// live is the stack serving at any moment, closed on an early return.
	var live *stack
	defer func() {
		if live != nil {
			live.close()
		}
	}()

	// Traffic, prepared before any clock starts.
	traf, err := def.synthesize(seed, seconds)
	if err != nil {
		return nil, err
	}
	reqs, err := traf.requests(def.rate)
	if err != nil {
		return nil, err
	}
	jobs, truth := traf.jobs, traf.wl.Truth
	refItems := itemsOf(traf.wl.Items, sampleJobs(jobs, referenceJobs))
	traf.wl = nil // only the encoded requests stay resident
	debug.FreeOSMemory()
	mode := "closed loop"
	if open {
		mode = fmt.Sprintf("open loop at %.0f events/s", def.rate)
	}
	fmt.Fprintf(w, "workload %s (seed %d, traced %v): %s; %d nodes, WAL %v\n  %s\n",
		def.name, seed, traced, mode, def.nodes, def.wal, def.why)
	fmt.Fprintf(w, "  %d jobs, %d events in %d ingest requests; queries at %d/s\n",
		len(jobs), traf.events, len(reqs), queryRate)

	walBase := ""
	if def.wal {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return nil, err
		}
		if walBase, err = os.MkdirTemp(buildDir, "wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walBase)
	}

	// Set-up, timed setupReps times; the last stack serves the run.
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if live != nil {
			if err := live.close(); err != nil {
				return nil, err
			}
		}
		c := newClient()
		st, d, err := timedSetup(def, tr, filepath.Join(walBase, fmt.Sprintf("setup-%d", i)), c)
		c.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		live = st
		setups = append(setups, d.Seconds())
	}
	s := live
	out.Metrics["setup_s"] = median(setups)

	ingestC, queryC := newClient(), newClient()
	defer ingestC.CloseIdleConnections()
	defer queryC.CloseIdleConnections()
	wt := watch(s, tr != nil)
	runStart := mark()
	l := drive(s, reqs, open, jobs, ingestC, queryC)
	reqs = nil
	out.Attempted = l.ingestReqs + l.queries
	out.Failed = l.failed
	if l.firstErr != "" {
		out.problem("first failure: %s", l.firstErr)
	}
	if l.lost > 0 {
		out.problem("lost_events = %d", l.lost)
	}
	if l.shed > 0 {
		out.problem("%d events shed", l.shed)
	}

	if err := s.drain(2 * time.Minute); err != nil {
		return nil, err
	}
	final := time.Since(l.start)
	runEnd := mark() // fits still running at the last ack belong to the run
	reps, err := fetchReports(queryC, s.url, jobs)
	if err != nil {
		return nil, err
	}
	if err := checkDone(reps, jobs); err != nil {
		out.problem("%v", err)
	}
	out.Digest = verdictDigest(reps)
	out.Metrics["macro_f1"] = macroF1(reps, truth)
	if err := wt.stop(); err != nil {
		return nil, err
	}
	out.Metrics["peak_rss_mb"] = wt.peakRSS

	// Latency, rate and validity of the load itself.
	latencyMetric(out, w, "ingest_p50_ms", l.ingestLat, 0.50)
	latencyMetric(out, w, "ingest_p99_ms", l.ingestLat, 0.99)
	latencyMetric(out, w, "query_p50_ms", l.queryLat, 0.50)
	latencyMetric(out, w, "query_p99_ms", l.queryLat, 0.99)
	achieved := float64(l.ackedEvents) / l.wall.Seconds()
	out.Metrics["events_per_s"] = float64(l.ackedEvents) / final.Seconds()
	fmt.Fprintf(w, "  events_per_s = %.1f (%d acked events over %.3fs until every verdict was final; acked over %.3fs)\n",
		out.Metrics["events_per_s"], l.ackedEvents, final.Seconds(), l.wall.Seconds())
	lateness, _ := durations(l.lateness, time.Millisecond).quantile(0.99)
	if open {
		fmt.Fprintf(w, "  generator lateness p99 = %.3fms over %d sends (bound %v)\n", lateness, len(l.lateness), maxLateness)
		if lateness > float64(maxLateness)/float64(time.Millisecond) {
			out.problem("invalid run: generator lateness p99 %.3fms above %v", lateness, maxLateness)
		}
		if achieved < def.rate*(1-rateMargin) {
			out.problem("backlogged: achieved %.0f events/s below offered %.0f by more than %.0f%%", achieved, def.rate, 100*rateMargin)
		}
	}

	// Served verdicts against a sequential in-process replay.
	ref, err := replay(refItems)
	if err != nil {
		return nil, err
	}
	if err := checkReference(reps, ref); err != nil {
		out.problem("%v", err)
	}

	// Restart, then everything acknowledged must be back.
	before, err := s.state(queryC, jobs)
	if err != nil {
		return nil, err
	}
	nodeEvents := s.nodeEvents()
	restartStart := mark()
	live = nil // restart closes s
	ns, recoverDur, err := s.restart(queryC)
	if err != nil {
		return nil, err
	}
	live = ns
	out.Metrics["recover_s"] = recoverDur.Seconds()
	after, err := ns.state(queryC, jobs)
	if err != nil {
		return nil, err
	}
	if err := checkRestart(before, after); err != nil {
		out.problem("%v", err)
	}
	records := ns.recoveredRecords()
	live = nil
	if err := ns.close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  setup_s = %.6f (median of %d set-ups)\n  recover_s = %.4f\n  macro_f1 = %.6f over %d jobs\n  peak_rss_mb = %.1f\n",
		out.Metrics["setup_s"], setupReps, out.Metrics["recover_s"], out.Metrics["macro_f1"], len(jobs), wt.peakRSS)

	if tr != nil {
		out.Layers = layers(tr.snapshot(), runStart, runEnd, restartStart, wt, nodeEvents, records, l)
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.csv", def.name, seed))
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  spans written to %s\n", path)
	}
	for _, p := range out.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	return out, nil
}

// latencyMetric reports a latency in milliseconds with its sample count:
// the median over the whole run, or a tail percentile as the median of the
// run's windows (see windowedQuantile). A percentile without ten samples
// beyond it fails the run.
func latencyMetric(out *runOut, w io.Writer, name string, ns []int64, q float64) {
	s := durations(ns, time.Millisecond)
	var v float64
	var ok bool
	if q == 0.5 {
		v, ok = s.quantile(q)
		fmt.Fprintf(w, "  %s = %.4f (n=%d)\n", name, v, len(ns))
	} else {
		var per []float64
		v, per, ok = s.windowedQuantile(q)
		fmt.Fprintf(w, "  %s = %.4f (median of %d windows of n>=%d, n=%d in all: %.3g)\n", name, v, len(per), len(ns)/len(per), len(ns), per)
	}
	if !ok {
		out.problem("%s: %d samples leave fewer than %d beyond the percentile", name, len(ns), minBeyond)
		v = 0
	}
	out.Metrics[name] = v
}

// traceMode runs the workload untraced and then traced, each in a child
// process of its own (so each has its own peak RSS), checks that tracing
// changed no verdict, and prints the traced run's per-layer metrics.
func traceMode(def *workloadDef, seed uint64, seconds float64) error {
	var runs [2]*runOut
	for i, mode := range []string{"untraced", "traced"} {
		out, err := runChild(def.name, seed, seconds, mode)
		if err != nil {
			return fmt.Errorf("%s run: %w", mode, err)
		}
		runs[i] = out
	}
	plain, traced := runs[0], runs[1]
	problems := append(append([]string(nil), plain.Problems...), traced.Problems...)
	if plain.Digest != traced.Digest || plain.Metrics["macro_f1"] != traced.Metrics["macro_f1"] {
		problems = append(problems, fmt.Sprintf("tracing changed the verdicts: digest %x vs %x, macro F1 %.6f vs %.6f",
			plain.Digest, traced.Digest, plain.Metrics["macro_f1"], traced.Metrics["macro_f1"]))
	}
	metrics := traced.Layers
	metrics["loadgen.ingest_p99_ms"] = plain.Metrics["ingest_p99_ms"]
	metrics["loadgen.query_p99_ms"] = plain.Metrics["query_p99_ms"]
	for _, m := range endToEnd {
		ratio := traced.Metrics[m.name] / plain.Metrics[m.name]
		metrics[overheadName(m.name)] = ratio
		fmt.Printf("  %s = %.4f (traced %.6g / untraced %.6g)\n", overheadName(m.name), ratio, traced.Metrics[m.name], plain.Metrics[m.name])
	}
	for _, m := range perLayer {
		fmt.Printf("  %s = %.6g %s (moves %s)\n", m.name, metrics[m.name], m.unit, m.moves)
	}
	for _, p := range problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	ok := len(problems) == 0 && plain.Failed == 0 && traced.Failed == 0
	printResult(ok, plain.Attempted+traced.Attempted, plain.Failed+traced.Failed, metrics, perLayerAll())
	return nil
}

// runChild runs this binary once in the given mode and decodes its result.
func runChild(workload string, seed uint64, seconds float64, mode string) (*runOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--child", mode)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stdout
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var out runOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("decode child result: %w", err)
	}
	return &out, nil
}

// printResult prints the final JSON line with the listed metrics.
func printResult(correct bool, attempted, failed int, values map[string]float64, defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range defs {
		res.Metrics[m.name] = value{values[m.name], m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

package main

// trace.go records spans around the public entry points of each layer of
// the serving stack, from wrappers this benchmark owns: the HTTP handler
// (servehttp), the Backend it drives (serve, or the cluster router), the
// per-job predictor built by Config.NewPredictor (nurd fits), and the WAL's
// filesystem (wal). The wrappers are transparent: they forward every
// method the stack type-asserts, so a traced run serves the same verdicts
// as an untraced one (the benchmark checks this).
//
// Spans stay in memory, each with the ID of the span that caused it, and
// are written out when the run ends. Parent links rely on the benchmark's
// traffic shape: one ingest connection, so at most one ingest request and
// one serve call under it are open at a time, all on one goroutine. A fit
// or WAL operation on that goroutine is a child of the open serve call;
// on any other goroutine (refit workers, recovery) it is a root span.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nurd"
	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/wal"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kHTTPIngest spanKind = iota
	kHTTPQuery
	kServeIngest
	kServeStartJob
	kServeQuery
	kFit
	kWALWrite
	kWALSync
	kWALRead
	numKinds
)

var kindNames = [numKinds]string{
	"servehttp.ingest", "servehttp.query",
	"serve.ingest", "serve.startjob", "serve.query",
	"nurd.fit",
	"wal.write", "wal.sync", "wal.read",
}

// span is one timed call. Times are nanoseconds since the tracer started;
// arg carries the call's size (bytes for WAL calls, training rows for fits).
type span struct {
	id, parent uint64
	kind       spanKind
	start, end int64
	arg        int64
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// The open spans of the two client lanes (0 = none open).
	ingestGID   atomic.Int64  // goroutine serving the ingest connection
	ingestHTTP  atomic.Uint64 // open /ingest request
	ingestServe atomic.Uint64 // open serve call under it
	queryHTTP   atomic.Uint64 // open /query request
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin() (uint64, int64) { return t.nextID.Add(1), t.now() }

func (t *tracer) record(s span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ingestParent is the parent for a span that may run inside an ingest
// call: the open serve call when on the ingest goroutine, else none.
func (t *tracer) ingestParent() uint64 {
	if goid() == t.ingestGID.Load() {
		return t.ingestServe.Load()
	}
	return 0
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one CSV line: id,parent,kind,start_ns,end_ns,arg.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,kind,start_ns,end_ns,arg")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.id, s.parent, kindNames[s.kind], s.start, s.end, s.arg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max64(k.start, p.start), min64(k.end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max64(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// handler wraps the HTTP front: one span per /ingest or /query request,
// recorded as the lane's open span while the request runs.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind spanKind
		var open *atomic.Uint64
		switch r.URL.Path {
		case "/ingest":
			kind, open = kHTTPIngest, &t.ingestHTTP
			t.ingestGID.Store(goid())
		case "/query":
			kind, open = kHTTPQuery, &t.queryHTTP
		default:
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.begin()
		open.Store(id)
		h.ServeHTTP(w, r)
		open.Store(0)
		t.record(span{id: id, kind: kind, start: start})
	})
}

// tracedBackend wraps the Backend the HTTP front drives.
type tracedBackend struct {
	servehttp.Backend
	t *tracer
}

// tracedSnapBackend adds the optional Snapshot surface for backends that
// have it, so the front's /snapshot route behaves as without tracing.
type tracedSnapBackend struct {
	*tracedBackend
	snap interface{ Snapshot(io.Writer) error }
}

func (b tracedSnapBackend) Snapshot(w io.Writer) error { return b.snap.Snapshot(w) }

func (t *tracer) backend(inner servehttp.Backend) servehttp.Backend {
	b := &tracedBackend{Backend: inner, t: t}
	if s, ok := inner.(interface{ Snapshot(io.Writer) error }); ok {
		return tracedSnapBackend{tracedBackend: b, snap: s}
	}
	return b
}

func (b *tracedBackend) ingestCall(kind spanKind, call func() error) error {
	id, start := b.t.begin()
	b.t.ingestServe.Store(id)
	err := call()
	b.t.ingestServe.Store(0)
	b.t.record(span{id: id, parent: b.t.ingestHTTP.Load(), kind: kind, start: start})
	return err
}

func (b *tracedBackend) StartJob(spec serve.JobSpec, pred simulator.Predictor) error {
	return b.ingestCall(kServeStartJob, func() error { return b.Backend.StartJob(spec, pred) })
}

func (b *tracedBackend) Ingest(e serve.Event) error {
	return b.ingestCall(kServeIngest, func() error { return b.Backend.Ingest(e) })
}

func (b *tracedBackend) Query(jobID uint64, taskIDs []int) ([]serve.TaskVerdict, error) {
	id, start := b.t.begin()
	vs, err := b.Backend.Query(jobID, taskIDs)
	b.t.record(span{id: id, parent: b.t.queryHTTP.Load(), kind: kServeQuery, start: start})
	return vs, err
}

// nurdPredictor is what serve type-asserts on a job's predictor besides
// simulator.Predictor: the published model for query-time predictions and
// the warm/scratch fit split for Stats.
type nurdPredictor interface {
	simulator.Predictor
	Model() *nurd.Model
	RefitCounts() (warm, scratch uint64)
}

// tracedPredictor records one span per fit (Predict call).
type tracedPredictor struct {
	nurdPredictor
	t *tracer
}

func (p tracedPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	id, start := p.t.begin()
	parent := p.t.ingestParent()
	v, err := p.nurdPredictor.Predict(cp)
	p.t.record(span{id: id, parent: parent, kind: kFit, start: start, arg: int64(len(cp.FinishedIDs))})
	return v, err
}

// predictorFactory wraps a Config.NewPredictor factory.
func (t *tracer) predictorFactory(inner func(serve.JobSpec) simulator.Predictor) func(serve.JobSpec) simulator.Predictor {
	return func(spec serve.JobSpec) simulator.Predictor {
		p, ok := inner(spec).(nurdPredictor)
		if !ok {
			panic("perfbench: the serving predictor no longer exposes Model and RefitCounts")
		}
		return tracedPredictor{nurdPredictor: p, t: t}
	}
}

// tracedFS wraps wal.OSFS: spans for every segment write and fsync, and
// for every read during recovery.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (t *tracer) fs() wal.FS { return tracedFS{FS: wal.OSFS, t: t} }

func (fs tracedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: f, t: fs.t}, nil
}

func (fs tracedFS) Open(name string) (io.ReadCloser, error) {
	rc, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return tracedReader{ReadCloser: rc, t: fs.t}, nil
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	id, start := f.t.begin()
	parent := f.t.ingestParent()
	n, err := f.File.Write(p)
	f.t.record(span{id: id, parent: parent, kind: kWALWrite, start: start, arg: int64(n)})
	return n, err
}

func (f tracedFile) Sync() error {
	id, start := f.t.begin()
	parent := f.t.ingestParent()
	err := f.File.Sync()
	f.t.record(span{id: id, parent: parent, kind: kWALSync, start: start})
	return err
}

type tracedReader struct {
	io.ReadCloser
	t *tracer
}

func (r tracedReader) Read(p []byte) (int, error) {
	id, start := r.t.begin()
	n, err := r.ReadCloser.Read(p)
	r.t.record(span{id: id, kind: kWALRead, start: start, arg: int64(n)})
	return n, err
}

package main

// stack.go builds the serving stack under test — a serve.Server or a
// cluster.Cluster behind servehttp.NewHandler on a loopback listener — and
// restarts it the way the workload's durability mode allows.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/wal"
)

// stack is one running serving stack.
type stack struct {
	def     *workloadDef
	tr      *tracer // nil when untraced
	walRoot string  // WAL root directory ("" without a WAL)

	backend servehttp.Backend // what the front drives (wrapped when traced)
	node    *serve.Server     // set for a WAL-less single node
	cl      *cluster.Cluster  // set for a WAL-backed cluster
	recov   []serve.RecoveryStats

	srv    *http.Server
	served chan struct{} // closed when srv.Serve returns
	url    string
}

// serveConfig is the default serving configuration, with the traced
// predictor factory in a traced run.
func serveConfig(tr *tracer) serve.Config {
	cfg := serve.DefaultConfig()
	if tr != nil {
		cfg.NewPredictor = tr.predictorFactory(cfg.NewPredictor)
	}
	return cfg
}

func walOptions(tr *tracer) wal.Options {
	var opts wal.Options // zero-valued: fsync every append
	if tr != nil {
		opts.FS = tr.fs()
	}
	return opts
}

// openStack builds the stack and serves it. For a WAL workload it recovers
// (or creates) the cluster rooted at walRoot. restored, when non-nil, is a
// snapshot the single node starts from.
func openStack(d *workloadDef, tr *tracer, walRoot string, restored io.Reader) (*stack, error) {
	s := &stack{def: d, tr: tr, walRoot: walRoot}
	cfg := serveConfig(tr)
	switch {
	case d.wal:
		for i := 0; i < d.nodes; i++ {
			if err := os.MkdirAll(cluster.NodeDir(walRoot, i), 0o755); err != nil {
				return nil, err
			}
		}
		cl, rst, err := cluster.Recover(walRoot, d.nodes, cfg, walOptions(tr))
		if err != nil {
			return nil, err
		}
		s.cl, s.recov, s.backend = cl, rst, cl
	case restored != nil:
		sv, err := serve.RestoreServer(restored, cfg)
		if err != nil {
			return nil, err
		}
		s.node, s.backend = sv, sv
	default:
		s.node = serve.NewServer(cfg)
		s.backend = s.node
	}
	var h http.Handler
	if tr != nil {
		s.backend = tr.backend(s.backend)
		h = tr.handler(servehttp.NewHandler(s.backend))
	} else {
		h = servehttp.NewHandler(s.backend)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeBackend()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// firstResponse waits until the front answers GET /stats.
func (s *stack) firstResponse(c *http.Client) error {
	resp, err := c.Get(s.url + "/stats")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	return nil
}

// close stops the HTTP server (waiting for its goroutine) and closes the
// WALs.
func (s *stack) close() error {
	err := s.srv.Close()
	<-s.served
	if cerr := s.closeBackend(); err == nil {
		err = cerr
	}
	return err
}

func (s *stack) closeBackend() error {
	if s.cl != nil {
		return s.cl.Close()
	}
	return nil
}

// stats returns the untraced backend's counters.
func (s *stack) stats() serve.Stats {
	if s.cl != nil {
		return s.cl.Stats()
	}
	return s.node.Stats()
}

// nodeEvents returns each node's ingested event count.
func (s *stack) nodeEvents() []uint64 {
	if s.cl == nil {
		return []uint64{s.node.Stats().Events}
	}
	var out []uint64
	for _, st := range s.cl.NodeStats() {
		out = append(out, st.Events)
	}
	return out
}

// jobIDs lists the registered jobs.
func (s *stack) jobIDs() []uint64 {
	if s.cl != nil {
		return s.cl.JobIDs()
	}
	return s.node.JobIDs()
}

// drain waits until every job has finished and no refit is queued,
// running or captured but unapplied: the served verdicts are final.
func (s *stack) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := s.stats()
		if st.ActiveJobs == 0 && st.RefitLag == 0 && st.RefitQueue == 0 && st.RefitInflight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not drained after %v: active=%d refit lag=%d queue=%d inflight=%d",
				timeout, st.ActiveJobs, st.RefitLag, st.RefitQueue, st.RefitInflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// timedSetup builds and serves a stack and returns the time until it
// answered its first request.
func timedSetup(d *workloadDef, tr *tracer, walRoot string, c *http.Client) (*stack, time.Duration, error) {
	t0 := time.Now()
	s, err := openStack(d, tr, walRoot, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := s.firstResponse(c); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// restart stops s and brings the same state back the way the workload's
// durability mode allows: WAL recovery for a durable cluster, or a
// /snapshot taken over the front and restored for a WAL-less node. It
// returns the new stack and the time from the start of the restart (the
// snapshot request, or recovery after the close) until the new stack
// answered a request with every model caught up. s is closed either way.
func (s *stack) restart(c *http.Client) (*stack, time.Duration, error) {
	t0 := time.Now()
	var snap io.Reader
	if !s.def.wal {
		b, err := s.snapshot(c)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		snap = bytes.NewReader(b)
	}
	if err := s.close(); err != nil {
		return nil, 0, fmt.Errorf("close before restart: %w", err)
	}
	if s.def.wal {
		t0 = time.Now()
	}
	ns, err := openStack(s.def, s.tr, s.walRoot, snap)
	if err != nil {
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	if err := ns.firstResponse(c); err != nil {
		ns.close()
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	if err := ns.drain(2 * time.Minute); err != nil {
		ns.close()
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	return ns, time.Since(t0), nil
}

// snapshot fetches the node's snapshot over the front.
func (s *stack) snapshot(c *http.Client) ([]byte, error) {
	resp, err := c.Get(s.url + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /snapshot: status %d", resp.StatusCode)
	}
	return b, err
}

// recoveredRecords sums the WAL records the last recovery applied (0
// without a WAL).
func (s *stack) recoveredRecords() int {
	n := 0
	for _, r := range s.recov {
		n += r.RecordsApplied
	}
	return n
}

package main

// watch.go polls the running process while a run is measured.

import (
	"bufio"
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// watcher polls every 10 ms until stopped: the process's resident set size
// always, and in a traced run also the stack's refit-pipeline gauges (an
// untraced run does no work beyond serving and sending).
type watcher struct {
	done chan struct{}
	wg   sync.WaitGroup
	err  error

	peakRSS                    float64 // MB
	refitQueueMax, refitLagMax int
	inlineRefits, shed         uint64
}

func watch(s *stack, gauges bool) *watcher {
	wt := &watcher{done: make(chan struct{})}
	wt.wg.Add(1)
	go func() {
		defer wt.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				wt.err = err
				return
			}
			wt.peakRSS = math.Max(wt.peakRSS, mb)
			if gauges {
				st := s.stats()
				wt.refitQueueMax = max(wt.refitQueueMax, st.RefitQueue)
				wt.refitLagMax = max(wt.refitLagMax, st.RefitLag)
				wt.inlineRefits = st.Overload.InlineRefits
				wt.shed = st.Overload.ShedHeartbeats
			}
			select {
			case <-wt.done:
				return
			case <-tick.C:
			}
		}
	}()
	return wt
}

// stop takes a last sample and waits for the poller.
func (wt *watcher) stop() error {
	close(wt.done)
	wt.wg.Wait()
	return wt.err
}

// rssMB reads the process's current resident set size.
func rssMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

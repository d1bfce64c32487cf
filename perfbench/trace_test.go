package main

import (
	"sync"
	"testing"
)

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		// Children overlapping each other count once: [10,40) ∪ [30,50).
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},
		// A child sticking out of its parent counts only inside it.
		{id: 4, parent: 1, start: 90, end: 120},
		// A grandchild is its parent's, not the root's.
		{id: 5, parent: 2, start: 15, end: 20},
		{id: 6, start: 200, end: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 30, 5: 5, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	p := span{start: 0, end: 100}
	kids := []span{{start: 60, end: 70}, {start: 0, end: 10}, {start: 62, end: 65}, {start: 100, end: 110}}
	if got := covered(p, kids); got != 20 {
		t.Errorf("covered %d, want 20", got)
	}
	if got := covered(p, nil); got != 0 {
		t.Errorf("no children: covered %d", got)
	}
}

// Spans on another goroutine than the ingest lane's are roots; on the
// lane, children of its open serve call.
func TestIngestParentByGoroutine(t *testing.T) {
	tr := newTracer()
	tr.ingestGID.Store(goid())
	tr.ingestServe.Store(7)
	if got := tr.ingestParent(); got != 7 {
		t.Errorf("on the ingest goroutine: parent %d, want 7", got)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var other uint64
	go func() {
		defer wg.Done()
		other = tr.ingestParent()
	}()
	wg.Wait()
	if other != 0 {
		t.Errorf("on another goroutine: parent %d, want 0", other)
	}
}

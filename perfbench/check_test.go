package main

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The served macro F1 of the built-in steady scenario at seed 42 is a known
// constant, the same with the WAL on or off and on one node or three; the
// benchmark's scoring must reproduce it.
func TestSteadySeed42MacroF1(t *testing.T) {
	ws, ok := workload.Builtin("steady")
	if !ok {
		t.Fatal("no built-in steady scenario")
	}
	ws.Seed = 42
	wl, err := workload.Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := replay(wl.Items)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.6f", macroF1(reps, wl.Truth)); got != "0.616085" {
		t.Errorf("one node, no WAL: macro F1 %s, want 0.616085", got)
	}
	for _, nodes := range []int{1, 3} {
		root := t.TempDir()
		for i := 0; i < nodes; i++ {
			if err := os.MkdirAll(cluster.NodeDir(root, i), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		cl, _, err := cluster.Recover(root, nodes, serve.DefaultConfig(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wl.Items {
			it := &wl.Items[i]
			if it.Spec != nil {
				err = cl.StartJob(*it.Spec, nil)
			} else {
				err = cl.Ingest(*it.Event)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := (&stack{cl: cl}).drain(time.Minute); err != nil {
			t.Fatal(err)
		}
		reps := map[uint64]*serve.JobReport{}
		for id := range wl.Truth {
			if reps[id], err = cl.Report(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.6f", macroF1(reps, wl.Truth)); got != "0.616085" {
			t.Errorf("%d nodes with WAL: macro F1 %s, want 0.616085", nodes, got)
		}
	}
}

// The traced predictor must forward Model and RefitCounts: without them
// queries lose their Prediction and Stats the scratch/warm split. Queries
// along the stream must answer exactly as without tracing.
func TestTracedPredictorTransparent(t *testing.T) {
	d, err := findWorkload("steady-http")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Synthesize(d.spec(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]int, 80)
	for i := range tasks {
		tasks[i] = i
	}
	run := func(sv *serve.Server) (answers [][]serve.TaskVerdict, predictions int) {
		for i := range wl.Items {
			it := &wl.Items[i]
			if it.Spec != nil {
				err = sv.StartJob(*it.Spec, nil)
			} else {
				err = sv.Ingest(*it.Event)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%25 != 0 {
				continue
			}
			for _, id := range sv.JobIDs() {
				v, err := sv.Query(id, tasks)
				if err != nil {
					t.Fatal(err)
				}
				for _, tv := range v {
					if tv.Prediction != nil {
						predictions++
					}
				}
				answers = append(answers, v)
			}
		}
		return answers, predictions
	}
	plain := serve.NewServer(serveConfig(nil))
	traced := serve.NewServer(serveConfig(newTracer()))
	want, wantPred := run(plain)
	got, gotPred := run(traced)
	if !reflect.DeepEqual(got, want) {
		t.Error("traced answers differ from untraced ones")
	}
	if wantPred == 0 || gotPred != wantPred {
		t.Errorf("%d traced answers carry a Prediction, %d untraced: Model() is not forwarded", gotPred, wantPred)
	}
	if st := traced.Stats(); st.ScratchFits == 0 || st.ScratchFits != plain.Stats().ScratchFits {
		t.Errorf("traced scratch fits %d, untraced %d: RefitCounts() is not forwarded", st.ScratchFits, plain.Stats().ScratchFits)
	}
}

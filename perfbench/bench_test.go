package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"atlarge"
	"atlarge/internal/sched"
)

// tinyConfig shrinks every component so a whole run takes seconds.
func tinyConfig(t *testing.T) config {
	t.Helper()
	reg := atlarge.NewRegistry()
	for _, id := range []string{"fig3", "fig9", "bdc"} {
		e, err := atlarge.DefaultRegistry().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	cfg := defaultConfig(1)
	cfg.Registry = reg
	cfg.OverloadClients, cfg.OverloadN, cfg.OverloadSeeds = 50, 40, 2
	cfg.StreamClients, cfg.StreamJobs = 1000, 2000
	cfg.ServeRate = 100
	cfg.SetupTrials = 2
	return cfg
}

// tinyRefs records the tiny configuration's outputs for one input set.
func tinyRefs(t *testing.T, cfg config, class int64) map[string]string {
	t.Helper()
	p := newPass(cfg, wCatalog, class, nil, false)
	p.record = map[string]string{}
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	return p.record
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					what, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer(catalogIDs(nil)))
	for _, w := range bf.Work {
		if !slices.Contains(components, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, components)
		}
	}
}

func TestRefsCoverEveryInputSet(t *testing.T) {
	cfg := defaultConfig(1)
	for class := int64(0); class < refClasses; class++ {
		refs, err := loadRefs(class)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := 0; k < catalogRuns; k++ {
			keys = append(keys, fmt.Sprintf("catalog/%d", class*catalogRuns+int64(k)))
		}
		for _, pol := range overloadPolicies {
			for k := 0; k < cfg.OverloadSeeds; k++ {
				for _, n := range []int{cfg.OverloadN, 4 * cfg.OverloadN} {
					keys = append(keys, fmt.Sprintf("overload/%s/p%d/%d", pol.name, k, n))
				}
			}
		}
		for k := 0; k < streamSeeds; k++ {
			for _, pol := range streamPolicies {
				keys = append(keys, fmt.Sprintf("stream/%s/p%d/%d", pol, k, cfg.StreamJobs))
			}
		}
		for _, k := range keys {
			if refs[k] == "" {
				t.Errorf("input set %d: no reference for %s", class, k)
			}
		}
	}
}

// TestTinyRunEmitsEveryMetric runs the whole suite at a tiny size, untraced
// and traced, and checks that every metric is reported with its unit and
// every check passes.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite")
	}
	cfg := tinyConfig(t)
	refs := tinyRefs(t, cfg, 3)
	for _, traced := range []bool{false, true} {
		for _, home := range []string{wOverload, wServe} {
			out, err := execute(cfg, home, 3, traced, refs)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					home, traced, out.Correct, out.Attempted, out.Failed, out.errs)
			}
			for _, d := range out.defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", home, traced, d.name, m, d.unit)
				}
			}
			if len(out.Metrics) != len(out.defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", home, traced, len(out.Metrics), len(out.defs))
			}
			if traced && (out.trace == nil || len(out.trace.Spans) == 0 || out.trace.SelfS["sched"] <= 0) {
				t.Errorf("%s: traced run recorded no sched spans", home)
			}
		}
	}
}

// TestCorruptOutputFails checks that an output differing from its reference
// is counted as failed and its time is not reported.
func TestCorruptOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite")
	}
	cfg := tinyConfig(t)
	refs := tinyRefs(t, cfg, 5)
	for key, metric := range map[string]string{
		"catalog/16":               "catalog_s",
		"overload/sjf/p1/160":      "overload_sjf_jobs_per_s",
		"overload/fairshare/p0/40": "overload_cost_growth",
		"stream/fairshare/p1/2000": "stream_jobs_per_s",
	} {
		bad := map[string]string{}
		for k, v := range refs {
			bad[k] = v
		}
		if _, ok := bad[key]; !ok {
			t.Fatalf("no reference %s among %v", key, refs)
		}
		bad[key] = "corrupted"
		out, err := execute(cfg, wCatalog, 5, false, bad)
		if err != nil {
			t.Fatal(err)
		}
		if out.Correct || out.Failed == 0 {
			t.Errorf("%s corrupted: correct=%v failed=%d", key, out.Correct, out.Failed)
		}
		if _, ok := out.Metrics[metric]; ok {
			t.Errorf("%s corrupted: %s still reported", key, metric)
		}
	}
}

// TestTasksSpreadOverRounds checks that every component has a task in the
// rounds it should, so each metric samples the whole run.
func TestTasksSpreadOverRounds(t *testing.T) {
	cfg := defaultConfig(1)
	p := newPass(cfg, wOverload, 0, map[string]string{}, false)
	for _, c := range []*component{p.catalog(), p.overload(), p.stream(), p.serve()} {
		if len(c.tasks) != rounds {
			t.Fatalf("%s: %d tasks for %d rounds", c.name, len(c.tasks), rounds)
		}
		var in []int
		for r, task := range c.tasks {
			if task != nil {
				in = append(in, r)
			}
		}
		want := rounds
		if c.name == wCatalog {
			want = catalogRuns
		}
		if len(in) != want || in[0] != 0 || in[len(in)-1] < rounds/2 {
			t.Errorf("%s runs in rounds %v of %d", c.name, in, rounds)
		}
	}
}

func TestShortCompletedFails(t *testing.T) {
	p := newPass(defaultConfig(1), wOverload, 0, map[string]string{}, false)
	res := &sched.Result{Completed: 99}
	p.record = map[string]string{} // the reference is not what fails
	if err := p.checkSched("overload/fcfs/p0/100", res, nil, 100); err == nil {
		t.Fatal("a run completing 99 of 100 jobs passed its check")
	}
	if err := p.checkSched("overload/fcfs/p0/100", &sched.Result{Completed: 100}, nil, 100); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRunDoc(t *testing.T) {
	good := `{"seed": 9, "experiments": [{"id": "fig3", "report": {}}, {"id": "tab7", "report": {}}]}`
	if err := checkRunDoc([]byte(good), "miss", "fig3,tab7", 9); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		body, cache string
	}{
		"hit":        {good, "hit"},
		"wrong seed": {`{"seed": 8, "experiments": [{"id": "fig3", "report": {}}, {"id": "tab7", "report": {}}]}`, "miss"},
		"missing":    {`{"seed": 9, "experiments": [{"id": "fig3", "report": {}}]}`, "miss"},
		"no report":  {`{"seed": 9, "experiments": [{"id": "fig3", "report": {}}, {"id": "tab7", "report": null}]}`, "miss"},
		"wrong id":   {`{"seed": 9, "experiments": [{"id": "fig3", "report": {}}, {"id": "tab8", "report": {}}]}`, "miss"},
		"garbage":    {`{"seed": 9, "experiments": [`, "miss"},
	} {
		if err := checkRunDoc([]byte(c.body), c.cache, "fig3,tab7", 9); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 89 || pct != 90 {
		t.Fatalf("tail = %v p%v %v, want 89 p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples has none beyond it")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "b", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "b", Start: 40, End: 60}, // overlaps span 2
	}
	got := selfTimes(spans)
	if math.Abs(got["a"]-50e-9) > 1e-15 || math.Abs(got["b"]-60e-9) > 1e-15 {
		t.Fatalf("self times %v, want a=50ns b=60ns", got)
	}
}

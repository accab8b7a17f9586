// Command perfbench is the end-to-end benchmark of atlarge. One run
// executes four components against the program's public entry points —
// the experiment catalog (atlarge.Runner), a saturated and a
// million-client streamed scheduler (workload.Population.Source +
// sched.Simulator.RunSource) and the HTTP API (api.New on loopback) — checks
// their outputs, and prints every metric by name with its unit. The last
// stdout line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run repeats the suite traced and reports the per-layer metrics, writing
// its spans to --out. See README.md for the workloads and the metric map.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"catalog_s", "s"},
	{"overload_fcfs_jobs_per_s", "1/s"},
	{"overload_sjf_jobs_per_s", "1/s"},
	{"overload_easybf_jobs_per_s", "1/s"},
	{"overload_fairshare_jobs_per_s", "1/s"},
	{"overload_cost_growth", "ratio"},
	{"stream_jobs_per_s", "1/s"},
	{"serve_run_p50_ms", "ms"},
	{"serve_job_p50_ms", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, with one
// catalog.<id>_s per experiment of the catalog.
func perLayer(catalog []string) []metricDef {
	defs := []metricDef{
		{"workload.setup_s", "s"},
		{"workload.gen_ns_per_job", "ns"},
		{"workload.feed_s", "s"},
		{"sim.events", "count"},
		{"sim.kernel_s", "s"},
		{"sched.dispatch_s", "s"},
		{"sched.dispatch_calls", "count"},
		{"sched.dispatch_us_per_call", "us"},
		{"sched.task_finish_s", "s"},
		{"sched.job_arrive_s", "s"},
	}
	for _, id := range catalog {
		defs = append(defs, metricDef{"catalog." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"exec.worker_busy_ratio", "ratio"},
		metricDef{"exec.queue_wait_ms", "ms"},
		metricDef{"report.encode_ms", "ms"},
		metricDef{"api.run_hit_ms", "ms"},
		metricDef{"api.cache_hit_ratio", "ratio"},
		metricDef{"api.server_ms", "ms"},
		metricDef{"api.rejected", "count"},
		metricDef{"serve.gen_late_ms", "ms"},
		metricDef{"serve.run_tail_ms", "ms"},
		metricDef{"serve.job_tail_ms", "ms"},
	)
}

//go:embed refs.json
var refsJSON []byte

// loadRefs returns the recorded outputs of one input set.
func loadRefs(class int64) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &all); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return all[strconv.FormatInt(class, 10)], nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one benchmark invocation measured.
type outcome struct {
	result
	defs  []metricDef
	notes []string
	errs  []string
	trace *traceDoc // traced runs only
}

// traceDoc is the file a traced run writes: its spans, the self time of
// each layer, the kernel profiles and the tracing overhead.
type traceDoc struct {
	Run      string                            `json:"run"`
	Workload string                            `json:"workload"`
	Seed     int64                             `json:"seed"`
	SelfS    map[string]float64                `json:"self_time_s"`
	Overhead map[string][3]float64             `json:"overhead"` // metric -> untraced, traced, traced-untraced
	Kernel   map[string]map[string]handlerTime `json:"kernel_profile"`
	Notes    []string                          `json:"notes"`
	Spans    []span                            `json:"spans"`
}

// execute runs the suite once untraced and, when traced, once more with
// tracing on, and assembles the reported metrics.
func execute(cfg config, home string, seed int64, traced bool, refs map[string]string) (*outcome, error) {
	class := inputSeed(seed)
	plain := newPass(cfg, home, class, refs, false)
	if err := plain.run(); err != nil {
		return nil, err
	}
	out := &outcome{defs: endToEnd}
	values, passes := plain.e2e, []*pass{plain}
	if traced {
		tp := newPass(cfg, home, class, refs, true)
		if err := tp.run(); err != nil {
			return nil, err
		}
		out.defs = perLayer(catalogIDs(cfg.Registry))
		values, passes = tp.layer, append(passes, tp)
		doc := &traceDoc{
			Run: tp.tr.run, Workload: home, Seed: seed,
			SelfS: selfTimes(tp.tr.spans), Overhead: map[string][3]float64{},
			Kernel: tp.profiles, Notes: tp.notes, Spans: tp.tr.spans,
		}
		for _, d := range endToEnd {
			u, t := plain.e2e[d.name], tp.e2e[d.name]
			doc.Overhead[d.name] = [3]float64{u, t, t - u}
		}
		out.trace = doc
	}
	for _, p := range passes {
		out.Attempted += p.tally.attempted
		out.Failed += p.tally.failed
		out.errs = append(out.errs, p.tally.errs...)
	}
	out.notes = passes[len(passes)-1].notes
	out.Metrics = map[string]metricValue{}
	missing := 0
	for _, d := range out.defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing++
			continue
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	if missing > 0 && out.Failed == 0 {
		// A metric with no failed check behind it is a benchmark fault.
		out.Attempted++
		out.Failed++
		out.errs = append(out.errs, fmt.Sprintf("%d metrics not measured", missing))
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	home := fs.String("workload", "", "workload: catalog, sched-overload, sched-stream or serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 6, "length of the serve open-loop window in seconds")
	trace := fs.Int("trace", 0, "1: run traced and report the per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for trace files")
	record := fs.String("record-refs", "", "record the reference outputs of every input set into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := defaultConfig(*seconds)
	if *record != "" {
		if err := recordRefs(cfg, *record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(components, *home) || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", components)
		return 2
	}
	refs, err := loadRefs(inputSeed(*seed))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := execute(cfg, *home, *seed, *trace == 1, refs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if out.trace != nil {
		path, err := writeTrace(*outDir, out.trace)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printSelfTimes(stderr, out.trace)
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	for _, e := range out.errs {
		fmt.Fprintln(stderr, "perfbench: FAILED:", e)
	}
	for _, d := range out.defs {
		if m, ok := out.Metrics[d.name]; ok {
			fmt.Fprintf(stdout, "%-32s %16.6f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func writeTrace(dir string, doc *traceDoc) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", doc.Workload, doc.Seed))
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

func printSelfTimes(w io.Writer, doc *traceDoc) {
	layers := make([]string, 0, len(doc.SelfS))
	for l := range doc.SelfS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintln(w, "self time by layer (traced pass):")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.4f s\n", l, doc.SelfS[l])
	}
	fmt.Fprintln(w, "tracing overhead (untraced, traced, difference):")
	for _, d := range endToEnd {
		o := doc.Overhead[d.name]
		fmt.Fprintf(w, "  %-32s %14.4f %14.4f %+14.4f %s\n", d.name, o[0], o[1], o[2], d.unit)
	}
}

// recordRefs runs the catalog and sched components of every input set and
// writes their outputs as the references later runs are checked against.
func recordRefs(cfg config, path string, log io.Writer) error {
	cfg.ServeWindow = 0
	cfg.SetupTrials = 1
	all := map[string]map[string]string{}
	for class := int64(0); class < refClasses; class++ {
		p := newPass(cfg, wCatalog, class, nil, false)
		p.record = map[string]string{}
		if err := p.run(); err != nil {
			return err
		}
		if p.tally.failed > 0 {
			return errors.New(p.tally.errs[0])
		}
		all[strconv.FormatInt(class, 10)] = p.record
		fmt.Fprintf(log, "recorded input set %d (%d outputs)\n", class, len(p.record))
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"atlarge"
	"atlarge/internal/cluster"
	"atlarge/internal/exec"
	"atlarge/internal/sched"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// The four components. Every run executes all four, round by round (see
// run), since every run reports every end-to-end metric; the --workload flag names the
// component whose heap and sched, sim and workload layers the run
// attributes.
const (
	wCatalog  = "catalog"
	wOverload = "sched-overload"
	wStream   = "sched-stream"
	wServe    = "serve"
)

var components = []string{wCatalog, wOverload, wStream, wServe}

// overloadPolicies are the sched-overload policies, by registry name, with
// the metric-name form of each.
var overloadPolicies = []struct{ name, metric string }{
	{"fcfs", "fcfs"}, {"sjf", "sjf"}, {"easy-bf", "easybf"}, {"fairshare", "fairshare"},
}

// streamPolicies run the sched-stream population.
var streamPolicies = []string{"fcfs", "fairshare"}

// Fixed sizes of the components.
const (
	// catalog: the catalog runs under this many seeds per run.
	catalogRuns = 3
	// sched-overload: 3 machines of 8 cores take a 1000-client syn
	// population at its calibrated rate at offered load ≈1.45×.
	overloadMachines, overloadCores = 3, 8
	// sched-stream: 3 machines of 16 cores take the same calibrated rate
	// at ρ≈0.72.
	streamMachines, streamCores = 3, 16
	// streamSeeds is how many populations a run drains; see stream.
	streamSeeds = 5
)

// parallel is the worker and client-connection count: one per core.
var parallel = runtime.NumCPU()

// config holds the sizes tests shrink; defaultConfig is the benchmark.
type config struct {
	// Registry is the catalog RunAll executes; nil means the program's
	// default catalog.
	Registry *atlarge.Registry

	OverloadClients int
	OverloadN       int // and 4N jobs
	OverloadSeeds   int // populations per run, see overload

	StreamClients int
	StreamJobs    int // per policy and population

	// ServeWindow is how long the serve open loop issues operations, at
	// ServeRate per second.
	ServeWindow time.Duration
	ServeRate   float64

	// SetupTrials is how many times a run sets everything up; setup_s is
	// their median.
	SetupTrials int
}

func defaultConfig(seconds int) config {
	return config{
		OverloadClients: 1000,
		// N is 500, not 1000: fairshare's cost grows with the square of the
		// job count, and at 4N = 4000 one of its runs took 2 s, too long
		// for six repeats per run.
		OverloadN: 500,
		// One population's cost varies by 11–12% (coefficient of
		// variation, the fastest of six repeats of each of 30 populations);
		// summed over 3 populations, sjf's spread over ten input sets was
		// 0.15 before any host noise. 15 populations bring that to ~0.07.
		OverloadSeeds: 15,
		// 60k jobs per run keep each repeat under half a second.
		StreamClients: 1_000_000,
		StreamJobs:    60_000,
		ServeWindow:   time.Duration(seconds) * time.Second,
		// A sixth of the ~240 operations/s at which latency starts to
		// climb on 2 cores; 40/s over 8 s gives 120 samples per latency
		// metric, so each tail is p91.7.
		ServeRate:   40,
		SetupTrials: 5,
	}
}

// refClasses is how many distinct input sets the benchmark has: the seed
// picks one, and refs.json records the correct outputs of each.
const refClasses = 16

// inputSeed maps a benchmark seed onto its recorded input set.
func inputSeed(seed int64) int64 { return ((seed % refClasses) + refClasses) % refClasses }

// tally counts checked operations; a failed check is never timed as a
// success.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// pass is one execution of the whole suite, traced or not.
type pass struct {
	cfg    config
	home   string
	seed   int64 // input seed
	refs   map[string]string
	record map[string]string // non-nil: record outputs instead of checking
	tr     *tracer
	tally  tally

	e2e   map[string]float64
	layer map[string]float64
	notes []string // human-readable context (tail percentiles, checks)

	server *apiServer // started by setup

	// kernel sections measured in a traced pass
	profiles   map[string]map[string]handlerTime
	runSourceS map[string]float64 // traced RunSource wall per component
}

func newPass(cfg config, home string, seed int64, refs map[string]string, traced bool) *pass {
	p := &pass{
		cfg: cfg, home: home, seed: seed, refs: refs,
		e2e: map[string]float64{}, layer: map[string]float64{},
		profiles: map[string]map[string]handlerTime{}, runSourceS: map[string]float64{},
	}
	if traced {
		p.tr = newTracer(fmt.Sprintf("%s/seed-%d/%d", home, seed, time.Now().UnixNano()))
	}
	return p
}

// schedScope is the sched component whose workload and kernel layers a run
// attributes: the home component when it is one, else sched-stream.
func schedScope(home string) string {
	if home == wOverload {
		return wOverload
	}
	return wStream
}

// checkRef compares an output with the reference recorded for this input
// set, or records it.
func (p *pass) checkRef(key, got string) error {
	if p.record != nil {
		p.record[key] = got
		return nil
	}
	want, ok := p.refs[key]
	if !ok {
		return fmt.Errorf("%s: no reference recorded", key)
	}
	if got != want {
		return fmt.Errorf("%s: output %s, reference %s", key, got, want)
	}
	return nil
}

// rounds is how many rounds a run is cut into; see run.
const rounds = 6

// component is one of the four components, cut into one task per round.
type component struct {
	name   string
	tasks  []func(parent int) error // one per round, nil for none; an error ends the run
	finish func() error             // computes the metrics once every task ran
	broken bool                     // a check failed: skip the rest, report nothing

	prof   *kernelProfile // traced pass, profiled components only
	heaps  []float64      // peak live heap of each task, MiB
	events uint64         // kernel events fired in the tasks
}

// run executes setup, then the rounds, each a task of every
// component. The host this benchmark runs on shares its cores, and its
// speed swings by a third over tens of seconds: a component measured in one
// block took the host's speed of that block with it. Spread over the
// rounds, every metric samples the whole run.
func (p *pass) run() error {
	root := p.tr.begin(0, "bench", "run "+p.home)
	defer p.tr.end(root)
	if err := p.setup(root); err != nil {
		return err
	}
	defer p.teardown()
	comps := []*component{p.catalog(), p.overload(), p.stream(), p.serve()}
	for _, c := range comps {
		if p.tr != nil && (c.name == p.home || c.name == schedScope(p.home)) {
			c.prof = newKernelProfile()
		}
	}
	for r := 0; r < rounds; r++ {
		for _, c := range comps {
			if c.tasks[r] == nil || c.broken {
				continue
			}
			if err := p.runTask(root, c, r); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	for _, c := range comps {
		if c.name == p.home {
			p.e2e["peak_heap_mib"] = mean(c.heaps)
			p.layer["sim.events"] = float64(c.events)
		}
		if c.prof != nil {
			p.profiles[c.name] = c.prof.rows()
		}
		if c.broken {
			continue
		}
		if err := c.finish(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	p.attribute(root)
	return nil
}

// runTask runs c's task of round r, sampling the heap when c is the home
// component and profiling the kernel when c is profiled.
func (p *pass) runTask(root int, c *component, r int) error {
	// Start every task from a collected heap with the freed pages already
	// returned, so neither the last task's garbage nor the background
	// scavenger releasing it runs inside a measurement.
	debug.FreeOSMemory()
	if c.prof != nil {
		c.prof.attach()
		defer c.prof.detach()
	}
	var heap *heapSampler
	events0 := sim.GlobalEventsFired()
	if c.name == p.home {
		heap = startHeapSampler()
	}
	id := p.tr.begin(root, "bench", c.name)
	err := c.tasks[r](id)
	p.tr.end(id)
	if heap != nil {
		c.heaps = append(c.heaps, heap.stop())
		c.events += sim.GlobalEventsFired() - events0
	}
	return err
}

// setup sets the run up SetupTrials times — the first sched-stream
// population source and the started, warmed API server — and keeps the
// last server. The source is discarded: each population is rebuilt,
// untimed, right before the run that drains it, so only one is resident at
// a time. The catalog and sched-overload inputs are cheap and built per
// call.
func (p *pass) setup(parent int) error {
	var trials []float64
	for i := 0; i < p.cfg.SetupTrials; i++ {
		if i > 0 {
			p.teardown()
			debug.FreeOSMemory()
		}
		id := p.tr.begin(parent, "bench", "setup")
		start := time.Now()
		sid := p.tr.begin(id, "workload", "workload.Population.Source")
		src, err := p.streamPopulation(0).Source()
		p.tr.end(sid)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		src.Close()
		srv, err := startServer(p.seed, p.tr, id)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		p.server = srv
		trials = append(trials, time.Since(start).Seconds())
		p.tr.end(id)
	}
	p.e2e["setup_s"] = median(trials)
	return nil
}

func (p *pass) teardown() {
	if p.server != nil {
		if err := p.server.close(); err != nil {
			p.notes = append(p.notes, "server shutdown: "+err.Error())
		}
		p.server = nil
	}
}

// subSeed derives the k-th of n seeds of the input set, for components that
// average over several inputs: the cost of one catalog or population
// varies with its seed by up to ~10% (more under overload), and averaging
// keeps the spread across seeds within the bounds.
func (p *pass) subSeed(k, n int) int64 { return p.seed*int64(n) + int64(k) }

// catalog runs every registered experiment and encodes the run document —
// the `atlarge run --all --format json` job — under catalogRuns seeds, in
// rounds spread over the run, checking each document's digest against the
// reference. catalog_s is the fastest of the runs; the per-experiment
// metrics are medians.
func (p *pass) catalog() *component {
	c := &component{name: wCatalog, tasks: make([]func(int) error, rounds)}
	samples := map[string][]float64{}
	for i := 0; i < catalogRuns; i++ {
		seed := p.subSeed(i, catalogRuns)
		c.tasks[i*rounds/catalogRuns] = func(parent int) error {
			c.broken = !p.tally.check(p.catalogOnce(parent, seed, samples))
			return nil
		}
	}
	c.finish = func() error {
		for name, xs := range samples {
			if name == "catalog_s" {
				p.e2e[name] = slices.Min(xs)
			} else {
				p.layer[name] = median(xs)
			}
		}
		return nil
	}
	return c
}

func (p *pass) catalogOnce(parent int, seed int64, samples map[string][]float64) error {
	var busy time.Duration
	var spans func(int, string, exec.TaskSpan, error)
	runID := p.tr.begin(parent, "atlarge", "atlarge.Runner.RunAll")
	var epoch time.Time
	if p.tr != nil {
		// Calls arrive one at a time from the runner's collecting goroutine.
		spans = func(_ int, id string, sp exec.TaskSpan, _ error) {
			busy += sp.End - sp.Start
			p.tr.add(runID, "experiment", id, epoch.Add(sp.Start), epoch.Add(sp.End))
		}
	}
	r := &atlarge.Runner{Registry: p.cfg.Registry, Parallelism: parallel, SpanObserver: spans}
	start := time.Now()
	epoch = start
	results, err := r.RunAll(seed)
	ran := time.Now()
	p.tr.end(runID)
	if err != nil {
		return err
	}

	encID := p.tr.begin(parent, "report", "atlarge.RunDocument.WriteJSON")
	var buf bytes.Buffer
	err = atlarge.NewRunDocument(seed, results).WriteJSON(&buf)
	end := time.Now()
	p.tr.end(encID)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	if err := p.checkRef(fmt.Sprintf("catalog/%d", seed), hex.EncodeToString(sum[:])); err != nil {
		return err
	}

	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	add("catalog_s", end.Sub(start).Seconds())
	add("report.encode_ms", millis(end.Sub(ran)))
	for _, res := range results {
		add("catalog."+res.ID+"_s", res.Elapsed.Seconds())
	}
	if p.tr != nil {
		add("exec.worker_busy_ratio", busy.Seconds()/(float64(parallel)*ran.Sub(start).Seconds()))
	}
	return nil
}

// overloadPopulation is the k-th sched-overload population of the input
// set.
func (p *pass) overloadPopulation(k int) *workload.Population {
	return &workload.Population{
		Clients: p.cfg.OverloadClients,
		Mix:     workload.SingleClass(workload.ClassSynthetic),
		Seed:    p.subSeed(k, p.cfg.OverloadSeeds),
	}
}

// streamPopulation is the k-th sched-stream population of the input set.
func (p *pass) streamPopulation(k int) *workload.Population {
	return &workload.Population{
		Clients: p.cfg.StreamClients,
		Mix:     workload.SingleClass(workload.ClassSynthetic),
		Skew:    workload.Skew{Kind: "zipf"},
		Seed:    p.subSeed(k, streamSeeds),
	}
}

// schedDigest renders the aggregates a sched run must reproduce exactly.
func schedDigest(r *sched.Result) string {
	return fmt.Sprintf("completed=%d response=%v slowdown=%v wait=%v util=%v makespan=%v",
		r.Completed, r.MeanResponse, r.MeanSlowdown, r.MeanWait, r.UtilizationMean, r.Makespan)
}

// checkSched applies the sched correctness gates: every job taken
// completed, and the aggregates match the reference for this input set.
func (p *pass) checkSched(key string, res *sched.Result, err error, jobs int) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if res.Completed != jobs {
		return fmt.Errorf("%s: Completed = %d, want %d", key, res.Completed, jobs)
	}
	return p.checkRef(key, schedDigest(res))
}

// runSource times one streamed simulation of jobs from src.
func (p *pass) runSource(parent int, component, policy string, src workload.JobSource, machines, cores, jobs int) (time.Duration, *sched.Result, error) {
	pol, err := sched.PolicyByName(policy)
	if err != nil {
		return 0, nil, err
	}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, machines, cores)
	s := sched.NewSimulator(env, nil, pol, p.seed)
	id := p.tr.begin(parent, "sched", "sched.Simulator.RunSource "+policy)
	start := time.Now()
	res, err := s.RunSource(workload.Take(src, jobs))
	d := time.Since(start)
	p.tr.end(id)
	p.runSourceS[component] += d.Seconds()
	return d, res, err
}

// overload runs each policy at N and 4N jobs on the saturated cluster, on
// OverloadSeeds populations derived from the input seed, spread evenly
// over the rounds, and sums the times over them. One population's queue
// dynamics differ a lot from seed to seed (fairshare's N→4N cost growth
// ranged 3.4–5.4 over eight seeds), so a few would make the spread across
// seeds exceed any usable bound. Every run must reproduce the reference;
// a policy with a failed check reports nothing.
func (p *pass) overload() *component {
	c := &component{name: wOverload, tasks: make([]func(int) error, rounds)}
	sizes := [2]int{p.cfg.OverloadN, 4 * p.cfg.OverloadN}
	secs := make([][2]float64, len(overloadPolicies))
	failed := make([]bool, len(overloadPolicies))
	for r := range c.tasks {
		c.tasks[r] = func(parent int) error {
			for k := r; k < p.cfg.OverloadSeeds; k += rounds {
				for i, pol := range overloadPolicies {
					for j, jobs := range sizes {
						if failed[i] {
							continue
						}
						t, err := p.overloadRun(parent, pol.name, k, jobs)
						if err != nil {
							return err
						}
						failed[i] = t == 0
						secs[i][j] += t
					}
				}
			}
			return nil
		}
	}
	c.finish = func() error {
		growth, complete := 0.0, true
		for i, pol := range overloadPolicies {
			if failed[i] {
				complete = false
				continue
			}
			s := secs[i]
			n := float64(p.cfg.OverloadSeeds)
			p.e2e["overload_"+pol.metric+"_jobs_per_s"] = n * float64(sizes[1]) / s[1]
			growth = max(growth, (s[1]/float64(sizes[1]))/(s[0]/float64(sizes[0])))
		}
		if complete {
			p.e2e["overload_cost_growth"] = growth
		}
		return nil
	}
	return c
}

// overloadRun times one (policy, population, size) run and returns its wall
// time in seconds, or 0 when it failed its checks.
func (p *pass) overloadRun(parent int, policy string, k, jobs int) (float64, error) {
	key := fmt.Sprintf("overload/%s/p%d/%d", policy, k, jobs)
	src, err := p.overloadPopulation(k).Source()
	if err != nil {
		return 0, err
	}
	d, res, err := p.runSource(parent, wOverload, policy, src, overloadMachines, overloadCores, jobs)
	src.Close()
	if !p.tally.check(p.checkSched(key, res, err, jobs)) {
		return 0, nil
	}
	return d.Seconds(), nil
}

// stream runs streamSeeds million-client populations, spread evenly over
// the rounds, through each stream policy.
func (p *pass) stream() *component {
	c := &component{name: wStream, tasks: make([]func(int) error, rounds)}
	var total time.Duration
	runs := 0
	for r := range c.tasks {
		c.tasks[r] = func(parent int) error {
			for k := r; k < streamSeeds; k += rounds {
				for _, pol := range streamPolicies {
					key := fmt.Sprintf("stream/%s/p%d/%d", pol, k, p.cfg.StreamJobs)
					src, err := p.streamPopulation(k).Source()
					if err != nil {
						return err
					}
					d, res, err := p.runSource(parent, wStream, pol, src, streamMachines, streamCores, p.cfg.StreamJobs)
					src.Close()
					if c.broken = !p.tally.check(p.checkSched(key, res, err, p.cfg.StreamJobs)); c.broken {
						return nil
					}
					total += d
					runs++
				}
			}
			return nil
		}
	}
	c.finish = func() error {
		p.e2e["stream_jobs_per_s"] = float64(runs*p.cfg.StreamJobs) / total.Seconds()
		return nil
	}
	return c
}

// attribute fills the per-layer metrics of the sched, sim and workload
// layers from the traced sections.
func (p *pass) attribute(root int) {
	if p.tr == nil {
		return
	}
	home := p.profiles[p.home]
	dispatch := home["dispatch"]
	p.layer["sched.dispatch_s"] = dispatch.WallS
	p.layer["sched.dispatch_calls"] = float64(dispatch.Fired)
	if dispatch.Fired > 0 {
		p.layer["sched.dispatch_us_per_call"] = dispatch.WallS * 1e6 / float64(dispatch.Fired)
	}
	p.layer["sched.task_finish_s"] = home["task-finish"].WallS
	p.layer["sched.job_arrive_s"] = home["job-arrive"].WallS

	scope := schedScope(p.home)
	rows := p.profiles[scope]
	p.layer["workload.feed_s"] = rows["feed"].WallS
	p.layer["sim.kernel_s"] = p.runSourceS[scope] - handlerTotal(rows)
	if rs := p.runSourceS[p.home]; rs > 0 {
		p.notes = append(p.notes, fmt.Sprintf("design check: sched.dispatch_s is %.1f%% of traced RunSource time on %s",
			100*dispatch.WallS/rs, p.home))
	}
	slowest := ""
	for _, id := range catalogIDs(p.cfg.Registry) {
		if slowest == "" || p.layer["catalog."+id+"_s"] > p.layer["catalog."+slowest+"_s"] {
			slowest = id
		}
	}
	p.notes = append(p.notes, "design check: the largest per-experiment time is catalog."+slowest+"_s")
	p.measureGeneration(root, scope)
}

// measureGeneration times Population.Source and a simulator-free drain of
// the scope component's population.
func (p *pass) measureGeneration(parent int, scope string) {
	pop, jobs := p.streamPopulation(0), p.cfg.StreamJobs
	if scope == wOverload {
		pop, jobs = p.overloadPopulation(0), 4*p.cfg.OverloadN
	}
	id := p.tr.begin(parent, "workload", "workload.Population.Source")
	start := time.Now()
	src, err := pop.Source()
	made := time.Now()
	p.tr.end(id)
	if !p.tally.check(err) {
		return
	}
	defer src.Close()
	id = p.tr.begin(parent, "workload", "workload.Take/Next drain")
	take := workload.Take(src, jobs)
	n := 0
	for take.Next() != nil {
		n++
	}
	end := time.Now()
	p.tr.end(id)
	if !p.tally.check(checkCount("generation", n, jobs)) {
		return
	}
	p.layer["workload.setup_s"] = made.Sub(start).Seconds()
	p.layer["workload.gen_ns_per_job"] = float64(end.Sub(made).Nanoseconds()) / float64(jobs)
}

func checkCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d jobs, want %d", what, got, want)
	}
	return nil
}

// catalogIDs lists the experiments the default catalog registers.
func catalogIDs(reg *atlarge.Registry) []string {
	if reg == nil {
		reg = atlarge.DefaultRegistry()
	}
	return reg.IDs()
}

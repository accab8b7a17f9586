package atlarge

// Ablation benchmarks probe the design choices behind the headline results:
// the runtime-estimate noise that drives Table 9's big-data regret, the
// active-set size that trades selection cost for quality, the 2fast group
// size, and the server count behind the Area-of-Simulation advantage.

import (
	"math/rand"
	"testing"

	"atlarge/internal/autoscale"
	"atlarge/internal/cluster"
	"atlarge/internal/graphproc"
	"atlarge/internal/mmog"
	"atlarge/internal/p2p"
	"atlarge/internal/portfolio"
	"atlarge/internal/sched"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// noisyTrace builds a big-data-shaped trace with a chosen estimate noise and
// compressed submissions for contention.
func noisyTrace(noise float64, jobs int, seed int64) *workload.Trace {
	g := workload.StandardGenerator(workload.ClassBigData)
	g.EstimateNoise = noise
	tr := g.Generate(jobs, rand.New(rand.NewSource(seed)))
	for _, j := range tr.Jobs {
		j.Submit /= 30
	}
	return tr
}

// BenchmarkAblationEstimateNoise measures how runtime-estimate noise
// corrupts portfolio selection — the mechanism behind the POSUM finding.
// Reported per noise level: realized regret vs the best static policy, and
// the fraction of windows where the estimate-driven choice disagrees with an
// oracle that simulates true runtimes.
func BenchmarkAblationEstimateNoise(b *testing.B) {
	envFactory := func() *cluster.Environment { return cluster.StandardEnvironment(cluster.KindCluster) }
	const windowSize = 20
	for i := 0; i < b.N; i++ {
		for _, noise := range []float64{0, 1.0, 2.5, 5.0} {
			tr := noisyTrace(noise, 80, 7)
			s := &portfolio.Scheduler{
				Policies:   sched.DefaultPortfolio(),
				Selector:   portfolio.Exhaustive{},
				WindowSize: windowSize,
				EnvFactory: envFactory,
				Seed:       7,
			}
			res, err := s.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			base, err := s.StaticBaselines(tr)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			first := true
			for _, v := range base {
				if first || v < best {
					best = v
					first = false
				}
			}
			regret := 0.0
			if best > 0 {
				regret = res.MeanSlowdown/best - 1
			}
			// Oracle disagreement: per window, which policy would win with
			// true runtimes?
			sorted := &workload.Trace{Jobs: append([]*workload.Job(nil), tr.Jobs...)}
			sorted.SortBySubmit()
			disagree := 0
			for w, choice := range res.Choices {
				lo, hi := w*windowSize, (w+1)*windowSize
				if hi > len(sorted.Jobs) {
					hi = len(sorted.Jobs)
				}
				window := &workload.Trace{Jobs: sorted.Jobs[lo:hi]}
				bestName, bestVal := "", 0.0
				for _, p := range sched.DefaultPortfolio() {
					r, err := sched.NewSimulator(envFactory(), window, p, 7+int64(w)).Run()
					if err != nil {
						b.Fatal(err)
					}
					if bestName == "" || r.MeanSlowdown < bestVal {
						bestName, bestVal = p.Name(), r.MeanSlowdown
					}
				}
				if choice.Policy != bestName {
					disagree++
				}
			}
			if i == 0 {
				b.Logf("estimate-noise=%.1f portfolio=%.3f best-static=%.3f regret=%+.1f%% oracle-disagreement=%d/%d windows",
					noise, res.MeanSlowdown, best, 100*regret, disagree, len(res.Choices))
			}
		}
	}
}

// BenchmarkAblationActiveSet measures the selection-cost/quality trade-off
// of the active-set selector (the Deng'13 SC design decision).
func BenchmarkAblationActiveSet(b *testing.B) {
	tr := workload.StandardGenerator(workload.ClassScientific).Generate(80, rand.New(rand.NewSource(3)))
	for _, j := range tr.Jobs {
		j.Submit /= sim.Time(20)
	}
	for i := 0; i < b.N; i++ {
		selectors := []portfolio.Selector{
			portfolio.Exhaustive{},
			portfolio.NewActiveSet(4, 5),
			portfolio.NewActiveSet(2, 5),
			portfolio.NewQLearning(0.1, 0.5),
		}
		for _, sel := range selectors {
			s := &portfolio.Scheduler{
				Policies:   sched.DefaultPortfolio(),
				Selector:   sel,
				WindowSize: 20,
				EnvFactory: func() *cluster.Environment { return cluster.StandardEnvironment(cluster.KindCluster) },
				Seed:       3,
			}
			res, err := s.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("selector=%-16s sim-runs=%-3d slowdown=%.3f distinct-picked=%d",
					res.Selector, res.TotalSimRuns, res.MeanSlowdown, res.DistinctPicked)
			}
		}
	}
}

// BenchmarkAblationTwoFastGroupSize sweeps the 2fast group size: more
// helpers add dedicated upload, with diminishing returns once the
// collector's download link saturates.
func BenchmarkAblationTwoFastGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, size := range []int{2, 4, 8} {
			res, err := p2p.RunTwoFastStudy(20, size, 5)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("group-size=%d plain=%.0fs 2fast=%.0fs speedup=%.2fx",
					size, res.PlainMeanS, res.TwoFastMeanS, res.Speedup)
			}
		}
	}
}

// BenchmarkAblationGraphScaling sweeps worker counts for the vertex-parallel
// graph engine: barrier-bound deep traversals (lattice BFS) saturate far
// earlier than full-sweep PageRank — the strong-scaling story behind the
// elastic-graph-processing research line.
func BenchmarkAblationGraphScaling(b *testing.B) {
	lattice, err := graphproc.Generate(graphproc.DatasetLattice, 2500, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	rmat, err := graphproc.Generate(graphproc.DatasetRMAT, 2500, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	_, latProf, err := graphproc.BFS(lattice, 0)
	if err != nil {
		b.Fatal(err)
	}
	_, prProf, err := graphproc.PageRank(rmat, 0.85, 20)
	if err != nil {
		b.Fatal(err)
	}
	base := graphproc.Engine{Name: "vertex-par", PerEdge: 1e-4, PerActive: 2e-4, PerStep: 0.8, PerCompute: 1e-4, Workers: 8}
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	for i := 0; i < b.N; i++ {
		latCurve := graphproc.ScalingCurve(base, latProf, lattice.M(), counts)
		prCurve := graphproc.ScalingCurve(base, prProf, rmat.M(), counts)
		if i == 0 {
			for j, c := range counts {
				b.Logf("workers=%-3d lattice-BFS speedup=%.2f  rmat-PageRank speedup=%.2f",
					c, latCurve[j].Speedup, prCurve[j].Speedup)
			}
			b.Logf("saturation: lattice-BFS at %d workers, rmat-PageRank at %d workers",
				graphproc.SaturationWorkers(latCurve, 0.05), graphproc.SaturationWorkers(prCurve, 0.05))
		}
	}
}

// BenchmarkAblationBootFailures sweeps VM boot-failure rates in the
// autoscaling engine: reactive provisioning recovers, at growing response
// cost.
func BenchmarkAblationBootFailures(b *testing.B) {
	tr := workload.StandardGenerator(workload.ClassScientific).Generate(12, rand.New(rand.NewSource(4)))
	for i := 0; i < b.N; i++ {
		for _, rate := range []float64{0, 0.25, 0.5} {
			cfg := autoscale.DefaultVitroConfig()
			cfg.Seed = 4
			cfg.BootFailureRate = rate
			st, err := autoscale.Run(cfg, autoscale.React{}, tr)
			if err != nil {
				b.Fatal(err)
			}
			m := autoscale.ComputeMetrics(st)
			if i == 0 {
				b.Logf("boot-failure-rate=%.2f jobs=%d mean-response=%.0fs accuracy-under=%.4f",
					rate, st.JobsDone, m.MeanResponse, m.AccuracyUnder)
			}
		}
	}
}

// BenchmarkAblationAoSServers sweeps server counts for the AoS-vs-zones
// advantage: static zoning cannot use extra servers when load concentrates
// in one hot zone, AoS can.
func BenchmarkAblationAoSServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, servers := range []int{4, 16, 64} {
			zones := mmog.MaxSupportedPlayers(mmog.ZonePartitioner{}, servers, 3000, 1)
			aos := mmog.MaxSupportedPlayers(mmog.AoSPartitioner{}, servers, 3000, 1)
			gain := 0.0
			if zones > 0 {
				gain = float64(aos) / float64(zones)
			}
			if i == 0 {
				b.Logf("servers=%-3d zones=%-6d aos=%-6d gain=%.1fx", servers, zones, aos, gain)
			}
		}
	}
}

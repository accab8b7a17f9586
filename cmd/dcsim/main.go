// Command dcsim runs one datacenter scheduling simulation: a workload class
// on an environment under either a static policy or the portfolio scheduler,
// and prints job-level metrics.
//
// Usage:
//
//	dcsim -workload Sci -env CL -policy portfolio -jobs 200 -seed 1 [-replicas R] [-format text|json]
//
// With -replicas > 1 the simulation repeats under derived seeds and the
// metrics are reported as mean ± half-width of a 95% confidence interval.
// Each replica produces a typed atlarge.Report; replicas aggregate in value
// space through atlarge.AggregateReports (Results API v2), and the JSON
// output keeps its original flat schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"atlarge"
	"atlarge/internal/cluster"
	"atlarge/internal/portfolio"
	"atlarge/internal/sched"
	"atlarge/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}
}

// metrics is the flat JSON document: one replica's outcome, or (with CI
// set) the aggregate. The schema predates the typed Results API and is kept
// stable for downstream tooling.
type metrics struct {
	Policy       string  `json:"policy"`
	Workload     string  `json:"workload"`
	Environment  string  `json:"environment"`
	Jobs         int     `json:"jobs"`
	Replicas     int     `json:"replicas"`
	MeanSlowdown float64 `json:"mean_slowdown"`
	MeanResponse float64 `json:"mean_response_s"`
	// CI half-widths (95%, normal approximation); zero for one replica.
	SlowdownCI float64 `json:"mean_slowdown_ci"`
	ResponseCI float64 `json:"mean_response_s_ci"`
}

func run() error {
	var (
		workloadName = flag.String("workload", "Sci", "workload class: Syn Sci CE BC BD G Ind")
		envName      = flag.String("env", "CL", "environment: CL G CD MCD GDC")
		policyName   = flag.String("policy", "portfolio", "policy name or 'portfolio'")
		jobs         = flag.Int("jobs", 200, "number of jobs")
		seed         = flag.Int64("seed", 1, "random seed")
		replicas     = flag.Int("replicas", 1, "replicas under derived seeds, aggregated as mean±95% CI")
		format       = flag.String("format", "text", "output format: text or json")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	if *replicas < 1 {
		*replicas = 1
	}

	class, err := workload.ClassByName(*workloadName)
	if err != nil {
		return err
	}
	kind, err := cluster.KindByName(*envName)
	if err != nil {
		return err
	}
	if !strings.EqualFold(*policyName, "portfolio") {
		if _, err := sched.PolicyByName(*policyName); err != nil {
			return fmt.Errorf("%w (or %q)", err, "portfolio")
		}
	}

	reports := make([]*atlarge.Report, 0, *replicas)
	for rep := 0; rep < *replicas; rep++ {
		// Replica 0 runs the base seed (so a single run reproduces the
		// classic -seed behavior); further replicas use the shared seed
		// derivation to decorrelate them across adjacent base seeds.
		repSeed := *seed
		if rep > 0 {
			repSeed = atlarge.DeriveSeed(*seed, "dcsim", rep)
		}
		r, err := runOnce(class, kind, *policyName, *jobs, repSeed)
		if err != nil {
			return err
		}
		reports = append(reports, r)
	}
	summary := reports[0]
	if agg := atlarge.AggregateReports(reports); agg != nil {
		summary = agg
	}
	slowdown, _ := summary.Metric("mean_slowdown")
	response, _ := summary.Metric("mean_response_s")

	m := metrics{
		Policy:       *policyName,
		Workload:     class.String(),
		Environment:  kind.String(),
		Jobs:         *jobs,
		Replicas:     *replicas,
		MeanSlowdown: slowdown.Value,
		MeanResponse: response.Value,
		SlowdownCI:   slowdown.CI95,
		ResponseCI:   response.CI95,
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}
	if *replicas > 1 {
		fmt.Printf("%s on %s/%s over %d replicas: mean slowdown %.2f±%.2f, mean response %.0f±%.0fs\n",
			m.Policy, m.Workload, m.Environment, m.Replicas,
			m.MeanSlowdown, m.SlowdownCI, m.MeanResponse, m.ResponseCI)
		return nil
	}
	fmt.Printf("== %s: %s ==\n", summary.ID, summary.Title)
	return summary.WriteText(os.Stdout, "  ")
}

// runOnce executes one simulation replica and returns its typed report.
// Every variant emits mean_slowdown and mean_response_s first, so replica
// documents align for value-space aggregation.
func runOnce(class workload.Class, kind cluster.Kind, policyName string, jobs int, seed int64) (*atlarge.Report, error) {
	tr := workload.StandardGenerator(class).Generate(jobs, rand.New(rand.NewSource(seed)))
	envFactory := func() *cluster.Environment { return cluster.StandardEnvironment(kind) }

	if strings.EqualFold(policyName, "portfolio") {
		s := &portfolio.Scheduler{
			Policies:   sched.DefaultPortfolio(),
			Selector:   portfolio.Exhaustive{},
			WindowSize: 25,
			EnvFactory: envFactory,
			Seed:       seed,
		}
		res, err := s.Run(tr)
		if err != nil {
			return nil, err
		}
		rep := atlarge.NewReport("dcsim", fmt.Sprintf("portfolio scheduler on %s/%s", class, kind))
		rep.AddMetric(atlarge.Metric{Name: "mean_slowdown", Value: res.MeanSlowdown})
		rep.AddMetric(atlarge.Metric{Name: "mean_response_s", Value: res.MeanResponse, Unit: "s"})
		rep.AddMetric(atlarge.Metric{Name: "windows", Value: float64(len(res.Choices))})
		rep.AddMetric(atlarge.Metric{Name: "selection_sims", Value: float64(res.TotalSimRuns)})
		t := rep.AddTable("windows", "window", "policy", "realized_slowdown")
		for _, c := range res.Choices {
			t.AddRow(atlarge.Count(c.Window), atlarge.Label(c.Policy), atlarge.Num(c.Realized, "%.2f"))
		}
		return rep, nil
	}

	policy, err := sched.PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	res, err := sched.NewSimulator(envFactory(), tr, policy, seed).Run()
	if err != nil {
		return nil, err
	}
	rep := atlarge.NewReport("dcsim", fmt.Sprintf("%s on %s/%s", policy.Name(), class, kind))
	rep.AddMetric(atlarge.Metric{Name: "mean_slowdown", Value: res.MeanSlowdown})
	rep.AddMetric(atlarge.Metric{Name: "mean_response_s", Value: float64(res.MeanResponse), Unit: "s"})
	rep.AddMetric(atlarge.Metric{Name: "jobs", Value: float64(res.Completed)})
	rep.AddMetric(atlarge.Metric{Name: "makespan_s", Value: float64(res.Makespan), Unit: "s"})
	rep.AddMetric(atlarge.Metric{Name: "mean_wait_s", Value: res.MeanWait, Unit: "s"})
	rep.AddMetric(atlarge.Metric{Name: "utilization", Value: res.UtilizationMean, HigherBetter: true})
	return rep, nil
}
